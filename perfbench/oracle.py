"""The report a correct `classify` run must produce, built from the
generator's per-record ground truth, and the check that compares an
emitted report document against it.

Nothing here calls roottrace: sender prefixes come from `ipaddress`, qtype
mnemonics from the IANA table below, and leaf categories from the leaf
names, so a defect in the program under test cannot hide in its oracle.
"""

from __future__ import annotations

import ipaddress
from collections import Counter

TOP_K = 10

# IANA query type codes. The year presets draw only A (root-name queries:
# NS); the tests also draw AAAA and TYPE65, which has no mnemonic in the report and
# renders as TYPE<code>.
QTYPE_CODES = {"A": 1, "NS": 2, "AAAA": 28, "TYPE65": 65}
MNEMONICS = {code: name for name, code in QTYPE_CODES.items()}

CATEGORY = {
    "empty": "empty",
    "one_word_minimized": "one_word",
    "one_word_chromium": "one_word",
    "one_word_other": "one_word",
    "valid_tld": "valid_tld",
    "invalid_tld_appletalk": "invalid_tld",
    "invalid_tld_bad_encoding": "invalid_tld",
    "invalid_tld_all_numeric": "invalid_tld",
    "invalid_tld_chromium": "invalid_tld",
    "invalid_tld_other": "invalid_tld",
}
_BY_TLD = ("one_word_minimized", "valid_tld", "invalid_tld_other")
# the default policy counts everything but valid-TLD and minimized queries
_UNEXPECTED = sorted(set(CATEGORY) - {"valid_tld", "one_word_minimized"})


def sender_prefix(source: str) -> str:
    """The /16 (IPv4) or /48 (IPv6) network of a source, compressed."""
    addr = ipaddress.ip_address(source)
    bits = 16 if addr.version == 4 else 48
    return ipaddress.ip_network(f"{addr}/{bits}", strict=False).compressed


class Oracle:
    """Accumulates ground truth for every record a correct run keeps."""

    def __init__(self, senders: bool):
        self.senders = senders
        self.leaves: Counter = Counter()
        self.by_tld = {leaf: Counter() for leaf in _BY_TLD}
        self.chromium_like = 0
        self.qtypes: Counter = Counter()
        self.dropped = 0
        self.sender_categories: dict = {}
        self.empty_qtypes: dict = {}

    def add(self, source: str, qtype: int, leaf: str, tld, chromium_like: bool) -> None:
        self.leaves[leaf] += 1
        if leaf in self.by_tld:
            self.by_tld[leaf][tld] += 1
        self.chromium_like += chromium_like
        mnemonic = MNEMONICS[qtype]
        self.qtypes[mnemonic] += 1
        if self.senders:
            prefix = sender_prefix(source)
            self.sender_categories.setdefault(prefix, Counter())[CATEGORY[leaf]] += 1
            if leaf == "empty":
                self.empty_qtypes.setdefault(prefix, Counter())[mnemonic] += 1

    def doc(self) -> dict:
        """The report sections (all but `meta`) a correct run emits."""
        n = self.leaves
        total = sum(n.values())
        categories = Counter()
        for leaf, count in n.items():
            categories[CATEGORY[leaf]] += count
        totals: dict = {"records": total, "dropped_unparseable": self.dropped}
        if total:
            totals["fractions"] = {cat: categories[cat] / total for cat in ("empty", "one_word", "invalid_tld", "valid_tld")}
        leaves = {
            "empty": n["empty"],
            "one_word": {
                "minimized": {"total": n["one_word_minimized"], "by_tld": _sorted(self.by_tld["one_word_minimized"])},
                "chromium": n["one_word_chromium"],
                "other": n["one_word_other"],
            },
            "has_tld": {
                "valid": {
                    "total": n["valid_tld"],
                    "chromium_like": self.chromium_like,
                    "by_tld": _sorted(self.by_tld["valid_tld"]),
                },
                "invalid": {
                    "appletalk": n["invalid_tld_appletalk"],
                    "bad_encoding": n["invalid_tld_bad_encoding"],
                    "all_numeric": n["invalid_tld_all_numeric"],
                    "chromium": n["invalid_tld_chromium"],
                    "other": {"total": n["invalid_tld_other"], "by_tld": _sorted(self.by_tld["invalid_tld_other"])},
                },
            },
        }
        if self.senders:
            rows = sorted(self.sender_categories.items(), key=lambda kv: (-sum(kv[1].values()), kv[0]))
            senders = {
                "tracked": True,
                "count": len(self.sender_categories),
                "top": [
                    {
                        "prefix": prefix,
                        "total": sum(cats.values()),
                        "categories": {cat: cats[cat] for cat in ("empty", "one_word", "invalid_tld", "valid_tld")},
                    }
                    for prefix, cats in rows[:TOP_K]
                ],
            }
            empty_total = n["empty"]
            qtype_totals: Counter = Counter()
            for qtypes in self.empty_qtypes.values():
                qtype_totals.update(qtypes)
            empty_rows = sorted(self.empty_qtypes.items(), key=lambda kv: (-sum(kv[1].values()), kv[0]))
            empty_stats = {
                "total": empty_total,
                "senders": len(self.empty_qtypes),
                "mean_per_sender": empty_total / len(self.empty_qtypes) if self.empty_qtypes else None,
                "qtype_fractions": {m: c / empty_total for m, c in sorted(qtype_totals.items())} if empty_total else {},
                "top": [
                    {"prefix": prefix, "total": sum(q.values()), "qtypes": _sorted(q)}
                    for prefix, q in empty_rows[:TOP_K]
                ],
            }
        else:
            senders = {"tracked": False}
            empty_stats = {"total": n["empty"]}
        hits = sum(n[leaf] for leaf in _UNEXPECTED)
        return {
            "totals": totals,
            "leaves": leaves,
            "qtypes": _sorted(self.qtypes),
            "senders": senders,
            "empty_stats": empty_stats,
            "policy": {
                "name": "default",
                "unexpected_leaves": _UNEXPECTED,
                "unexpected_fraction": hits / total if total else 0.0,
            },
        }


def _sorted(counter: Counter) -> dict:
    return dict(sorted(counter.items()))


def _flatten(value, path: str, out: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{path}.{key}", out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{path}[{i}]", out)
    else:
        out[path] = value


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check(doc: dict, expected: dict) -> tuple[int, list[str]]:
    """Compare an emitted report document with the oracle's expectation.

    Returns (failed, problems). Each disagreeing count adds its difference
    to failed, and any other disagreement (a fraction, a prefix, a missing
    entry) adds one; the caller caps failed at the records attempted. The
    accounting seen = emitted + dropped + skipped must also balance.
    """
    want: dict = {}
    got: dict = {}
    for section, value in expected["doc"].items():
        _flatten(value, section, want)
        _flatten(doc.get(section), section, got)
    failed = 0
    problems: list[str] = []
    for path in sorted(want.keys() | got.keys()):
        w, g = want.get(path), got.get(path)
        if w == g and type(w) is type(g):
            continue
        failed += abs(w - g) if _is_count(w) and _is_count(g) else 1
        problems.append(f"{path}: expected {w!r}, got {g!r}")
    totals = doc.get("totals") or {}
    accounted = totals.get("records", 0) + totals.get("dropped_unparseable", 0) + expected["skipped"]
    if accounted != expected["seen"]:
        failed += abs(expected["seen"] - accounted)
        problems.append(f"accounting: seen {expected['seen']} != emitted + dropped + skipped {accounted}")
    return failed, problems


def check_reformat(fmt: str, data: bytes, expected: dict, label: str) -> tuple[int, list[str]]:
    """Check a csv or plotdata rendering against the oracle's fractions and
    top-sender rows; each missing or wrong line adds one to failed."""
    doc = expected["doc"]
    fractions = doc["totals"]["fractions"]
    if fmt == "csv":
        row = ",".join([label] + [str(fractions[c]) for c in ("empty", "one_word", "invalid_tld", "valid_tld")])
        want = [f"label,empty,one_word,invalid_tld,valid_tld\n{row}\n"]
        got = [data.decode("utf-8", "replace")]
    else:
        lines = data.decode("utf-8", "replace").splitlines()
        want = sorted(f"top_level\t{cat}\t{value}" for cat, value in fractions.items())
        got = sorted(line for line in lines if line.startswith("top_level\t"))
        if doc["senders"]["tracked"]:
            cats = ("empty", "one_word", "invalid_tld", "valid_tld")
            rows = ["\t".join([r["prefix"], str(r["total"])] + [str(r["categories"][c]) for c in cats])
                    for r in doc["senders"]["top"]]
            rows += [f"{r['prefix']}\t{r['total']}" for r in doc["empty_stats"]["top"]]
            want += rows
            got += [line for line in lines if not line.startswith(("#", "top_level\t", "qtype\t", "minimized\t", "chromium\t"))]
    problems = [f"{fmt}: expected {w!r}, got {g!r}" for w, g in zip(want, got) if w != g]
    if len(want) != len(got):
        problems.append(f"{fmt}: expected {len(want)} lines, got {len(got)}")
    return len(problems) + abs(len(want) - len(got)), problems
