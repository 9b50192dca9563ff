"""Mergeable aggregates over classified query streams.

A Report is a bag of exact integer counters; fractions are derived from
the integers only at output time, so merging shards never drifts. fold()
builds one, merge() combines any number of them, and the accessor
functions compute every table and series the report formats expose.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .model import (
    CLS_EMPTY,
    LEAF_TOP,
    Classification,
    Leaf,
    QueryRecord,
    SenderKey,
    TopCategory,
    qtype_mnemonic,
    sender_prefix,
)

QMIN_NAMED_TLDS = ("com", "net", "org")


# sender table rows hold one count per leaf, in this order
LEAVES = tuple(Leaf)
LEAF_INDEX = {leaf: i for i, leaf in enumerate(LEAVES)}
_ROW_TOPS = tuple(LEAF_TOP[leaf] for leaf in LEAVES)


@dataclass
class Report:
    """Aggregate counts for one labelled slice of traffic (e.g. a year)."""

    label: str = ""
    total: int = 0
    leaf_counts: Counter = field(default_factory=Counter)  # Classification -> n
    qtype_counts: Counter = field(default_factory=Counter)  # mnemonic -> n
    sender_counts: dict = field(default_factory=dict)  # prefix str -> list[int], one per LEAVES entry
    empty_by_sender: dict = field(default_factory=dict)  # prefix str -> {qtype code: n}
    dropped: int = 0
    senders_tracked: bool = True


def fold(
    classified: Iterable[tuple[QueryRecord, Classification]],
    label: str = "",
    dropped: int = 0,
    track_senders: bool = True,
) -> Report:
    """Count every classified record exactly once into a fresh Report.

    The sender tables are returned as counted: a LEAVES-ordered row of
    counts per sender prefix, and the root-name queries per prefix by
    qtype code.
    """
    leaf_counts: dict = {}
    qtype_ints: dict = {}
    senders: dict = {}
    empties: dict = {}
    total = 0
    empty_leaf = Leaf.EMPTY
    leaf_index = LEAF_INDEX
    blank_row = [0] * len(LEAVES)

    for record, cls in classified:
        total += 1
        try:
            leaf_counts[cls] += 1
        except KeyError:
            leaf_counts[cls] = 1
        qtype = record.qtype
        try:
            qtype_ints[qtype] += 1
        except KeyError:
            qtype_ints[qtype] = 1
        if track_senders:
            prefix = sender_prefix(record.source)
            leaf = cls.leaf
            row = senders.get(prefix)
            if row is None:
                row = senders[prefix] = blank_row.copy()
            row[leaf_index[leaf]] += 1
            if leaf is empty_leaf:
                by_qtype = empties.get(prefix)
                if by_qtype is None:
                    empties[prefix] = {qtype: 1}
                else:
                    try:
                        by_qtype[qtype] += 1
                    except KeyError:
                        by_qtype[qtype] = 1

    return Report(
        label=label,
        total=total,
        leaf_counts=Counter(leaf_counts),
        qtype_counts=Counter({qtype_mnemonic(c): n for c, n in qtype_ints.items()}),
        sender_counts=senders,
        empty_by_sender=empties,
        dropped=dropped,
        senders_tracked=track_senders,
    )


def _merge_labels(a: str, b: str) -> str:
    parts = set(a.split("+")) | set(b.split("+"))
    parts.discard("")
    return "+".join(sorted(parts))


def _merge_rows(a: dict, b: dict) -> dict:
    out = {key: row.copy() for key, row in a.items()}
    for key, row in b.items():
        acc = out.get(key)
        out[key] = row.copy() if acc is None else [x + y for x, y in zip(acc, row)]
    return out


def _merge_qtypes(a: dict, b: dict) -> dict:
    out = {key: counts.copy() for key, counts in a.items()}
    for key, counts in b.items():
        acc = out.setdefault(key, {})
        for code, n in counts.items():
            acc[code] = acc.get(code, 0) + n
    return out


def merge(a: Report, b: Report) -> Report:
    """Pointwise sum of two Reports; commutative, associative, and the
    empty Report is the identity. Sender rows add element-wise."""
    tracked = a.senders_tracked and b.senders_tracked
    return Report(
        label=_merge_labels(a.label, b.label),
        total=a.total + b.total,
        leaf_counts=a.leaf_counts + b.leaf_counts,
        qtype_counts=a.qtype_counts + b.qtype_counts,
        sender_counts=_merge_rows(a.sender_counts, b.sender_counts) if tracked else {},
        empty_by_sender=_merge_qtypes(a.empty_by_sender, b.empty_by_sender) if tracked else {},
        dropped=a.dropped + b.dropped,
        senders_tracked=tracked,
    )


def top_category_counts(report: Report) -> dict[TopCategory, int]:
    counts = {cat: 0 for cat in TopCategory}
    for cls, n in report.leaf_counts.items():
        counts[LEAF_TOP[cls.leaf]] += n
    return counts


def top_level_fractions(report: Report) -> dict[TopCategory, float]:
    """The four-category rollup as fractions of the report total."""
    if report.total == 0:
        raise ValueError("empty report has no fractions")
    total = report.total
    return {cat: n / total for cat, n in top_category_counts(report).items()}


@dataclass
class TopSender:
    prefix: SenderKey
    total: int
    categories: dict  # TopCategory -> int


def top_senders(report: Report, k: int) -> list[TopSender]:
    """The k busiest sender prefixes, descending; ties break on prefix."""
    if k < 1:
        raise ValueError("k must be positive")
    if not report.senders_tracked:
        raise ValueError("sender tracking was disabled for this report")
    table = report.sender_counts
    ranked = heapq.nsmallest(k, ((-sum(row), prefix) for prefix, row in table.items()))
    rows = []
    for neg_total, prefix in ranked:
        categories = {cat: 0 for cat in TopCategory}
        for top, n in zip(_ROW_TOPS, table[prefix]):
            categories[top] += n
        rows.append(TopSender(SenderKey(prefix), -neg_total, categories))
    return rows


@dataclass
class EmptySender:
    prefix: SenderKey
    total: int
    qtypes: dict  # mnemonic -> int


@dataclass
class EmptyQueryStats:
    total: int
    sender_count: int
    mean_per_sender: Optional[float]  # absent when no empty queries
    qtype_fractions: dict  # mnemonic -> fraction of empty queries
    top: list  # list[EmptySender]


def _by_mnemonic(by_code: dict) -> dict:
    return {qtype_mnemonic(code): n for code, n in by_code.items()}


def empty_query_stats(report: Report, k: int = 10) -> EmptyQueryStats:
    """Priming-oriented view: who sends root-name queries, and of what type."""
    if not report.senders_tracked:
        raise ValueError("sender tracking was disabled for this report")
    total = report.leaf_counts.get(CLS_EMPTY, 0)
    senders = report.empty_by_sender
    qtype_totals: dict = {}
    totals = []
    for prefix, by_qtype in senders.items():
        for code, n in by_qtype.items():
            qtype_totals[code] = qtype_totals.get(code, 0) + n
        totals.append((-sum(by_qtype.values()), prefix))
    rows = [
        EmptySender(SenderKey(prefix), -neg_total, _by_mnemonic(senders[prefix]))
        for neg_total, prefix in heapq.nsmallest(k, totals)
    ]
    mean = total / len(senders) if senders else None
    fractions = {m: n / total for m, n in sorted(_by_mnemonic(qtype_totals).items())} if total else {}
    return EmptyQueryStats(
        total=total,
        sender_count=len(senders),
        mean_per_sender=mean,
        qtype_fractions=fractions,
        top=rows,
    )


def chromium_series(reports: Iterable[Report]) -> list[tuple[str, float, float]]:
    """Per-report probe fractions: (label, no-TLD fraction, with-TLD fraction).

    with-TLD pools probe-shaped names that gained a valid TLD and the
    probe-shaped invalid-TLD leaf.
    """
    out = []
    for report in reports:
        no_tld = 0
        with_tld = 0
        for cls, n in report.leaf_counts.items():
            if cls.leaf is Leaf.ONE_WORD_CHROMIUM:
                no_tld += n
            elif cls.leaf is Leaf.INVALID_CHROMIUM or (cls.leaf is Leaf.VALID_TLD and cls.chromium_like):
                with_tld += n
        if report.total:
            out.append((report.label, no_tld / report.total, with_tld / report.total))
        else:
            out.append((report.label, 0.0, 0.0))
    return out


def qmin_series(reports: Iterable[Report]) -> list[tuple[str, dict[str, float]]]:
    """Per-report minimized-query fractions bucketed com/net/org/other."""
    out = []
    for report in reports:
        buckets = {tld: 0 for tld in QMIN_NAMED_TLDS}
        buckets["other"] = 0
        for cls, n in report.leaf_counts.items():
            if cls.leaf is Leaf.ONE_WORD_MINIMIZED:
                buckets[cls.tld if cls.tld in buckets else "other"] += n
        total = report.total
        out.append((report.label, {k: (v / total if total else 0.0) for k, v in buckets.items()}))
    return out


@dataclass(frozen=True)
class UnexpectedPolicy:
    """A named predicate over leaves defining 'unexpected' traffic."""

    name: str
    leaves: frozenset


DEFAULT_POLICY = UnexpectedPolicy(
    "default",
    frozenset(
        leaf
        for leaf in Leaf
        if leaf not in (Leaf.VALID_TLD, Leaf.ONE_WORD_MINIMIZED)
    ),
)

INVALID_ONLY_POLICY = UnexpectedPolicy(
    "invalid-only",
    frozenset(leaf for leaf in Leaf if LEAF_TOP[leaf] is TopCategory.INVALID_TLD),
)

POLICIES = {p.name: p for p in (DEFAULT_POLICY, INVALID_ONLY_POLICY)}


def unexpected_fraction(report: Report, policy: UnexpectedPolicy = DEFAULT_POLICY) -> float:
    """Fraction of classified queries the policy marks unexpected."""
    if report.total == 0:
        return 0.0
    hits = sum(n for cls, n in report.leaf_counts.items() if cls.leaf in policy.leaves)
    return hits / report.total


@dataclass
class TrendTable:
    """Ordered per-label rollup rows, one per Report."""

    rows: list  # list[tuple[str, dict[TopCategory, float]]]


def trend_table(reports: Iterable[Report]) -> TrendTable:
    return TrendTable([(r.label, top_level_fractions(r)) for r in reports])


TREND_HEADER = "label,empty,one_word,invalid_tld,valid_tld"


def trend_to_csv(table: TrendTable) -> str:
    lines = [TREND_HEADER]
    for label, fractions in table.rows:
        lines.append(
            ",".join(
                [label]
                + [str(fractions[cat]) for cat in (TopCategory.EMPTY, TopCategory.ONE_WORD, TopCategory.INVALID_TLD, TopCategory.VALID_TLD)]
            )
        )
    return "\n".join(lines) + "\n"


# --- report documents -------------------------------------------------------
#
# JSON schema (stable key order, deterministic bytes):
#   meta, totals, leaves, qtypes, senders, empty_stats, policy


def build_report_doc(
    report: Report,
    meta: Optional[dict] = None,
    policy: UnexpectedPolicy = DEFAULT_POLICY,
    top_k: int = 10,
) -> dict:
    minimized_by_tld: Counter = Counter()
    valid_by_tld: Counter = Counter()
    invalid_other_by_tld: Counter = Counter()
    scalar = Counter()
    valid_chromium_like = 0
    for cls, n in report.leaf_counts.items():
        leaf = cls.leaf
        if leaf is Leaf.ONE_WORD_MINIMIZED:
            minimized_by_tld[cls.tld] += n
        elif leaf is Leaf.VALID_TLD:
            valid_by_tld[cls.tld] += n
            if cls.chromium_like:
                valid_chromium_like += n
        elif leaf is Leaf.INVALID_OTHER:
            invalid_other_by_tld[cls.tld] += n
        scalar[leaf] += n

    doc_meta = dict(meta or {})
    doc_meta.setdefault("label", report.label)
    doc_meta.setdefault("senders_tracked", report.senders_tracked)

    totals: dict = {
        "records": report.total,
        "dropped_unparseable": report.dropped,
    }
    if report.total:
        totals["fractions"] = {
            cat.value: frac for cat, frac in top_level_fractions(report).items()
        }

    leaves = {
        "empty": scalar[Leaf.EMPTY],
        "one_word": {
            "minimized": {
                "total": scalar[Leaf.ONE_WORD_MINIMIZED],
                "by_tld": dict(sorted(minimized_by_tld.items())),
            },
            "chromium": scalar[Leaf.ONE_WORD_CHROMIUM],
            "other": scalar[Leaf.ONE_WORD_OTHER],
        },
        "has_tld": {
            "valid": {
                "total": scalar[Leaf.VALID_TLD],
                "chromium_like": valid_chromium_like,
                "by_tld": dict(sorted(valid_by_tld.items())),
            },
            "invalid": {
                "appletalk": scalar[Leaf.INVALID_APPLETALK],
                "bad_encoding": scalar[Leaf.INVALID_BAD_ENCODING],
                "all_numeric": scalar[Leaf.INVALID_ALL_NUMERIC],
                "chromium": scalar[Leaf.INVALID_CHROMIUM],
                "other": {
                    "total": scalar[Leaf.INVALID_OTHER],
                    "by_tld": dict(sorted(invalid_other_by_tld.items())),
                },
            },
        },
    }

    senders: dict = {"tracked": report.senders_tracked}
    if report.senders_tracked:
        senders["count"] = len(report.sender_counts)
        senders["top"] = [
            {
                "prefix": row.prefix.prefix,
                "total": row.total,
                "categories": {cat.value: n for cat, n in row.categories.items()},
            }
            for row in top_senders(report, top_k)
        ]

        stats = empty_query_stats(report, k=top_k)
        empty_stats = {
            "total": stats.total,
            "senders": stats.sender_count,
            "mean_per_sender": stats.mean_per_sender,
            "qtype_fractions": stats.qtype_fractions,
            "top": [
                {"prefix": row.prefix.prefix, "total": row.total, "qtypes": dict(sorted(row.qtypes.items()))}
                for row in stats.top
            ],
        }
    else:
        empty_stats = {"total": report.leaf_counts.get(CLS_EMPTY, 0)}

    return {
        "meta": doc_meta,
        "totals": totals,
        "leaves": leaves,
        "qtypes": dict(sorted(report.qtype_counts.items())),
        "senders": senders,
        "empty_stats": empty_stats,
        "policy": {
            "name": policy.name,
            "unexpected_leaves": sorted(leaf.value for leaf in policy.leaves),
            "unexpected_fraction": unexpected_fraction(report, policy),
        },
    }


def doc_to_json_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def doc_to_csv(doc: dict) -> bytes:
    fractions = doc["totals"].get("fractions")
    label = doc["meta"].get("label", "")
    if fractions is None:
        row = f"{label},0,0,0,0"
    else:
        row = ",".join(
            [label] + [str(fractions[c]) for c in ("empty", "one_word", "invalid_tld", "valid_tld")]
        )
    return (TREND_HEADER + "\n" + row + "\n").encode("utf-8")


def _flatten(prefix: str, table: dict, lines: list) -> None:
    for key, value in table.items():
        lines.append(f"{prefix}\t{key}\t{value}")


def doc_to_plotdata(doc: dict) -> bytes:
    """Plain TSV series blocks for external plotting tools."""
    lines: list[str] = []
    lines.append("# series: top_level_fractions")
    _flatten("top_level", doc["totals"].get("fractions", {}), lines)
    lines.append("# series: qtypes")
    _flatten("qtype", doc["qtypes"], lines)
    leaves = doc["leaves"]
    lines.append("# series: minimized_by_tld")
    _flatten("minimized", leaves["one_word"]["minimized"]["by_tld"], lines)
    lines.append("# series: chromium")
    total = doc["totals"]["records"]
    no_tld = leaves["one_word"]["chromium"]
    with_tld = leaves["has_tld"]["valid"]["chromium_like"] + leaves["has_tld"]["invalid"]["chromium"]
    lines.append(f"chromium\tno_tld\t{no_tld / total if total else 0.0}")
    lines.append(f"chromium\twith_tld\t{with_tld / total if total else 0.0}")
    if doc["senders"].get("tracked"):
        lines.append("# series: top_senders (prefix, total, empty, one_word, invalid_tld, valid_tld)")
        for row in doc["senders"].get("top", []):
            cats = row["categories"]
            lines.append(
                "\t".join(
                    [
                        row["prefix"],
                        str(row["total"]),
                        str(cats["empty"]),
                        str(cats["one_word"]),
                        str(cats["invalid_tld"]),
                        str(cats["valid_tld"]),
                    ]
                )
            )
        lines.append("# series: empty_senders (prefix, total)")
        for row in doc["empty_stats"].get("top", []):
            lines.append(f"{row['prefix']}\t{row['total']}")
    return ("\n".join(lines) + "\n").encode("utf-8")


RENDERERS = {
    "json": doc_to_json_bytes,
    "csv": doc_to_csv,
    "plotdata": doc_to_plotdata,
    "tsv-plotdata": doc_to_plotdata,
}


def render_doc(doc: dict, fmt: str) -> bytes:
    """Render a report document in one of the RENDERERS formats."""
    try:
        emit = RENDERERS[fmt]
    except KeyError:
        raise ValueError(f"unknown report format {fmt!r}") from None
    return emit(doc)


def write_report(
    report: Report,
    fmt: str = "json",
    meta: Optional[dict] = None,
    policy: UnexpectedPolicy = DEFAULT_POLICY,
    top_k: int = 10,
) -> bytes:
    """Serialize a Report; identical inputs give byte-identical output."""
    return render_doc(build_report_doc(report, meta=meta, policy=policy, top_k=top_k), fmt)


def read_report_doc(data: bytes | str) -> dict:
    doc = json.loads(data)
    for key in ("meta", "totals", "leaves", "qtypes"):
        if key not in doc:
            raise ValueError(f"not a report document: missing {key!r}")
    return doc


def trend_csv_from_docs(docs: Iterable[dict]) -> str:
    """Fig-4-style trend rows from stored report documents, input order."""
    lines = [TREND_HEADER]
    for doc in docs:
        label = doc["meta"].get("label", "")
        fractions = doc["totals"].get("fractions")
        if fractions is None:
            raise ValueError(f"report {label!r} is empty; no trend row")
        lines.append(
            ",".join(
                [label] + [str(fractions[c]) for c in ("empty", "one_word", "invalid_tld", "valid_tld")]
            )
        )
    return "\n".join(lines) + "\n"
