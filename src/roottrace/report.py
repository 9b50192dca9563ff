"""Mergeable aggregates over classified query streams.

A Report is a bag of exact integer counters; fractions are derived from
the integers only at output time, so merging shards never drifts.
fold_blocks() builds one, merge_into() is the one adder (merge() adds two
into the empty Report), and build_report_doc() derives the report document,
the one view every output format renders.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from operator import attrgetter, ge, is_, lshift, or_
from typing import Iterable, Optional, Sequence

from . import ingest
from .model import (
    CLS_EMPTY,
    LEAF_TOP,
    Classification,
    Leaf,
    QueryRecord,
    TopCategory,
    prefix_text,
    qtype_mnemonic,
    sender_key,
)

# The sender tables are Counters of ints that pack a sender key
# (model.sender_key) with one detail: sender_counts counts
# key << LEAF_BITS | the record's LEAVES index, and empty_by_sender counts
# key << QTYPE_BITS | the root-name query's qtype code.
LEAVES = tuple(Leaf)
LEAF_INDEX = {leaf: i for i, leaf in enumerate(LEAVES)}
LEAF_BITS = 4  # room for the ten leaves
QTYPE_BITS = 16
_QTYPE_MASK = (1 << QTYPE_BITS) - 1
_ROW_TOPS = tuple(LEAF_TOP[leaf].value for leaf in LEAVES)
_leaf_of = attrgetter("leaf")
_index_of = LEAF_INDEX.__getitem__

# every category table has one column per category, in declaration order
_CATEGORIES = tuple(cat.value for cat in TopCategory)


@dataclass
class Report:
    """Aggregate counts for one labelled slice of traffic (e.g. a year).
    Each count is kept once: total is derived from leaf_counts, and
    merge_into is the one place every field is added."""

    label: str = ""
    leaf_counts: Counter = field(default_factory=Counter)  # Classification -> n
    qtype_counts: Counter = field(default_factory=Counter)  # qtype code -> n
    sender_counts: Counter = field(default_factory=Counter)  # key << LEAF_BITS | LEAVES index -> n
    empty_by_sender: Counter = field(default_factory=Counter)  # key << QTYPE_BITS | qtype code -> n
    dropped: int = 0
    senders_tracked: bool = True

    @property
    def total(self) -> int:
        """The records counted: the sum of leaf_counts."""
        return sum(self.leaf_counts.values())


def fold_blocks(
    blocks: Iterable[tuple[Sequence[int], Sequence[int], Sequence[Classification]]],
    label: str = "",
    track_senders: bool = True,
) -> Report:
    """Count blocks of classified records into a fresh Report, each record
    exactly once. A block is three parallel columns: the records' sender
    keys, qtypes and classifications (classify.classify_block gives them);
    the keys are read only when senders are tracked. Each record adds one to
    leaf_counts, whose sum is the Report's total. dropped is left 0: the
    caller knows what its reader dropped.
    """
    leaf_counts: Counter = Counter()
    qtype_counts: Counter = Counter()
    senders: Counter = Counter()
    empties: Counter = Counter()
    empty_leaf = Leaf.EMPTY

    for keys, qtypes, classes in blocks:
        leaf_counts.update(classes)
        qtype_counts.update(qtypes)
        if not track_senders:
            continue
        leaves = list(map(_leaf_of, classes))
        senders.update(map(or_, map(lshift, keys, repeat(LEAF_BITS)), map(_index_of, leaves)))
        root_queries = map(or_, map(lshift, keys, repeat(QTYPE_BITS)), qtypes)
        empties.update(compress(root_queries, map(is_, leaves, repeat(empty_leaf))))

    return Report(
        label=label,
        leaf_counts=leaf_counts,
        qtype_counts=qtype_counts,
        sender_counts=senders,
        empty_by_sender=empties,
        senders_tracked=track_senders,
    )


def fold(
    classified: Iterable[tuple[QueryRecord, Classification]],
    label: str = "",
    track_senders: bool = True,
) -> Report:
    """fold_blocks over (record, classification) pairs, taken ingest.BLOCK
    at a time; fold reads each record's .qtype and, for senders, .source."""
    pairs = iter(classified)

    def blocks():
        while chunk := list(islice(pairs, ingest.BLOCK)):
            records, classes = zip(*chunk)
            keys = [sender_key(r.source) for r in records] if track_senders else ()
            yield keys, [r.qtype for r in records], classes

    return fold_blocks(blocks(), label, track_senders)


def _merge_labels(a: str, b: str) -> str:
    parts = set(a.split("+")) | set(b.split("+"))
    parts.discard("")
    return "+".join(sorted(parts))


def merge_into(acc: Report, other: Report) -> Report:
    """Add other into acc in place and return acc: merge(acc, other)
    without copying acc, and other is left as it was."""
    acc.label = _merge_labels(acc.label, other.label)
    acc.dropped += other.dropped
    acc.leaf_counts.update(other.leaf_counts)
    acc.qtype_counts.update(other.qtype_counts)
    if not (acc.senders_tracked and other.senders_tracked):
        acc.sender_counts, acc.empty_by_sender, acc.senders_tracked = Counter(), Counter(), False
        return acc
    acc.sender_counts.update(other.sender_counts)
    acc.empty_by_sender.update(other.empty_by_sender)
    return acc


def merge(a: Report, b: Report) -> Report:
    """Pointwise sum of two Reports, added into the empty Report, so it
    shares no Counter with either and changes neither; commutative,
    associative, and the empty Report is the identity."""
    return merge_into(merge_into(Report(), a), b)


def top_level_fractions(report: Report) -> dict[TopCategory, float]:
    """The four-category rollup as fractions of the report total."""
    total = report.total
    if total == 0:
        raise ValueError("empty report has no fractions")
    counts = dict.fromkeys(TopCategory, 0)
    for cls, n in report.leaf_counts.items():
        counts[LEAF_TOP[cls.leaf]] += n
    return {cat: n / total for cat, n in counts.items()}


def _ranked(report: Report, table: Counter, bits: int, k: int) -> tuple[int, list[tuple[int, str, int]]]:
    """Over one of the report's sender tables, of key << bits | detail
    counts: how many sender keys it holds, and (-total, prefix, key) for the
    k keys with the largest totals, descending, ties broken on prefix text.
    Only the keys whose total reaches the k-th largest are formatted."""
    if k < 1:
        raise ValueError("k must be positive")
    if not report.senders_tracked:
        raise ValueError("sender tracking was disabled for this report")
    totals: dict = {}
    get = totals.get
    for pair, n in table.items():
        key = pair >> bits
        totals[key] = get(key, 0) + n
    keys = totals
    if k < len(totals):
        kth = heapq.nlargest(k, totals.values())[-1]
        keys = compress(totals, map(ge, totals.values(), repeat(kth)))
    return len(totals), heapq.nsmallest(k, [(-totals[key], prefix_text(key), key) for key in keys])


def _senders_section(report: Report, k: int) -> dict:
    """The count and top of a report document's senders section."""
    table = report.sender_counts
    count, ranked = _ranked(report, table, LEAF_BITS, k)
    rows = []
    for neg_total, prefix, key in ranked:
        categories = dict.fromkeys(_CATEGORIES, 0)
        base = key << LEAF_BITS
        for i, top in enumerate(_ROW_TOPS):
            categories[top] += table.get(base | i, 0)
        rows.append({"prefix": prefix, "total": -neg_total, "categories": categories})
    return {"count": count, "top": rows}


def top_senders(report: Report, k: int) -> list[dict]:
    """The senders.top rows of a report document: the k busiest sender
    prefixes, descending, with their counts per category; ties break on
    prefix."""
    return _senders_section(report, k)["top"]


def _by_mnemonic(by_code: dict) -> dict:
    return dict(sorted((qtype_mnemonic(code), n) for code, n in by_code.items()))


def empty_query_stats(report: Report, k: int = 10) -> dict:
    """The empty_stats section of a report document, a priming-oriented
    view: who sends root-name queries, and of what type. mean_per_sender
    is None when there are no root-name queries."""
    table = report.empty_by_sender
    senders, ranked = _ranked(report, table, QTYPE_BITS, k)
    total = report.leaf_counts.get(CLS_EMPTY, 0)
    top = {key: {} for _, _, key in ranked}
    qtype_totals: dict = {}
    for pair, n in table.items():
        code = pair & _QTYPE_MASK
        qtype_totals[code] = qtype_totals.get(code, 0) + n
        by_qtype = top.get(pair >> QTYPE_BITS)
        if by_qtype is not None:
            by_qtype[code] = n
    return {
        "total": total,
        "senders": senders,
        "mean_per_sender": total / senders if senders else None,
        "qtype_fractions": {m: n / total for m, n in _by_mnemonic(qtype_totals).items()} if total else {},
        "top": [
            {"prefix": prefix, "total": -neg_total, "qtypes": _by_mnemonic(top[key])}
            for neg_total, prefix, key in ranked
        ],
    }


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
    total = report.total
    if total == 0:
        return 0.0
    hits = sum(n for cls, n in report.leaf_counts.items() if cls.leaf in policy.leaves)
    return hits / total


# --- report documents -------------------------------------------------------


def build_report_doc(
    report: Report,
    meta: Optional[dict] = None,
    policy: UnexpectedPolicy = DEFAULT_POLICY,
    top_k: int = 10,
) -> dict:
    """The report document of a Report, in the shape _DOC_SCHEMA gives."""
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

    total = report.total
    totals: dict = {
        "records": total,
        "dropped_unparseable": report.dropped,
    }
    if total:
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
        senders.update(_senders_section(report, top_k))
        empty_stats = empty_query_stats(report, k=top_k)
    else:
        empty_stats = {"total": report.leaf_counts.get(CLS_EMPTY, 0)}

    return {
        "meta": doc_meta,
        "totals": totals,
        "leaves": leaves,
        "qtypes": _by_mnemonic(report.qtype_counts),
        "senders": senders,
        "empty_stats": empty_stats,
        "policy": {
            "name": policy.name,
            "unexpected_leaves": sorted(leaf.value for leaf in policy.leaves),
            "unexpected_fraction": unexpected_fraction(report, policy),
        },
    }


def chromium_fractions(doc: dict) -> tuple[float, float]:
    """Probe-shaped shares of a report document's records: (no TLD, with
    a TLD). with-TLD pools probe-shaped names that gained a valid TLD and
    the probe-shaped invalid-TLD leaf. An empty report reads 0.0 for both."""
    total = doc["totals"]["records"]
    if not total:
        return 0.0, 0.0
    leaves = doc["leaves"]
    no_tld = leaves["one_word"]["chromium"]
    with_tld = leaves["has_tld"]["valid"]["chromium_like"] + leaves["has_tld"]["invalid"]["chromium"]
    return no_tld / total, with_tld / total


def doc_to_json_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


TREND_HEADER = ",".join(("label",) + _CATEGORIES)


def _trend_row(label: str, fractions: dict) -> str:
    if any(c in label for c in ',"\r\n'):  # RFC 4180 quoting; other labels stay as given
        label = '"' + label.replace('"', '""') + '"'
    return ",".join([label] + [str(fractions[cat]) for cat in _CATEGORIES])


def doc_to_csv(doc: dict) -> bytes:
    # an empty report has no fractions; its row reads 0 in every column
    fractions = doc["totals"].get("fractions") or dict.fromkeys(_CATEGORIES, 0)
    row = _trend_row(doc["meta"].get("label", ""), fractions)
    return (TREND_HEADER + "\n" + row + "\n").encode("utf-8")


def _flatten(prefix: str, table: dict, lines: list) -> None:
    for key, value in table.items():
        lines.append(f"{prefix}\t{key}\t{value}")


_SENDER_COLUMNS = ("prefix", "total") + _CATEGORIES


def _sender_cells(row: dict) -> list[str]:
    """A senders.top row of a report document, in _SENDER_COLUMNS order."""
    cats = row["categories"]
    return [row["prefix"], str(row["total"])] + [str(cats[cat]) for cat in _CATEGORIES]


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
    no_tld, with_tld = chromium_fractions(doc)
    lines.append(f"chromium\tno_tld\t{no_tld}")
    lines.append(f"chromium\twith_tld\t{with_tld}")
    if doc["senders"]["tracked"]:
        lines.append(f"# series: top_senders ({', '.join(_SENDER_COLUMNS)})")
        for row in doc["senders"]["top"]:
            lines.append("\t".join(_sender_cells(row)))
        lines.append("# series: empty_senders (prefix, total)")
        for row in doc["empty_stats"]["top"]:
            lines.append(f"{row['prefix']}\t{row['total']}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def doc_to_top_senders_csv(doc: dict) -> bytes:
    """The senders.top table of a report document with senders tracked."""
    lines = [",".join(_SENDER_COLUMNS)]
    lines += [",".join(_sender_cells(row)) for row in doc["senders"]["top"]]
    return ("\n".join(lines) + "\n").encode("utf-8")


def doc_to_empty_senders_csv(doc: dict) -> bytes:
    """The empty_stats.top table of a report document with senders tracked:
    each prefix's root-name queries, with qtypes as 'NS=3;SOA=1'."""
    lines = ["prefix,total,qtypes"]
    for row in doc["empty_stats"]["top"]:
        qtypes = ";".join(f"{m}={n}" for m, n in row["qtypes"].items())
        lines.append(f"{row['prefix']},{row['total']},{qtypes}")
    return ("\n".join(lines) + "\n").encode("utf-8")


RENDERERS = {
    "json": doc_to_json_bytes,
    "csv": doc_to_csv,
    "plotdata": doc_to_plotdata,
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


# The report document that build_report_doc writes and read_report_doc
# accepts. Each key of an object maps to the shape of its value; a key
# ending in "?" may be absent, one ending in "+" only when senders.tracked
# is false, and one ending in "*" only when totals.records is 0. A `str`
# key gives the shape of every unlisted key; without one, unlisted keys
# are rejected. [shape] is an array, a tuple any one of its shapes. int
# is a count (a non-negative integer, never a bool), float any number,
# object any value, None null.

_COUNTS = {str: int}
_BY_TLD = {"total": int, "by_tld": _COUNTS}

_DOC_SCHEMA = {
    "meta": {"label?": str, str: object},
    "totals": {"records": int, "dropped_unparseable": int, "fractions*": dict.fromkeys(_CATEGORIES, float)},
    "leaves": {
        "empty": int,
        "one_word": {"minimized": _BY_TLD, "chromium": int, "other": int},
        "has_tld": {
            "valid": {**_BY_TLD, "chromium_like": int},
            "invalid": {**dict.fromkeys(("appletalk", "bad_encoding", "all_numeric", "chromium"), int),
                        "other": _BY_TLD},
        },
    },
    "qtypes": _COUNTS,
    "senders": {
        "tracked": bool,
        "count+": int,
        "top+": [{"prefix": str, "total": int, "categories": dict.fromkeys(_CATEGORIES, int)}],
    },
    "empty_stats": {
        "total": int,
        "senders+": int,
        "mean_per_sender+": (float, None),
        "qtype_fractions+": {str: float},
        "top+": [{"prefix": str, "total": int, "qtypes": _COUNTS}],
    },
    "policy": {"name": str, "unexpected_leaves": [str], "unexpected_fraction": float},
}


_VALUE_KINDS = {
    int: ("a count", lambda v: type(v) is int and v >= 0),
    float: ("a number", lambda v: type(v) in (int, float)),
    str: ("a string", lambda v: type(v) is str),
    bool: ("true or false", lambda v: type(v) is bool),
    object: ("any value", lambda v: True),
    None: ("null", lambda v: v is None),
}


def _check(value, shape, path: str, required: set) -> None:
    """Raise ValueError at the first place where value departs from shape;
    required holds the key suffixes ("+", "*") whose keys must be present."""
    if isinstance(shape, dict):
        expected, ok = "a JSON object", type(value) is dict
    elif isinstance(shape, list):
        expected, ok = "a JSON array", type(value) is list
    else:
        kinds = [_VALUE_KINDS[s] for s in (shape if isinstance(shape, tuple) else (shape,))]
        expected = " or ".join(name for name, _ in kinds)
        ok = any(test(value) for _, test in kinds)
    if not ok:
        where = repr(path) if path else "the top level"
        held = json.dumps(value)
        if len(held) > 40:
            held = held[:37] + "..."
        raise ValueError(f"not a report document: {where} holds {held}, not {expected}")
    if isinstance(shape, list):
        for i, item in enumerate(value):
            _check(item, shape[0], f"{path}[{i}]", required)
    elif isinstance(shape, dict):
        listed = set()
        for key, inner in shape.items():
            if key is str:
                continue
            name = key.rstrip("?+*")
            listed.add(name)
            where = f"{path}.{name}" if path else name
            if name in value:
                _check(value[name], inner, where, required)
            elif key == name or key[-1] in required:
                raise ValueError(f"not a report document: missing {where!r}")
        for name, item in value.items():
            if name not in listed:
                where = f"{path}.{name}" if path else name
                if str not in shape:
                    raise ValueError(f"not a report document: unexpected key {where!r}")
                _check(item, shape[str], where, required)


def _member(doc, section: str, key: str):
    """doc[section][key], or None where doc does not have that shape."""
    part = doc.get(section) if type(doc) is dict else None
    return part.get(key) if type(part) is dict else None


def read_report_doc(data: bytes | str) -> dict:
    """Parse a stored report document; ValueError naming the first path
    where it departs from _DOC_SCHEMA, or a NaN or infinity: not JSON (RFC 8259)."""
    try:
        doc = json.loads(data, parse_constant=_reject_constant)
    except RecursionError:
        raise ValueError("not a report document: nested too deeply to read") from None
    required = set()
    if _member(doc, "senders", "tracked") is True:
        required.add("+")
    records = _member(doc, "totals", "records")
    if type(records) is int and records > 0:
        required.add("*")
    _check(doc, _DOC_SCHEMA, "", required)
    return doc


def _reject_constant(name: str):
    raise ValueError(f"not a report document: the text holds {name}, not a JSON number")


def trend_csv_from_docs(docs: Iterable[dict]) -> str:
    """Fig-4-style trend rows from stored report documents, input order."""
    lines = [TREND_HEADER]
    for doc in docs:
        label = doc["meta"].get("label", "")
        fractions = doc["totals"].get("fractions")
        if fractions is None:
            raise ValueError(f"report {label!r} is empty; no trend row")
        lines.append(_trend_row(label, fractions))
    return "\n".join(lines) + "\n"
