"""Mergeable aggregates over classified query streams.

A Report is a bag of exact integer counters; fractions are derived from
the integers only at output time, so merging shards never drifts.
fold_blocks() builds one from classified blocks and fold_ranges(), the
CLI's fold, from byte ranges of trace files; merge_into() is the one adder
(merge() adds two into the empty Report), and build_report_doc() derives
the report document: the one place the rollup fractions, the unexpected
share and the sender tables are worked out, and the one view every output
format renders.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from itertools import compress, islice, repeat
from operator import add, attrgetter, ge, is_, lshift, or_
from types import SimpleNamespace
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import ingest
from .classify import DEFAULT_APPLETALK_TLDS, classify_block
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
from .tlds import TldRegistry

# The sender tables are Counters keyed by sender key (model.sender_key).
# sender_counts holds one row per key: an int that packs the sender's count
# in each TopCategory, in declaration order, into ROW_BITS-bit fields from
# bit 0 up, with its total above them, so adding rows adds every count at
# once and rows order as their totals do. A field holds at most the
# report's total, so none carries while that is under 2**ROW_BITS
# (build_report_doc refuses a report that reaches it). empty_by_sender
# counts key << QTYPE_BITS | the root-name query's qtype code.
LEAVES = tuple(Leaf)
LEAF_INDEX = {leaf: i for i, leaf in enumerate(LEAVES)}
ROW_BITS = 40
QTYPE_BITS = 16
_QTYPE_MASK = (1 << QTYPE_BITS) - 1
_FIELD_MASK = (1 << ROW_BITS) - 1
_FIELD_SHIFTS = {cat.value: ROW_BITS * i for i, cat in enumerate(TopCategory)}
_TOTAL_SHIFT = ROW_BITS * len(TopCategory)
# what one record of each leaf adds to its sender's row
_leaf_row = {leaf: 1 << _TOTAL_SHIFT | 1 << _FIELD_SHIFTS[LEAF_TOP[leaf].value] for leaf in LEAVES}.__getitem__
_leaf_of = attrgetter("leaf")
_index_of = LEAF_INDEX.__getitem__

# every category table has one column per category, in declaration order
_CATEGORIES = tuple(cat.value for cat in TopCategory)


class Report(SimpleNamespace):
    """Aggregate counts for one labelled slice of traffic (e.g. a year).
    Each count is kept once: total is derived from leaf_counts, and
    merge_into is the one place every field is added. sender_counts holds
    one row per sender key, its counts per TopCategory and total packed in
    one int (see ROW_BITS), and empty_by_sender one count per (sender key,
    root-name query qtype). A counter not given starts empty.
    SimpleNamespace gives ==, repr and pickling in C, and vars(report)
    lists the fields in this order."""

    def __init__(
        self, label: str = "", leaf_counts: Optional[Counter] = None, qtype_counts: Optional[Counter] = None,
        sender_counts: Optional[Counter] = None, empty_by_sender: Optional[Counter] = None, dropped: int = 0,
        senders_tracked: bool = True,
    ):
        self.label = label
        self.leaf_counts = Counter() if leaf_counts is None else leaf_counts  # Classification -> n
        self.qtype_counts = Counter() if qtype_counts is None else qtype_counts  # qtype code -> n
        self.sender_counts = Counter() if sender_counts is None else sender_counts  # key -> row of counts
        self.empty_by_sender = Counter() if empty_by_sender is None else empty_by_sender  # key << QTYPE_BITS | qtype
        self.dropped = dropped
        self.senders_tracked = senders_tracked

    @property
    def total(self) -> int:
        """The records counted: the sum of leaf_counts."""
        return sum(self.leaf_counts.values())

    def __reduce__(self):
        """Pickle leaf_counts as columns (LEAVES indexes, TLDs, flags,
        counts): a Classification key pickles and unpickles through a
        Python-level call, and tuple.__new__ rebuilds one in C."""
        state = vars(self).copy()
        leaves, tlds, flags = tuple(zip(*self.leaf_counts)) or ((), (), ())
        state["leaf_counts"] = bytes(map(_index_of, leaves)), tlds, bytes(flags), list(self.leaf_counts.values())
        return type(self), (), state

    def __setstate__(self, state: dict) -> None:
        leaves, tlds, flags, counts = state["leaf_counts"]
        keys = map(tuple.__new__, repeat(Classification), zip(map(LEAVES.__getitem__, leaves), tlds, map(bool, flags)))
        vars(self).update(state, leaf_counts=Counter())
        dict.update(self.leaf_counts, zip(keys, counts))


def fold_blocks(
    blocks: Iterable[tuple[Sequence[int], Sequence[int], Sequence[Classification]]],
    label: str = "",
    track_senders: bool = True,
) -> Report:
    """Count blocks of classified records into a fresh Report, each record
    exactly once. A block is three parallel columns: the records' sender
    keys, qtypes and classifications (classify.classify_block gives them);
    the keys are read only when senders are tracked. Each record adds one to
    leaf_counts, whose sum is the Report's total, and, with senders, its
    leaf's weight to its sender's row: one in the total and one in the
    field of the leaf's TopCategory. dropped is left 0: the
    caller (fold_ranges) knows what its reader dropped.
    """
    leaf_counts: Counter = Counter()
    qtype_counts: Counter = Counter()
    rows: Counter = Counter()
    empties: Counter = Counter()
    empty_leaf = Leaf.EMPTY

    for keys, qtypes, classes in blocks:
        leaf_counts.update(classes)
        qtype_counts.update(qtypes)
        if not track_senders:
            continue
        leaves = list(map(_leaf_of, classes))
        # one C-level pass: rows.get is called as each pair is stored, so a
        # key met twice in a block adds to the row its first record wrote
        dict.update(rows, zip(keys, map(add, map(rows.get, keys, repeat(0)), map(_leaf_row, leaves))))
        root = list(map(is_, leaves, repeat(empty_leaf)))
        empties.update(map(or_, map(lshift, compress(keys, root), repeat(QTYPE_BITS)), compress(qtypes, root)))

    return Report(
        label=label,
        leaf_counts=leaf_counts,
        qtype_counts=qtype_counts,
        sender_counts=rows,
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


def fold_ranges(ranges: Iterable[tuple[str, int, Optional[int]]], decode: Callable, registry: TldRegistry,
                appletalk_tlds: frozenset[str] = DEFAULT_APPLETALK_TLDS, keep: Optional[Callable[[int], bool]] = None,
                window: Optional[tuple[int, int, int]] = None, track_senders: bool = True) -> tuple[int, Report]:
    """The offset the last range stopped at, and the Report of the records of
    each (path, start, end) byte range in turn, as decode (ingest.decode_tsv
    or decode_pcap) reads them with keep: from the record that begins at byte
    start up to the first that begins at or after byte end (None: the end of
    the file), in the (start_seconds, end_seconds, day_origin_micros) window
    where one is given. dropped counts what decode dropped and the names that
    did not parse. Only a range with an end is met by a following one, so the
    offset is 0 where the last range reads to the end of a file or pipe."""
    stats = ingest.IngestStats()
    stop = 0

    def classified():
        nonlocal stop
        for path, start, end in ranges:
            with open(path, "rb") as fh:  # open while its blocks are folded
                blocks = decode(fh, stats, start, end, keep)
                if window:
                    blocks = ingest.window(blocks, *window)
                for block in blocks:
                    yield classify_block(block, registry, appletalk_tlds, stats)
                stop = fh.tell() if end is not None else 0

    report = fold_blocks(classified(), track_senders=track_senders)
    report.dropped = stats.records_dropped_unparseable + stats.names_unparseable
    return stop, report


def _merge_labels(a: str, b: str) -> str:
    parts = set(a.split("+")) | set(b.split("+"))
    parts.discard("")
    return "+".join(sorted(parts))


def _add(acc: Counter, other: Counter) -> None:
    """acc += other, key by key, in one C-level pass: Counter.update loops
    in Python over other's keys once acc holds any."""
    dict.update(acc, zip(other, map(add, map(acc.get, other, repeat(0)), other.values())))


def merge_into(acc: Report, other: Report) -> Report:
    """Add other into acc in place and return acc: merge(acc, other)
    without copying acc, and other is left as it was (unless it is acc)."""
    acc.label = _merge_labels(acc.label, other.label)
    acc.dropped += other.dropped
    _add(acc.leaf_counts, other.leaf_counts)
    _add(acc.qtype_counts, other.qtype_counts)
    if not (acc.senders_tracked and other.senders_tracked):
        acc.sender_counts, acc.empty_by_sender, acc.senders_tracked = Counter(), Counter(), False
        return acc
    _add(acc.sender_counts, other.sender_counts)
    _add(acc.empty_by_sender, other.empty_by_sender)
    return acc


def merge(a: Report, b: Report) -> Report:
    """Pointwise sum of two Reports, added into the empty Report, so it
    shares no Counter with either and changes neither; commutative,
    associative, and the empty Report is the identity."""
    return merge_into(merge_into(Report(), a), b)


def _ranked(report: Report, table: dict, k: int, shift: int = 0) -> list[tuple[int, str, int]]:
    """(-total, prefix, key) for the k sender keys of table with the largest
    totals, descending, ties broken on prefix text; a key's total is its
    value in table >> shift, and values order as their totals do. Only the
    keys whose total reaches the k-th largest are formatted."""
    if k < 1:
        raise ValueError("k must be positive")
    if not report.senders_tracked:
        raise ValueError("sender tracking was disabled for this report")
    keys = table
    if k < len(table):
        kth = heapq.nlargest(k, table.values())[-1] >> shift << shift
        keys = compress(table, map(ge, table.values(), repeat(kth)))
    return heapq.nsmallest(k, [(-(table[key] >> shift), prefix_text(key), key) for key in keys])


def _senders_section(report: Report, k: int, total: int) -> dict:
    """The count and top of a report document's senders section, for a
    report of total records; only the rows it ranks are unpacked."""
    if total >> ROW_BITS:
        raise ValueError(f"a report of {total} records reaches the sender rows' limit of 2**{ROW_BITS} records")
    rows = report.sender_counts
    top = []
    for neg_total, prefix, key in _ranked(report, rows, k, _TOTAL_SHIFT):
        row = rows[key]
        categories = {cat: row >> shift & _FIELD_MASK for cat, shift in _FIELD_SHIFTS.items()}
        top.append({"prefix": prefix, "total": -neg_total, "categories": categories})
    return {"count": len(rows), "top": top}


def _by_mnemonic(by_code: dict) -> dict:
    return dict(sorted((qtype_mnemonic(code), n) for code, n in by_code.items()))


def empty_query_stats(report: Report, k: int = 10) -> dict:
    """The empty_stats section of a report document, a priming-oriented
    view: who sends root-name queries, and of what type. mean_per_sender
    is None when there are no root-name queries."""
    table = report.empty_by_sender
    totals: dict = {}
    qtype_totals: dict = {}
    get, get_qtype = totals.get, qtype_totals.get
    for pair, n in table.items():
        key = pair >> QTYPE_BITS
        totals[key] = get(key, 0) + n
        code = pair & _QTYPE_MASK
        qtype_totals[code] = get_qtype(code, 0) + n
    ranked = _ranked(report, totals, k)
    total = report.leaf_counts.get(CLS_EMPTY, 0)
    top = {}
    for _, _, key in ranked:
        base = key << QTYPE_BITS
        top[key] = {code: table[base | code] for code in qtype_totals if base | code in table}
    return {
        "total": total,
        "senders": len(totals),
        "mean_per_sender": total / len(totals) if totals else None,
        "qtype_fractions": {m: n / total for m, n in _by_mnemonic(qtype_totals).items()} if total else {},
        "top": [
            {"prefix": prefix, "total": -neg_total, "qtypes": _by_mnemonic(top[key])}
            for neg_total, prefix, key in ranked
        ],
    }


class UnexpectedPolicy(NamedTuple):
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


# --- report documents -------------------------------------------------------


def build_report_doc(
    report: Report,
    meta: Optional[dict] = None,
    policy: UnexpectedPolicy = DEFAULT_POLICY,
    top_k: int = 10,
) -> dict:
    """The report document of a Report, in the shape _DOC_SCHEMA gives."""
    # one walk of leaf_counts: each leaf's total, and the TLD counts of the leaves that carry one
    scalar = dict.fromkeys(LEAVES, 0)
    by_tld: dict = {Leaf.ONE_WORD_MINIMIZED: {}, Leaf.VALID_TLD: {}, Leaf.INVALID_OTHER: {}}
    valid_chromium_like = 0
    for (leaf, tld, chromium_like), n in report.leaf_counts.items():
        scalar[leaf] += n
        tlds = by_tld.get(leaf)
        if tlds is not None:
            tlds[tld] = tlds.get(tld, 0) + n
            if chromium_like and leaf is Leaf.VALID_TLD:
                valid_chromium_like += n

    doc_meta = dict(meta or {})
    doc_meta.setdefault("label", report.label)
    doc_meta.setdefault("senders_tracked", report.senders_tracked)

    total = sum(scalar.values())
    totals: dict = {
        "records": total,
        "dropped_unparseable": report.dropped,
    }
    if total:
        by_category = dict.fromkeys(_CATEGORIES, 0)
        for leaf, n in scalar.items():
            by_category[LEAF_TOP[leaf].value] += n
        totals["fractions"] = {cat: n / total for cat, n in by_category.items()}

    leaves = {
        "empty": scalar[Leaf.EMPTY],
        "one_word": {
            "minimized": {
                "total": scalar[Leaf.ONE_WORD_MINIMIZED],
                "by_tld": dict(sorted(by_tld[Leaf.ONE_WORD_MINIMIZED].items())),
            },
            "chromium": scalar[Leaf.ONE_WORD_CHROMIUM],
            "other": scalar[Leaf.ONE_WORD_OTHER],
        },
        "has_tld": {
            "valid": {
                "total": scalar[Leaf.VALID_TLD],
                "chromium_like": valid_chromium_like,
                "by_tld": dict(sorted(by_tld[Leaf.VALID_TLD].items())),
            },
            "invalid": {
                "appletalk": scalar[Leaf.INVALID_APPLETALK],
                "bad_encoding": scalar[Leaf.INVALID_BAD_ENCODING],
                "all_numeric": scalar[Leaf.INVALID_ALL_NUMERIC],
                "chromium": scalar[Leaf.INVALID_CHROMIUM],
                "other": {
                    "total": scalar[Leaf.INVALID_OTHER],
                    "by_tld": dict(sorted(by_tld[Leaf.INVALID_OTHER].items())),
                },
            },
        },
    }

    unexpected = sum(n for leaf, n in scalar.items() if leaf in policy.leaves)
    senders: dict = {"tracked": report.senders_tracked}
    if report.senders_tracked:
        senders.update(_senders_section(report, top_k, total))
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
            "unexpected_fraction": unexpected / total if total else 0.0,
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


def _sender_table(doc: dict, section: str) -> list:
    """The top rows of a section of a report document; a ValueError where
    its senders were not tracked."""
    if not doc["senders"]["tracked"]:
        raise ValueError("the report holds no sender tables: it was classified with --no-senders")
    return doc[section]["top"]


def doc_to_top_senders_csv(doc: dict) -> bytes:
    """The senders.top table of a report document."""
    lines = [",".join(_SENDER_COLUMNS)]
    lines += [",".join(_sender_cells(row)) for row in _sender_table(doc, "senders")]
    return ("\n".join(lines) + "\n").encode("utf-8")


def doc_to_empty_senders_csv(doc: dict) -> bytes:
    """The empty_stats.top table of a report document: each prefix's
    root-name queries, with qtypes as 'NS=3;SOA=1'."""
    lines = ["prefix,total,qtypes"]
    for row in _sender_table(doc, "empty_stats"):
        qtypes = ";".join(f"{m}={n}" for m, n in row["qtypes"].items())
        lines.append(f"{row['prefix']},{row['total']},{qtypes}")
    return ("\n".join(lines) + "\n").encode("utf-8")


RENDERERS = {
    "json": doc_to_json_bytes,
    "csv": doc_to_csv,
    "plotdata": doc_to_plotdata,
    "top-senders": doc_to_top_senders_csv,
    "empty-senders": doc_to_empty_senders_csv,
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
    # the kinds of every object shape and every array shape
    dict: ("a JSON object", lambda v: type(v) is dict),
    list: ("a JSON array", lambda v: type(v) is list),
}


def _check(value, shape, path: str, required: set) -> None:
    """Raise ValueError at the first place where value departs from shape;
    required holds the key suffixes ("+", "*") whose keys must be present."""
    kinds = (type(shape),) if isinstance(shape, (dict, list)) else shape if isinstance(shape, tuple) else (shape,)
    if not any(_VALUE_KINDS[s][1](value) for s in kinds):
        expected = " or ".join(_VALUE_KINDS[s][0] for s in kinds)
        where = repr(path) if path else "the top level"
        held = json.dumps(value)
        if len(held) > 40:
            held = held[:37] + "..."
        raise ValueError(f"not a report document: {where} holds {held}, not {expected}")
    if isinstance(shape, list):
        for i, item in enumerate(value):
            _check(item, shape[0], f"{path}[{i}]", required)
    elif shape is _COUNTS and all(type(n) is int and n >= 0 for n in value.values()):
        return  # a map of counts, checked in one pass; the walk below names a bad key
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
