import csv
import dataclasses
import io
import ipaddress
import json
import math
import pickle
import random
import re
from collections import Counter

import pytest

from roottrace.classify import classify_block
from roottrace.ingest import IngestStats, decode_tsv
from roottrace.model import (
    LEAF_TOP,
    Classification,
    Leaf,
    QueryRecord,
    TopCategory,
    prefix_text,
    qtype_mnemonic,
)
from roottrace.report import (
    DEFAULT_POLICY,
    INVALID_ONLY_POLICY,
    LEAF_BITS,
    LEAVES,
    QTYPE_BITS,
    Report,
    build_report_doc,
    chromium_fractions,
    doc_to_csv,
    doc_to_json_bytes,
    doc_to_plotdata,
    empty_query_stats,
    fold,
    fold_blocks,
    merge,
    merge_into,
    read_report_doc,
    render_doc,
    top_level_fractions,
    top_senders,
    trend_csv_from_docs,
    unexpected_fraction,
    write_report,
)
from roottrace.synth import tsv_bytes

LEAF_POOL = [
    Classification(Leaf.EMPTY),
    Classification(Leaf.ONE_WORD_MINIMIZED, "com"),
    Classification(Leaf.ONE_WORD_MINIMIZED, "net"),
    Classification(Leaf.ONE_WORD_CHROMIUM),
    Classification(Leaf.ONE_WORD_OTHER),
    Classification(Leaf.VALID_TLD, "com", False),
    Classification(Leaf.VALID_TLD, "org", True),
    Classification(Leaf.INVALID_APPLETALK),
    Classification(Leaf.INVALID_BAD_ENCODING),
    Classification(Leaf.INVALID_ALL_NUMERIC),
    Classification(Leaf.INVALID_CHROMIUM),
    Classification(Leaf.INVALID_OTHER, "internal"),
]

QTYPES = [1, 2, 6, 28, 48]


def random_pairs(rng, n, sources=("44.242.1.2", "34.223.9.9", "2600:1:2:3::9")):
    pairs = []
    for i in range(n):
        rec = QueryRecord(
            1 + i,
            rng.choice(sources),
            1,
            rng.choice(QTYPES),
            "x.",
        )
        pairs.append((rec, rng.choice(LEAF_POOL)))
    return pairs


def random_report(rng, label=""):
    return fold(random_pairs(rng, rng.randint(0, 60)), label=label)


def fold_tsv_like(raw_names, registry, source="1.2.3.4"):
    """The names as the lines of a TSV trace, folded like the CLI folds them."""
    records = [QueryRecord(i + 1, source, 1, 1, name) for i, name in enumerate(raw_names)]
    stats = IngestStats()
    blocks = decode_tsv(io.BytesIO(tsv_bytes(records)), stats)
    return fold_blocks(classify_block(block, registry, stats=stats) for block in blocks)


def test_fold_hand_countable(registry):
    report = fold_tsv_like([".", "com.", "www.example.com."], registry)
    assert report.total == 3
    assert report.leaf_counts[Classification(Leaf.EMPTY)] == 1
    assert report.leaf_counts[Classification(Leaf.ONE_WORD_MINIMIZED, "com")] == 1
    assert report.leaf_counts[Classification(Leaf.VALID_TLD, "com", False)] == 1


def test_fold_empty_input():
    report = fold([])
    assert report.total == 0
    assert not report.leaf_counts
    assert not report.qtype_counts
    assert not report.sender_counts


def test_fold_counting_invariants(registry):
    rng = random.Random(1)
    report = fold(random_pairs(rng, 5_000))
    assert report.total == 5_000
    assert sum(report.leaf_counts.values()) == report.total
    assert sum(report.qtype_counts.values()) == report.total
    per_sender = sum(report.sender_counts.values())
    assert per_sender == report.total
    empty_total = report.leaf_counts.get(Classification(Leaf.EMPTY), 0)
    assert sum(report.empty_by_sender.values()) == empty_total


def test_total_is_derived_from_leaf_counts():
    assert "total" not in {f.name for f in dataclasses.fields(Report)}
    rng = random.Random(21)
    reports = [random_report(rng) for _ in range(50)] + [Report(), fold([], track_senders=False)]
    reports.append(merge(reports[0], reports[1]))
    for report in reports:
        assert report.total == sum(report.leaf_counts.values())
    with pytest.raises(AttributeError):
        Report().total = 1


def nondefault_reports() -> list[Report]:
    """Two Reports that between them give every field a value other than
    its default: one with senders tracked, one without, whose sender tables
    are then empty. A field added to Report must be listed here."""
    counts = {
        "label": "2013+2022",
        "leaf_counts": Counter({Classification(Leaf.EMPTY): 3, Classification(Leaf.VALID_TLD, "com", False): 2}),
        "qtype_counts": Counter({2: 3, 1: 2}),
        "sender_counts": Counter({7 << LEAF_BITS | 0: 3, 9 << LEAF_BITS | 5: 2}),
        "empty_by_sender": Counter({7 << QTYPE_BITS | 2: 3}),
        "dropped": 4,
    }
    untracked = dict(counts, sender_counts=Counter(), empty_by_sender=Counter(), senders_tracked=False)
    reports = [Report(**counts), Report(**untracked)]
    default = Report()
    for f in dataclasses.fields(Report):
        assert any(getattr(r, f.name) != getattr(default, f.name) for r in reports), f.name
    return reports


def test_merge_into_adds_every_field():
    for report in nondefault_reports():
        assert merge_into(Report(), report) == report
        assert merge(report, Report()) == report
        assert merge(Report(), report) == report


def test_merge_shares_no_counter_and_changes_neither():
    rng = random.Random(22)
    counters = [f.name for f in dataclasses.fields(Report) if isinstance(getattr(Report(), f.name), Counter)]
    assert counters
    for _ in range(50):
        a, b = random_report(rng, label="a"), random_report(rng, label="b")
        a_copy, b_copy = pickle.loads(pickle.dumps((a, b)))
        merged = merge(a, b)
        assert (a, b) == (a_copy, b_copy)
        for name in counters:
            assert getattr(merged, name) is not getattr(a, name)
            assert getattr(merged, name) is not getattr(b, name)
        merged.leaf_counts[Classification(Leaf.EMPTY)] += 1
        merged.sender_counts[1] += 1
        assert (a, b) == (a_copy, b_copy)


def test_merge_identity():
    rng = random.Random(2)
    report = random_report(rng, label="2022")
    assert merge(report, Report()) == report
    assert merge(Report(), report) == report


def test_merge_commutative_and_associative():
    rng = random.Random(3)
    for _ in range(200):
        a, b, c = (random_report(rng, label=l) for l in ("a", "b", "c"))
        assert merge(a, b) == merge(b, a)
        assert merge(merge(a, b), c) == merge(a, merge(b, c))


def test_fold_split_equals_merge():
    rng = random.Random(4)
    for _ in range(50):
        pairs = random_pairs(rng, rng.randint(0, 200))
        cut = rng.randint(0, len(pairs))
        whole = fold(pairs)
        split = merge(fold(pairs[:cut]), fold(pairs[cut:]))
        assert split == whole


def test_merge_untracked_propagates():
    rng = random.Random(5)
    tracked = random_report(rng)
    untracked = fold(random_pairs(rng, 10), track_senders=False)
    merged = merge(tracked, untracked)
    assert not merged.senders_tracked
    assert merged.sender_counts == {}


def test_merge_into_is_merge_in_place():
    rng = random.Random(51)
    for _ in range(200):
        a, b = random_report(rng, label="a"), random_report(rng, label="b")
        b_copy = merge(b, Report())
        expected = merge(a, b)
        assert merge_into(a, b) is a
        assert a == expected
        assert b == b_copy  # the added report is left as it was
        # and the accumulator shares no table with it
        assert a.sender_counts is not b.sender_counts
        assert a.empty_by_sender is not b.empty_by_sender


def sent(report: Report) -> Report:
    """report as a worker process sends it: pickled and read back."""
    return pickle.loads(pickle.dumps(report, pickle.HIGHEST_PROTOCOL))


def test_pickled_report_merges_like_its_report():
    rng = random.Random(52)
    for _ in range(200):
        a, b = random_report(rng, label="a"), random_report(rng, label="b")
        assert merge_into(merge(a, Report()), sent(b)) == merge(a, b)
    untracked = fold(random_pairs(rng, 10), track_senders=False)
    merged = merge_into(random_report(rng), sent(untracked))
    assert not merged.senders_tracked
    assert merged.sender_counts == merged.empty_by_sender == {}


def test_pickled_report_keeps_edge_keys_qtypes_and_counts():
    rng = random.Random(53)
    sources = ("44.242.1.2", "255.255.1.1", "2600:1:2:3::9", "ffff:ffff:ffff::1")
    empty = Classification(Leaf.EMPTY)
    pairs = random_pairs(rng, 500, sources=sources)
    # root-name queries at both ends of the qtype range, from the largest key
    pairs += [(QueryRecord(1, "ffff:ffff:ffff::1", 1, qtype, "."), empty) for qtype in (0, 65535, 65535)]
    report = fold(pairs)
    acc = random_report(rng, label="acc")
    assert max(report.sender_counts) >> LEAF_BITS > 2**32
    assert {0, 65535} <= {pair & ((1 << QTYPE_BITS) - 1) for pair in report.empty_by_sender}
    assert merge_into(merge(acc, Report()), sent(report)) == merge(acc, report)

    first = next(iter(report.sender_counts))
    for count in (2**32 - 1, 2**32):
        report.sender_counts[first] = count
        assert merge_into(merge(acc, Report()), sent(report)) == merge(acc, report)
    report.empty_by_sender[max(report.empty_by_sender)] = 2**40
    assert merge_into(Report(), sent(report)) == merge(Report(), report)
    assert merge_into(merge(acc, Report()), sent(report)) == merge(acc, report)


def test_top_level_fractions_sum_to_one():
    rng = random.Random(6)
    for _ in range(50):
        report = random_report(rng)
        if report.total == 0:
            continue
        fractions = top_level_fractions(report)
        assert abs(sum(fractions.values()) - 1.0) < 1e-9


def test_top_level_fractions_single_empty(registry):
    report = fold_tsv_like(["."], registry)
    fractions = top_level_fractions(report)
    assert fractions[TopCategory.EMPTY] == 1.0
    assert fractions[TopCategory.VALID_TLD] == 0.0


def test_top_level_fractions_rejects_empty_report():
    with pytest.raises(ValueError):
        top_level_fractions(Report())


def test_top_senders_ranking(registry):
    # 44.242/16 sends invalid-heavy traffic and the most queries
    names = ["host.invalidz." for _ in range(6)] + ["www.example.com."] * 4
    heavy = fold_tsv_like(names, registry, source="44.242.1.2")
    light = fold_tsv_like(["www.example.com."] * 3, registry, source="9.9.9.9")
    report = merge(heavy, light)
    rows = top_senders(report, k=2)
    assert rows[0]["prefix"] == "44.242.0.0/16"
    assert rows[0]["total"] == 10
    categories = rows[0]["categories"]
    assert categories[TopCategory.INVALID_TLD.value] == 6
    assert categories[TopCategory.INVALID_TLD.value] > categories[TopCategory.VALID_TLD.value]
    assert rows[1]["prefix"] == "9.9.0.0/16"


def test_top_senders_k_larger_than_population(registry):
    report = fold_tsv_like(["a.com."], registry)
    assert len(top_senders(report, k=50)) == 1


def test_top_senders_tie_breaks_lexicographically(registry):
    a = fold_tsv_like(["a.com."], registry, source="10.2.0.1")
    b = fold_tsv_like(["b.com."], registry, source="10.10.0.1")
    rows = top_senders(merge(a, b), k=2)
    # "10.10.0.0/16" < "10.2.0.0/16" as strings
    assert [r["prefix"] for r in rows] == ["10.10.0.0/16", "10.2.0.0/16"]


def test_top_senders_totals_non_increasing():
    rng = random.Random(7)
    report = fold(random_pairs(rng, 3_000, sources=tuple(f"10.{i}.0.1" for i in range(30))))
    rows = top_senders(report, k=30)
    totals = [r["total"] for r in rows]
    assert totals == sorted(totals, reverse=True)


def test_top_senders_rejects_bad_k(registry):
    report = fold_tsv_like(["a.com."], registry)
    with pytest.raises(ValueError):
        top_senders(report, k=0)


@pytest.mark.parametrize("k", [0, -1])
def test_sender_rankings_reject_bad_k(registry, k):
    report = fold_tsv_like([".", "a.com."], registry)
    with pytest.raises(ValueError, match="k must be positive"):
        top_senders(report, k=k)
    with pytest.raises(ValueError, match="k must be positive"):
        empty_query_stats(report, k=k)


def test_top_senders_requires_tracking():
    report = fold([], track_senders=False)
    with pytest.raises(ValueError):
        top_senders(report, k=1)


def test_empty_query_stats_by_construction():
    # 1000 distinct /16 prefixes x 3 root NS queries each
    pairs = []
    i = 0
    for p in range(1000):
        source = f"{20 + p % 200}.{p // 200}.0.1"
        for _ in range(3):
            i += 1
            pairs.append((QueryRecord(i, source, 1, 2, "."), Classification(Leaf.EMPTY)))
    report = fold(pairs)
    stats = empty_query_stats(report)
    assert stats["total"] == 3000
    assert stats["mean_per_sender"] == pytest.approx(3.0)
    assert stats["qtype_fractions"] == {"NS": 1.0}


def test_empty_query_stats_no_empty(registry):
    report = fold_tsv_like(["a.com."], registry)
    stats = empty_query_stats(report)
    assert stats["total"] == 0
    assert stats["mean_per_sender"] is None
    assert stats["qtype_fractions"] == {}


def test_empty_query_stats_top_list(registry):
    heavy = fold_tsv_like(["."] * 5, registry, source="8.8.1.1")
    light = fold_tsv_like(["."] * 2 + ["a.com."], registry, source="9.9.1.1")
    stats = empty_query_stats(merge(heavy, light), k=1)
    assert stats["total"] == 7
    assert stats["senders"] == 2
    assert len(stats["top"]) == 1
    assert stats["top"][0]["prefix"] == "8.8.0.0/16"
    assert stats["top"][0]["qtypes"] == {"A": 5}


def test_chromium_series_hand_trace(registry):
    names = ["daozjwend.", "qwertyzz."] + ["www.example.com."] * 8
    report = fold_tsv_like(names, registry)
    report.label = "x"
    doc = build_report_doc(report)
    no_tld, with_tld = chromium_fractions(doc)
    assert doc["meta"]["label"] == "x"
    assert no_tld == pytest.approx(0.2)
    assert with_tld == 0.0


def test_chromium_series_with_tld_pools_both_leaves(registry):
    names = ["qwertyuiop.com.", "qwertyuiop.notatld9."] + ["foo.com."] * 2
    report = fold_tsv_like(names, registry)
    no_tld, with_tld = chromium_fractions(build_report_doc(report))
    assert no_tld == 0.0
    assert with_tld == pytest.approx(0.5)


def test_chromium_series_empty_cases(registry):
    report = fold_tsv_like(["www.example.com."], registry)
    a, b = chromium_fractions(build_report_doc(report))
    assert (a, b) == (0.0, 0.0)
    assert chromium_fractions(build_report_doc(Report(label="e"))) == (0.0, 0.0)


def minimized_by_tld(report):
    minimized = build_report_doc(report)["leaves"]["one_word"]["minimized"]
    return minimized["total"], minimized["by_tld"]


def test_qmin_series_hand_trace(registry):
    report = fold_tsv_like(["com.", "com.", "net.", "org."], registry)
    assert minimized_by_tld(report) == (4, {"com": 2, "net": 1, "org": 1})


def test_qmin_series_other_bucket(registry):
    report = fold_tsv_like(["io.", "arpa.", "com.", "x.com."], registry)
    total, by_tld = minimized_by_tld(report)
    assert (total, by_tld) == (3, {"arpa": 1, "com": 1, "io": 1})
    assert (by_tld["arpa"] + by_tld["io"]) / report.total == pytest.approx(0.5)
    assert by_tld["com"] / report.total == pytest.approx(0.25)


def test_qmin_series_no_minimized(registry):
    report = fold_tsv_like(["www.example.com."], registry)
    assert minimized_by_tld(report) == (0, {})
    assert "minimized\t" not in doc_to_plotdata(build_report_doc(report)).decode()


def test_unexpected_all_valid(registry):
    report = fold_tsv_like(["www.example.com."] * 5, registry)
    assert unexpected_fraction(report) == 0.0


def test_unexpected_all_empty(registry):
    report = fold_tsv_like(["."] * 5, registry)
    assert unexpected_fraction(report) == 1.0


def test_unexpected_matches_complement_exactly():
    rng = random.Random(8)
    for _ in range(100):
        report = random_report(rng)
        if report.total == 0:
            assert unexpected_fraction(report) == 0.0
            continue
        expected_counts = sum(
            n for cls, n in report.leaf_counts.items()
            if cls.leaf in (Leaf.VALID_TLD, Leaf.ONE_WORD_MINIMIZED)
        )
        assert unexpected_fraction(report) == (report.total - expected_counts) / report.total
        assert 0.0 <= unexpected_fraction(report) <= 1.0


def test_invalid_only_policy(registry):
    report = fold_tsv_like(["host.internal.", ".", "com."], registry)
    assert unexpected_fraction(report, INVALID_ONLY_POLICY) == pytest.approx(1 / 3)


def test_chromium_components_bounded():
    rng = random.Random(9)
    for _ in range(50):
        report = random_report(rng, label="r")
        a, b = chromium_fractions(build_report_doc(report))
        assert a + b <= 1.0 + 1e-12


def test_write_report_deterministic(registry):
    report = fold_tsv_like([".", "com.", "x.com.", "host.internal."], registry)
    meta = {"label": "2022", "seed": 1}
    first = write_report(report, "json", meta=meta)
    second = write_report(report, "json", meta=meta)
    assert first == second
    doc = json.loads(first)
    assert set(doc) == {"meta", "totals", "leaves", "qtypes", "senders", "empty_stats", "policy"}


def test_write_report_empty_report():
    data = write_report(Report(), "json")
    doc = json.loads(data)
    assert doc["totals"]["records"] == 0
    assert "fractions" not in doc["totals"]


def test_report_doc_contents(registry):
    report = fold_tsv_like(
        [".", "com.", "net.", "qwertyuiop.com.", "host.internal.", "foo.\\255\\001.", "a.12345."],
        registry,
    )
    doc = build_report_doc(report, policy=DEFAULT_POLICY)
    leaves = doc["leaves"]
    assert leaves["empty"] == 1
    assert leaves["one_word"]["minimized"] == {"total": 2, "by_tld": {"com": 1, "net": 1}}
    assert leaves["has_tld"]["valid"] == {"total": 1, "chromium_like": 1, "by_tld": {"com": 1}}
    assert leaves["has_tld"]["invalid"]["bad_encoding"] == 1
    assert leaves["has_tld"]["invalid"]["all_numeric"] == 1
    assert leaves["has_tld"]["invalid"]["other"] == {"total": 1, "by_tld": {"internal": 1}}
    assert doc["qtypes"] == {"A": 7}
    assert doc["policy"]["name"] == "default"
    assert doc["policy"]["unexpected_fraction"] == pytest.approx(4 / 7)


def test_trend_csv(registry):
    r1 = fold_tsv_like(["."] * 2 + ["a.com."] * 2, registry)
    r1.label = "2013"
    r2 = fold_tsv_like(["host.internal."], registry)
    r2.label = "2022"
    for report in (r1, r2):
        assert abs(sum(top_level_fractions(report).values()) - 1.0) < 1e-9
    csv = trend_csv_from_docs([build_report_doc(r1), build_report_doc(r2)])
    lines = csv.strip().split("\n")
    assert lines[0] == "label,empty,one_word,invalid_tld,valid_tld"
    assert len(lines) == 3
    assert lines[1].startswith("2013,0.5,")


def test_trend_from_docs_round_trip(registry):
    reports = []
    for label, names in (("2013", ["a.com."] * 3 + ["."]), ("2022", ["."] * 3 + ["a.com."])):
        report = fold_tsv_like(names, registry)
        report.label = label
        reports.append(report)
    docs = [read_report_doc(write_report(r, "json")) for r in reports]
    csv = trend_csv_from_docs(docs)
    rows = [",".join([r.label] + [str(f) for f in top_level_fractions(r).values()])
            for r in reports]
    assert csv == "\n".join(["label,empty,one_word,invalid_tld,valid_tld"] + rows) + "\n"


def test_empty_report_csv_row_is_zeros():
    doc = build_report_doc(Report(label="x"))
    assert doc_to_csv(doc) == b"label,empty,one_word,invalid_tld,valid_tld\nx,0,0,0,0\n"


def test_empty_report_has_no_trend_row():
    doc = build_report_doc(Report(label="x"))
    with pytest.raises(ValueError, match="'x' is empty"):
        trend_csv_from_docs([doc])


def test_plotdata_sections(registry):
    report = fold_tsv_like([".", "com.", "x.com."], registry)
    doc = build_report_doc(report)
    text = doc_to_plotdata(doc).decode()
    for section in ("top_level_fractions", "qtypes", "minimized_by_tld", "chromium", "top_senders"):
        assert f"# series: {section}" in text


def test_read_report_doc_rejects_junk():
    with pytest.raises(ValueError):
        read_report_doc(b"{}")


def one_record_doc():
    """A stored report document with one sender row and fractions."""
    pairs = [(QueryRecord(1, "44.242.1.2", 1, 2, "."), Classification(Leaf.EMPTY))]
    return json.loads(write_report(fold(pairs, label="x"), "json"))


def parent_and_key(doc, path):
    """The object or array holding path ('senders.top[0].categories'), and
    the last key or index of path."""
    *parents, last = (int(key) if key.isdigit() else key for key in re.findall(r"[^.\[\]]+", path))
    for key in parents:
        doc = doc[key]
    return doc, last


def edited_doc_text(path, value):
    doc = one_record_doc()
    node, key = parent_and_key(doc, path)
    node[key] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "path",
    ["senders", "empty_stats", "totals.records", "leaves.one_word.minimized",
     "leaves.has_tld.invalid.chromium", "senders.top[0].categories", "totals.fractions.empty",
     "empty_stats.top", "totals.fractions"],
)
def test_read_report_doc_names_the_missing_key(path):
    doc = one_record_doc()
    node, key = parent_and_key(doc, path)
    del node[key]
    with pytest.raises(ValueError, match=f"missing {re.escape(repr(path))}"):
        read_report_doc(json.dumps(doc))


@pytest.mark.parametrize(
    "text, where, held",
    [pytest.param('"meta totals leaves qtypes"', "the top level", '"meta totals leaves qtypes", not a JSON object',
                  id='"meta totals leaves qtypes"-the top level'),
     pytest.param("[1, 2]", "the top level", "[1, 2], not a JSON object", id="[1, 2]-the top level"),
     pytest.param('{"meta": {}, "totals": []}', "'totals'", "[], not a JSON object",
                  id='{"meta": {}, "totals": []}-\'totals\''),
     pytest.param(edited_doc_text("meta.label", 2013), "'meta.label'", "2013, not a string", id="meta.label"),
     pytest.param(edited_doc_text("totals.records", "x"), "'totals.records'", '"x", not a count',
                  id="totals.records"),
     pytest.param(edited_doc_text("senders.top", 5), "'senders.top'", "5, not a JSON array", id="senders.top"),
     pytest.param(edited_doc_text("senders.top[0].total", True), "'senders.top[0].total'", "true, not a count",
                  id="senders.top[0].total"),
     # JSON has no number for these (RFC 8259), though json.loads reads them
     pytest.param(edited_doc_text("totals.fractions.empty", math.nan), "the text", "NaN, not a JSON number",
                  id="totals.fractions.empty-NaN"),
     pytest.param(edited_doc_text("policy.unexpected_fraction", math.inf), "the text", "Infinity, not a JSON number",
                  id="policy.unexpected_fraction-Infinity"),
     pytest.param(edited_doc_text("meta.harness", -math.inf), "the text", "-Infinity, not a JSON number",
                  id="meta.harness--Infinity")],
)
def test_read_report_doc_rejects_non_objects(text, where, held):
    with pytest.raises(ValueError, match=re.escape(f"not a report document: {where} holds {held}")):
        read_report_doc(text)


def test_read_report_doc_rejects_unlisted_keys_outside_meta():
    doc = one_record_doc()
    doc["meta"]["harness"] = {"any": ["shape"]}
    assert read_report_doc(json.dumps(doc)) == doc
    doc["totals"]["extra"] = 1
    with pytest.raises(ValueError, match="unexpected key 'totals.extra'"):
        read_report_doc(json.dumps(doc))


PERFBENCH_META = {"inputs": ["trace000.tsv"], "format": "tsv", "sample_rate": 1.0, "seed": 0,
                  "window": None, "day_origin": None, "appletalk": ["appletalk"]}


@pytest.mark.parametrize(
    "report, meta, top_k",
    [pytest.param(Report(), None, 10, id="empty"),
     pytest.param(fold(random_pairs(random.Random(11), 200), label="u", track_senders=False), None, 10,
                  id="untracked"),
     pytest.param(fold(random_pairs(random.Random(12), 200)), None, 50, id="top_k-beyond-population"),
     pytest.param(fold(random_pairs(random.Random(13), 200)), PERFBENCH_META, 10, id="perfbench-meta")],
)
def test_built_documents_conform_to_the_schema(report, meta, top_k):
    doc = build_report_doc(report, meta=meta, top_k=top_k)
    data = doc_to_json_bytes(doc)
    assert read_report_doc(data) == json.loads(data)


@pytest.mark.parametrize("label", ["2013,b", 'say "hi"', "cr\rlabel", "lf\nlabel", ",", '"'])
def test_csv_label_is_quoted(registry, label):
    report = fold_tsv_like([".", "a.com."], registry)
    report.label = label
    doc = build_report_doc(report)
    header = ["label", "empty", "one_word", "invalid_tld", "valid_tld"]
    row = [label] + [str(doc["totals"]["fractions"][c]) for c in header[1:]]
    single = doc_to_csv(doc).decode()
    assert single.split("\n", 1)[1].startswith('"' + label.replace('"', '""') + '",')
    assert list(csv.reader(io.StringIO(single, newline=""))) == [header, row]
    trend = trend_csv_from_docs([doc, doc])
    assert list(csv.reader(io.StringIO(trend, newline=""))) == [header, row, row]


def test_sender_rollup_consistency(registry):
    rng = random.Random(10)
    report = fold(random_pairs(rng, 2_000))
    rows = top_senders(report, k=100)
    for cat in TopCategory:
        total_cat = sum(r["categories"][cat.value] for r in rows)
        leaf_total = sum(
            n for cls, n in report.leaf_counts.items() if LEAF_TOP[cls.leaf] is cat
        )
        assert total_cat == leaf_total


# --- top-k selection: must equal a full sort on (-total, prefix) -------------


def sender_rows(report):
    """Each sender prefix's LEAVES-ordered row of counts."""
    rows = {}
    for pair, n in report.sender_counts.items():
        rows.setdefault(prefix_text(pair >> LEAF_BITS), [0] * len(LEAVES))[pair & ((1 << LEAF_BITS) - 1)] += n
    return rows


def empty_rows(report):
    """Each sender prefix's root-name queries by qtype code."""
    rows = {}
    for pair, n in report.empty_by_sender.items():
        rows.setdefault(prefix_text(pair >> QTYPE_BITS), {})[pair & ((1 << QTYPE_BITS) - 1)] = n
    return rows


def full_sort_senders(report):
    rows = []
    for prefix, row in sender_rows(report).items():
        categories = {cat.value: 0 for cat in TopCategory}
        for leaf, n in zip(LEAVES, row):
            categories[LEAF_TOP[leaf].value] += n
        rows.append((prefix, sum(row), categories))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


def full_sort_empty_senders(report):
    rows = [
        (prefix, sum(q.values()), {qtype_mnemonic(code): n for code, n in q.items()})
        for prefix, q in empty_rows(report).items()
    ]
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


def tied_report():
    # Per-/16 totals 5, 3, 3, 3, 1, of which root-name queries 3, 2, 2, 2, 1:
    # with k=3 a three-way tie spans the cut in both tables, and only the two
    # smallest prefixes (as strings) may be kept.
    empty, valid = Classification(Leaf.EMPTY), Classification(Leaf.VALID_TLD, "com", False)
    plan = [("10.9.0.1", 5), ("10.30.0.1", 3), ("10.4.0.1", 3), ("10.200.0.1", 3), ("10.1.0.1", 1)]
    pairs = []
    for source, n in plan:
        for i in range(n):
            qtype = 2 if i % 4 == 0 else 48  # empties alternate NS, DNSKEY
            pairs.append((QueryRecord(len(pairs) + 1, source, 1, qtype, "."), valid if i % 2 else empty))
    return fold(pairs)


def test_top_senders_tie_across_kth_place():
    report = tied_report()
    rows = top_senders(report, k=3)
    assert [(r["prefix"], r["total"]) for r in rows] == [
        ("10.9.0.0/16", 5), ("10.200.0.0/16", 3), ("10.30.0.0/16", 3),
    ]
    assert [(r["prefix"], r["total"], r["categories"]) for r in rows] == full_sort_senders(report)[:3]


def test_top_senders_k_beyond_population_equals_full_sort():
    report = tied_report()
    rows = top_senders(report, k=50)
    assert [(r["prefix"], r["total"], r["categories"]) for r in rows] == full_sort_senders(report)


def test_empty_query_stats_tie_across_kth_place():
    report = tied_report()
    full = empty_query_stats(report, k=len(empty_rows(report)))
    for k in (1, 2, 3, 4, 5, 50):
        stats = empty_query_stats(report, k=k)
        assert [(r["prefix"], r["total"], r["qtypes"]) for r in stats["top"]] == (
            full_sort_empty_senders(report)[:k])
        assert {key: stats[key] for key in ("total", "senders", "mean_per_sender", "qtype_fractions")} == {
            key: full[key] for key in ("total", "senders", "mean_per_sender", "qtype_fractions")
        }
    assert [r["prefix"] for r in empty_query_stats(report, k=3)["top"]] == [
        "10.9.0.0/16", "10.200.0.0/16", "10.30.0.0/16",
    ]


def test_top_k_matches_full_sort_on_tie_heavy_reports():
    sources = tuple(f"10.{i}.0.1" for i in range(40)) + ("2600:1:2:3::9", "2600:1:2:4::9")
    for seed in range(20):
        rng = random.Random(seed)
        report = fold(random_pairs(rng, rng.randint(0, 150), sources=sources))
        senders = full_sort_senders(report)
        empties = full_sort_empty_senders(report)
        empty_total = sum(r[1] for r in empties)
        qtype_totals = {}
        for _, _, qtypes in empties:
            for m, n in qtypes.items():
                qtype_totals[m] = qtype_totals.get(m, 0) + n
        for k in (1, 2, 5, 17, 41, 100):
            rows = top_senders(report, k)
            assert [(r["prefix"], r["total"], r["categories"]) for r in rows] == senders[:k]
            stats = empty_query_stats(report, k=k)
            assert [(r["prefix"], r["total"], r["qtypes"]) for r in stats["top"]] == empties[:k]
            assert stats["senders"] == len(empties)
            assert stats["mean_per_sender"] == (empty_total / len(empties) if empties else None)
            assert stats["qtype_fractions"] == (
                {m: n / empty_total for m, n in sorted(qtype_totals.items())} if empty_total else {}
            )


# --- the document's sender sections against text-keyed tables ----------------

# text order differs from key order: "10.1.0.0/16" < "9.1.0.0/16" and
# "2001:db8::/48" < "3.0.0.0/16", while every IPv4 key is below every IPv6 one
ORDER_TRAPS = ("9.1.2.3", "10.1.2.3", "9.200.0.1", "10.20.0.1", "20.1.7.7", "2001:db8::1",
               "2001:db8:1::1", "3.0.0.1", "200.1.0.1", "::1", "ffff:ffff:ffff::1")


def text_keyed_sections(pairs, k):
    """The senders and empty_stats sections, counted by prefix text from
    ipaddress and ranked by a full sort on (-total, prefix)."""
    categories, root_queries = {}, {}
    for rec, cls in pairs:
        length = 48 if ":" in rec.source else 16
        prefix = ipaddress.ip_network((rec.source, length), strict=False).with_prefixlen
        row = categories.setdefault(prefix, {cat.value: 0 for cat in TopCategory})
        row[LEAF_TOP[cls.leaf].value] += 1
        if cls.leaf is Leaf.EMPTY:
            by_qtype = root_queries.setdefault(prefix, {})
            mnemonic = qtype_mnemonic(rec.qtype)
            by_qtype[mnemonic] = by_qtype.get(mnemonic, 0) + 1

    def ranked(table):
        return sorted(table.items(), key=lambda item: (-sum(item[1].values()), item[0]))[:k]

    empty_total = sum(sum(q.values()) for q in root_queries.values())
    qtype_totals = {}
    for by_qtype in root_queries.values():
        for mnemonic, n in by_qtype.items():
            qtype_totals[mnemonic] = qtype_totals.get(mnemonic, 0) + n
    senders = {"tracked": True, "count": len(categories),
               "top": [{"prefix": p, "total": sum(c.values()), "categories": c} for p, c in ranked(categories)]}
    empty_stats = {
        "total": empty_total,
        "senders": len(root_queries),
        "mean_per_sender": empty_total / len(root_queries) if root_queries else None,
        "qtype_fractions": {m: n / empty_total for m, n in sorted(qtype_totals.items())} if empty_total else {},
        "top": [{"prefix": p, "total": sum(q.values()), "qtypes": dict(sorted(q.items()))}
                for p, q in ranked(root_queries)],
    }
    return senders, empty_stats


def tie_heavy_pairs(rng):
    """Records from the order traps and seeded IPv4 and IPv6 sources, each
    source sending one to three, so totals tie at every rank."""
    sources = list(ORDER_TRAPS)
    sources += [str(ipaddress.IPv4Address(rng.getrandbits(32))) for _ in range(rng.randint(0, 30))]
    sources += [str(ipaddress.IPv6Address(rng.getrandbits(128))) for _ in range(rng.randint(0, 10))]
    pairs = []
    for source in sources:
        for _ in range(rng.choice((1, 1, 2, 2, 3))):
            qtype = rng.choice((0, 1, 2, 28, 48, 65535))
            pairs.append((QueryRecord(len(pairs) + 1, source, 1, qtype, "."), rng.choice(LEAF_POOL)))
    rng.shuffle(pairs)
    return pairs, len(sources)


def test_sender_sections_match_text_keyed_tables():
    for seed in range(30):
        rng = random.Random(seed)
        pairs, population = tie_heavy_pairs(rng)
        cut = rng.randint(0, len(pairs))
        whole = fold(pairs)
        split = merge_into(fold(pairs[:cut]), sent(fold(pairs[cut:])))
        for k in (1, 10, population + 5):
            senders, empty_stats = text_keyed_sections(pairs, k)
            for report in (whole, split):
                doc = build_report_doc(report, top_k=k)
                assert doc["senders"] == senders, (seed, k)
                assert doc["empty_stats"] == empty_stats, (seed, k)
                assert top_senders(report, k) == senders["top"]
                assert empty_query_stats(report, k) == empty_stats


# --- the renderer table --------------------------------------------------------


def test_render_doc_formats_and_alias(registry):
    report = fold_tsv_like([".", "com.", "x.com."], registry)
    doc = build_report_doc(report)
    assert render_doc(doc, "plotdata") == doc_to_plotdata(doc)
    for fmt in ("json", "csv", "plotdata"):
        assert write_report(report, fmt) == render_doc(doc, fmt)
    with pytest.raises(ValueError, match="unknown report format 'tsv-plotdata'"):
        render_doc(doc, "tsv-plotdata")


def test_render_doc_rejects_unknown_format(registry):
    report = fold_tsv_like(["com."], registry)
    with pytest.raises(ValueError, match="unknown report format 'xml'"):
        render_doc(build_report_doc(report), "xml")
    with pytest.raises(ValueError, match="unknown report format 'xml'"):
        write_report(report, "xml")
