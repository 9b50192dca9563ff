import json
import random

import pytest

from roottrace.classify import classify_stream
from roottrace.model import (
    LEAF_TOP,
    Classification,
    Leaf,
    QueryRecord,
    TopCategory,
    qtype_mnemonic,
)
from roottrace.report import (
    DEFAULT_POLICY,
    INVALID_ONLY_POLICY,
    LEAVES,
    Report,
    build_report_doc,
    chromium_series,
    doc_to_plotdata,
    empty_query_stats,
    fold,
    merge,
    qmin_series,
    read_report_doc,
    render_doc,
    top_level_fractions,
    top_senders,
    trend_csv_from_docs,
    trend_table,
    trend_to_csv,
    unexpected_fraction,
    write_report,
)

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
    records = [QueryRecord(i + 1, source, 1, 1, name) for i, name in enumerate(raw_names)]
    return fold(classify_stream(records, registry))


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
    per_sender = sum(sum(row) for row in report.sender_counts.values())
    assert per_sender == report.total
    empty_total = report.leaf_counts.get(Classification(Leaf.EMPTY), 0)
    assert sum(sum(c.values()) for c in report.empty_by_sender.values()) == empty_total


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
    assert rows[0].prefix.prefix == "44.242.0.0/16"
    assert rows[0].total == 10
    assert rows[0].categories[TopCategory.INVALID_TLD] == 6
    assert rows[0].categories[TopCategory.INVALID_TLD] > rows[0].categories[TopCategory.VALID_TLD]
    assert rows[1].prefix.prefix == "9.9.0.0/16"


def test_top_senders_k_larger_than_population(registry):
    report = fold_tsv_like(["a.com."], registry)
    assert len(top_senders(report, k=50)) == 1


def test_top_senders_tie_breaks_lexicographically(registry):
    a = fold_tsv_like(["a.com."], registry, source="10.2.0.1")
    b = fold_tsv_like(["b.com."], registry, source="10.10.0.1")
    rows = top_senders(merge(a, b), k=2)
    # "10.10.0.0/16" < "10.2.0.0/16" as strings
    assert [r.prefix.prefix for r in rows] == ["10.10.0.0/16", "10.2.0.0/16"]


def test_top_senders_totals_non_increasing():
    rng = random.Random(7)
    report = fold(random_pairs(rng, 3_000, sources=tuple(f"10.{i}.0.1" for i in range(30))))
    rows = top_senders(report, k=30)
    totals = [r.total for r in rows]
    assert totals == sorted(totals, reverse=True)


def test_top_senders_rejects_bad_k(registry):
    report = fold_tsv_like(["a.com."], registry)
    with pytest.raises(ValueError):
        top_senders(report, k=0)


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
    assert stats.total == 3000
    assert stats.mean_per_sender == pytest.approx(3.0)
    assert stats.qtype_fractions == {"NS": 1.0}


def test_empty_query_stats_no_empty(registry):
    report = fold_tsv_like(["a.com."], registry)
    stats = empty_query_stats(report)
    assert stats.total == 0
    assert stats.mean_per_sender is None
    assert stats.qtype_fractions == {}


def test_empty_query_stats_top_list(registry):
    heavy = fold_tsv_like(["."] * 5, registry, source="8.8.1.1")
    light = fold_tsv_like(["."] * 2 + ["a.com."], registry, source="9.9.1.1")
    stats = empty_query_stats(merge(heavy, light), k=1)
    assert stats.total == 7
    assert stats.sender_count == 2
    assert len(stats.top) == 1
    assert stats.top[0].prefix.prefix == "8.8.0.0/16"
    assert stats.top[0].qtypes == {"A": 5}


def test_chromium_series_hand_trace(registry):
    names = ["daozjwend.", "qwertyzz."] + ["www.example.com."] * 8
    report = fold_tsv_like(names, registry)
    report.label = "x"
    [(label, no_tld, with_tld)] = chromium_series([report])
    assert label == "x"
    assert no_tld == pytest.approx(0.2)
    assert with_tld == 0.0


def test_chromium_series_with_tld_pools_both_leaves(registry):
    names = ["qwertyuiop.com.", "qwertyuiop.notatld9."] + ["foo.com."] * 2
    report = fold_tsv_like(names, registry)
    [(_, no_tld, with_tld)] = chromium_series([report])
    assert no_tld == 0.0
    assert with_tld == pytest.approx(0.5)


def test_chromium_series_empty_cases(registry):
    report = fold_tsv_like(["www.example.com."], registry)
    [(_, a, b)] = chromium_series([report])
    assert (a, b) == (0.0, 0.0)
    assert chromium_series([Report(label="e")]) == [("e", 0.0, 0.0)]


def test_qmin_series_hand_trace(registry):
    report = fold_tsv_like(["com.", "com.", "net.", "org."], registry)
    [(_, buckets)] = qmin_series([report])
    assert buckets == {"com": 0.5, "net": 0.25, "org": 0.25, "other": 0.0}


def test_qmin_series_other_bucket(registry):
    report = fold_tsv_like(["io.", "arpa.", "com.", "x.com."], registry)
    [(_, buckets)] = qmin_series([report])
    assert buckets["other"] == pytest.approx(0.5)
    assert buckets["com"] == pytest.approx(0.25)


def test_qmin_series_no_minimized(registry):
    report = fold_tsv_like(["www.example.com."], registry)
    [(_, buckets)] = qmin_series([report])
    assert set(buckets.values()) == {0.0}


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
        [(_, a, b)] = chromium_series([report])
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
    table = trend_table([r1, r2])
    for _, fractions in table.rows:
        assert abs(sum(fractions.values()) - 1.0) < 1e-9
    csv = trend_to_csv(table)
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
    assert csv == trend_to_csv(trend_table(reports))


def test_plotdata_sections(registry):
    report = fold_tsv_like([".", "com.", "x.com."], registry)
    doc = build_report_doc(report)
    text = doc_to_plotdata(doc).decode()
    for section in ("top_level_fractions", "qtypes", "minimized_by_tld", "chromium", "top_senders"):
        assert f"# series: {section}" in text


def test_read_report_doc_rejects_junk():
    with pytest.raises(ValueError):
        read_report_doc(b"{}")


def test_sender_rollup_consistency(registry):
    rng = random.Random(10)
    report = fold(random_pairs(rng, 2_000))
    rows = top_senders(report, k=100)
    for cat in TopCategory:
        total_cat = sum(r.categories[cat] for r in rows)
        leaf_total = sum(
            n for cls, n in report.leaf_counts.items() if cls.top is cat
        )
        assert total_cat == leaf_total


# --- top-k selection: must equal a full sort on (-total, prefix) -------------


def full_sort_senders(report):
    rows = []
    for prefix, row in report.sender_counts.items():
        categories = {cat: 0 for cat in TopCategory}
        for leaf, n in zip(LEAVES, row):
            categories[LEAF_TOP[leaf]] += n
        rows.append((prefix, sum(row), categories))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


def full_sort_empty_senders(report):
    rows = [
        (prefix, sum(q.values()), {qtype_mnemonic(code): n for code, n in q.items()})
        for prefix, q in report.empty_by_sender.items()
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
    assert [(r.prefix.prefix, r.total) for r in rows] == [
        ("10.9.0.0/16", 5), ("10.200.0.0/16", 3), ("10.30.0.0/16", 3),
    ]
    assert [(r.prefix.prefix, r.total, r.categories) for r in rows] == full_sort_senders(report)[:3]


def test_top_senders_k_beyond_population_equals_full_sort():
    report = tied_report()
    rows = top_senders(report, k=50)
    assert [(r.prefix.prefix, r.total, r.categories) for r in rows] == full_sort_senders(report)


def test_empty_query_stats_tie_across_kth_place():
    report = tied_report()
    full = empty_query_stats(report, k=len(report.empty_by_sender))
    for k in (1, 2, 3, 4, 5, 50):
        stats = empty_query_stats(report, k=k)
        assert [(r.prefix.prefix, r.total, r.qtypes) for r in stats.top] == full_sort_empty_senders(report)[:k]
        assert (stats.total, stats.sender_count, stats.mean_per_sender, stats.qtype_fractions) == (
            full.total, full.sender_count, full.mean_per_sender, full.qtype_fractions,
        )
    assert [r.prefix.prefix for r in empty_query_stats(report, k=3).top] == [
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
            assert [(r.prefix.prefix, r.total, r.categories) for r in rows] == senders[:k]
            stats = empty_query_stats(report, k=k)
            assert [(r.prefix.prefix, r.total, r.qtypes) for r in stats.top] == empties[:k]
            assert stats.sender_count == len(empties)
            assert stats.mean_per_sender == (empty_total / len(empties) if empties else None)
            assert stats.qtype_fractions == (
                {m: n / empty_total for m, n in sorted(qtype_totals.items())} if empty_total else {}
            )


# --- the renderer table --------------------------------------------------------


def test_render_doc_formats_and_alias(registry):
    report = fold_tsv_like([".", "com.", "x.com."], registry)
    doc = build_report_doc(report)
    assert render_doc(doc, "tsv-plotdata") == render_doc(doc, "plotdata") == doc_to_plotdata(doc)
    for fmt in ("json", "csv", "plotdata", "tsv-plotdata"):
        assert write_report(report, fmt) == render_doc(doc, fmt)


def test_render_doc_rejects_unknown_format(registry):
    report = fold_tsv_like(["com."], registry)
    with pytest.raises(ValueError, match="unknown report format 'xml'"):
        render_doc(build_report_doc(report), "xml")
    with pytest.raises(ValueError, match="unknown report format 'xml'"):
        write_report(report, "xml")
