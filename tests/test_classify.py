import importlib
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from fuzznames import LOWER, random_label, random_name
from roottrace.classify import (
    DEFAULT_APPLETALK_TLDS,
    classify,
    classify_block,
    is_chromium_label,
)
from roottrace.ingest import Block, IngestStats
from roottrace.model import Classification, Leaf, QueryRecord, prefix_text, sender_key
from roottrace.names import parse_presentation, to_presentation

# the module, which the package's classify function shadows as an attribute
classify_module = importlib.import_module("roottrace.classify")


def name(raw):
    return parse_presentation(raw)


def test_empty(registry):
    assert classify(name("."), registry) == Classification(Leaf.EMPTY)


def test_one_word_minimized(registry):
    assert classify(name("com."), registry) == Classification(Leaf.ONE_WORD_MINIMIZED, "com")


def test_one_word_chromium(registry):
    assert classify(name("daozjwend."), registry) == Classification(Leaf.ONE_WORD_CHROMIUM)


def test_one_word_other(registry):
    assert classify(name("foobar."), registry) == Classification(Leaf.ONE_WORD_OTHER)


def test_all_numeric_tld(registry):
    assert classify(name("foo.12345."), registry) == Classification(Leaf.INVALID_ALL_NUMERIC)


def test_invalid_other_tld(registry):
    got = classify(name("host.internal."), registry)
    assert got == Classification(Leaf.INVALID_OTHER, "internal")


def test_valid_tld_plain(registry):
    got = classify(name("www.example.com."), registry)
    assert got == Classification(Leaf.VALID_TLD, "com", False)


def test_valid_tld_chromium_like(registry):
    # independent check of the probe shape before relying on the classifier
    import re

    assert re.fullmatch(r"[a-z]{7,15}", "qwertyuiop")
    got = classify(name("qwertyuiop.com."), registry)
    assert got == Classification(Leaf.VALID_TLD, "com", True)


def test_minimized_beats_chromium_shape(registry):
    # "networks" is 8 lowercase letters and a registry entry: order matters
    assert is_chromium_label(b"networks")
    got = classify(name("networks."), registry)
    assert got == Classification(Leaf.ONE_WORD_MINIMIZED, "networks")


def test_appletalk_default(registry):
    got = classify(name("printer.appletalk."), registry)
    assert got == Classification(Leaf.INVALID_APPLETALK)


def test_appletalk_configurable(registry):
    got = classify(name("x.printerzone."), registry, frozenset({"printerzone"}))
    assert got == Classification(Leaf.INVALID_APPLETALK)
    default = classify(name("x.printerzone."), registry)
    assert default == Classification(Leaf.INVALID_OTHER, "printerzone")


def test_appletalk_beats_all_numeric(registry):
    got = classify(name("x.123."), registry, frozenset({"123"}))
    assert got == Classification(Leaf.INVALID_APPLETALK)


def test_bad_encoding_tld(registry):
    got = classify(name("foo.\\255\\001."), registry)
    assert got == Classification(Leaf.INVALID_BAD_ENCODING)


def test_bad_encoding_judged_on_tld_only(registry):
    # escaped bytes in a left label do not matter, only the TLD decides
    got = classify(name("\\255\\001.com."), registry)
    assert got == Classification(Leaf.VALID_TLD, "com", False)


def test_invalid_chromium_two_labels_only(registry):
    assert classify(name("xyzrandomabc.zz-notatld."), registry) == Classification(Leaf.INVALID_CHROMIUM)
    got = classify(name("xyzrandomabc.corp.zz-notatld."), registry)
    assert got == Classification(Leaf.INVALID_OTHER, "zz-notatld")


def test_valid_chromium_two_labels_only(registry):
    got = classify(name("xyzrandomabc.corp.com."), registry)
    assert got == Classification(Leaf.VALID_TLD, "com", False)


def test_underscore_tld_is_other_not_bad_encoding(registry):
    got = classify(name("x.my_zone."), registry)
    assert got == Classification(Leaf.INVALID_OTHER, "my_zone")


def test_tld_case_invariance(registry):
    rng = random.Random(99)
    tlds = [entry.decode() for entry in sorted(registry.entries)]
    for _ in range(200):
        tld = rng.choice(tlds)
        mixed = "".join(c.upper() if rng.random() < 0.5 else c for c in tld)
        lower = classify((b"host", tld.encode()), registry)
        upper = classify((b"host", mixed.encode()), registry)
        assert lower == upper == Classification(Leaf.VALID_TLD, tld, False)


@pytest.mark.parametrize("label,expected", [
    (b"daozjwend", True),
    (b"abcdefg", True),
    (b"a" * 15, True),
    (b"abcdef", False),
    (b"a" * 16, False),
    (b"Daozjwend", False),
    (b"daozjwen1", False),
    (b"daoz-jwend", False),
    (b"", False),
    (b"d\xe4ozjwend", False),
])
def test_is_chromium_label(label, expected):
    assert is_chromium_label(label) is expected


@pytest.mark.parametrize("label,expected", [
    (b"12345", True),
    (b"12a45", False),
    (b"0", True),
    (b"", False),
])
def test_is_all_numeric(label, expected, registry):
    got = classify((b"host", label), registry)
    assert (got.leaf is Leaf.INVALID_ALL_NUMERIC) is expected


def test_fuzz_totality_and_partition(registry):
    rng = random.Random(0xF00D)
    tld_sample = sorted(registry.entries)[:50]
    n = 100_000
    counts = {}
    for _ in range(n):
        cls = classify(random_name(rng, tld_sample), registry)
        counts[cls.leaf] = counts.get(cls.leaf, 0) + 1
    assert sum(counts.values()) == n
    assert set(counts) <= set(Leaf)


def test_determinism_across_threads(registry, monkeypatch):
    rng = random.Random(5)
    tld_sample = sorted(registry.entries)[:20]
    names = [random_name(rng, tld_sample) for _ in range(2_000)]
    expected = [classify(n, registry) for n in names]

    def run(_):
        return [classify(n, registry) for n in names]

    with ThreadPoolExecutor(max_workers=4) as pool:
        for result in pool.map(run, range(4)):
            assert result == expected

    # classify_block's run-wide tables are shared by every thread; two
    # appletalk sets in turn make the threads replace the tables under each
    # other, and a small cap makes them clear the tables under each other
    blocks = [pcap_block(names[i:i + 64]) for i in range(0, len(names), 64)]
    sets = [DEFAULT_APPLETALK_TLDS, frozenset({"appletalk", "ftp"})]
    want = [[classify(n, registry, tlds) for n in names] for tlds in sets]
    for cap in (classify_module.TABLE_CAP, 8):
        monkeypatch.setattr(classify_module, "TABLE_CAP", cap)

        def run_blocks(i):
            columns = [classify_block(block, registry, sets[i % 2]) for block in blocks for _ in range(3)]
            return i, [cls for _, _, classes in columns[::3] for cls in classes], columns

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(run_blocks, range(8)))
        for i, classes, columns in results:
            assert classes == want[i % 2]
            assert columns == results[i % 2][2]


def test_classify_block_counts_unparseable(registry):
    records = [
        QueryRecord(1, "1.2.3.4", 1, 1, "good.com."),
        QueryRecord(2, "1.3.3.5", 1, 1, "bad..name."),
        QueryRecord(3, "1.4.3.6", 1, 2, "."),
        QueryRecord(4, "1.5.3.7", 1, 28, "bad..name."),
    ]
    prefixes = [sender_key(rec.source) for rec in records]
    block = Block(*zip(*(rec._replace(qname_raw=rec.qname_raw.encode()) for rec in records)), prefixes)
    stats = IngestStats()
    prefixes, qtypes, classes = classify_block(block, registry, stats=stats)
    assert stats.names_unparseable == 2  # once per record, not per distinct name
    assert [cls.leaf for cls in classes] == [Leaf.VALID_TLD, Leaf.EMPTY]
    assert (list(map(prefix_text, prefixes)), list(qtypes)) == (["1.2.0.0/16", "1.4.0.0/16"], [1, 2])


def test_classify_block_classifies_decoded_names(registry):
    names = [parse_presentation(raw) for raw in ("good.com.", ".", "daozjwend.")]
    block = Block((1, 2, 3), (b"\x01\x02\x03\x04",) * 3, (1, 1, 1), (1, 2, 1), tuple(names),
                  (sender_key("1.2.3.4"),) * 3)
    stats = IngestStats()
    prefixes, qtypes, classes = classify_block(block, registry, stats=stats)
    assert list(classes) == [classify(name, registry) for name in names]
    assert (prefixes, qtypes) == (block.prefixes, block.qtypes)
    assert stats == IngestStats()


@pytest.mark.parametrize("names", [[[b"example", b"com"]], ["."], ["example.com."],
                                   [bytearray(b"example.com.")]])
def test_classify_block_refuses_names_of_another_type(registry, names):
    """A block's first name must be exactly bytes or a tuple: a str or
    bytearray name would otherwise be read as labels, each of its
    characters or bytes one label, and so would a list."""
    block = Block((1,), (b"\x01\x02\x03\x04",), (1,), (1,), names, (0,))
    with pytest.raises(TypeError, match=type(names[0]).__name__):
        classify_block(block, registry)


def fresh_table(monkeypatch):
    monkeypatch.setattr(classify_module, "_table", (None, frozenset(), ({}, {})))


def table_sizes():
    return [len(table) for table in classify_module._table[2]]


def pcap_block(names):
    """A block of label tuples, as decode_pcap holds them, with the record
    index as the sender key."""
    n = len(names)
    return Block(range(n), [b"\x01\x02\x03\x04"] * n, [1] * n, [1] * n, list(names),
                 list(range(n)))


def tsv_block(raws):
    n = len(raws)
    return Block(range(n), ["1.2.3.4"] * n, [1] * n, [1] * n, list(raws), list(range(n)))


def shaped_names(rng, tlds, mixed_case=True):
    """Names of each shape the table keys on, over the given TLDs."""
    probe = "".join(rng.choices(LOWER, k=rng.randint(7, 15))).encode()
    tld = rng.choice(tlds)
    if mixed_case and rng.random() < 0.5:
        tld = bytes(c ^ 0x20 if 0x61 <= c <= 0x7A and rng.random() < 0.5 else c for c in tld)
    other = random_label(rng)
    return [(probe, tld), (other, probe, tld), (probe, other, tld), (other, tld), (probe,), (tld,)]


def unparseable(rng):
    return rng.choice([b"bad..name.", b"a\\", b"a\\25", b"x\\999.com.", b"x" * 64 + b".com.",
                       b"a." * 127 + b"com.", b".com."])


APPLETALK_SETS = (DEFAULT_APPLETALK_TLDS, frozenset({"appletalk", "ftp", "networks"}))


@pytest.fixture(scope="module")
def differential_inputs(registry):
    """100k seeded names, their TSV texts (one in 40 an unparseable text
    instead), and classify's record-by-record answer for each under each
    appletalk set (None for an unparseable text)."""
    rng = random.Random(0x7AB1E)
    tlds = sorted(registry.entries)[:50] + [b"networks", b"appletalk", b"ftp", b"12345", b"b\xe9te", b"foo_"]
    names = []
    while len(names) < 100_000:
        names.append(random_name(rng, tlds))
        if rng.random() < 0.1:
            names += shaped_names(rng, tlds)
    bad = [rng.random() < 0.025 for _ in names]
    raws = [unparseable(rng) if b else to_presentation(n).encode() for n, b in zip(names, bad)]
    want = {tlds: [classify(n, registry, tlds) for n in names] for tlds in APPLETALK_SETS}
    tsv_want = {tlds: [None if b else cls for cls, b in zip(classes, bad)] for tlds, classes in want.items()}
    return names, raws, want, tsv_want


@pytest.mark.parametrize("cap", [None, 8])
def test_table_classifies_as_classify_does(registry, differential_inputs, monkeypatch, cap):
    """classify_block over pcap and TSV blocks of every size from 1 to 600
    gives the columns of classify run record by record, with the table
    cleared mid-block where the cap is small."""
    fresh_table(monkeypatch)
    if cap:
        monkeypatch.setattr(classify_module, "TABLE_CAP", cap)
    names, raws, want, tsv_want = differential_inputs
    rng = random.Random(cap)
    cuts = [0]
    while cuts[-1] < len(names):
        cuts.append(cuts[-1] + rng.choice([1, 7, 512, rng.randint(1, 600)]))
    spans = list(zip(cuts, cuts[1:]))
    for tlds in APPLETALK_SETS:
        got = [cls for start, end in spans
               for cls in classify_block(pcap_block(names[start:end]), registry, tlds)[2]]
        assert got == want[tlds]
        stats, kept, got = IngestStats(), [], []
        for start, end in spans:
            prefixes, _, classes = classify_block(tsv_block(raws[start:end]), registry, tlds, stats)
            kept += [start + i for i in prefixes]
            got += classes
        expected = tsv_want[tlds]
        assert kept == [i for i, cls in enumerate(expected) if cls is not None]
        assert got == [cls for cls in expected if cls is not None]
        assert stats.names_unparseable == expected.count(None) > 0
        assert max(table_sizes()) <= classify_module.TABLE_CAP


def test_table_stays_bounded(registry, monkeypatch):
    fresh_table(monkeypatch)
    rng = random.Random(11)
    invalid = [b"%016x" % rng.getrandbits(64) for _ in range(110_000)]
    assert len(set(invalid)) == len(invalid) and not set(invalid) & registry.entries
    letters = bytes.maketrans(bytes(range(256)), bytes(0x61 + i % 26 for i in range(256)))
    probes = [(rng.randbytes(rng.randint(7, 15)).translate(letters),) for _ in range(100_000)]
    for i in range(0, len(invalid), 500):
        classify_block(pcap_block([(b"host", tld) for tld in invalid[i:i + 500]]), registry)
        assert max(table_sizes()) <= classify_module.TABLE_CAP
    tables, sizes = classify_module._table[2], table_sizes()
    for i in range(0, len(probes), 500):
        classes = classify_block(pcap_block(probes[i:i + 500]), registry)[2]
        assert {cls.leaf for cls in classes} <= {Leaf.ONE_WORD_CHROMIUM, Leaf.ONE_WORD_MINIMIZED}
    assert classify_module._table[2] is tables and table_sizes() == sizes


def test_table_lives_for_the_run(registry, monkeypatch):
    """Over blocks of many distinct names and K distinct (TLD, shape) keys,
    classify runs at most K times: the table outlives a block."""
    fresh_table(monkeypatch)
    calls = []

    def counted(*args):
        calls.append(args[0])
        return classify(*args)

    monkeypatch.setattr(classify_module, "classify", counted)
    rng = random.Random(3)
    tlds = [b"com", b"COM", b"networks", b"appletalk", b"12345", b"zz_top"]
    keys = len(tlds) * 2
    for _ in range(6):
        names = [name for _ in range(100) for name in shaped_names(rng, tlds, mixed_case=False)]
        names.append(())
        assert classify_block(pcap_block(names), registry)[2] == [classify(n, registry) for n in names]
    assert 0 < len(calls) <= keys
