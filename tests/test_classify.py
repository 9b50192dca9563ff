import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from fuzznames import random_name
from roottrace.classify import (
    classify,
    classify_block,
    is_chromium_label,
)
from roottrace.ingest import Block, IngestStats
from roottrace.model import Classification, DomainName, Leaf, QueryRecord, prefix_text, sender_key
from roottrace.names import parse_presentation


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
        lower = classify(DomainName((b"host", tld.encode())), registry)
        upper = classify(DomainName((b"host", mixed.encode())), registry)
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
    got = classify(DomainName((b"host", label)), registry)
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


def test_determinism_across_threads(registry):
    rng = random.Random(5)
    tld_sample = sorted(registry.entries)[:20]
    names = [random_name(rng, tld_sample) for _ in range(2_000)]
    expected = [classify(n, registry) for n in names]

    def run(_):
        return [classify(n, registry) for n in names]

    with ThreadPoolExecutor(max_workers=4) as pool:
        for result in pool.map(run, range(4)):
            assert result == expected


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
    block = Block((1, 2, 3), (b"\x01\x02\x03\x04",) * 3, (1, 1, 1), (1, 2, 1), tuple(names), (sender_key("1.2.3.4"),) * 3)
    stats = IngestStats()
    prefixes, qtypes, classes = classify_block(block, registry, stats=stats)
    assert list(classes) == [classify(name, registry) for name in names]
    assert (prefixes, qtypes) == (block.prefixes, block.qtypes)
    assert stats == IngestStats()
