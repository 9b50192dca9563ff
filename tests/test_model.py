import ipaddress

import pytest

from roottrace.model import (
    LEAF_TOP,
    Classification,
    DomainName,
    Leaf,
    QueryRecord,
    TopCategory,
    qclass_code,
    qclass_mnemonic,
    qtype_code,
    address_key,
    prefix_text,
    qtype_mnemonic,
    sender_key,
    sender_prefix,
)


@pytest.mark.parametrize(
    "code,mnemonic",
    [(1, "A"), (2, "NS"), (6, "SOA"), (12, "PTR"), (15, "MX"), (16, "TXT"),
     (28, "AAAA"), (33, "SRV"), (43, "DS"), (48, "DNSKEY"), (65280, "TYPE65280")],
)
def test_qtype_mnemonics(code, mnemonic):
    assert qtype_mnemonic(code) == mnemonic


def test_qtype_round_trip_full_range():
    for code in range(0x10000):
        assert qtype_code(qtype_mnemonic(code)) == code


def test_qclass_round_trip_full_range():
    assert qclass_mnemonic(1) == "IN"
    assert qclass_mnemonic(3) == "CH"
    for code in range(0x10000):
        assert qclass_code(qclass_mnemonic(code)) == code


@pytest.mark.parametrize("bad", ["BOGUS", "TYPEx", "TYPE70000", ""])
def test_qtype_code_rejects_junk(bad):
    with pytest.raises(ValueError):
        qtype_code(bad)


def test_code_range_checked():
    with pytest.raises(ValueError):
        qtype_mnemonic(-1)
    with pytest.raises(ValueError):
        qtype_mnemonic(0x10000)


def test_leaves_partition_the_tree():
    leaves = list(Leaf)
    assert len(leaves) == 10
    assert len(set(leaves)) == 10
    assert set(LEAF_TOP) == set(leaves)
    assert set(LEAF_TOP.values()) == set(TopCategory)


def test_classification_rollup():
    assert LEAF_TOP[Classification(Leaf.ONE_WORD_MINIMIZED, "com").leaf] is TopCategory.ONE_WORD
    assert LEAF_TOP[Classification(Leaf.INVALID_OTHER, "internal").leaf] is TopCategory.INVALID_TLD
    assert LEAF_TOP[Classification(Leaf.EMPTY).leaf] is TopCategory.EMPTY
    assert LEAF_TOP[Classification(Leaf.VALID_TLD, "com", True).leaf] is TopCategory.VALID_TLD


def test_domain_name_root():
    assert DomainName(()).is_root
    assert not DomainName((b"com",)).is_root


def test_sender_key_v4():
    assert sender_prefix("44.242.1.2") == "44.242.0.0/16"
    assert sender_prefix("44.242.0.0") == "44.242.0.0/16"


def test_sender_key_v6():
    assert sender_prefix("2600:1:2:3::5") == "2600:1:2::/48"


def test_sender_key_v6_zero_fill_positions():
    # "::" expansion before the third hextet must not shift later groups
    assert sender_prefix("1::2:3:4:5:6:7") == "1:0:2::/48"
    assert sender_prefix("1:2::3:4:5:6:7") == "1:2::/48"
    assert sender_prefix("::1") == "::/48"
    assert sender_prefix("::ffff:1.2.3.4") == "::/48"
    assert sender_prefix("fe80::1%eth0") == "fe80::/48"


def test_sender_key_v6_agrees_with_ipaddress():
    import random

    rng = random.Random(31)
    for _ in range(2_000):
        groups = [rng.randrange(0x10000) for _ in range(8)]
        if rng.random() < 0.5:
            run = rng.randrange(8)
            for k in range(run, min(8, run + rng.randrange(1, 4))):
                groups[k] = 0
        addr = str(ipaddress.IPv6Address(":".join(f"{g:x}" for g in groups)))
        mine = sender_prefix(addr)
        ref = ipaddress.ip_network((addr, 48), strict=False).with_prefixlen
        assert mine == ref, addr


@pytest.mark.parametrize(
    "bad",
    ["1::2::3", ":::1", "1:2:3", "1:2:3:4:5:6:7:8:9", "g::1", "12345::1",
     "1.2.3.4::", "::01.2.3.4", ":", ""],
)
def test_v6_prefix_rejects_malformed(bad):
    with pytest.raises(ValueError):
        sender_prefix(bad if ":" in bad else bad + ":")


def test_sender_key_host_bits_zero():
    for source in ("10.20.30.40", "192.0.2.255", "2001:db8:99:aa::1"):
        net = ipaddress.ip_network(sender_prefix(source))
        assert int(net.network_address) & (2**128 - 1) == int(net.network_address)
        assert net.prefixlen == (16 if net.version == 4 else 48)
        assert ipaddress.ip_address(source) in net


@pytest.mark.parametrize("junk", ["nonsense", "host.example.com", "1.2.3", "256.1.2.3", "01.2.3.4"])
def test_sender_key_rejects_junk(junk):
    with pytest.raises(ValueError):
        sender_prefix(junk)


def test_sender_keys_are_one_per_prefix_and_read_back_as_text():
    import random

    rng = random.Random(12)
    sources = ["0.0.0.0", "255.255.255.255", "9.1.2.3", "10.1.2.3", "::", "::1", "ffff:ffff:ffff::1"]
    sources += [str(ipaddress.IPv4Address(rng.getrandbits(32))) for _ in range(1_000)]
    sources += [str(ipaddress.IPv6Address(rng.getrandbits(128))) for _ in range(1_000)]
    by_prefix = {}
    for source in sources:
        address = ipaddress.ip_address(source)
        key = sender_key(source)
        prefix = ipaddress.ip_network((source, 16 if address.version == 4 else 48), strict=False).with_prefixlen
        assert prefix_text(key) == sender_prefix(source) == prefix, source
        assert address_key(address.packed) == key, source
        # an IPv4 key fits 16 bits, an IPv6 one 49, and the two never meet
        assert (key < 2**16) if address.version == 4 else (2**48 <= key < 2**49), source
        assert by_prefix.setdefault(prefix, key) == key
    assert len(set(by_prefix.values())) == len(by_prefix)


def test_query_record_names():
    rec = QueryRecord(1, "1.2.3.4", 1, 2, "com.")
    assert qtype_mnemonic(rec.qtype) == "NS"
    assert qclass_mnemonic(rec.qclass) == "IN"
