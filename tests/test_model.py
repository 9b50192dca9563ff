import ipaddress

import pytest

from roottrace.model import (
    LEAF_TOP,
    Classification,
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


# RFC 3597 §5: TYPE or CLASS then decimal digits, not whatever int() takes
@pytest.mark.parametrize("bad", ["BOGUS", "TYPEx", "TYPE70000", "", "TYPE", "TYPE+5", "TYPE 5", "TYPE5 ", "TYPE1_0",
                                 "TYPE-0", "TYPE\u00b2", "TYPE\u0665"])
def test_qtype_code_rejects_junk(bad):
    with pytest.raises(ValueError):
        qtype_code(bad)


@pytest.mark.parametrize("bad", ["ZZ", "CLASS", "CLASS 3 ", "CLASS+3", "CLASS-1", "CLASS1_0", "CLASS70000"])
def test_qclass_code_rejects_junk(bad):
    with pytest.raises(ValueError):
        qclass_code(bad)


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


def reference_key(source):
    """sender_key's answer by way of ipaddress, after the same %zone split,
    or None where ipaddress rejects the source."""
    try:
        if ":" in source:
            address = ipaddress.IPv6Address(source.split("%", 1)[0])
        else:
            address = ipaddress.IPv4Address(source)
    except ValueError:
        return None
    return address_key(address.packed)


# what a mutation inserts or writes over: the shapes sender_key must judge
# as ipaddress does, and characters no address holds
_MUTATIONS = ["::", ":::", ":", ".", "%eth0", "%", "0", "00", "12345", "fffff", "1.2.3.4", "01.2.3.4", "256",
              " ", "\x00", "/", "/48", "+", "-", "_", "g", "G", "x", "\u0665", "\uff11", "a", "F", "9"]


def mutated_sources(rng, count):
    """count seeded mutations of valid IPv4 and IPv6 sources: each gets one
    to three insertions, overwrites or deletions."""
    sources = []
    for _ in range(count):
        if rng.random() < 0.3:
            source = str(ipaddress.IPv4Address(rng.getrandbits(32)))
        else:
            # half the groups zero, so the compressed forms hold "::" runs
            address = ipaddress.IPv6Address(":".join(f"{rng.choice((0, rng.randrange(0x10000))):x}" for _ in range(8)))
            form = rng.randrange(4)
            if form == 0:
                source = address.exploded
            elif form == 1:
                source = f"{address.exploded[:30]}{ipaddress.IPv4Address(rng.getrandbits(32))}"  # dotted tail
            elif form == 2:
                source = f"{address.compressed.upper()}%eth{rng.randrange(4)}"
            else:
                source = address.compressed
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(source) + 1)
            kind = rng.randrange(3)
            if kind == 0:
                source = source[:at] + rng.choice(_MUTATIONS) + source[at:]
            elif kind == 1:
                token = rng.choice(_MUTATIONS)
                source = source[:at] + token + source[at + len(token):]
            else:
                source = source[:at] + source[at + 1:]
        sources.append(source)
    return sources


def test_sender_key_accepts_and_keys_what_ipaddress_does():
    import random

    accepted = 0
    for source in mutated_sources(random.Random(16), 100_000):
        expected = reference_key(source)
        try:
            key = sender_key(source)
        except ValueError:
            key = None
        assert key == expected, source
        accepted += key is not None
    # both outcomes are well represented, so the agreement is not vacuous
    assert 10_000 < accepted < 90_000, accepted


def test_query_record_names():
    rec = QueryRecord(1, "1.2.3.4", 1, 2, "com.")
    assert qtype_mnemonic(rec.qtype) == "NS"
    assert qclass_mnemonic(rec.qclass) == "IN"
