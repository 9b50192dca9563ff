"""decode_pcap against the reference decoder in pcapref.py, on seeded valid
captures and their mutations; and the Ethernet/IPv4 fast path against the
general path, one IP datagram read both ways."""

import io
import ipaddress
import random
import struct

import pytest

import pcapref
from fuzznames import random_label
from roottrace.ingest import MAX_CAPLEN, IngestStats, PcapError, decode_pcap
from roottrace.model import DomainName, prefix_text
from test_ingest import dns_payload, pcap_file, udp4, udp6

ETHERNET_HEADER = b"\xaa" * 6 + b"\xbb" * 6  # the ethertype follows


def decoded(data: bytes):
    """decode_pcap's rows, in pcapref's form, and its counters; or the text
    of the PcapError it raised."""
    stats = IngestStats()
    rows = []
    try:
        for block in decode_pcap(io.BytesIO(data), stats):
            assert len({len(column) for column in block}) == 1
            for timestamp, source, qclass, qtype, name, key in zip(*block):
                assert type(name) is DomainName
                rows.append((timestamp, source, qclass, qtype, name.labels, prefix_text(key)))
    except PcapError as exc:
        return str(exc)
    counters = (stats.records_emitted, stats.records_dropped_unparseable, stats.packets_skipped, stats.bytes_read)
    assert stats.names_unparseable == 0
    return rows, counters


def expected(data: bytes):
    """The reference's rows and counters, or the text of why it stopped."""
    try:
        out = pcapref.decode(data)
    except pcapref.Corrupt as exc:
        return str(exc)
    return out.rows, (out.emitted, out.dropped, out.skipped, out.bytes_read)


def assert_agree(data: bytes):
    """Assert that decode_pcap and the reference agree on data; return the
    reference's outcome."""
    got, want = decoded(data), expected(data)
    if isinstance(want, str):
        assert isinstance(got, str) and got.startswith(want), (got, want)
    else:
        assert got == want
    return want


# --- seeded captures and their mutations -------------------------------------


def random_datagram(rng: random.Random) -> bytearray:
    """An IPv4 or IPv6 datagram of one DNS message, mostly a valid query."""
    roll = rng.random()
    if roll < 0.05:
        labels = [b"x" * 63] * 3 + [b"y" * rng.randint(58, 64)]  # about the 255-byte limit
    else:
        labels = [random_label(rng) for _ in range(rng.randint(0, 4))]
    payload = dns_payload(labels, rng.choice((1, 2, 28, 65, 255)), qclass=rng.choice((1, 1, 3)), qr=rng.random() < 0.1)
    port = 53 if rng.random() < 0.95 else 5353
    if rng.random() < 0.3:
        frame = udp6(str(ipaddress.IPv6Address(rng.getrandbits(128))), payload, dport=port)
    else:
        frame = udp4(str(ipaddress.IPv4Address(rng.getrandbits(32))), payload, dport=port)
    return bytearray(frame[14:])


def mutate_datagram(rng: random.Random, d: bytearray) -> bytearray:
    """d with one of its length fields, its question or its headers edited."""
    v4 = d[0] >> 4 == 4
    udp = 20 if v4 else 40
    if len(d) < udp + 20:
        return d  # cut short by an earlier edit
    edit = rng.choice(["ip length", "ihl", "udp length", "qdcount", "label", "extension", "cut"])
    if edit == "ip length":
        room = rng.choice((0, 7, 8, 19, 20, 27, 28, rng.randrange(len(d) + 8)))
        if v4 and rng.random() < 0.7:
            room += 20  # the total length counts the header
        struct.pack_into(">H", d, 2 if v4 else 4, room)
    elif edit == "ihl" and v4:
        d[0] = rng.choice((0x40 | rng.randrange(16), rng.randrange(256)))
    elif edit == "udp length":
        struct.pack_into(">H", d, udp + 4, rng.choice((0, 7, 8, 19, 20, rng.randrange(len(d) - udp + 8))))
    elif edit == "qdcount":
        struct.pack_into(">H", d, udp + 12, rng.randrange(3))
    elif edit == "label":
        at, lengths = udp + 20, []
        while at < len(d) and d[at] and not d[at] & 0xC0:
            lengths.append(at)
            at += 1 + d[at]
        lengths.append(at)
        at = rng.choice(lengths)
        if at < len(d):
            near = ((d[at] + 1) % 256, (d[at] - 1) % 256, rng.randrange(256))
            d[at] = rng.choice((0, 1, 63, 64, 0x80, 0xC0, 0xFF) + near)
    elif edit == "extension" and not v4:
        # an 8-byte extension header (RFC 8200 §4) before the UDP header
        d[6:7], d[40:40] = bytes([rng.choice((0, 43, 44, 60))]), bytes([17, 0]) + bytes(6)
        struct.pack_into(">H", d, 4, struct.unpack_from(">H", d, 4)[0] + 8)
    elif edit == "cut":
        del d[rng.randrange(len(d)) :]
    return d


def random_capture(rng: random.Random, mutations: int) -> bytes:
    """A capture of up to 12 frames in a random byte order, precision and
    link type, with mutations edits to its datagrams, frames and records."""
    endian, nano = rng.choice("<>"), rng.random() < 0.5
    ethernet = rng.random() < 0.7
    linktype = 1 if ethernet else rng.choice((12, 101))
    datagrams = [random_datagram(rng) for _ in range(rng.randint(1, 12))]
    limit = 10**9 if nano else 10**6
    times = [(1_600_000_000 + i, rng.randrange(limit)) for i in range(len(datagrams))]
    edits = [rng.choice(["datagram", "vlan", "flip", "cut", "padding", "subsecond", "caplen", "file"])
             for _ in range(mutations)]
    for edit in edits:
        if edit == "datagram":
            j = rng.randrange(len(datagrams))
            datagrams[j] = mutate_datagram(rng, datagrams[j])
    frames = []
    for d in datagrams:
        version = d[0] >> 4 if d else 4
        ethertype = b"\x86\xdd" if version == 6 else b"\x08\x00"
        frames.append(bytearray(ETHERNET_HEADER + ethertype + d if ethernet else d))
    for edit in edits:
        j = rng.randrange(len(frames))
        f = frames[j]
        if edit == "vlan" and ethernet:
            f[12:12] = b"\x81\x00" + struct.pack(">H", rng.randrange(4096))  # an 802.1Q tag
        elif edit == "flip" and f:
            f[rng.randrange(len(f))] ^= rng.randrange(1, 256)
        elif edit == "cut" and f:
            del f[rng.randrange(len(f)) :]
        elif edit == "padding":
            f += bytes(rng.randint(1, 20))
        elif edit == "subsecond":
            sub = rng.choice((limit - 1, limit, rng.randrange(limit, 1 << 32), 0))
            times[j] = (times[j][0] if sub else 0, sub)
    data = bytearray(pcap_file([bytes(f) for f in frames], endian=endian, nano=nano, linktype=linktype, times=times))
    for edit in sorted(edits):  # caplen edits, then edits to the file as a whole
        if edit == "caplen":
            at, j = 24, rng.randrange(len(frames))
            for f in frames[:j]:
                at += 16 + len(f)
            caplen = len(frames[j])
            new = rng.choice((caplen - 1, caplen + 1, caplen + rng.randint(-40, 40), 0, MAX_CAPLEN, MAX_CAPLEN + 1,
                              rng.getrandbits(32)))
            struct.pack_into(endian + "I", data, at + 8, new % (1 << 32))
        elif edit == "file":
            if rng.random() < 0.5:
                data[rng.randrange(len(data))] ^= rng.randrange(1, 256)
            else:
                del data[rng.randrange(len(data) + 1) :]
    return bytes(data)


def test_valid_captures_decode_as_the_reference_decodes():
    rng = random.Random(0x9CA9)
    emitted = 0
    for _ in range(300):
        emitted += assert_agree(random_capture(rng, 0))[1][0]
    assert emitted > 1000


@pytest.mark.parametrize("seed", range(4))
def test_mutated_captures_decode_as_the_reference_decodes(seed):
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(1500):
        want = assert_agree(random_capture(rng, rng.randint(1, 4)))
        if isinstance(want, str):
            outcomes.add(want.split(" ")[0])
        else:
            outcomes.update(name for name, count in zip(("emitted", "dropped", "skipped"), want[1]) if count)
    assert outcomes >= {"emitted", "dropped", "skipped", "corrupt", "bad", "truncated"}


# --- the Ethernet/IPv4 fast path and the general path ------------------------


def datagram(labels=(b"example", b"com"), qtype=1, *, qr=0, qdcount=1, name=None, port=53, protocol=17):
    return bytearray(udp4("192.0.2.1", dns_payload(list(labels), qtype, qr=qr, qdcount=qdcount, name_override=name),
                          dport=port, proto=protocol)[14:])


def edited(d: bytearray, **fields) -> bytes:
    """d with fields set: total (IPv4 total length), fragment (the word),
    udp_length, the IP and UDP lengths both grown by grow, or cut to caplen."""
    d = bytearray(d)
    if "grow" in fields:
        for at in (2, 24):
            struct.pack_into(">H", d, at, struct.unpack_from(">H", d, at)[0] + fields["grow"])
    for key, at in (("total", 2), ("fragment", 6), ("udp_length", 24)):
        if key in fields:
            struct.pack_into(">H", d, at, fields[key])
    return bytes(d[: fields.get("caplen", len(d))])


def with_options(d: bytearray) -> bytes:
    """d with one word of IPv4 options (four no-ops): IHL 6."""
    d = bytearray(d)
    d[0] = 0x46
    struct.pack_into(">H", d, 2, len(d) + 4)
    return bytes(d[:20] + b"\x01" * 4 + d[20:])


BASE = datagram()  # 20 + 8 + 12 + 13 + 4 = 57 bytes; 71 as an Ethernet frame
HEADER_ONLY = edited(datagram(qdcount=0), caplen=40, total=40, udp_length=20)
QUESTION_END = len(BASE) - 4  # the byte after the root label
LONG_NAME = [b"x" * 63] * 3 + [b"y" * 62]  # 256 bytes encoded, one over

# (datagram, emitted, dropped, skipped) of each edge of the fast path: an
# Ethernet frame of caplen >= 54 whose bytes 12-14 are 08 00 45
TWINS = {
    "valid": (bytes(BASE), 1, 0, 0),
    "caplen 53": (HEADER_ONLY[:39], 0, 1, 0),
    "caplen 54": (HEADER_ONLY, 0, 1, 0),
    "caplen 54, cut from a longer query": (bytes(BASE[:40]), 0, 1, 0),
    "caplen 53, cut from a longer query": (bytes(BASE[:39]), 0, 1, 0),
    "fragment offset 1": (edited(BASE, fragment=0x0001), 0, 0, 1),
    "more fragments, offset 0": (edited(BASE, fragment=0x2000), 1, 0, 0),
    "total length 27": (edited(BASE, total=27), 0, 0, 1),
    "total length 28": (edited(BASE, total=28), 0, 1, 0),
    "total length 47": (edited(BASE, total=47), 0, 1, 0),
    "total length 48": (edited(BASE, total=48), 0, 1, 0),
    "total length 0": (edited(BASE, total=0), 0, 0, 1),
    "UDP length 7": (edited(BASE, udp_length=7), 0, 0, 1),
    "UDP length 8": (edited(BASE, udp_length=8), 0, 1, 0),
    "port 54": (bytes(datagram(port=54)), 0, 0, 1),
    "protocol 6": (bytes(datagram(protocol=6)), 0, 0, 1),
    "IHL 6": (with_options(BASE), 1, 0, 0),
    "QR 1": (bytes(datagram(qr=1)), 0, 0, 1),
    "qdcount 0": (bytes(datagram(qdcount=0)), 0, 1, 0),
    "truncated name": (edited(BASE, caplen=QUESTION_END - 3), 0, 1, 0),
    "truncated name at its root byte": (edited(BASE, total=QUESTION_END - 1, udp_length=QUESTION_END - 21), 0, 1, 0),
    "compressed name": (bytes(datagram(name=b"\x07example\xc0\x0c")), 0, 1, 0),
    "label type 0x40": (bytes(datagram(name=b"\x40" + b"x" * 64 + b"\x00")), 0, 1, 0),
    "label type 0x80": (bytes(datagram(name=b"\x03com\x80" + b"x" * 128 + b"\x00")), 0, 1, 0),
    "oversize name": (bytes(datagram(LONG_NAME)), 0, 1, 0),
    "name of 255 bytes": (bytes(datagram(LONG_NAME[:3] + [b"y" * 61])), 1, 0, 0),
    "truncated question": (edited(BASE, grow=-1), 0, 1, 0),
    "question at the end": (edited(BASE, caplen=len(BASE)), 1, 0, 0),
}


@pytest.mark.parametrize("name", TWINS)
@pytest.mark.parametrize("endian", "<>")
def test_an_ethernet_frame_decodes_as_its_raw_ip_datagram(name, endian):
    d, *outcome = TWINS[name]
    assert d[0] >> 4 == 4
    ethernet = pcap_file([ETHERNET_HEADER + b"\x08\x00" + d] * 3, endian=endian)
    raw = pcap_file([d] * 3, endian=endian, linktype=101)
    got_ethernet, got_raw = decoded(ethernet), decoded(raw)
    rows, (emitted, dropped, skipped, bytes_read) = got_ethernet
    assert (rows, (emitted, dropped, skipped, bytes_read - 3 * 14)) == got_raw  # 14 bytes a record
    assert (emitted, dropped, skipped) == tuple(3 * count for count in outcome)
    assert got_ethernet == expected(ethernet)
