import io
import math
import random
import socket
import struct

import pytest

from roottrace.ingest import (
    IngestError,
    IngestStats,
    PcapError,
    read_pcap,
    read_tsv,
    sample,
    window,
)
from roottrace.model import QueryRecord
from roottrace.synth import tsv_bytes

# --- TSV ---------------------------------------------------------------------


def run_tsv(text: bytes):
    stats = IngestStats()
    records = list(read_tsv(io.BytesIO(text), stats))
    return records, stats


def test_tsv_basic_line():
    records, stats = run_tsv(b"1649721600000000\t44.242.1.2\tIN\tA\twww.example.com.\n")
    assert records == [QueryRecord(1649721600000000, "44.242.1.2", 1, 1, "www.example.com.")]
    assert stats.records_emitted == 1
    assert stats.records_dropped_unparseable == 0


def test_tsv_garbage_line_dropped():
    records, stats = run_tsv(b"garbage line\n")
    assert records == []
    assert stats.records_dropped_unparseable == 1


def test_tsv_ipv6_root():
    records, _ = run_tsv(b"1649721600000000\t2001:db8::1\tIN\tNS\t.\n")
    assert records == [QueryRecord(1649721600000000, "2001:db8::1", 1, 2, ".")]


@pytest.mark.parametrize(
    "line",
    [
        b"0\t1.2.3.4\tIN\tA\tfoo.\n",  # timestamp must be positive
        b"-5\t1.2.3.4\tIN\tA\tfoo.\n",
        b"x\t1.2.3.4\tIN\tA\tfoo.\n",
        b"1\tnot-an-ip\tIN\tA\tfoo.\n",
        b"1\t1.2.3.4\tZZ\tA\tfoo.\n",
        b"1\t1.2.3.4\tIN\tBOGUS\tfoo.\n",
        b"1\t1.2.3.4\tIN\tA\n",  # four fields
        b"1\t1.2.3.4\tIN\tA\tfoo.\textra\n",  # six fields
        b"1\t1.2.3.4\tIN\tA\t\n",  # empty name
    ],
)
def test_tsv_malformed_lines_dropped(line):
    records, stats = run_tsv(line)
    assert records == []
    assert stats.records_dropped_unparseable == 1


def test_tsv_accounting_invariant():
    text = (
        b"1\t1.2.3.4\tIN\tA\tfoo.\n"
        b"junk\n"
        b"\n"
        b"2\t1.2.3.4\tIN\tTYPE999\tbar.com.\n"
        b"3\t1.2.3.4\tCLASS5\tA\t.\n"
    )
    records, stats = run_tsv(text)
    assert stats.records_emitted == len(records) == 3
    assert stats.records_dropped_unparseable == 1  # blank lines are not candidates
    assert records[1].qtype == 999
    assert records[2].qclass == 5


def test_tsv_round_trip():
    records = [
        QueryRecord(1649721600000000, "44.242.1.2", 1, 1, "www.example.com."),
        QueryRecord(1649721600000001, "2001:db8::1", 1, 2, "."),
        QueryRecord(1649721600000002, "10.0.0.1", 3, 16, "weird\\000name."),
    ]
    out, stats = run_tsv(tsv_bytes(records))
    assert out == records
    assert stats.records_dropped_unparseable == 0


def test_tsv_io_error_aborts_with_position():
    class Boom:
        def __iter__(self):
            return self

        def __next__(self):
            raise OSError("disk gone")

    with pytest.raises(IngestError) as err:
        list(read_tsv(Boom()))
    assert "line 1" in str(err.value)


# --- sampling and windows ----------------------------------------------------


def make_records(n):
    return [QueryRecord(i + 1, "1.2.3.4", 1, 1, "a.com.") for i in range(n)]


def test_sample_rate_one_is_identity():
    records = make_records(1000)
    assert list(sample(records, 1.0, seed=7)) == records


def test_sample_determinism():
    records = make_records(10_000)
    first = list(sample(records, 0.25, seed=42))
    second = list(sample(records, 0.25, seed=42))
    assert first == second
    assert first != list(sample(records, 0.25, seed=43))


def test_sample_binomial_bound():
    records = make_records(1_000_000)
    kept = sum(1 for _ in sample(records, 0.1, seed=42))
    assert 99_000 <= kept <= 101_000  # 3-sigma is ~900; spec bound is wider


def test_sample_composition():
    n = 1_000_000
    records = make_records(n)
    kept = sum(1 for _ in sample(sample(records, 0.5, seed=1), 0.4, seed=2))
    expected = n * 0.2
    bound = 3 * math.sqrt(n * 0.2 * 0.8)
    assert abs(kept - expected) <= bound


def test_sample_preserves_order():
    records = make_records(10_000)
    out = list(sample(records, 0.5, seed=3))
    assert out == sorted(out, key=lambda r: r.timestamp)


@pytest.mark.parametrize("rate", [0.0, -0.1, 1.0001])
def test_sample_rejects_bad_rate_eagerly(rate):
    with pytest.raises(ValueError):
        sample([], rate, seed=0)


DAY = 1_649_721_600_000_000  # 2022-04-12 00:00:00 UTC


def ts(hours, minutes=0, seconds=0):
    return DAY + (hours * 3600 + minutes * 60 + seconds) * 1_000_000


def test_window_keeps_half_open():
    records = [
        QueryRecord(ts(6, 30), "1.2.3.4", 1, 1, "a."),
        QueryRecord(ts(7, 0), "1.2.3.4", 1, 1, "b."),  # end boundary: excluded
        QueryRecord(ts(6, 0), "1.2.3.4", 1, 1, "c."),  # start boundary: included
        QueryRecord(ts(5, 59, 59), "1.2.3.4", 1, 1, "d."),
    ]
    kept = list(window(records, 6 * 3600, 7 * 3600, DAY))
    assert [r.qname_raw for r in kept] == ["a.", "c."]


def test_window_empty_input():
    assert list(window([], 0, 3600, DAY)) == []


def test_window_rejects_inverted_eagerly():
    with pytest.raises(ValueError):
        window([], 7 * 3600, 6 * 3600, DAY)


# --- pcap --------------------------------------------------------------------


def dns_payload(labels, qtype, qclass=1, qr=0, qdcount=1, name_override=None):
    flags = 0x8000 if qr else 0x0000
    header = struct.pack(">HHHHHH", 0x1234, flags, qdcount, 0, 0, 0)
    if name_override is not None:
        name = name_override
    else:
        name = b"".join(bytes([len(l)]) + l for l in labels) + b"\x00"
    return header + name + struct.pack(">HH", qtype, qclass)


def udp4(src, payload, dport=53, proto=17):
    udp = struct.pack(">HHHH", 40000, dport, 8 + len(payload), 0) + payload
    ip = struct.pack(
        ">BBHHHBBH4s4s",
        0x45, 0, 20 + len(udp), 1, 0, 64, proto, 0,
        socket.inet_aton(src), socket.inet_aton("199.9.14.201"),
    ) + udp
    return b"\xaa" * 6 + b"\xbb" * 6 + b"\x08\x00" + ip


def udp6(src, payload, dport=53):
    udp = struct.pack(">HHHH", 40000, dport, 8 + len(payload), 0) + payload
    ip = struct.pack(
        ">IHBB16s16s",
        0x60000000, len(udp), 17, 64,
        socket.inet_pton(socket.AF_INET6, src),
        socket.inet_pton(socket.AF_INET6, "2001:500:200::b"),
    ) + udp
    return b"\xaa" * 6 + b"\xbb" * 6 + b"\x86\xdd" + ip


def pcap_file(frames, endian="<", nano=False, linktype=1, times=None):
    magic = 0xA1B23C4D if nano else 0xA1B2C3D4
    out = struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 0xFFFF, linktype)
    for i, frame in enumerate(frames):
        sec = 1_649_721_600 + i
        sub = (i * 1000 + 7) if not nano else (i * 1_000_000 + 7_000)
        if times:
            sec, sub = times[i]
        out += struct.pack(endian + "IIII", sec, sub, len(frame), len(frame)) + frame
    return out


def run_pcap(data: bytes):
    stats = IngestStats()
    records = list(read_pcap(io.BytesIO(data), stats))
    return records, stats


def test_pcap_crafted_ns_query():
    # built independently with struct so the reader is checked field by field
    frame = udp4("44.242.1.2", dns_payload([b"com"], qtype=2))
    records, stats = run_pcap(pcap_file([frame]))
    assert records == [QueryRecord(1_649_721_600_000_007, "44.242.1.2", 1, 2, "com.")]
    assert (stats.records_emitted, stats.records_dropped_unparseable, stats.packets_skipped) == (1, 0, 0)


@pytest.mark.parametrize("ihl", [0, 4, 15])
def test_pcap_bad_ipv4_header_length_skipped(ihl):
    # total length 53, so a header length of 0 would read the IP header
    # itself as a UDP header bound for port 53
    frame = bytearray(udp4("10.0.0.1", dns_payload([b"example"], 1)))
    assert frame[16:18] == b"\x00\x35"
    frame[14] = 0x40 | ihl
    records, stats = run_pcap(pcap_file([bytes(frame)]))
    assert records == []
    assert (stats.records_emitted, stats.records_dropped_unparseable, stats.packets_skipped) == (0, 0, 1)


def test_pcap_tcp_skipped():
    frame = udp4("44.242.1.2", dns_payload([b"com"], 2), proto=6)
    records, stats = run_pcap(pcap_file([frame]))
    assert records == []
    assert stats.packets_skipped == 1
    assert stats.records_dropped_unparseable == 0


def test_pcap_response_skipped():
    frame = udp4("44.242.1.2", dns_payload([b"com"], 2, qr=1))
    records, stats = run_pcap(pcap_file([frame]))
    assert records == []
    assert stats.packets_skipped == 1


def test_pcap_other_port_skipped():
    frame = udp4("44.242.1.2", dns_payload([b"com"], 2), dport=5353)
    _, stats = run_pcap(pcap_file([frame]))
    assert stats.packets_skipped == 1


def test_pcap_ipv6_source():
    frame = udp6("2001:db8::1", dns_payload([b"example", b"com"], 1))
    records, _ = run_pcap(pcap_file([frame]))
    assert records[0].source == "2001:db8::1"
    assert records[0].qname_raw == "example.com."


def test_pcap_escaped_bytes_name():
    frame = udp4("10.0.0.1", dns_payload([b"foo", b"\xff\x01"], 1))
    records, _ = run_pcap(pcap_file([frame]))
    assert records[0].qname_raw == "foo.\\255\\001."


def test_pcap_root_query():
    frame = udp4("10.0.0.1", dns_payload([], 2))
    records, _ = run_pcap(pcap_file([frame]))
    assert records[0].qname_raw == "."


def test_pcap_compression_pointer_dropped():
    frame = udp4("10.0.0.1", dns_payload([], 1, name_override=b"\xc0\x0c\x00"))
    records, stats = run_pcap(pcap_file([frame]))
    assert records == []
    assert stats.records_dropped_unparseable == 1


def test_pcap_qdcount_zero_dropped():
    frame = udp4("10.0.0.1", dns_payload([b"com"], 2, qdcount=0))
    _, stats = run_pcap(pcap_file([frame]))
    assert stats.records_dropped_unparseable == 1


def test_pcap_truncated_question_dropped():
    payload = dns_payload([b"com"], 2)[:-3]  # cut into qtype/qclass
    frame = udp4("10.0.0.1", payload)
    _, stats = run_pcap(pcap_file([frame]))
    assert stats.records_dropped_unparseable == 1


@pytest.mark.parametrize("endian", ["<", ">"])
@pytest.mark.parametrize("nano", [False, True])
def test_pcap_magic_variants(endian, nano):
    frame = udp4("1.2.3.4", dns_payload([b"net"], 1))
    records, _ = run_pcap(pcap_file([frame], endian=endian, nano=nano))
    assert records[0].qname_raw == "net."
    assert records[0].timestamp == 1_649_721_600_000_007


def test_pcap_raw_ip_linktype():
    frame = udp4("1.2.3.4", dns_payload([b"net"], 1))[14:]  # strip ethernet
    records, _ = run_pcap(pcap_file([frame], linktype=101))
    assert records[0].qname_raw == "net."


def test_pcap_nanosecond_truncation():
    frame = udp4("1.2.3.4", dns_payload([b"net"], 1))
    data = pcap_file([frame], nano=True, times=[(10, 123_456_789)])
    records, _ = run_pcap(data)
    assert records[0].timestamp == 10 * 1_000_000 + 123_456


def test_pcap_bad_magic_aborts():
    with pytest.raises(PcapError):
        list(read_pcap(io.BytesIO(b"\x00" * 24)))


def test_pcap_truncated_header_aborts():
    with pytest.raises(PcapError):
        list(read_pcap(io.BytesIO(b"\xa1\xb2")))


def test_pcap_unsupported_linktype_aborts():
    data = pcap_file([], linktype=105)
    with pytest.raises(PcapError):
        list(read_pcap(io.BytesIO(data)))


def test_pcap_fragment_skipped():
    frame = udp4("1.2.3.4", dns_payload([b"com"], 1))
    # set fragment offset bits in the IPv4 header (offset 6..8 after ethernet)
    mutable = bytearray(frame)
    mutable[14 + 6] = 0x00
    mutable[14 + 7] = 0x10
    _, stats = run_pcap(pcap_file([bytes(mutable)]))
    assert stats.packets_skipped == 1


def test_pcap_accounting_invariant():
    rng = random.Random(11)
    frames = []
    candidates = 0
    for i in range(200):
        roll = rng.random()
        if roll < 0.5:
            frames.append(udp4("10.0.0.1", dns_payload([b"a%d" % i, b"com"], 1)))
            candidates += 1
        elif roll < 0.7:
            frames.append(udp4("10.0.0.1", dns_payload([b"x"], 1, qr=1)))
        elif roll < 0.85:
            frames.append(udp4("10.0.0.1", dns_payload([b"x"], 1), proto=6))
        else:
            frames.append(udp4("10.0.0.1", dns_payload([], 1, name_override=b"\xc0\x0c\x00")))
            candidates += 1
    records, stats = run_pcap(pcap_file(frames))
    assert stats.records_emitted + stats.records_dropped_unparseable == candidates
    assert stats.records_emitted + stats.records_dropped_unparseable + stats.packets_skipped == 200
    assert len(records) == stats.records_emitted
