import bisect
import gc
import io
import ipaddress
import json
import math
import random
import socket
import struct
import sys
from itertools import accumulate, compress

import pytest

from fuzznames import random_name
from roottrace import cli, ingest
from roottrace.classify import classify
from roottrace.ingest import (
    MAX_CAPLEN,
    Block,
    IngestError,
    IngestStats,
    PcapError,
    TsvReadError,
    decode_pcap,
    decode_tsv,
    read_pcap,
    read_tsv,
    sampler,
    window,
)
from roottrace.model import DomainName, QueryRecord, prefix_text, sender_key
from roottrace.names import parse_presentation, to_presentation
from roottrace.report import fold, write_report
from roottrace.synth import generate, tsv_bytes, year_mix
from roottrace.tlds import default_registry

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
        b"+5\t1.2.3.4\tIN\tA\tfoo.\n",  # a timestamp is ASCII decimal digits only
        b" 5\t1.2.3.4\tIN\tA\tfoo.\n",
        b"5 \t1.2.3.4\tIN\tA\tfoo.\n",
        b"1_000\t1.2.3.4\tIN\tA\tfoo.\n",
        b"1\tnot-an-ip\tIN\tA\tfoo.\n",
        b"1\t1.2.3.4\tZZ\tA\tfoo.\n",
        b"1\t1.2.3.4\tIN\tBOGUS\tfoo.\n",
        b"1\t1.2.3.4\tIN\tTYPE+5\tfoo.\n",  # a generic mnemonic's code is decimal digits only
        b"1\t1.2.3.4\tCLASS 3 \tA\tfoo.\n",
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


def test_tsv_io_error_names_the_line_whose_read_failed(monkeypatch):
    monkeypatch.setattr(ingest, "BLOCK", 3)
    line = b"1\t1.2.3.4\tIN\tA\tfoo.\n"

    def lines():
        yield from [line] * 4
        raise OSError("disk gone")

    stats = IngestStats()
    got = []
    with pytest.raises(IngestError, match="I/O error reading line 5: disk gone"):
        for record in read_tsv(lines(), stats):
            got.append(record)
    # the first block was read whole; the block the failure cut short was not
    assert len(got) == stats.records_emitted == 3


def test_tsv_io_error_names_its_line_wherever_blocks_break(monkeypatch):
    monkeypatch.setattr(ingest, "BLOCK", 4)
    lines = [b"%d\t1.2.3.4\tIN\tA\tfoo.\n" % (i + 1) for i in range(11)]
    whole = [list(block.timestamps) for block in decode_tsv(iter(lines))]
    assert whole == [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11]]

    def failing(bad_line):
        for number, line in enumerate(lines, 1):
            if number == bad_line:
                raise OSError("disk gone")
            yield line

    # the file's first and last lines, and the first, a middle and the last
    # line of a block
    for bad_line in (1, 5, 6, 8, 9, 11):
        with pytest.raises(TsvReadError, match=f"I/O error reading line {bad_line}: disk gone") as caught:
            list(decode_tsv(failing(bad_line)))
        assert caught.value.line == bad_line


def range_trace() -> bytes:
    """A TSV of 1,101 lines, CRLF, blank and malformed lines among them, with
    a good and a malformed line each longer than a file's read buffer, and
    a last line that has no newline."""
    rng = random.Random(15)
    lines = []
    for i in range(1100):
        kind = rng.random()
        if kind < 0.1:
            lines.append(b"\n" if kind < 0.05 else b"\r\n")
        elif kind < 0.2:
            lines.append(b"not\ta\trecord\n")
        else:
            name = bytes(rng.choice(b"abc-\\09.") for _ in range(rng.randint(1, 30)))
            lines.append(b"%d\t10.%d.0.1\tIN\tA\t%s%s" % (i + 1, i % 256, name, b"\r\n" if i % 3 else b"\n"))
    lines[250] = b"251\t10.0.0.1\tIN\tA\t" + b"x" * (2 * io.DEFAULT_BUFFER_SIZE) + b".\n"
    lines[400] = b"y" * (3 * io.DEFAULT_BUFFER_SIZE) + b"\n"
    return b"".join(lines) + b"1101\t10.0.0.9\tIN\tNS\tlast."


@pytest.mark.parametrize("block", [7, 512])
def test_decode_tsv_ranges_that_meet_read_the_file_once(block, tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "BLOCK", block)
    data = range_trace()
    assert b"\r" not in data.replace(b"\r\n", b"")
    path = tmp_path / "t.tsv"
    path.write_bytes(data)
    starts = [0] + [i + 1 for i, byte in enumerate(data) if byte == ord("\n")] + [len(data)]

    def decoded(blocks):
        return [[value for part in column for value in part] for column in zip(*blocks)]

    whole = IngestStats()
    with open(path, "rb") as fh:
        expected = decoded(list(decode_tsv(fh, whole)))
    assert len(starts) - 1 > 2 * 512  # lines: more than two blocks at either size
    assert whole.records_dropped_unparseable > 0 and whole.bytes_read == len(data)

    rng = random.Random(block)
    cut_sets = {
        "line starts": starts[1:],
        "inside lines": [start + 1 for start in starts[1:-1]] + [len(data) - 1],
        "random": rng.sample(range(1, len(data) + 1), 60),
        "block edges": [starts[block] - 1, starts[block], starts[block] + 1, starts[2 * block] + 3, len(data)],
        "end of file": [len(data)],
    }
    for name, cuts in cut_sets.items():
        stats = IngestStats()
        blocks = []
        begin = 0
        for end in sorted(set(cuts)) + [None]:
            with open(path, "rb") as fh:
                blocks += decode_tsv(fh, stats, begin, end)
                begin = fh.tell()  # where the next range begins
            # the stream was left at the first line at or after end
            assert begin == (len(data) if end is None else starts[bisect.bisect_left(starts, end)]), (name, end)
        assert decoded(blocks) == expected, name
        assert stats == whole, name


# --- sampling and windows ----------------------------------------------------


def make_records(n):
    return [QueryRecord(i + 1, "1.2.3.4", 1, 1, "a.com.") for i in range(n)]


def in_blocks(records, size=1000):
    """records as Blocks of up to size records each, with their sender keys."""
    chunks = (records[i : i + size] for i in range(0, len(records), size))
    return [Block(*zip(*chunk), [sender_key(r.source) for r in chunk]) for chunk in chunks]


def flatten(blocks):
    return [QueryRecord(*row[:5]) for block in blocks for row in zip(*block)]


def rows(blocks):
    """Every record of the blocks as a tuple of its columns."""
    return [row for block in blocks for row in zip(*block)]


def kept_offsets(offsets, rate, seed):
    return list(compress(offsets, map(sampler(rate, seed), offsets)))


OFFSETS = range(0, 400_000, 40)  # 10,000 records 40 bytes apart


def test_sample_rate_one_is_identity():
    assert kept_offsets(OFFSETS, 1.0, seed=7) == list(OFFSETS)
    data = range_trace()
    assert rows(decode_tsv(io.BytesIO(data), keep=sampler(1.0, 7))) == rows(decode_tsv(io.BytesIO(data)))


def test_sample_determinism():
    first = kept_offsets(OFFSETS, 0.25, seed=42)
    second = kept_offsets(OFFSETS, 0.25, seed=42)
    assert first == second
    assert first != kept_offsets(OFFSETS, 0.25, seed=43)


@pytest.mark.parametrize("size", [1, 7, 512, 4096])
def test_sample_keeps_the_same_records_in_any_block_size(size, monkeypatch):
    """A sampled decode at a block size keeps the rows, and counts what a
    decode in one block does."""
    records = make_records(3000)
    inputs = {decode_tsv: range_trace(), decode_pcap: capture_of(records)}

    def decoded(decode, data):
        stats = IngestStats()
        return rows(decode(io.BytesIO(data), stats, keep=sampler(0.25, 42))), stats

    for decode, data in inputs.items():
        monkeypatch.setattr(ingest, "BLOCK", 100_000)
        whole, whole_stats = decoded(decode, data)
        monkeypatch.setattr(ingest, "BLOCK", size)
        assert decoded(decode, data) == (whole, whole_stats), decode.__name__
        assert 0 < len(whole) < len(rows(decode(io.BytesIO(data)))), decode.__name__


def test_sample_binomial_bound():
    keep = sampler(0.1, seed=42)
    kept = sum(map(keep, range(0, 40_000_000, 40)))
    assert 99_000 <= kept <= 101_000  # 3-sigma is ~900; spec bound is wider


def test_sample_composition():
    n = 1_000_000
    keep_a, keep_b = sampler(0.5, seed=1), sampler(0.4, seed=2)
    kept = sum(keep_a(o) and keep_b(o) for o in range(0, 40 * n, 40))
    expected = n * 0.2
    bound = 3 * math.sqrt(n * 0.2 * 0.8)
    assert abs(kept - expected) <= bound


def test_sample_preserves_order():
    data = tsv_bytes(make_records(10_000))
    out = [timestamp for block in decode_tsv(io.BytesIO(data), keep=sampler(0.5, 3)) for timestamp in block.timestamps]
    assert 0 < len(out) < 10_000
    assert out == sorted(out)


@pytest.mark.parametrize("rate", [0.0, -0.1, 1.0001])
def test_sample_rejects_bad_rate_eagerly(rate):
    with pytest.raises(ValueError):
        sampler(rate, seed=0)


def test_sample_keeps_other_records_for_a_negative_seed():
    assert kept_offsets(OFFSETS, 0.25, seed=5) != kept_offsets(OFFSETS, 0.25, seed=-5)


def test_sample_binomial_bound_on_file_offsets():
    n, rate = 300_000, 0.3
    rng = random.Random(45)
    spacings = {
        "a few dozen bytes apart": list(accumulate((rng.randint(20, 90) for _ in range(n)), initial=0))[:n],
        "one byte apart": range(n),
        "64 bytes apart": range(0, 64 * n, 64),
    }
    bound = 3 * math.sqrt(n * rate * (1 - rate))
    for name, offsets in spacings.items():
        kept = sum(map(sampler(rate, seed=1001), offsets))
        assert abs(kept - n * rate) <= bound, name


def capture_of(records) -> bytes:
    """A capture of the records' queries in Ethernet frames, timed as the
    records are."""
    frames = [(udp6 if ":" in r.source else udp4)(r.source, dns_payload(parse_presentation(r.qname_raw).labels, r.qtype, r.qclass))
              for r in records]
    return pcap_file(frames, times=[divmod(r.timestamp, 1_000_000) for r in records])


def test_offsets_are_each_record_s_first_byte():
    """keep is asked once about each record, in order, by its first byte:
    each TSV line's, blank and malformed ones among them, and each pcap
    record header's, whether or not the record holds a query."""
    seen = []

    def keep(offset):
        seen.append(offset)
        return True

    data = range_trace()
    starts = [0] + [at + 1 for at, byte in enumerate(data[:-1]) if byte == ord("\n")]
    assert rows(decode_tsv(io.BytesIO(data), keep=keep)) == rows(decode_tsv(io.BytesIO(data)))
    assert seen == starts
    frames = [udp4("10.0.0.%d" % i, dns_payload([b"x" * i], 1, qr=i % 7 == 0), dport=53 if i % 5 else 54)
              for i in range(1, 60)]
    headers = list(accumulate((16 + len(frame) for frame in frames), initial=24))[:-1]
    data = pcap_file(frames)
    seen.clear()
    assert rows(decode_pcap(io.BytesIO(data), keep=keep)) == rows(decode_pcap(io.BytesIO(data)))
    assert seen == headers


@pytest.mark.parametrize("fmt", ["tsv", "pcap"])
def test_a_sample_does_not_depend_on_where_the_file_is_cut(fmt, tmp_path):
    """A file cut at random byte targets, each range read from the record
    its finder gives and sampled on its own, keeps the whole file's sample."""
    records = [record for record, _ in generate(year_mix(2022, seed=1001), 3000)]
    if fmt == "tsv":
        data, decode, find = tsv_bytes(records), decode_tsv, ingest.line_start
    else:
        data, decode, find = capture_of(records), decode_pcap, ingest.pcap_start
    path = tmp_path / "trace"
    path.write_bytes(data)
    keep = sampler(0.3, seed=5)

    with open(path, "rb") as fh:
        whole = rows(decode(fh, keep=keep))
    assert 0.25 < len(whole) / len(records) < 0.35
    rng = random.Random(20)
    for _ in range(8):
        targets = sorted(rng.sample(range(1, len(data)), rng.randint(1, 12)))
        cut = []
        with open(path, "rb") as fh:
            for target, end in zip([0, *targets], [*targets, None]):
                start = target and find(fh.fileno(), target)
                cut += rows(decode(fh, None, start, end, keep))
        assert cut == whole, targets


def test_a_corrupt_record_header_raises_where_it_lies_sampled_or_not():
    """A caplen over MAX_CAPLEN raises the same PcapError, having counted
    the same bytes, whether or not keep would keep the record it heads."""
    frames = [udp4("10.0.0.%d" % i, dns_payload([b"x" * i], 1)) for i in range(1, 30)]
    good = pcap_file(frames)
    at = len(good)
    data = good + struct.pack("<IIII", 1_649_721_700, 0, MAX_CAPLEN + 1, MAX_CAPLEN + 1) + b"\0" * 64

    def error(keep):
        stats = IngestStats()
        with pytest.raises(PcapError) as caught:
            list(decode_pcap(io.BytesIO(data), stats, keep=keep))
        return str(caught.value), stats.bytes_read

    expected = error(None)
    assert expected == (f"corrupt pcap record at byte {at}: caplen {MAX_CAPLEN + 1} over {MAX_CAPLEN}", at)
    seeds = range(40)
    kept = [seed for seed in seeds if sampler(0.3, seed)(at)]
    rejected = [seed for seed in seeds if not sampler(0.3, seed)(at)]
    assert kept and rejected
    for seed in kept[:3] + rejected[:3]:
        assert error(sampler(0.3, seed)) == expected, seed


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
    kept = flatten(window(in_blocks(records, 3), 6 * 3600, 7 * 3600, DAY))
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
    out = [struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 0xFFFF, linktype)]
    for i, frame in enumerate(frames):
        sec = 1_649_721_600 + i
        sub = (i * 1000 + 7) % 1_000_000 if not nano else (i * 1_000_000 + 7_000) % 1_000_000_000
        if times:
            sec, sub = times[i]
        out += struct.pack(endian + "IIII", sec, sub, len(frame), len(frame)), frame
    return b"".join(out)


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


def test_pcap_question_ends_at_the_udp_length():
    # a query cut after its name's terminator, its frame then padded with
    # zeros to Ethernet's 64-byte minimum: the padding is not its qtype and qclass
    short = udp4("10.0.0.1", dns_payload([b"com"], 2)[:-4])
    assert len(short) == 59
    padded = short + bytes(5)
    records, stats = run_pcap(pcap_file([padded]))
    assert records == []
    assert stats.records_dropped_unparseable == 1
    # where the datagram and its UDP length take in the whole question, the
    # record decodes, and one byte short of it, it is dropped
    for grow, emitted in ((3, 0), (4, 1)):
        longer = bytearray(padded)
        for at in (14 + 2, 14 + 20 + 4):  # the IPv4 total length, the UDP length
            struct.pack_into(">H", longer, at, struct.unpack_from(">H", longer, at)[0] + grow)
        records, stats = run_pcap(pcap_file([bytes(longer)]))
        assert (stats.records_emitted, stats.records_dropped_unparseable) == (emitted, 1 - emitted)
    assert (records[0].qname_raw, records[0].qtype, records[0].qclass) == ("com.", 0, 0)
    # a valid query in a padded frame gives the record it gives unpadded
    frame = udp4("10.0.0.1", dns_payload([], 2))
    records, _ = run_pcap(pcap_file([frame]))
    assert len(frame) < 64 and len(records) == 1
    assert run_pcap(pcap_file([frame + bytes(64 - len(frame))]))[0] == records


# udp: where the UDP header of the frame begins
@pytest.mark.parametrize("build, source, udp", [(udp4, "10.0.0.1", 14 + 20), (udp6, "2001:db8::1", 14 + 40)],
                         ids=["ipv4", "ipv6"])
def test_pcap_question_ends_at_the_ip_datagram(build, source, udp):
    # a query cut after its name's terminator in a frame padded with zeros,
    # whose UDP length counts the padding: the IP layer's length (IPv4 total
    # length, IPv6 payload length) ends the datagram before the padding,
    # which is not its qtype and qclass
    frame = bytearray(build(source, dns_payload([b"com"], 2)[:-4]) + bytes(8))
    struct.pack_into(">H", frame, udp + 4, len(frame) - udp)
    records, stats = run_pcap(pcap_file([bytes(frame)]))
    assert records == []
    assert (stats.records_emitted, stats.records_dropped_unparseable, stats.packets_skipped) == (0, 1, 0)
    # a whole query so framed gives the record it gives unpadded
    frame = bytearray(build(source, dns_payload([b"com"], 2)) + bytes(8))
    struct.pack_into(">H", frame, udp + 4, len(frame) - udp)
    records, _ = run_pcap(pcap_file([bytes(frame)]))
    assert records == run_pcap(pcap_file([build(source, dns_payload([b"com"], 2))]))[0]
    assert len(records) == 1


# each IP header's length field: where it is, and the header bytes it counts
@pytest.mark.parametrize("build, source, length_at, header",
                         [(udp4, "10.0.0.1", 14 + 2, 20), (udp6, "2001:db8::1", 14 + 4, 0)],
                         ids=["ipv4", "ipv6"])
@pytest.mark.parametrize("room, skipped, dropped", [(0, 1, 0), (7, 1, 0), (8, 0, 1), (19, 0, 1)])
def test_pcap_short_ip_datagram(build, source, length_at, header, room, skipped, dropped):
    # an IP length that leaves under 8 bytes for UDP is no UDP header; one
    # that leaves under 20, no DNS header
    frame = bytearray(build(source, dns_payload([b"com"], 2)))
    struct.pack_into(">H", frame, length_at, header + room)
    records, stats = run_pcap(pcap_file([bytes(frame)]))
    assert records == []
    assert (stats.packets_skipped, stats.records_dropped_unparseable) == (skipped, dropped)


@pytest.mark.parametrize("length, skipped, dropped", [(0, 1, 0), (7, 1, 0), (8, 0, 1), (19, 0, 1)])
def test_pcap_short_udp_length(length, skipped, dropped):
    # the UDP length field under 8 is no UDP header; under 20, no DNS header
    frame = bytearray(udp4("10.0.0.1", dns_payload([b"com"], 2)))
    struct.pack_into(">H", frame, 14 + 20 + 4, length)
    records, stats = run_pcap(pcap_file([bytes(frame)]))
    assert records == []
    assert (stats.packets_skipped, stats.records_dropped_unparseable) == (skipped, dropped)


@pytest.mark.parametrize("captured", [12, 22])
@pytest.mark.parametrize("length, skipped, dropped", [(4, 1, 0), (12, 0, 1)])
def test_pcap_udp_length_outcome_does_not_depend_on_the_snap_length(captured, length, skipped, dropped):
    # a UDP length under 8 is skipped and one under 20 dropped, whether 12 or
    # 22 bytes of the datagram were captured
    frame = bytearray(udp4("10.0.0.1", dns_payload([b"com"], 2)))
    struct.pack_into(">H", frame, 14 + 20 + 4, length)
    records, stats = run_pcap(pcap_file([bytes(frame[: 14 + 20 + captured])]))
    assert records == []
    assert (stats.packets_skipped, stats.records_dropped_unparseable) == (skipped, dropped)


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


@pytest.mark.parametrize("endian", "<>")
@pytest.mark.parametrize("build, source", [(udp4, "10.0.0.1"), (udp6, "2001:db8::1")])
def test_pcap_fcs_bits_and_a_trailing_fcs_decode(endian, build, source):
    # draft-ietf-opsawg-pcap §4: the link type is the field's low 16 bits;
    # above it an FCS length of two 16-bit words and the P bit, then the
    # same with the R and reserved bits set too, which a reader ignores
    frame = build(source, dns_payload([b"com"], 2))

    def decoded(data: bytes):
        stats = IngestStats()
        return rows(decode_pcap(io.BytesIO(data), stats)), stats

    plain_rows, plain = decoded(pcap_file([frame], endian=endian))
    assert plain.records_emitted == 1
    for field in ((2 << 28) | (1 << 26) | 1, (2 << 28) | (1 << 27) | (1 << 26) | (0x3FF << 16) | 1):
        fcs_rows, fcs = decoded(pcap_file([frame + b"\xde\xad\xbe\xef"], endian=endian, linktype=field))
        assert fcs_rows == plain_rows
        assert fcs.bytes_read == plain.bytes_read + 4
        assert vars(fcs) == dict(vars(plain), bytes_read=fcs.bytes_read)


def test_pcap_nanosecond_truncation():
    frame = udp4("1.2.3.4", dns_payload([b"net"], 1))
    data = pcap_file([frame], nano=True, times=[(10, 123_456_789)])
    records, _ = run_pcap(data)
    assert records[0].timestamp == 10 * 1_000_000 + 123_456


@pytest.mark.parametrize("nano", [False, True])
def test_pcap_subsecond_field_of_a_second_or_more_dropped(nano):
    # a sub-second field of 10^6 (10^9 in a nanosecond capture) or more is
    # no timestamp, as pcap_start holds too: the query is dropped, not
    # emitted a second to ~4,295 s late; a response so stamped is still skipped
    limit = 10**9 if nano else 10**6
    query = udp4("1.2.3.4", dns_payload([b"net"], 1))
    response = udp4("1.2.3.4", dns_payload([b"net"], 1, qr=1))
    second = 1_600_000_000
    times = [(second, limit - 1), (second, limit), (second, 4_000_000_000), (second, limit)]
    records, stats = run_pcap(pcap_file([query, query, query, response], nano=nano, times=times))
    assert [record.timestamp for record in records] == [second * 1_000_000 + 999_999]
    assert (stats.records_emitted, stats.records_dropped_unparseable, stats.packets_skipped) == (1, 2, 1)


@pytest.mark.parametrize("ethertype, version", [(b"\x86\xdd", 4), (b"\x86\xdd", 2), (b"\x08\x00", 6)])
def test_pcap_ethernet_frame_whose_ip_version_is_not_its_ethertype_s_skipped(ethertype, version):
    # the IP header's version must be the one its ethertype names (RFC 791,
    # RFC 8200); the frame with its own version decodes
    build, source = (udp6, "2001:db8::1") if ethertype == b"\x86\xdd" else (udp4, "10.0.0.1")
    frame = bytearray(build(source, dns_payload([b"com"], 2)))
    frame[14] = version << 4 | frame[14] & 0x0F
    records, stats = run_pcap(pcap_file([bytes(frame)]))
    assert records == []
    assert (stats.records_emitted, stats.records_dropped_unparseable, stats.packets_skipped) == (0, 0, 1)
    assert frame[12:14] == ethertype
    assert run_pcap(pcap_file([bytes(build(source, dns_payload([b"com"], 2)))]))[1].records_emitted == 1


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


def test_pcap_start_finds_no_record_where_decode_pcap_reads_no_capture(tmp_path):
    frames = [udp4("1.2.3.4", dns_payload([b"net"], 1))] * 3
    second = 24 + 16 + len(frames[0])  # where the second record begins
    path = tmp_path / "t.pcap"

    def start(data: bytes):
        path.write_bytes(data)
        with open(path, "rb") as fh:
            return ingest.pcap_start(fh.fileno(), 25)

    capture = pcap_file(frames)
    not_captures = [capture[:size] for size in range(24)]
    not_captures += [magic + capture[4:] for magic in (b"\0" * 4, b"\x0a\x0d\x0d\x0a", b"\xa1\xb2\xc3\xd5")]
    not_captures.append(pcap_file(frames, linktype=105))
    for data in not_captures:
        with pytest.raises(PcapError, match="truncated pcap global header|bad pcap magic|unsupported link type"):
            list(decode_pcap(io.BytesIO(data)))
        assert start(data) is None
    # each of the four magics is a capture the finder reads
    for endian in "<>":
        for nano in (False, True):
            assert start(pcap_file(frames, endian=endian, nano=nano)) == second


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


def with_caplen(data: bytes, record_offset: int, caplen: int) -> bytes:
    """data with the caplen of the record header at record_offset replaced."""
    at = record_offset + 8
    return data[:at] + struct.pack("<I", caplen) + data[at + 4 :]


def test_pcap_caplen_over_maximum_is_corrupt():
    frame = udp4("10.0.0.1", dns_payload([b"com"], 2))
    second = 24 + 16 + len(frame)
    data = with_caplen(pcap_file([frame, frame]), second, 0xFFFFFFF0)
    with pytest.raises(PcapError, match=f"record at byte {second}: caplen 4294967280"):
        list(read_pcap(io.BytesIO(data)))


def test_pcap_caplen_at_maximum_is_a_truncated_record():
    frame = udp4("10.0.0.1", dns_payload([b"com"], 2))
    data = with_caplen(pcap_file([frame, frame]), 24 + 16 + len(frame), MAX_CAPLEN)
    records, stats = run_pcap(data)
    assert len(records) == 1
    assert (stats.records_emitted, stats.packets_skipped, stats.bytes_read) == (1, 1, len(data))


def test_decode_pcap_reads_the_records_between_two_offsets():
    frames = [udp4("10.0.0.%d" % i, dns_payload([b"com"], 2)) for i in range(5)]
    data = pcap_file(frames)
    at = [24 + i * (16 + len(frames[0])) for i in range(6)]  # at[5] is the end of the file

    def sources(start, end):
        stream = io.BytesIO(data)
        got = [source for block in decode_pcap(stream, None, start, end) for source in block.sources]
        return [source[3] for source in got], stream.tell()

    assert sources(at[1], at[3]) == ([1, 2], at[3])  # left at the record it stopped before
    assert sources(at[1], at[3] + 1) == ([1, 2, 3], at[4])  # a record that begins before end is read whole
    assert sources(at[4], None) == ([4], at[5])
    assert sources(at[5], None) == ([], at[5])
    assert sources(0, at[0]) == ([], at[0])

    # ranges longer than a chunk: the reader reads past end, and must still
    # leave the stream at the first record at or after it
    frames = [padded(udp4("10.1.%d.%d" % divmod(i, 256), dns_payload([b"com"], 2)), 80 + i % 37) for i in range(4000)]
    data = pcap_file(frames)
    at = list(accumulate((16 + len(frame) for frame in frames), initial=24))
    assert at[-1] == len(data) > 5 * ingest.CHUNK
    for first, last in [(0, 10), (3, 1500), (1499, 3999), (7, 4000), (2000, 2001)]:
        for end in (at[last], at[last] - 1, at[last] - 16, at[last - 1] + 1):
            stop = next(i for i, offset in enumerate(at) if offset >= end)
            got, tell = sources(at[first], end)
            assert got == [i % 256 for i in range(first, stop)], (first, end)
            assert tell == at[stop]
    # ranges that meet, as a split run's tasks do, read every record once
    cuts = [0, at[1234], at[1234] + 5, ingest.CHUNK, 3 * ingest.CHUNK + 1, None]
    stats = IngestStats()
    got, begin = [], 0
    for end in cuts[1:]:
        stream = io.BytesIO(data)
        got += [src[3] for block in decode_pcap(stream, stats, begin, end) for src in block.sources]
        begin = stream.tell()
    assert got == [i % 256 for i in range(4000)]
    assert (stats.records_emitted, stats.bytes_read) == (4000, len(data))  # the header counted once


@pytest.mark.parametrize("fmt", ["tsv", "pcap"])
def test_ranges_that_meet_read_through_one_open_stream_as_the_whole_file(fmt, tmp_path):
    if fmt == "tsv":
        data, decode = range_trace(), decode_tsv
    else:
        frames = [padded(udp4("10.1.%d.%d" % divmod(i, 256), dns_payload([b"com"], 2)), 80 + i % 37) for i in range(4000)]
        data, decode = pcap_file(frames), decode_pcap
    path = tmp_path / "trace"
    path.write_bytes(data)

    def decoded(blocks):
        return [[value for part in column for value in part] for column in zip(*blocks)]

    whole = IngestStats()
    with open(path, "rb") as fh:
        expected = decoded(list(decode(fh, whole)))
    stats = IngestStats()
    blocks = []
    ends = sorted(random.Random(17).sample(range(1, len(data)), 40)) + [None]
    with open(path, "rb") as fh:
        begin = 0
        for end in ends:
            blocks += decode(fh, stats, begin, end)
            begin = fh.tell()  # the next range begins where this one stopped
    assert begin == len(data)
    assert decoded(blocks) == expected
    assert stats == whole


def padded(frame: bytes, size: int) -> bytes:
    """frame with zero bytes after its DNS message, to size bytes in all."""
    assert len(frame) <= size
    return frame + bytes(size - len(frame))


class Trickle(io.RawIOBase):
    """A seekable raw stream over data whose readinto gives at most step
    bytes a call."""

    def __init__(self, data: bytes, step: int):
        self._data = data
        self._step = step
        self._at = 0

    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return True

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        self._at = offset + (0, self._at, len(self._data))[whence]
        return self._at

    def readinto(self, buffer) -> int:
        got = self._data[self._at : self._at + min(len(buffer), self._step)]
        buffer[: len(got)] = got
        self._at += len(got)
        return len(got)


def chunk_edge_pcap() -> tuple[bytes, list[str]]:
    """A capture of several chunks whose records cross a chunk boundary at
    many offsets: inside the record header, at its end and inside the frame.
    One record of MAX_CAPLEN bytes spans four chunks, and the file ends in a
    partial record header. Returns it with the sources of its queries."""
    offsets = [1, 2, 4, 8, 12, 15, 16, 17, 30, 31, 50, 90]  # where a boundary falls in a record
    frames, sources = [], []

    def add(source: str, labels: list, size: int) -> None:
        frames.append(padded(udp4(source, dns_payload(labels, 1)), size))
        sources.append(source)

    out = 24  # the reader's reads end at 24 + k * CHUNK
    for n, offset in enumerate(offsets):
        if n == 6:
            add("192.0.2.7", [b"big"], MAX_CAPLEN)
            out += 16 + MAX_CAPLEN
        target = 24 + (n + 1 + 4 * (n >= 6)) * ingest.CHUNK - offset
        while out < target:
            gap = target - out - 16
            size = gap if gap <= 300 else 150  # never leaves a gap too small for a frame
            add("10.%d.%d.%d" % (n, len(frames) >> 8 & 255, len(frames) & 255), [b"q%d" % len(frames), b"net"], size)
            out += 16 + size
        add("172.16.%d.1" % n, [b"edge", b"org"], 120)
        out += 136
    return pcap_file(frames) + b"\x00" * 9, sources


def test_decode_pcap_reads_records_across_chunk_edges():
    data, expected = chunk_edge_pcap()
    crossed, caplens, at = set(), [], 24
    while at + 16 <= len(data):
        caplens.append(struct.unpack_from("<I", data, at + 8)[0])
        after = at + 16 + caplens[-1]
        crossed.update(edge - at for edge in range(24 + ingest.CHUNK, len(data), ingest.CHUNK) if at < edge < after)
        at = after
    assert crossed >= {1, 2, 4, 8, 12, 15, 16, 17, 30, 31, 50, 90} and MAX_CAPLEN in caplens

    def decoded(stream):
        stats = IngestStats()
        blocks = [[list(column) for column in block] for block in decode_pcap(stream, stats)]
        return blocks, stats, stream.tell()

    want = decoded(io.BytesIO(data))
    blocks, stats, tell = want
    assert [str(ipaddress.ip_address(source)) for block in blocks for source in block[1]] == expected
    assert (stats.records_emitted, stats.packets_skipped, stats.bytes_read, tell) == (
        len(expected), 1, len(data), len(data))
    for step in (7, 4096, 70_000):
        assert decoded(io.BufferedReader(Trickle(data, step))) == want, step


@pytest.mark.parametrize("extra", [1, 7, 15])
def test_pcap_partial_final_record_header_counted(extra):
    frame = udp4("10.0.0.1", dns_payload([b"com"], 2))
    data = pcap_file([frame]) + b"\x00" * extra
    records, stats = run_pcap(data)
    assert len(records) == 1
    assert (stats.records_emitted, stats.packets_skipped, stats.bytes_read) == (1, 1, len(data))


# --- decode_pcap against read_pcap -------------------------------------------


def differential_pcap() -> bytes:
    """A capture of fuzzed query names, escape-worthy labels included, from
    IPv4 and IPv6 senders, with one dropped query and one response."""
    rng = random.Random(0xD1FF)
    tld_sample = sorted(default_registry().entries)[:40]
    names = [random_name(rng, tld_sample) for _ in range(600)]
    names += [
        DomainName((b"dot.ted", b"com")),
        DomainName((b"back\\slash", b"net")),
        DomainName((b"sp ace",)),
        DomainName((b"\x00\x1f\x7f\xff", b"\\.", b"org")),
        DomainName((b"x", b"\\")),
    ]
    frames = []
    for i, name in enumerate(names):
        payload = dns_payload(name.labels, (1, 2, 28, 65)[i % 4])
        if i % 7 == 3:
            frames.append(udp6(f"2001:db8:{i % 5:x}::{i:x}", payload))
        else:
            frames.append(udp4(f"198.{51 + i % 3}.{i % 11}.{i % 250}", payload))
    frames.append(udp4("192.0.2.1", dns_payload([], 1, name_override=b"\xc0\x0c\x00")))
    frames.append(udp4("192.0.2.1", dns_payload([b"com"], 2, qr=1)))
    return pcap_file(frames)


def test_decode_pcap_is_read_pcap_before_rendering():
    data = differential_pcap()
    decoded_stats, read_stats = IngestStats(), IngestStats()
    queries = [row for block in decode_pcap(io.BytesIO(data), decoded_stats) for row in zip(*block)]
    rendered = [QueryRecord(q[0], str(ipaddress.ip_address(q[1])), *q[2:4], to_presentation(q[4])) for q in queries]
    assert rendered == list(read_pcap(io.BytesIO(data), read_stats))
    assert decoded_stats == read_stats
    assert len(queries) == 605
    for q in queries:
        assert parse_presentation(to_presentation(q[4])) == q[4]


@pytest.mark.parametrize("no_senders", [False, True])
def test_cli_pcap_report_matches_the_presentation_path(tmp_path, no_senders):
    path = tmp_path / "t.pcap"
    path.write_bytes(differential_pcap())
    out = tmp_path / "r.json"
    argv = ["classify", "--format", "pcap", "--in", str(path), "--label", "diff", "--out", str(out)]
    assert cli.main(argv + ["--no-senders"] * no_senders) == 0
    got = out.read_bytes()

    stats = IngestStats()
    registry = default_registry()
    with open(path, "rb") as fh:
        pairs = [(rec, classify(parse_presentation(rec.qname_raw), registry)) for rec in read_pcap(fh, stats)]
    report = fold(pairs, label="diff", track_senders=not no_senders)
    report.dropped = stats.records_dropped_unparseable
    assert report.dropped == 1
    assert got == write_report(report, "json", meta=json.loads(got)["meta"])


# --- sender prefixes ---------------------------------------------------------

# zero hextets at each of the first three positions
ZERO_HEXTET_SOURCES = ["::1", "0:0:5::1", "2600::7", "2600:0:0:7::1", "2600:0:1f::"]


def prefix_sources() -> list[str]:
    """IPv6 sources with zero hextets where the /48 is cut, seeded random
    IPv6 and IPv4 sources, and the IPv4 extremes."""
    rng = random.Random(48)
    sources = list(ZERO_HEXTET_SOURCES)
    for _ in range(500):
        groups = [0 if rng.random() < 0.4 else rng.randrange(0x10000) for _ in range(8)]
        sources.append(str(ipaddress.IPv6Address(":".join(f"{g:x}" for g in groups))))
    sources += [str(ipaddress.IPv4Address(rng.getrandbits(32))) for _ in range(500)]
    return sources + ["0.0.0.0", "255.255.255.255"]


def test_prefixes_from_bytes_match_prefixes_from_text():
    sources = prefix_sources()
    payload = dns_payload([b"com"], 2)
    pcap_data = pcap_file([(udp6 if ":" in source else udp4)(source, payload) for source in sources])
    tsv_data = tsv_bytes(QueryRecord(i + 1, source, 1, 2, "com.") for i, source in enumerate(sources))

    from_pcap = []
    for block in decode_pcap(io.BytesIO(pcap_data)):
        for packed, key in zip(block.sources, block.prefixes):
            assert key == sender_key(str(ipaddress.ip_address(packed))), packed
        from_pcap += map(prefix_text, block.prefixes)
    from_tsv = []
    for block in decode_tsv(io.BytesIO(tsv_data)):
        for source, key in zip(block.sources, block.prefixes):
            assert key == sender_key(source), source
        from_tsv += map(prefix_text, block.prefixes)
    oracle = [ipaddress.ip_network((s, 48 if ":" in s else 16), strict=False).with_prefixlen for s in sources]
    assert from_pcap == from_tsv == oracle
    assert from_pcap[: len(ZERO_HEXTET_SOURCES)] == ["::/48", "0:0:5::/48", "2600::/48", "2600::/48", "2600:0:1f::/48"]


def test_decode_pcap_memory_does_not_grow_with_distinct_sources():
    n = 50_000
    payload = dns_payload([b"com"], 2)

    def growth(sources) -> int:
        """The most memory blocks the decode holds, sampled at each block
        it yields: untraced, as tracemalloc's per-allocation line lookup
        costs seconds here."""
        stream = io.BytesIO(pcap_file([udp6(source, payload) for source in sources]))
        stats = IngestStats()
        gc.collect()
        base = most = sys.getallocatedblocks()
        for _ in decode_pcap(stream, stats):
            most = max(most, sys.getallocatedblocks())
        assert stats.records_emitted == n
        return most - base

    one = growth(["2600:1:2::3"] * n)
    distinct = growth([f"2600:{i >> 16:x}:{i & 0xFFFF:x}::{i:x}" for i in range(n)])
    # a reader that kept anything per distinct source would grow with the capture
    assert distinct <= 2 * one, (distinct, one)


# --- TSV against pcap ----------------------------------------------------------


def synth_trace_pair(count: int = 20_000) -> tuple[bytes, bytes]:
    """One synthetic trace of count records, as TSV and as pcap."""
    records = [record for record, _ in generate(year_mix(2013, seed=2013), count)]
    frames = []
    for record in records:
        payload = dns_payload(parse_presentation(record.qname_raw).labels, record.qtype, record.qclass)
        frames.append((udp6 if ":" in record.source else udp4)(record.source, payload))
    times = [divmod(record.timestamp, 1_000_000) for record in records]
    return tsv_bytes(records), pcap_file(frames, times=times)


@pytest.mark.parametrize("no_senders", [False, True])
def test_tsv_and_pcap_of_one_trace_give_one_report(tmp_path, monkeypatch, no_senders):
    tsv_data, pcap_data = synth_trace_pair()
    reports = {}
    for fmt, data in (("tsv", tsv_data), ("pcap", pcap_data)):
        # the same relative input path in both runs, so meta differs only in format
        (tmp_path / fmt).mkdir()
        (tmp_path / fmt / "trace").write_bytes(data)
        monkeypatch.chdir(tmp_path / fmt)
        argv = ["classify", "--format", fmt, "--in", "trace", "--label", "oracle", "--out", "report.json"]
        assert cli.main(argv + ["--no-senders"] * no_senders) == 0
        reports[fmt] = (tmp_path / fmt / "report.json").read_bytes()
    doc = json.loads(reports["tsv"])
    assert doc["totals"]["records"] == 20_000 > 8 * ingest.BLOCK
    assert doc["meta"]["inputs"] == ["trace"]
    assert reports["tsv"].replace(b'"format": "tsv"', b'"format": "pcap"') == reports["pcap"]
