"""Trace ingestion: TSV logs and classic pcap captures, read in blocks.

decode_tsv and decode_pcap read a trace into Blocks of up to BLOCK records
held as parallel columns, each record's sender key among them, and keep
running counters. A file can be read in parts: read_range gives a byte
range of a TSV file as a stream of its own, and decode_pcap reads the
records between two offsets of a capture. read_tsv and read_pcap are
QueryRecord views of the same blocks, with the same counters. sample and
window filter blocks.
Malformed records never abort a stream; only a corrupt container
(unreadable file, bad pcap global header, a pcap record header claiming an
impossible length) does, before the block that holds it is yielded.
"""

from __future__ import annotations

import io
import ipaddress
import random
import struct
from dataclasses import dataclass
from itertools import compress, islice, repeat
from typing import IO, Iterable, Iterator, NamedTuple, Optional, Sequence

from .model import (
    QCLASS_MNEMONICS,
    QTYPE_MNEMONICS,
    DomainName,
    QueryRecord,
    address_key,
    qclass_code,
    qtype_code,
    sender_key,
)
from .names import MAX_LABEL, MAX_NAME, to_presentation

TSV_FIELDS = 5  # epoch_micros, source_ip, qclass, qtype, qname

# Records per block. At 512, what a block keeps alive (a pcap block's
# DomainNames, a TSV block's classifications) stays under the collector's
# 700-allocation young-generation threshold, so a block is usually freed
# before a collection scans it; blocks of 4,096 spent ~7% of a pcap run in
# the collector.
BLOCK = 512

_QTYPE_FROM_BYTES = {m.encode(): c for c, m in QTYPE_MNEMONICS.items()}
_QCLASS_FROM_BYTES = {m.encode(): c for c, m in QCLASS_MNEMONICS.items()}


class IngestError(Exception):
    pass


class PcapError(IngestError):
    pass


class TsvReadError(IngestError):
    """An I/O error reading a TSV line, numbered from the stream's first line."""

    def __init__(self, line: int, error: OSError):
        super().__init__(f"I/O error reading line {line}: {error}")
        self.line = line
        self.error = error


@dataclass
class IngestStats:
    """Ingest counters, monotonically non-decreasing; one instance may be
    shared by the readers of several files and by classify.classify_block
    to count them together. Each reader adds a block's counts before it
    yields the block."""

    records_emitted: int = 0
    records_dropped_unparseable: int = 0
    packets_skipped: int = 0
    bytes_read: int = 0
    names_unparseable: int = 0  # emitted records whose name failed to parse


class Block(NamedTuple):
    """A run of records as parallel columns, in input order: entry i of
    each column belongs to record i. A TSV block holds each source as text
    and each name as presentation bytes; a pcap block holds the packed 4- or
    16-byte address and the DomainName decoded off the wire. prefixes holds
    each source's sender key (model.sender_key), derived as the record is
    read."""

    timestamps: Sequence[int]
    sources: Sequence
    qclasses: Sequence[int]
    qtypes: Sequence[int]
    names: Sequence
    prefixes: Sequence[int]

    def select(self, mask: list) -> "Block":
        """The records whose mask entry is true, in order."""
        return Block._make([tuple(compress(column, mask)) for column in self])


def decode_tsv(stream: IO[bytes], stats: Optional[IngestStats] = None) -> Iterator[Block]:
    """Read tab-separated query records, one per line and five fields, as
    Blocks of the lines' records.

    Malformed lines, a source that is not an IP address among them, bump
    records_dropped_unparseable and are left out. The lines of a block are
    read at once, so an I/O failure aborts with a TsvReadError that names
    the line whose read failed, before the block it cut short is yielded.
    """
    if stats is None:
        stats = IngestStats()
    qtype_table = _QTYPE_FROM_BYTES
    qclass_table = _QCLASS_FROM_BYTES
    lineno = 0
    lines = iter(stream)
    while True:
        chunk = []
        try:
            chunk.extend(islice(lines, BLOCK))  # keeps the lines read before a failure
        except OSError as exc:
            raise TsvReadError(lineno + len(chunk) + 1, exc) from exc
        if not chunk:
            return
        lineno += len(chunk)
        block = Block([], [], [], [], [], [])
        add_ts, add_source, add_qclass, add_qtype, add_name, add_key = (column.append for column in block)
        dropped = 0
        for line in chunk:
            fields = line.rstrip(b"\r\n").split(b"\t")
            if len(fields) != TSV_FIELDS:
                if fields != [b""]:
                    dropped += 1
                continue
            ts_b, source_b, qclass_b, qtype_b, qname_b = fields
            qclass = qclass_table.get(qclass_b)
            qtype = qtype_table.get(qtype_b)
            try:
                timestamp = int(ts_b)
                if qclass is None:
                    qclass = qclass_code(qclass_b.decode("ascii"))
                if qtype is None:
                    qtype = qtype_code(qtype_b.decode("ascii"))
                source = source_b.decode("ascii")
                key = sender_key(source)
            except (ValueError, UnicodeDecodeError):
                dropped += 1
                continue
            if timestamp <= 0 or not qname_b:
                dropped += 1
                continue
            add_ts(timestamp)
            add_source(source)
            add_qclass(qclass)
            add_qtype(qtype)
            add_name(qname_b)
            add_key(key)
        stats.bytes_read += sum(map(len, chunk))
        stats.records_dropped_unparseable += dropped
        if block.names:
            stats.records_emitted += len(block.names)
            yield block


class _Range(io.RawIOBase):
    """The bytes of a raw file from its current position up to a limit."""

    def __init__(self, raw, size: int):
        self._raw = raw
        self._left = size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        got = self._raw.readinto(memoryview(buffer)[: self._left])
        self._left -= got
        return got


def read_range(stream: IO[bytes], start: int, end: Optional[int]) -> IO[bytes]:
    """Bytes start to end of an open binary file as a stream of their own,
    to the end of the file where end is None. The stream reads through the
    file object, so give each range a file object of its own."""
    if start:
        stream.seek(start)
    if end is None:
        return stream
    return io.BufferedReader(_Range(stream.raw, end - start))


def read_tsv(stream: IO[bytes], stats: Optional[IngestStats] = None) -> Iterator[QueryRecord]:
    """decode_tsv's records as QueryRecords, names as latin-1 text.

    Malformed lines bump records_dropped_unparseable and are skipped. An
    I/O failure aborts with a TsvReadError naming the line whose read
    failed; the records of the block it cut short are not yielded.
    """
    for block in decode_tsv(stream, stats):
        yield from map(QueryRecord, *block[:4], map(bytes.decode, block.names, repeat("latin-1")))


_PCAP_MAGICS = {
    b"\xa1\xb2\xc3\xd4": (">", False),
    b"\xd4\xc3\xb2\xa1": ("<", False),
    b"\xa1\xb2\x3c\x4d": (">", True),
    b"\x4d\x3c\xb2\xa1": ("<", True),
}

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW = frozenset({12, 101})
# libpcap's MAXIMUM_SNAPLEN: a larger caplen can only come from a corrupt
# record header, and reading it would allocate up to 4 GiB
MAX_CAPLEN = 262_144

_SKIP = 0
_DROP = 1


def _decode_question(payload: bytes) -> "tuple[int, object]":
    """Decode the first question of a DNS query payload.

    Returns (_SKIP, reason) for responses, (_DROP, reason) for queries we
    cannot decode, or (2, (name, qtype, qclass)) on success.
    """
    if len(payload) < 12:
        return _DROP, "short DNS header"
    if payload[2] & 0x80:
        return _SKIP, "response"
    qdcount = (payload[4] << 8) | payload[5]
    if qdcount == 0:
        return _DROP, "no question"
    labels = []
    i = 12
    total = 1
    end = len(payload)
    while True:
        if i >= end:
            return _DROP, "truncated name"
        length = payload[i]
        if length == 0:
            i += 1
            break
        if length & 0xC0:
            # compression pointers (and reserved forms) are illegal in queries
            return _DROP, "compressed name"
        i += 1
        if i + length > end:
            return _DROP, "truncated name"
        total += length + 1
        if total > MAX_NAME or length > MAX_LABEL:
            return _DROP, "oversize name"
        labels.append(payload[i : i + length])
        i += length
    if i + 4 > end:
        return _DROP, "truncated question"
    qtype = (payload[i] << 8) | payload[i + 1]
    qclass = (payload[i + 2] << 8) | payload[i + 3]
    return 2, (DomainName(tuple(labels)), qtype, qclass)


def decode_pcap(
    stream: IO[bytes], stats: Optional[IngestStats] = None, start: int = 0, end: Optional[int] = None
) -> Iterator[Block]:
    """Read the queries of a classic pcap capture as Blocks, sources as
    packed addresses and names as the DomainNames decoded off the wire.

    Handles Ethernet and raw-IP link types, IPv4/IPv6, UDP to port 53.
    Queries (QR=0) that fail to decode count as unparseable; everything
    else (responses, TCP, other ports/protocols, malformed IP headers, a
    truncated final record) counts as skipped. A bad global header or a
    record claiming more than MAX_CAPLEN bytes is a corrupt container and
    raises PcapError. The CLI classifies these names directly; read_pcap
    is the text view of the same stream.

    start and end read part of a seekable capture: the records from the
    one whose header is at byte start (past the global header) up to the
    first that begins at or after byte end. The stream is then left at
    that record, or at the end of the file.
    """
    if stats is None:
        stats = IngestStats()
    header = stream.read(24)
    if len(header) < 24:
        raise PcapError("truncated pcap global header")
    try:
        endian, nano = _PCAP_MAGICS[header[:4]]
    except KeyError:
        raise PcapError(f"bad pcap magic {header[:4].hex()}") from None
    stats.bytes_read += 24
    linktype = struct.unpack(endian + "I", header[20:24])[0] & 0x0FFFFFFF
    if linktype != LINKTYPE_ETHERNET and linktype not in LINKTYPE_RAW:
        raise PcapError(f"unsupported link type {linktype}")
    unpack_rec = struct.Struct(endian + "IIII").unpack
    offset = 24  # of the next record header in the file
    if start > offset:
        stream.seek(start)
        offset = start
    if end is None:
        end = float("inf")
    size = BLOCK
    block = Block([], [], [], [], [], [])

    while True:
        rec_header = stream.read(16)
        if len(rec_header) < 16:
            if rec_header:
                stats.bytes_read += len(rec_header)
                stats.packets_skipped += 1
            break
        if offset >= end:
            stream.seek(offset)
            break
        ts_sec, ts_sub, caplen, _ = unpack_rec(rec_header)
        if caplen > MAX_CAPLEN:
            raise PcapError(f"corrupt pcap record at byte {offset}: caplen {caplen} over {MAX_CAPLEN}")
        data = stream.read(caplen)
        stats.bytes_read += 16 + len(data)
        offset += 16 + len(data)
        if len(data) < caplen:
            stats.packets_skipped += 1
            break

        if linktype == LINKTYPE_ETHERNET:
            if len(data) < 15:
                stats.packets_skipped += 1
                continue
            ethertype = (data[12] << 8) | data[13]
            if ethertype == 0x0800:
                version = 4
            elif ethertype == 0x86DD:
                version = 6
            else:
                stats.packets_skipped += 1
                continue
            ip = data[14:]
        else:
            if not data:
                stats.packets_skipped += 1
                continue
            version = data[0] >> 4
            ip = data

        if version == 4:
            # version 4 with a header of at least five words (IHL >= 5)
            if len(ip) < 20 or not 0x45 <= ip[0] <= 0x4F:
                stats.packets_skipped += 1
                continue
            if ip[9] != 17 or (((ip[6] << 8) | ip[7]) & 0x1FFF) != 0:
                stats.packets_skipped += 1
                continue
            header_len = (ip[0] & 0x0F) * 4
            if header_len > len(ip):
                stats.packets_skipped += 1
                continue
            source = ip[12:16]
            udp = ip[header_len:]
        elif version == 6:
            if len(ip) < 40 or ip[6] != 17:
                stats.packets_skipped += 1
                continue
            source = ip[8:24]
            udp = ip[40:]
        else:
            stats.packets_skipped += 1
            continue

        if len(udp) < 8 or ((udp[2] << 8) | udp[3]) != 53:
            stats.packets_skipped += 1
            continue

        kind, value = _decode_question(udp[8:])
        if kind == _SKIP:
            stats.packets_skipped += 1
            continue
        if kind == _DROP:
            stats.records_dropped_unparseable += 1
            continue
        name, qtype, qclass = value
        timestamp = ts_sec * 1_000_000 + (ts_sub // 1000 if nano else ts_sub)
        if timestamp <= 0:
            stats.records_dropped_unparseable += 1
            continue
        block.timestamps.append(timestamp)
        block.sources.append(source)
        block.qclasses.append(qclass)
        block.qtypes.append(qtype)
        block.names.append(name)
        block.prefixes.append(address_key(source))
        if len(block.names) == size:
            stats.records_emitted += size
            yield block
            block = Block([], [], [], [], [], [])

    if block.names:
        stats.records_emitted += len(block.names)
        yield block


def read_pcap(stream: IO[bytes], stats: Optional[IngestStats] = None) -> Iterator[QueryRecord]:
    """decode_pcap's queries as QueryRecords, sources and names as text.

    The view for library callers that want records like read_tsv's; the
    CLI classifies decode_pcap's names without rendering them.
    """
    for block in decode_pcap(stream, stats):
        sources = map(_address_text, block.sources)
        yield from map(QueryRecord, block.timestamps, sources, *block[2:4], map(to_presentation, block.names))


def _address_text(packed: bytes) -> str:
    """A packed source address as text: IPv4 as a dotted quad, IPv6 in
    RFC 5952 form."""
    if len(packed) == 4:
        return "%d.%d.%d.%d" % tuple(packed)
    return str(ipaddress.IPv6Address(packed))


def sample(blocks: Iterable[Block], rate: float, seed: int) -> Iterator[Block]:
    """Keep each record independently with probability rate, seeded.

    One draw per record, in order, so identical (input, rate, seed) keeps
    an identical subset whatever the block size; relative order is
    preserved. Rejects the rate eagerly, not on first iteration.
    """
    if not 0 < rate <= 1:
        raise ValueError(f"sample rate must be in (0, 1], got {rate}")
    rnd = random.Random(seed).random
    return (block.select([rnd() < rate for _ in block.timestamps]) for block in blocks)


def window(
    blocks: Iterable[Block],
    start_seconds: int,
    end_seconds: int,
    day_origin_micros: int,
) -> Iterator[Block]:
    """Keep records whose timestamp falls in the half-open time-of-day window."""
    if not 0 <= start_seconds < end_seconds <= 86_400:
        raise ValueError(f"inverted or out-of-day window {start_seconds}..{end_seconds}")
    lo = day_origin_micros + start_seconds * 1_000_000
    hi = day_origin_micros + end_seconds * 1_000_000
    return (block.select([lo <= t < hi for t in block.timestamps]) for block in blocks)
