"""Trace ingestion: TSV logs and classic pcap captures, read in blocks.

This is the one module that knows the layout of either format. decode_tsv
and decode_pcap read a trace into Blocks of up to BLOCK records held as
parallel columns, each record's sender key among them, and keep running
counters. Both read a file in parts the same way: given two byte offsets,
each reads the records from the one that begins at the first up to the
first that begins at or after the second. line_start and pcap_start find,
beside each decoder, where the first record at or after a byte target of
a file begins, so that a file can be cut anywhere. The decoders take the
keep rule sampler makes, and decode only the records whose first byte's
offset it keeps. read_tsv and read_pcap are QueryRecord views of the same
blocks, with the same counters. window filters blocks; parse_day reads
the day a window is taken in.
Malformed records never abort a stream; only a corrupt container
(unreadable file, bad pcap global header, a pcap record header claiming an
impossible length) does, before the block that holds it is yielded.
"""

from __future__ import annotations

import os
import struct
from _socket import AF_INET, inet_pton
from bisect import bisect_left
from itertools import accumulate, compress, islice, repeat
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .model import (
    QCLASS_MNEMONICS,
    QTYPE_MNEMONICS,
    QueryRecord,
    address_key,
    qclass_code,
    qtype_code,
    sender_key,
)
from .names import MAX_NAME, to_presentation

TSV_FIELDS = 5  # epoch_micros, source_ip, qclass, qtype, qname

# Records per block. At 512, what a block keeps alive (a pcap block's
# label tuples, a TSV block's classifications) stays under the collector's
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
    """An I/O error reading a TSV line, numbered from the file's first line."""

    def __init__(self, line: int, error: OSError):
        super().__init__(f"I/O error reading line {line}: {error}")
        self.line = line
        self.error = error


class IngestStats:
    """Ingest counters, monotonically non-decreasing; one instance may be
    shared by the readers of several files and by classify.classify_block
    to count them together. Each reader adds a block's counts before it
    yields the block. A plain class, not a SimpleNamespace like
    report.Report: decode_pcap bumps a counter for each frame it skips, and
    Python 3.11 specializes attribute access only for instances that keep
    the default dict, which a SimpleNamespace's does not; a bump on one took
    about twice as long."""

    def __init__(self, records_emitted: int = 0, records_dropped_unparseable: int = 0, packets_skipped: int = 0,
                 bytes_read: int = 0, names_unparseable: int = 0):
        self.records_emitted = records_emitted
        self.records_dropped_unparseable = records_dropped_unparseable
        self.packets_skipped = packets_skipped
        self.bytes_read = bytes_read
        self.names_unparseable = names_unparseable  # emitted records whose name failed to parse

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"IngestStats({', '.join(f'{name}={value!r}' for name, value in vars(self).items())})"


class Block(NamedTuple):
    """A run of records as parallel columns, in input order: entry i of
    each column belongs to record i. A TSV block holds each timestamp as its
    line's ASCII digits (int() reads them; only window and read_tsv do),
    each source as text and each name as presentation bytes; a pcap block
    holds each timestamp as an int of microseconds, the packed 4- or 16-byte
    address and the name's label tuple decoded off the wire. prefixes holds
    each source's sender key (model.sender_key), derived as read."""

    timestamps: Sequence
    sources: Sequence
    qclasses: Sequence[int]
    qtypes: Sequence[int]
    names: Sequence
    prefixes: Sequence[int]

    def select(self, mask: list) -> "Block":
        """The records whose mask entry is true, in order."""
        return Block._make([tuple(compress(column, mask)) for column in self])


def decode_tsv(
    stream: IO[bytes], stats: Optional[IngestStats] = None, start: int = 0, end: Optional[int] = None,
    keep: Optional[Callable[[int], bool]] = None,
) -> Iterator[Block]:
    """Read tab-separated query records, one per line and five fields, as
    Blocks of the lines' records.

    Malformed lines, a source that is not an IP address and a timestamp
    that is not a positive run of ASCII decimal digits among them, bump
    records_dropped_unparseable and are left out. A timestamp is kept as
    those digits, leading zeros and all, and converted only where it is
    read. The lines of a block are
    read at once, so an I/O failure aborts with a TsvReadError that names
    the line whose read failed, counted from the file's first line, before
    the block it cut short is yielded; only then are the newlines before
    byte start counted.

    start and end read part of a seekable binary file: the lines from the
    one that begins at byte start (as line_start finds it) up to the first
    that begins at or after byte end, reading at most a block of lines past
    it. Once the blocks are all read, the stream is left at that line, or
    at the end of the file. With the defaults the stream is never sought,
    and any iterable of lines will do. keep, where given, is asked about
    each line's first byte, blank and malformed lines too; a line it
    rejects is read, and counted in bytes_read, but not decoded.
    """
    if stats is None:
        stats = IngestStats()
    qtype_table = _QTYPE_FROM_BYTES
    qclass_table = _QCLASS_FROM_BYTES
    if start:
        stream.seek(start)
    at = start  # the file offset of the next line
    lineno = 0
    lines = iter(stream)
    while True:
        chunk = []
        try:
            chunk.extend(islice(lines, BLOCK))  # keeps the lines read before a failure
        except OSError as exc:
            before = _newlines(stream.fileno(), start) if start else 0
            raise TsvReadError(before + lineno + len(chunk) + 1, exc) from exc
        if not chunk:
            return
        lineno += len(chunk)
        begins = list(accumulate(map(len, chunk), initial=at))  # each line's first byte, then the next line's
        if end is not None and begins[-1] >= end:
            # the last block: the lines that begin before end
            del chunk[bisect_left(begins, end) :]
            stream.seek(begins[len(chunk)])
            lines = iter(())  # nothing past it is read
        block = Block([], [], [], [], [], [])
        add_ts, add_source, add_qclass, add_qtype, add_name, add_key = (column.append for column in block)
        dropped = 0
        for line in compress(chunk, map(keep, begins)) if keep else chunk:
            fields = line.rstrip(b"\r\n").split(b"\t")
            if len(fields) != TSV_FIELDS:
                if fields != [b""]:
                    dropped += 1
                continue
            ts_b, source_b, qclass_b, qtype_b, qname_b = fields
            qclass = qclass_table.get(qclass_b)
            qtype = qtype_table.get(qtype_b)
            try:
                if qclass is None:
                    qclass = qclass_code(qclass_b.decode("ascii"))
                if qtype is None:
                    qtype = qtype_code(qtype_b.decode("ascii"))
                source = source_b.decode("ascii")
                if ":" in source:
                    key = sender_key(source)
                else:  # model.address_key's IPv4 /16 key, without its calls
                    packed = inet_pton(AF_INET, source)
                    key = packed[0] << 8 | packed[1]
            except (ValueError, UnicodeDecodeError, OSError):
                dropped += 1
                continue
            # bytes.isdigit takes ASCII decimal digits only; lstrip leaves
            # nothing of a timestamp of zeros
            if not (ts_b.isdigit() and ts_b.lstrip(b"0") and qname_b):
                dropped += 1
                continue
            add_ts(ts_b)
            add_source(source)
            add_qclass(qclass)
            add_qtype(qtype)
            add_name(qname_b)
            add_key(key)
        stats.bytes_read += begins[len(chunk)] - at
        at = begins[len(chunk)]
        stats.records_dropped_unparseable += dropped
        if block.names:
            stats.records_emitted += len(block.names)
            yield block


def _newlines(fd: int, end: int) -> int:
    """How many newlines the first `end` bytes of a file hold."""
    count = at = 0
    while at < end and (chunk := os.pread(fd, min(1 << 20, end - at), at)):
        count += chunk.count(b"\n")
        at += len(chunk)
    return count


def line_start(fd: int, target: int) -> int:
    """Where the first line that begins at or after byte target of a file
    begins, by decode_tsv's end rule: just after the first newline at or
    after byte target - 1, or at the end of the file."""
    if not target:
        return 0
    at = target - 1
    while chunk := os.pread(fd, 1 << 16, at):
        found = chunk.find(b"\n")
        if found >= 0:
            return at + found + 1
        at += len(chunk)
    return at


def read_tsv(stream: IO[bytes], stats: Optional[IngestStats] = None) -> Iterator[QueryRecord]:
    """decode_tsv's records as QueryRecords, timestamps as ints and names
    as latin-1 text.

    Malformed lines bump records_dropped_unparseable and are skipped. An
    I/O failure aborts with a TsvReadError naming the line whose read
    failed; the records of the block it cut short are not yielded.
    """
    for block in decode_tsv(stream, stats):
        yield from map(QueryRecord, map(int, block.timestamps), *block[1:4],
                       map(bytes.decode, block.names, repeat("latin-1")))


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

CHUNK = 1 << 16  # bytes read from a capture at a time; 256 KiB cost ~1 MB more peak

# record headers in a row that must be plausible where pcap_start finds a
# record; from 2,000 random targets in each of the benchmark's two 11.7 MB
# synthetic captures, three found the true next record every time, in
# ~0.1 ms a target
RESYNC_HEADERS = 3
# how far a plausible record's timestamp may be from the capture's first
# one, in seconds
RESYNC_SECONDS = 7 * 86_400

_IPV4 = struct.Struct(">BxH2xHxB2x4s").unpack_from  # version/IHL, total length, fragment word, protocol, source
_IPV6 = struct.Struct(">4xHBx16s").unpack_from  # payload length, next header, source
_UDP = struct.Struct(">2xHH").unpack_from  # destination port, UDP length
_DNS = struct.Struct(">2xBxH").unpack_from  # flags byte, qdcount
# an Ethernet frame's IPv4 total length, fragment word, protocol and source,
# its UDP destination port and length, and its DNS flags byte and qdcount,
# where the IPv4 header is 20 bytes
_FRAME = struct.Struct(">16xH2xHxB2x4s6xHH4xBxH").unpack_from
_QUESTION = struct.Struct(">HH").unpack_from  # qtype, qclass
_ETHERTYPES = {4: b"\x08\x00", 6: b"\x86\xdd"}  # the ethertype that carries each IP version


def _pcap_header(header: bytes):
    """What a classic pcap global header says (draft-ietf-opsawg-pcap):
    (unpack_from of a record header's four fields, whether timestamps are
    in nanoseconds, whether frames are Ethernet rather than raw IP, and the
    most a record may capture: the snaplen, or MAX_CAPLEN where that is 0
    or larger). Raises PcapError where header is under 24 bytes, has no
    pcap magic or names a link type that is neither."""
    if len(header) < 24:
        raise PcapError("truncated pcap global header")
    try:
        endian, nano = _PCAP_MAGICS[header[:4]]
    except KeyError:
        raise PcapError(f"bad pcap magic {header[:4].hex()}") from None
    snaplen, linktype = struct.unpack_from(endian + "II", header, 16)
    # the link type is the field's low 16 bits; above them sit the FCS
    # length and its P bit, accepted as a frame's IP and UDP lengths end its
    # message before any FCS, and the R and reserved bits, ignored
    linktype &= 0xFFFF
    if linktype != LINKTYPE_ETHERNET and linktype not in LINKTYPE_RAW:
        raise PcapError(f"unsupported link type {linktype}")
    if not 0 < snaplen <= MAX_CAPLEN:
        snaplen = MAX_CAPLEN
    return struct.Struct(endian + "IIII").unpack_from, nano, linktype == LINKTYPE_ETHERNET, snaplen


def decode_pcap(
    stream: IO[bytes], stats: Optional[IngestStats] = None, start: int = 0, end: Optional[int] = None,
    keep: Optional[Callable[[int], bool]] = None,
) -> Iterator[Block]:
    """Read the queries of a classic pcap capture as Blocks, sources as
    packed addresses and names as the label tuples decoded off the wire.

    Handles Ethernet and raw-IP link types, IPv4/IPv6, UDP to port 53. A
    query's DNS message ends at the first of: the end of its captured
    frame, of its IP datagram (the IPv4 total length, the IPv6 payload
    length) and of its UDP length. A datagram with under 8 bytes of UDP
    captured, to another port, or whose UDP length is under 8 is skipped;
    a message that ends under 20 bytes past its UDP header is then dropped
    as a short DNS header.
    Queries (QR=0) that fail to decode count as unparseable; everything
    else (responses, TCP, other ports/protocols, malformed IP headers, a
    truncated final record) counts as skipped. A bad global header or a
    record claiming more than MAX_CAPLEN bytes is a corrupt container and
    raises PcapError. The CLI classifies these names directly; read_pcap
    is the text view of the same stream.

    The capture is read CHUNK bytes at a time, and each record's header
    fields are read in place in the chunk; only a record's source address
    and name labels are copied out. The stream must be a buffered binary
    one whose read(n) returns n bytes unless at the end of the file, as
    open(path, "rb") and io.BytesIO give.

    start and end read part of a seekable capture: the records from the
    one whose header is at byte start (past the global header) up to the
    first that begins at or after byte end. Once the blocks are all read,
    the stream is left at that record, or at the end of the file. A range
    with a start reads the global header from byte 0, so ranges that meet
    may be read through one open stream, and only the range that starts at
    byte 0 counts the header in bytes_read. keep, where given, is asked
    about each record header's offset once its caplen passes the MAX_CAPLEN
    check; no layer of a record it rejects is read or counted.
    """
    if stats is None:
        stats = IngestStats()
    if start:
        stream.seek(0)
    unpack_rec, nano, ethernet, _ = _pcap_header(stream.read(24))
    subsecond = 1_000_000_000 if nano else 1_000_000
    base = 24  # the file offset of buf[0]
    if start > base:
        stream.seek(start)
        base = start
    counted = base if start else 0  # bytes_read covers the file up to here
    buf = b""
    pos = 0  # of the next record header in buf
    block, room = Block([], [], [], [], [], []), BLOCK  # room: the records the block has room for
    add_ts, add_source, add_qclass, add_qtype, add_name, add_key = (column.append for column in block)

    while True:
        more = stream.read(CHUNK)
        buf = buf[pos:] + more
        base += pos
        pos = 0
        size = len(buf)
        # a header at pos >= limit begins at or after end; without an end,
        # no full header starts at or after size
        limit = size if end is None else end - base
        while pos + 16 <= size and pos < limit:
            ts_sec, ts_sub, caplen, _ = unpack_rec(buf, pos)
            if caplen > MAX_CAPLEN:
                stats.bytes_read += base + pos - counted
                raise PcapError(f"corrupt pcap record at byte {base + pos}: caplen {caplen} over {MAX_CAPLEN}")
            at = pos + 16
            if at + caplen > size:
                break  # the rest of the record is not read yet
            pos = stop = at + caplen
            if keep is not None and not keep(base + at - 16):
                continue

            if ethernet and caplen >= 54 and buf[at + 12 : at + 15] == b"\x08\x00\x45":
                # Ethernet + IPv4 with a 20-byte header, the common frame: its
                # fields up to the qdcount in one unpack
                total, fragment, protocol, source, port, length, flags, qdcount = _FRAME(buf, at)
                key = source[0] << 8 | source[1]  # model.address_key's IPv4 key, without the call
                udp = at + 34
                if at + 14 + total < stop:
                    stop = at + 14 + total  # the datagram ends before its captured frame does
                if protocol != 17 or fragment & 0x1FFF or stop - udp < 8:
                    stats.packets_skipped += 1  # another protocol, a fragment, or a short UDP header
                    continue
            else:
                if ethernet:
                    ip = at + 14
                    version = buf[ip] >> 4 if caplen >= 15 and buf[at + 12 : ip] == _ETHERTYPES.get(buf[ip] >> 4) else 0
                else:
                    ip = at
                    version = buf[at] >> 4 if caplen else 0
                if version == 4 and stop - ip >= 20:
                    # version 4 with a header of at least five words (IHL >= 5)
                    vihl, total, fragment, protocol, source = _IPV4(buf, ip)
                    udp = ip + (vihl & 0x0F) * 4
                    if ip + total < stop:
                        stop = ip + total  # the datagram ends before its captured frame does
                    if not 0x45 <= vihl <= 0x4F or protocol != 17 or fragment & 0x1FFF or udp > stop:
                        stats.packets_skipped += 1
                        continue
                elif version == 6 and stop - ip >= 40:
                    payload, protocol, source = _IPV6(buf, ip)
                    if protocol != 17:
                        stats.packets_skipped += 1
                        continue
                    udp = ip + 40
                    if udp + payload < stop:
                        stop = udp + payload  # the datagram ends before its captured frame does
                else:  # not IP, or an IP header cut short
                    stats.packets_skipped += 1
                    continue
                if stop - udp < 8:
                    stats.packets_skipped += 1  # a short UDP header
                    continue
                port, length = _UDP(buf, udp)
                flags = -1  # the DNS header is read once it is known to be whole
                key = address_key(source)

            if port != 53 or length < 8:
                stats.packets_skipped += 1  # another port, or a short UDP length
                continue
            if udp + length < stop:
                stop = udp + length  # the UDP length says the message ends sooner
            if stop - udp < 20:
                stats.records_dropped_unparseable += 1  # a short DNS header
                continue
            if flags < 0:
                flags, qdcount = _DNS(buf, udp + 8)
            if flags & 0x80:  # a response
                stats.packets_skipped += 1
                continue
            if not qdcount:
                stats.records_dropped_unparseable += 1  # no question
                continue
            # the question (RFC 1035 §4.1.2), walked in place: each label's
            # length byte is under 0x40 (0xC0 starts a compression pointer,
            # illegal in a query, and 0x40 and 0x80 reserved forms), and the
            # labels and their length bytes take at most MAX_NAME - 1 bytes
            i = udp + 20
            last = i + MAX_NAME - 1
            labels = []
            while i < stop and 0 < (length := buf[i]) < 0x40:
                i += 1 + length
                if i > last:
                    break
                labels.append(buf[i - length : i])
            if last < i <= stop:
                stats.records_dropped_unparseable += 1  # an oversize name
                continue
            if i >= stop:
                stats.records_dropped_unparseable += 1  # a truncated name
                continue
            if buf[i]:
                stats.records_dropped_unparseable += 1  # a compressed name
                continue
            if i + 5 > stop:
                stats.records_dropped_unparseable += 1  # a truncated question
                continue
            qtype, qclass = _QUESTION(buf, i + 1)
            timestamp = ts_sec * 1_000_000 + (ts_sub // 1000 if nano else ts_sub)
            if timestamp <= 0 or ts_sub >= subsecond:
                stats.records_dropped_unparseable += 1
                continue
            add_ts(timestamp)
            add_source(source)
            add_qclass(qclass)
            add_qtype(qtype)
            add_name(tuple(labels))
            add_key(key)
            if not (room := room - 1):
                stats.bytes_read += base + pos - counted
                counted = base + pos
                stats.records_emitted += BLOCK
                yield block
                block, room = Block([], [], [], [], [], []), BLOCK
                add_ts, add_source, add_qclass, add_qtype, add_name, add_key = (column.append for column in block)

        if pos + 16 <= size and pos >= limit:
            stream.seek(base + pos)  # left at the record that begins at or after end
            break
        if not more:  # the end of the file cuts short what is left
            if pos < size:
                stats.packets_skipped += 1
                pos = size
            break

    stats.bytes_read += base + pos - counted
    if block.names:
        stats.records_emitted += len(block.names)
        yield block


def pcap_start(fd: int, target: int) -> Optional[int]:
    """Where a range that starts at byte target (not 0) of a pcap capture
    begins: the first offset at or after it where RESYNC_HEADERS record
    headers in a row (fewer where the file ends first) are plausible, or
    the end of the file if no record header starts after target. A header
    is plausible if its sub-second field is under 10^6 (10^9 in a
    nanosecond capture), its caplen is at most the global header's snaplen
    (see _pcap_header) and at most the original length, and its timestamp
    is within RESYNC_SECONDS of the first record's. None where the file is
    not a capture decode_pcap can read, where the capture has no first
    record, or where no header within a record's length of target is
    plausible."""
    head = os.pread(fd, 40, 0)
    try:
        unpack, nano, _, snaplen = _pcap_header(head)
    except PcapError:
        return None  # decode_pcap raises it, reading the file from byte 0
    if len(head) < 40:
        return None
    subsecond = 1_000_000_000 if nano else 1_000_000
    first = unpack(head, 24)[0]
    at = max(target, 24)
    # a true record starts within 16 + snaplen bytes of any offset, and each
    # header checked from there lies within as many bytes of the one before
    span = 16 + snaplen
    buf = os.pread(fd, (RESYNC_HEADERS + 1) * span, at)

    def plausible(i: int) -> bool:
        for checked in range(RESYNC_HEADERS):
            if i + 16 > len(buf):
                return checked > 0  # the file ends after a plausible record
            sec, sub, caplen, length = unpack(buf, i)
            if sub >= subsecond or caplen > snaplen or caplen > length or abs(sec - first) > RESYNC_SECONDS:
                return False
            i += 16 + caplen
        return True

    for i in range(min(span + 1, len(buf))):
        if plausible(i):
            return at + i
    return at + len(buf) if len(buf) <= span else None


def read_pcap(stream: IO[bytes], stats: Optional[IngestStats] = None) -> Iterator[QueryRecord]:
    """decode_pcap's queries as QueryRecords: each source as text, and each
    label tuple in presentation form (to_presentation).

    The view for library callers that want records like read_tsv's; the
    CLI classifies decode_pcap's names without rendering them.
    """
    for block in decode_pcap(stream, stats):
        for timestamp, source, qclass, qtype, labels, _ in zip(*block):
            yield QueryRecord(timestamp, _address_text(source), qclass, qtype, to_presentation(labels))


def _address_text(packed: bytes) -> str:
    """A packed source address as text: IPv4 as a dotted quad, IPv6 in
    RFC 5952 form."""
    if len(packed) == 4:
        return "%d.%d.%d.%d" % tuple(packed)
    import ipaddress  # loaded only where read_pcap renders an IPv6 source

    return str(ipaddress.IPv6Address(packed))


_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's increment, 2^64 over the golden ratio, made odd


def _mix(z: int) -> int:
    """splitmix64's finalizer (Steele, Lea & Flood, OOPSLA 2014) of a 64-bit int."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK
    return z ^ z >> 31


def sampler(rate: float, seed: int) -> Callable[[int], bool]:
    """keep(offset), the rule the decoders take: true, with probability
    rate, iff the splitmix64 finalizer of (the seed's mix plus the offset
    times splitmix64's increment) is under rate * 2^64, as in hash-based
    trajectory sampling (Duffield & Grossglauser, IEEE/ACM ToN 2001). So a
    record's fate depends on (rate, seed, the offset of its first byte in
    its file) alone: the same in any block size and wherever its file is
    cut, and for records at the same offset of two files. Seeds are taken
    modulo 2^64, so a negative seed keeps its own subset. Rejects a bad rate
    at once."""
    if not 0 < rate <= 1:
        raise ValueError(f"sample rate must be in (0, 1], got {rate}")
    limit = int(rate * 2**64)
    key = _mix(seed & _MASK)
    return lambda offset: _mix(key + offset * _GAMMA & _MASK) < limit


def parse_day(value: str) -> int:
    """Microseconds at the start of a UTC day, an ISO date or epoch seconds:
    the day_origin_micros that window takes."""
    from datetime import datetime, timezone

    if not value.isascii():  # int() and strptime's %Y would also take other scripts' digits
        raise ValueError(f"not an ASCII date or epoch seconds: {value!r}")
    if value.isdigit():
        return int(value) * 1_000_000
    dt = datetime.strptime(value, "%Y-%m-%d").replace(tzinfo=timezone.utc)
    return int(dt.timestamp()) * 1_000_000


def window(
    blocks: Iterable[Block],
    start_seconds: int,
    end_seconds: int,
    day_origin_micros: int,
) -> Iterator[Block]:
    """Keep records whose timestamp falls in the half-open time-of-day
    window, reading each with int(): a TSV block's digits and a pcap
    block's ints alike."""
    if not 0 <= start_seconds < end_seconds <= 86_400:
        raise ValueError(f"inverted or out-of-day window {start_seconds}..{end_seconds}")
    lo = day_origin_micros + start_seconds * 1_000_000
    hi = day_origin_micros + end_seconds * 1_000_000
    return (block.select([lo <= t < hi for t in map(int, block.timestamps)]) for block in blocks)
