"""Trace ingestion: TSV logs and classic pcap captures.

Both readers stream QueryRecords and keep running counters; for pcap,
decode_pcap also streams each query with its name still decoded. Malformed
records never abort a stream; only a corrupt container (unreadable file,
bad pcap global header, a pcap record header claiming an impossible
length) does.
"""

from __future__ import annotations

import ipaddress
import random
import re
import struct
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, NamedTuple, Optional

from .model import (
    QCLASS_MNEMONICS,
    QTYPE_MNEMONICS,
    DomainName,
    QueryRecord,
    _v6_prefix48,
    qclass_code,
    qtype_code,
)
from .names import MAX_LABEL, MAX_NAME, to_presentation

TSV_FIELDS = 5  # epoch_micros, source_ip, qclass, qtype, qname

_QTYPE_FROM_BYTES = {m.encode(): c for c, m in QTYPE_MNEMONICS.items()}
_QCLASS_FROM_BYTES = {m.encode(): c for c, m in QCLASS_MNEMONICS.items()}

_OCTET = rb"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_V4_RE = re.compile(rb"(?:%s\.){3}%s\Z" % (_OCTET, _OCTET))


class IngestError(Exception):
    pass


class PcapError(IngestError):
    pass


@dataclass
class IngestStats:
    """Ingest counters, monotonically non-decreasing; one instance may be
    shared by the readers of several files and by classify_stream to count
    them together."""

    records_emitted: int = 0
    records_dropped_unparseable: int = 0
    packets_skipped: int = 0
    bytes_read: int = 0
    names_unparseable: int = 0  # emitted records whose name failed to parse


def _valid_v6(text: str) -> bool:
    try:
        _v6_prefix48(text)
    except ValueError:
        return False
    return True


def read_tsv(stream: IO[bytes], stats: Optional[IngestStats] = None) -> Iterator[QueryRecord]:
    """Read tab-separated query records: one per line, five fields.

    Malformed lines bump records_dropped_unparseable and are skipped; I/O
    failures abort with the line position.
    """
    if stats is None:
        stats = IngestStats()
    qtype_table = _QTYPE_FROM_BYTES
    qclass_table = _QCLASS_FROM_BYTES
    v4_match = _V4_RE.match
    lineno = 0
    lines = iter(stream)
    while True:
        try:
            line = next(lines, None)
        except OSError as exc:
            raise IngestError(f"I/O error at line {lineno + 1}: {exc}") from exc
        if line is None:
            return
        lineno += 1
        stats.bytes_read += len(line)
        fields = line.rstrip(b"\r\n").split(b"\t")
        if len(fields) != TSV_FIELDS:
            if fields != [b""]:
                stats.records_dropped_unparseable += 1
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
        except (ValueError, UnicodeDecodeError):
            stats.records_dropped_unparseable += 1
            continue
        if timestamp <= 0 or not qname_b:
            stats.records_dropped_unparseable += 1
            continue
        if v4_match(source_b) is None and not (b":" in source_b and _valid_v6(source)):
            stats.records_dropped_unparseable += 1
            continue
        stats.records_emitted += 1
        yield QueryRecord(timestamp, source, qclass, qtype, qname_b.decode("latin-1"))


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


class PcapQuery(NamedTuple):
    """One decoded pcap query: the QueryRecord fields, with the query name
    as the DomainName decoded from the wire instead of presentation text."""

    timestamp: int
    source: str
    qclass: int
    qtype: int
    name: DomainName


def decode_pcap(stream: IO[bytes], stats: Optional[IngestStats] = None) -> Iterator[PcapQuery]:
    """Stream the queries out of a classic pcap capture, names as decoded.

    Handles Ethernet and raw-IP link types, IPv4/IPv6, UDP to port 53.
    Queries (QR=0) that fail to decode count as unparseable; everything
    else (responses, TCP, other ports/protocols, malformed IP headers, a
    truncated final record) counts as skipped. A bad global header or a
    record claiming more than MAX_CAPLEN bytes is a corrupt container and
    raises PcapError. The CLI classifies these names directly; read_pcap
    is the presentation-form view of the same stream.
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
    v6_cache: dict[bytes, str] = {}
    offset = 24  # of the next record header in the file

    while True:
        rec_header = stream.read(16)
        if len(rec_header) < 16:
            if rec_header:
                stats.bytes_read += len(rec_header)
                stats.packets_skipped += 1
            return
        ts_sec, ts_sub, caplen, _ = unpack_rec(rec_header)
        if caplen > MAX_CAPLEN:
            raise PcapError(f"corrupt pcap record at byte {offset}: caplen {caplen} over {MAX_CAPLEN}")
        data = stream.read(caplen)
        stats.bytes_read += 16 + len(data)
        offset += 16 + len(data)
        if len(data) < caplen:
            stats.packets_skipped += 1
            return

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
            source = f"{ip[12]}.{ip[13]}.{ip[14]}.{ip[15]}"
            udp = ip[header_len:]
        elif version == 6:
            if len(ip) < 40 or ip[6] != 17:
                stats.packets_skipped += 1
                continue
            raw_src = ip[8:24]
            source = v6_cache.get(raw_src)
            if source is None:
                source = v6_cache[raw_src] = str(ipaddress.IPv6Address(raw_src))
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
        stats.records_emitted += 1
        yield PcapQuery(timestamp, source, qclass, qtype, name)


def read_pcap(stream: IO[bytes], stats: Optional[IngestStats] = None) -> Iterator[QueryRecord]:
    """decode_pcap's queries as QueryRecords, names in presentation form.

    The view for library callers that want records like read_tsv's; the
    CLI classifies decode_pcap's names without rendering them.
    """
    for q in decode_pcap(stream, stats):
        yield QueryRecord(q.timestamp, q.source, q.qclass, q.qtype, to_presentation(q.name))


def sample(
    records: Iterable[QueryRecord],
    rate: float,
    seed: int,
) -> Iterator[QueryRecord]:
    """Keep each record independently with probability rate, seeded.

    Identical (input, rate, seed) keeps an identical subset; relative
    order is preserved. Rejects the rate eagerly, not on first iteration.
    """
    if not 0 < rate <= 1:
        raise ValueError(f"sample rate must be in (0, 1], got {rate}")
    rnd = random.Random(seed).random
    return (record for record in records if rnd() < rate)


def window(
    records: Iterable[QueryRecord],
    start_seconds: int,
    end_seconds: int,
    day_origin_micros: int,
) -> Iterator[QueryRecord]:
    """Keep records whose timestamp falls in the half-open time-of-day window."""
    if not 0 <= start_seconds < end_seconds <= 86_400:
        raise ValueError(f"inverted or out-of-day window {start_seconds}..{end_seconds}")
    lo = day_origin_micros + start_seconds * 1_000_000
    hi = day_origin_micros + end_seconds * 1_000_000
    return (record for record in records if lo <= record.timestamp < hi)
