"""Seeded classic-pcap writer for generated query records.

Turns query records into an Ethernet capture that mixes IPv4 and IPv6
queries with interleaved responses, non-DNS traffic and a seeded share of
malformed queries. It tallies how a correct reader must account for every
packet: each record becomes one emitted query, each malformed query one
dropped record, and every other packet one skipped packet.

The writer needs no roottrace code: names are encoded from their
presentation form here, so the capture is an independent input to the
reader under test.
"""

from __future__ import annotations

import ipaddress
import random
import struct
from dataclasses import dataclass
from typing import IO, Iterable

SERVER_V4 = ipaddress.IPv4Address("198.41.0.4").packed
SERVER_V6 = ipaddress.IPv6Address("2001:503:ba3e::2:30").packed
_ETHER = bytes.fromhex("020000000002" "020000000001")
_GLOBAL_HEADER = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 0xFFFF, 1)
_RECORD_HEADER = struct.Struct("<IIII")

# How a packet that is not a well-formed query is built; every one of these
# is skipped by a correct reader.
_OTHER_KINDS = ("ntp", "tcp", "arp")
# Query payloads a correct reader must drop as undecodable.
_MALFORMED_KINDS = ("truncated", "compressed", "no-question", "short-header")


@dataclass
class PcapCounts:
    """What a correct reader must report for the written capture."""

    packets: int = 0
    emitted: int = 0
    dropped: int = 0
    skipped: int = 0
    bytes: int = 0


def wire_name(presentation: str) -> bytes:
    """Encode a presentation-format name (with \\DDD and \\X escapes) as
    uncompressed DNS wire labels, root byte included."""
    data = presentation.encode("latin-1")
    out = bytearray()
    label = bytearray()
    i = 0
    while i < len(data):
        byte = data[i]
        if byte == 0x5C:
            if data[i + 1 : i + 2].isdigit():
                label.append(int(data[i + 1 : i + 4]))
                i += 4
            else:
                label.append(data[i + 1])
                i += 2
        elif byte == 0x2E:
            if label:
                out.append(len(label))
                out += label
                label.clear()
            i += 1
        else:
            label.append(byte)
            i += 1
    if label:
        out.append(len(label))
        out += label
    out.append(0)
    return bytes(out)


def _dns(qid: int, name: bytes, qtype: int, qclass: int, response: bool = False, qdcount: int = 1) -> bytes:
    flags = 0x8180 if response else 0x0100
    return struct.pack(">HHHHHH", qid, flags, qdcount, 0, 0, 0) + name + struct.pack(">HH", qtype, qclass)


def _ip_frame(src: bytes, dst: bytes, l4: bytes, proto: int = 17) -> bytes:
    if len(src) == 4:
        ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, 20 + len(l4), 0, 0x4000, 64, proto, 0, src, dst)
        return _ETHER + b"\x08\x00" + ip + l4
    ip = struct.pack(">IHBB16s16s", 0x60000000, len(l4), proto, 64, src, dst)
    return _ETHER + b"\x86\xdd" + ip + l4


def _udp(sport: int, dport: int, payload: bytes) -> bytes:
    return struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload


def _malformed_payload(kind: str, qid: int, name: bytes) -> bytes:
    if kind == "truncated":
        # the name loses its root byte, so it runs off the end of the payload
        return _dns(qid, name, 1, 1)[: 12 + len(name) - 1]
    if kind == "compressed":
        return _dns(qid, b"\xc0\x0c", 1, 1)
    if kind == "no-question":
        return _dns(qid, name, 1, 1, qdcount=0)
    return _dns(qid, name, 1, 1)[:6]


def write_pcap(
    records: Iterable,
    out: IO[bytes],
    seed: int,
    response_share: float = 0.25,
    other_share: float = 0.05,
    malformed_share: float = 0.005,
) -> PcapCounts:
    """Write records (timestamp, source, qclass, qtype, qname_raw) as one
    query packet each, with seeded extra packets in between; return the
    counts a correct reader must report."""
    rng = random.Random(seed)
    counts = PcapCounts()
    pack_header = _RECORD_HEADER.pack
    out.write(_GLOBAL_HEADER)
    counts.bytes += len(_GLOBAL_HEADER)

    def emit(timestamp: int, frame: bytes) -> None:
        header = pack_header(timestamp // 1_000_000, timestamp % 1_000_000, len(frame), len(frame))
        out.write(header)
        out.write(frame)
        counts.packets += 1
        counts.bytes += len(header) + len(frame)

    for timestamp, source, qclass, qtype, qname in records:
        client = ipaddress.ip_address(source).packed
        server = SERVER_V4 if len(client) == 4 else SERVER_V6
        name = wire_name(qname)
        qid = rng.randrange(0x10000)
        port = rng.randrange(1024, 0x10000)
        emit(timestamp, _ip_frame(client, server, _udp(port, 53, _dns(qid, name, qtype, qclass))))
        counts.emitted += 1

        if rng.random() < response_share:
            # a quarter of the responses go to a client using port 53, so
            # they reach the reader's QR-bit check instead of its port check
            dport = 53 if rng.random() < 0.25 else port
            payload = _dns(qid, name, qtype, qclass, response=True)
            emit(timestamp, _ip_frame(server, client, _udp(53, dport, payload)))
            counts.skipped += 1
        if rng.random() < other_share:
            kind = _OTHER_KINDS[rng.randrange(len(_OTHER_KINDS))]
            if kind == "ntp":
                frame = _ip_frame(client, server, _udp(port, 123, bytes(48)))
            elif kind == "tcp":
                frame = _ip_frame(client, server, struct.pack(">HHIIHHHH", port, 53, 1, 0, 0x5002, 1024, 0, 0), proto=6)
            else:
                frame = _ETHER + b"\x08\x06" + bytes(28)
            emit(timestamp, frame)
            counts.skipped += 1
        if rng.random() < malformed_share:
            kind = _MALFORMED_KINDS[rng.randrange(len(_MALFORMED_KINDS))]
            payload = _malformed_payload(kind, qid, name)
            emit(timestamp, _ip_frame(client, server, _udp(port, 53, payload)))
            counts.dropped += 1
    return counts
