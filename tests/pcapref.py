"""A slow reference decoder of classic pcap captures, one layer at a time.

It is written from the specs and from the rules README states, not from
roottrace.ingest, so that the differential tests can hold decode_pcap to
it:
- the capture: draft-ietf-opsawg-pcap (the global header, record headers,
  the link type) and README's limit on a record's caplen
- the link layer: an Ethernet II header (14 bytes, the ethertype last), or
  a raw-IP frame whose first nibble is the IP version
- IPv4 (RFC 791), IPv6 (RFC 8200), UDP (RFC 768)
- the DNS header and question (RFC 1035 §4.1.1 and §4.1.2)

Each frame ends as a query, a drop or a skip, by README's rules. A frame
that is not IPv4 or IPv6 under the one fixed IP header its layer names is
skipped: 802.1Q tags and IPv6 extension headers among them.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field

MAX_CAPLEN = 262_144  # libpcap's maximum snapshot length
MAX_NAME = 255  # a name's encoded length, its length bytes and root byte counted

MAGICS = {
    0xA1B2C3D4: False,  # microsecond timestamps
    0xA1B23C4D: True,  # nanosecond timestamps
}
ETHERNET = 1
RAW = (12, 101)

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
UDP = 17
DNS_PORT = 53


class Corrupt(Exception):
    """A capture the reference does not read past: its message names why."""


@dataclass
class Decoded:
    """What a capture holds: each query's six columns, the prefix as text,
    and the records counted by outcome."""

    rows: list = field(default_factory=list)  # (timestamp, source, qclass, qtype, labels, prefix)
    emitted: int = 0
    dropped: int = 0
    skipped: int = 0
    bytes_read: int = 0


def be16(data: bytes, at: int) -> int:
    return data[at] << 8 | data[at + 1]


def decode(data: bytes) -> Decoded:
    """Decode a whole capture. Raises Corrupt where the global header is
    short, its magic unknown or its link type neither Ethernet nor raw IP,
    or where a whole record header claims over MAX_CAPLEN bytes."""
    if len(data) < 24:
        raise Corrupt("truncated pcap global header")
    order = None
    for byteorder in ("big", "little"):
        magic = int.from_bytes(data[:4], byteorder)
        if magic in MAGICS:
            order = byteorder
            nano = MAGICS[magic]
    if order is None:
        raise Corrupt("bad pcap magic")

    def u32(at: int) -> int:
        return int.from_bytes(data[at : at + 4], order)

    # the top four bits of the link type field hold the FCS length
    linktype = u32(20) & 0x0FFFFFFF
    if linktype != ETHERNET and linktype not in RAW:
        raise Corrupt("unsupported link type")
    out = Decoded(bytes_read=len(data))
    at = 24
    while at < len(data):
        if len(data) - at < 16:
            out.skipped += 1  # a partial record header ends the file
            break
        seconds, subsecond, caplen = u32(at), u32(at + 4), u32(at + 8)
        if caplen > MAX_CAPLEN:
            raise Corrupt(f"corrupt pcap record at byte {at}: caplen {caplen} over {MAX_CAPLEN}")
        frame = data[at + 16 : at + 16 + caplen]
        at += 16 + caplen
        if len(frame) < caplen:
            out.skipped += 1  # the file ends inside the frame
            break
        outcome = frame_outcome(frame, linktype == ETHERNET)
        if outcome == "skip":
            out.skipped += 1
            continue
        if outcome == "drop":
            out.dropped += 1
            continue
        if subsecond >= (10**9 if nano else 10**6):
            out.dropped += 1  # the sub-second field says a second or more
            continue
        timestamp = seconds * 10**6 + (subsecond // 1000 if nano else subsecond)
        if timestamp <= 0:
            out.dropped += 1
            continue
        source, qtype, qclass, labels = outcome
        out.rows.append((timestamp, source, qclass, qtype, labels, prefix(source)))
        out.emitted += 1
    return out


def frame_outcome(frame: bytes, ethernet: bool):
    """The frame's outcome: "skip", "drop", or the query's (source, qtype,
    qclass, labels)."""
    if ethernet:
        if len(frame) < 14:
            return "skip"
        ethertype = be16(frame, 12)
        versions = {ETHERTYPE_IPV4: 4, ETHERTYPE_IPV6: 6}
        if ethertype not in versions:
            return "skip"  # not IP: ARP, an 802.1Q tag, ...
        packet = frame[14:]
        if not packet or packet[0] >> 4 != versions[ethertype]:
            return "skip"
    else:
        packet = frame
        if not packet:
            return "skip"
    version = packet[0] >> 4
    if version == 4:
        if len(packet) < 20:
            return "skip"
        header = (packet[0] & 0x0F) * 4
        total = be16(packet, 2)
        fragment_offset = be16(packet, 6) & 0x1FFF
        if header < 20 or packet[9] != UDP or fragment_offset:
            return "skip"
        source = packet[12:16]
        datagram = packet[:total]  # the rest of the frame is padding
        if len(datagram) < header:
            return "skip"
        segment = datagram[header:]
    elif version == 6:
        if len(packet) < 40:
            return "skip"
        payload = be16(packet, 4)
        if packet[6] != UDP:
            return "skip"  # another protocol, or an extension header
        source = packet[8:24]
        segment = packet[40 : 40 + payload]
    else:
        return "skip"

    if len(segment) < 8:
        return "skip"  # a short UDP header
    port, length = be16(segment, 2), be16(segment, 4)
    if port != DNS_PORT or length < 8:
        return "skip"
    message = segment[8:length]
    if len(message) < 12:
        return "drop"  # a short DNS header
    if message[2] & 0x80:
        return "skip"  # QR: a response
    if be16(message, 4) == 0:
        return "drop"  # no question
    labels = []
    at = 12
    encoded = 1  # the root byte
    while True:
        if at >= len(message):
            return "drop"  # the name is cut short
        length = message[at]
        if length == 0:
            break
        if length & 0xC0:
            return "drop"  # a compression pointer, or a reserved label type
        label = message[at + 1 : at + 1 + length]
        encoded += 1 + length
        if len(label) < length or encoded > MAX_NAME:
            return "drop"  # the name is cut short, or too long
        labels.append(label)
        at += 1 + length
    if len(message) < at + 5:
        return "drop"  # the question is cut short
    return source, be16(message, at + 1), be16(message, at + 3), tuple(labels)


def prefix(source: bytes) -> str:
    """The sender prefix of a packed source: its /16 or /48, by ipaddress."""
    bits = 16 if len(source) == 4 else 48
    return str(ipaddress.ip_network((ipaddress.ip_address(source), bits), strict=False))
