"""Shared domain types for root-server query trace analysis.

Everything here is an immutable value type; instances can be shared freely
between worker threads.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional, Sequence

# Query types charted in root traffic breakdowns, plus DNSKEY (seen among
# empty/priming queries). Anything else renders as TYPE<code>.
QTYPE_MNEMONICS = {
    1: "A",
    2: "NS",
    6: "SOA",
    12: "PTR",
    15: "MX",
    16: "TXT",
    28: "AAAA",
    33: "SRV",
    43: "DS",
    48: "DNSKEY",
}
_QTYPE_CODES = {v: k for k, v in QTYPE_MNEMONICS.items()}

QCLASS_MNEMONICS = {1: "IN", 2: "CS", 3: "CH", 4: "HS", 254: "NONE", 255: "ANY"}
_QCLASS_CODES = {v: k for k, v in QCLASS_MNEMONICS.items()}


def _check_code(code: int) -> None:
    if not 0 <= code <= 0xFFFF:
        raise ValueError(f"code out of 16-bit range: {code}")


def qtype_mnemonic(code: int) -> str:
    """Return the IANA mnemonic for a query type code, or TYPE<code>."""
    _check_code(code)
    return QTYPE_MNEMONICS.get(code) or f"TYPE{code}"


def qtype_code(mnemonic: str) -> int:
    """Inverse of :func:`qtype_mnemonic`. Raises ValueError on junk."""
    code = _QTYPE_CODES.get(mnemonic)
    if code is not None:
        return code
    if mnemonic.startswith("TYPE"):
        code = int(mnemonic[4:])
        _check_code(code)
        return code
    raise ValueError(f"unknown query type mnemonic: {mnemonic!r}")


def qclass_mnemonic(code: int) -> str:
    """Return the mnemonic for a query class code, or CLASS<code>."""
    _check_code(code)
    return QCLASS_MNEMONICS.get(code) or f"CLASS{code}"


def qclass_code(mnemonic: str) -> int:
    code = _QCLASS_CODES.get(mnemonic)
    if code is not None:
        return code
    if mnemonic.startswith("CLASS"):
        code = int(mnemonic[5:])
        _check_code(code)
        return code
    raise ValueError(f"unknown query class mnemonic: {mnemonic!r}")


class QueryRecord(NamedTuple):
    """One observed DNS query.

    timestamp is microseconds since the Unix epoch, source is the textual
    sender IP (v4 or v6), qclass/qtype are the 16-bit codes, and qname_raw
    is the query name in presentation format (raw bytes rendered with
    backslash escapes, see names.py).
    """

    timestamp: int
    source: str
    qclass: int
    qtype: int
    qname_raw: str


class DomainName(NamedTuple):
    """A parsed query name: decoded label bytes, leftmost label first.

    The root name is the empty label tuple. Labels keep their raw bytes;
    no case folding happens at parse time.
    """

    labels: tuple[bytes, ...]

    @property
    def is_root(self) -> bool:
        return not self.labels


ROOT_NAME = DomainName(())


class Leaf(Enum):
    """Leaves of the query-name taxonomy. Exactly one per parseable name."""

    EMPTY = "empty"
    ONE_WORD_MINIMIZED = "one_word_minimized"
    ONE_WORD_CHROMIUM = "one_word_chromium"
    ONE_WORD_OTHER = "one_word_other"
    VALID_TLD = "valid_tld"
    INVALID_APPLETALK = "invalid_tld_appletalk"
    INVALID_BAD_ENCODING = "invalid_tld_bad_encoding"
    INVALID_ALL_NUMERIC = "invalid_tld_all_numeric"
    INVALID_CHROMIUM = "invalid_tld_chromium"
    INVALID_OTHER = "invalid_tld_other"

    # members are singletons; identity hashing keeps counter updates cheap
    __hash__ = object.__hash__


class TopCategory(Enum):
    """The four top-level rollup categories."""

    EMPTY = "empty"
    ONE_WORD = "one_word"
    INVALID_TLD = "invalid_tld"
    VALID_TLD = "valid_tld"

    __hash__ = object.__hash__


LEAF_TOP = {
    Leaf.EMPTY: TopCategory.EMPTY,
    Leaf.ONE_WORD_MINIMIZED: TopCategory.ONE_WORD,
    Leaf.ONE_WORD_CHROMIUM: TopCategory.ONE_WORD,
    Leaf.ONE_WORD_OTHER: TopCategory.ONE_WORD,
    Leaf.VALID_TLD: TopCategory.VALID_TLD,
    Leaf.INVALID_APPLETALK: TopCategory.INVALID_TLD,
    Leaf.INVALID_BAD_ENCODING: TopCategory.INVALID_TLD,
    Leaf.INVALID_ALL_NUMERIC: TopCategory.INVALID_TLD,
    Leaf.INVALID_CHROMIUM: TopCategory.INVALID_TLD,
    Leaf.INVALID_OTHER: TopCategory.INVALID_TLD,
}


class Classification(NamedTuple):
    """A taxonomy leaf plus its detail.

    tld carries the lowercase-folded TLD for ONE_WORD_MINIMIZED, VALID_TLD
    and INVALID_OTHER, and is None elsewhere. chromium_like marks VALID_TLD
    names whose left label looks like a browser probe; it is a flag, not a
    separate leaf, so the four-category rollup and the probe series can be
    computed from the same counts.
    """

    leaf: Leaf
    tld: Optional[str] = None
    chromium_like: bool = False


CLS_EMPTY = Classification(Leaf.EMPTY)
CLS_ONE_WORD_CHROMIUM = Classification(Leaf.ONE_WORD_CHROMIUM)
CLS_ONE_WORD_OTHER = Classification(Leaf.ONE_WORD_OTHER)
CLS_INVALID_APPLETALK = Classification(Leaf.INVALID_APPLETALK)
CLS_INVALID_BAD_ENCODING = Classification(Leaf.INVALID_BAD_ENCODING)
CLS_INVALID_ALL_NUMERIC = Classification(Leaf.INVALID_ALL_NUMERIC)
CLS_INVALID_CHROMIUM = Classification(Leaf.INVALID_CHROMIUM)


_HEX = frozenset("0123456789abcdefABCDEF")
# the text of an octet in a dotted quad, "0" to "255" with no leading zero,
# and its value
_OCTETS = {str(i): i for i in range(256)}
_OCTET_TEXTS = frozenset(_OCTETS)


# A sender key is an int: an IPv4 /16 a.b is a << 8 | b, and an IPv6 /48 is
# _V6_FLAG | its top 48 bits, so the two never collide and a key fits in 49
# bits. Only this module knows the layout; prefix_text turns a key into text.
_V6_FLAG = 1 << 48


def _prefix48(hextets: Sequence[int]) -> str:
    """'a:b:c::/48' for a /48's first three hextets. RFC 5952: the 5+ zero
    host groups always form the longest zero run, and trailing zero
    hextets of the prefix extend it."""
    while hextets and hextets[-1] == 0:
        hextets = hextets[:-1]
    return ":".join(map("{:x}".format, hextets)) + "::/48"


def _v6_key(source: str) -> int:
    """The sender key of a textual IPv6 address.

    Validates enough structure to reject non-addresses; avoids the
    ipaddress module because this sits on the per-record path.
    """
    text = source.split("%", 1)[0]
    if ":::" in text or text.count("::") > 1:
        raise ValueError(f"not an IPv6 address: {source!r}")
    left, sep, right = text.partition("::")
    lgroups = left.split(":") if left else []
    rgroups = right.split(":") if right else []
    groups = lgroups + rgroups
    span = len(groups)
    if groups and "." in groups[-1] and (rgroups or not sep):
        octets = groups[-1].split(".")
        if len(octets) != 4 or not _OCTET_TEXTS.issuperset(octets):
            raise ValueError(f"not an IPv6 address: {source!r}")
        groups = groups[:-1]
        span += 1  # the dotted tail covers two groups
    for g in groups:
        if not 1 <= len(g) <= 4 or not _HEX.issuperset(g):
            raise ValueError(f"not an IPv6 address: {source!r}")
    if (sep and span >= 8) or (not sep and span != 8):
        raise ValueError(f"not an IPv6 address: {source!r}")
    # expand "::" to its zero groups; a dotted tail only ever occupies the
    # last two group positions, so the first three are always plain hex
    expanded = lgroups + ["0"] * (8 - span) + rgroups
    return _V6_FLAG | int(expanded[0], 16) << 32 | int(expanded[1], 16) << 16 | int(expanded[2], 16)


def sender_key(source: str) -> int:
    """The sender key of the text of a source address, its /16 (IPv4) or
    /48 (IPv6); the one test of a valid source (ValueError if not)."""
    if ":" in source:
        return _v6_key(source)
    octets = source.split(".")
    if len(octets) != 4 or not _OCTET_TEXTS.issuperset(octets):
        raise ValueError(f"not an IP address: {source!r}")
    return _OCTETS[octets[0]] << 8 | _OCTETS[octets[1]]


def address_key(packed: bytes) -> int:
    """The sender key of a packed 4- or 16-byte address."""
    if len(packed) == 4:
        return packed[0] << 8 | packed[1]
    return _V6_FLAG | int.from_bytes(packed[:6], "big")


def prefix_text(key: int) -> str:
    """A sender key as its canonical prefix: 'a.b.0.0/16', or an RFC 5952
    '/48'."""
    if key & _V6_FLAG:
        return _prefix48((key >> 32 & 0xFFFF, key >> 16 & 0xFFFF, key & 0xFFFF))
    return f"{key >> 8}.{key & 0xFF}.0.0/16"


def sender_prefix(source: str) -> str:
    """Canonical /16 (IPv4) or /48 (IPv6) prefix string for the text of a
    source address (ValueError if it is not one)."""
    return prefix_text(sender_key(source))
