"""Presentation-format query name parsing.

Converts the dotted text form of a DNS name (RFC 1035 \\DDD and \\X escapes
decoded first, so "\\099\\111\\109" and "com" are one label) into its label
tuple, and back. A name is its label tuple everywhere: a tuple of its
labels' raw bytes, leftmost first, with no case folded, and () for the root.
"""

from __future__ import annotations

import re

MAX_LABEL = 63
MAX_NAME = 255  # encoded length: sum(len(label) + 1) + 1 root byte

_DOT = 0x2E
_BACKSLASH = 0x5C

# bytes a text dump renders without a \DDD escape
_BAD_ENCODING_RE = re.compile(rb"[^0-9A-Za-z_-]")


class NameParseError(ValueError):
    """A structurally invalid presentation name.

    reason is one of: empty-name, empty-label, label-too-long,
    name-too-long, bad-escape.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def _as_bytes(raw: str | bytes) -> bytes:
    if isinstance(raw, bytes):
        return raw
    if not isinstance(raw, str):
        raise TypeError(f"a presentation name is str or bytes, not {type(raw).__name__}")
    try:
        return raw.encode("latin-1")
    except UnicodeEncodeError:
        raise NameParseError("bad-escape", f"non-byte character in name {raw!r}") from None


def parse_presentation(raw: str | bytes) -> tuple[bytes, ...]:
    """Parse a presentation-format name into its label tuple.

    "." is the root. A single trailing dot is the root terminator, not an
    empty label. Raises NameParseError for structural violations; callers
    that process streams catch it and count the record as unparseable. A
    name with several faults fails for the first met walking its labels
    left to right (an empty or over-long label), else for its length,
    whether or not it holds escapes.
    """
    return _parse_bytes(_as_bytes(raw), raw)


def _parse_bytes(data: bytes, raw: str | bytes) -> tuple[bytes, ...]:
    """parse_presentation's labels of data, a name's bytes (() for the root); a NameParseError quotes raw."""
    if not data:
        raise NameParseError("empty-name", "empty query name")
    if data == b".":
        return ()

    if _BACKSLASH not in data:
        body = data[:-1] if data[-1] == _DOT else data
        parts = body.split(b".")
        # with no escapes the encoded length is just len(body) + 2, and no
        # label outgrows the body
        if len(body) + 2 > MAX_NAME or b"" in parts or len(body) > MAX_LABEL and max(map(len, parts)) > MAX_LABEL:
            # name the fault the escape path's walk meets first
            for part in parts:
                if not part:
                    raise NameParseError("empty-label", f"empty label in {raw!r}")
                if len(part) > MAX_LABEL:
                    raise NameParseError("label-too-long", f"label over {MAX_LABEL} bytes in {raw!r}")
            raise NameParseError("name-too-long", f"encoded name over {MAX_NAME} bytes: {raw!r}")
        return tuple(parts)

    labels: list[bytes] = []
    current = bytearray()
    total = 1
    trailing_dot = False
    i = 0
    end = len(data)
    while i < end:
        byte = data[i]
        if byte == _BACKSLASH:
            if i + 1 >= end:
                raise NameParseError("bad-escape", f"truncated escape in {raw!r}")
            nxt = data[i + 1]
            if 0x30 <= nxt <= 0x39:
                if i + 3 >= end or not (0x30 <= data[i + 2] <= 0x39 and 0x30 <= data[i + 3] <= 0x39):
                    raise NameParseError("bad-escape", f"truncated escape in {raw!r}")
                value = (nxt - 0x30) * 100 + (data[i + 2] - 0x30) * 10 + (data[i + 3] - 0x30)
                if value > 0xFF:
                    raise NameParseError("bad-escape", f"escape value over 255 in {raw!r}")
                current.append(value)
                i += 4
            else:
                current.append(nxt)
                i += 2
        elif byte == _DOT:
            if not current:
                raise NameParseError("empty-label", f"empty label in {raw!r}")
            if len(current) > MAX_LABEL:
                raise NameParseError("label-too-long", f"label over {MAX_LABEL} bytes in {raw!r}")
            total += len(current) + 1
            labels.append(bytes(current))
            current.clear()
            i += 1
            if i == end:
                trailing_dot = True
        else:
            current.append(byte)
            i += 1

    if not trailing_dot:
        if len(current) > MAX_LABEL:
            raise NameParseError("label-too-long", f"label over {MAX_LABEL} bytes in {raw!r}")
        total += len(current) + 1
        labels.append(bytes(current))
    if total > MAX_NAME:
        raise NameParseError("name-too-long", f"encoded name over {MAX_NAME} bytes: {raw!r}")
    return tuple(labels)


def to_presentation(labels: tuple[bytes, ...]) -> str:
    """Render a label tuple in absolute presentation form ("." terminated).

    Bytes outside printable ASCII become \\DDD escapes; dots and backslashes
    inside labels get a backslash. parse_presentation inverts this exactly.
    """
    if not labels:
        return "."
    out: list[str] = []
    for label in labels:
        chunk: list[str] = []
        for byte in label:
            if byte == _DOT:
                chunk.append("\\.")
            elif byte == _BACKSLASH:
                chunk.append("\\\\")
            elif 0x21 <= byte <= 0x7E:
                chunk.append(chr(byte))
            else:
                chunk.append(f"\\{byte:03d}")
        out.append("".join(chunk))
    return ".".join(out) + "."


def label_has_bad_encoding(label: bytes) -> bool:
    """True iff the label holds a byte a text dump would escape as \\DDD.

    The renderable alphabet is letters, digits, hyphen and underscore;
    anything else marks the label as badly encoded.
    """
    return _BAD_ENCODING_RE.search(label) is not None
