import random

import pytest

from fuzznames import random_name
from roottrace.model import DomainName
from roottrace.names import (
    NameParseError,
    label_has_bad_encoding,
    parse_presentation,
    to_presentation,
)


def test_root():
    name = parse_presentation(".")
    assert name.is_root and name.labels == ()


def test_canonical_name():
    assert parse_presentation("www.example.com.").labels == (b"www", b"example", b"com")


def test_trailing_dot_is_normalization():
    assert parse_presentation("foobar.") == parse_presentation("foobar")
    assert parse_presentation("a.b.") == parse_presentation("a.b")


def test_decimal_escapes():
    # \255\001 decode to the two bytes 0xFF 0x01
    assert parse_presentation("foo.\\255\\001.").labels == (b"foo", b"\xff\x01")


def test_literal_escapes():
    assert parse_presentation("a\\.b.").labels == (b"a.b",)
    assert parse_presentation("a\\\\b.").labels == (b"a\\b",)
    assert parse_presentation("\\099\\111\\109.").labels == (b"com",)


def test_bytes_input():
    assert parse_presentation(b"foo.bar.") == parse_presentation("foo.bar.")


@pytest.mark.parametrize(
    "raw,reason",
    [
        ("a..b", "empty-label"),
        (".foo", "empty-label"),
        ("foo..", "empty-label"),
        ("x" * 64 + ".com", "label-too-long"),
        ("x" * 64, "label-too-long"),
        ("com." + "x" * 64 + ".", "label-too-long"),
        (".".join("abcdefgh" for _ in range(30)), "name-too-long"),
        ("foo\\2", "bad-escape"),
        ("foo\\", "bad-escape"),
        ("foo\\25x.", "bad-escape"),
        ("\\999.", "bad-escape"),
        ("", "empty-name"),
    ],
)
def test_parse_failures(raw, reason):
    with pytest.raises(NameParseError) as err:
        parse_presentation(raw)
    assert err.value.reason == reason


def test_unescaped_and_escaped_text_parse_alike():
    """Text with no backslash takes parse_presentation's quick path; the same
    text with one letter written as a \\DDD escape takes the byte walk. Both
    give the same DomainName, or both fail for the same reason."""
    rng = random.Random(0x5EED)
    for _ in range(20_000):
        labels = [b"a" * rng.choice([0, 1, 2, 30, 62, 63, 64, 65]) for _ in range(rng.randint(1, 6))]
        raw = b".".join(labels) + b"." * rng.randint(0, 1)
        if b"a" not in raw:
            continue
        outcome = parse_outcome(raw)
        assert outcome == parse_outcome(raw.replace(b"a", b"\\097", 1))
        assert type(outcome) in (str, DomainName)


def parse_outcome(text: bytes):
    """parse_presentation's DomainName, or the reason it failed."""
    try:
        return parse_presentation(text)
    except NameParseError as exc:
        return exc.reason


def escaped(text: bytes) -> bytes:
    """text with every byte but its dots written as a \\DDD escape."""
    return b"".join(b"." if byte == 0x2E else b"\\%03d" % byte for byte in text)


@pytest.mark.parametrize(
    "text, reason",
    [
        (b"a" * 64 + b"..x", "label-too-long"),  # the long label comes first
        (b"a..x" + b".a" * 64, "empty-label"),
        (b"a" * 300, "label-too-long"),  # a long label, then a long name
        (b"a." * 127 + b"a", "name-too-long"),
        (b"abc" + b".a" * 130 + b"..", "empty-label"),
    ],
    ids=["long-label-first", "empty-label-first", "long-label-long-name", "long-name", "long-name-empty-label"],
)
def test_a_name_s_first_fault_does_not_depend_on_its_escapes(text, reason):
    assert parse_outcome(text) == reason
    assert parse_outcome(escaped(text)) == reason
    assert parse_outcome(b"\\097" + text[1:]) == reason


def test_unescaped_names_parse_as_their_escaped_forms():
    """Seeded names, valid and mutated to hold an empty label, a label over
    63 bytes or over 255 bytes in all, parse alike with no escape and with
    every byte escaped: to the same DomainName, or failing for the same
    reason."""
    rng = random.Random(0xE5C)
    reasons = set()
    for _ in range(4_000):
        labels = [label for label in random_name(rng, [b"com", b"net"]).labels
                  if b"." not in label and b"\\" not in label]  # text with no escape
        for _ in range(rng.randint(0, 3)):
            at = rng.randint(0, len(labels))
            labels[at:at] = [rng.choice([b"", b"x" * rng.randint(60, 70), b"y" * rng.randint(1, 63)])]
        if rng.random() < 0.2:
            labels += [b"z" * 63] * rng.randint(1, 4)
        text = b".".join(labels) + b"." * rng.randint(0, 1)
        if not text or text == b".":
            continue
        outcome = parse_outcome(text)
        assert outcome == parse_outcome(escaped(text)), text
        reasons.add(outcome if type(outcome) is str else "parsed")
    assert reasons == {"parsed", "empty-label", "label-too-long", "name-too-long"}


def test_escaped_label_too_long():
    raw = "\\065" * 64 + ".com."
    with pytest.raises(NameParseError) as err:
        parse_presentation(raw)
    assert err.value.reason == "label-too-long"


@pytest.mark.parametrize(
    "label,expected",
    [
        (b"com", False),
        (b"\xff\x01", True),
        (b"ab_cd", False),  # underscore renders as-is in a text dump
        (b"AB-9z", False),
        (b"a b", True),
        (b"a.b", True),
        (b"\\", True),
    ],
)
def test_label_has_bad_encoding(label, expected):
    assert label_has_bad_encoding(label) is expected


def _random_name(rng: random.Random) -> DomainName:
    depth = rng.randint(0, 5)
    labels = []
    budget = 250
    for _ in range(depth):
        n = rng.randint(1, min(20, budget - 1))
        label = bytes(rng.randrange(256) for _ in range(n))
        budget -= n + 1
        if budget <= 1:
            break
        labels.append(label)
    return DomainName(tuple(labels))


def test_round_trip_fuzz():
    rng = random.Random(0xD05)
    for _ in range(100_000):
        name = _random_name(rng)
        assert parse_presentation(to_presentation(name)) == name


def test_round_trip_is_deterministic():
    rng = random.Random(7)
    names = [_random_name(rng) for _ in range(100)]
    first = [to_presentation(n) for n in names]
    second = [to_presentation(n) for n in names]
    assert first == second


def test_parsed_labels_always_in_bounds():
    rng = random.Random(0xBEEF)
    alphabet = "abc.\\019"
    for _ in range(20_000):
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
        try:
            name = parse_presentation(raw)
        except NameParseError:
            continue
        for label in name.labels:
            assert 1 <= len(label) <= 63
        assert 1 + sum(len(label) + 1 for label in name.labels) <= 255  # wire length, root byte too
