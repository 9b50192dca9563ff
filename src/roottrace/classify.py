"""Ordered, full-coverage, mutually-exclusive query name classification.

Every parseable name lands in exactly one taxonomy leaf; exclusivity comes
from the fixed order the tests run in, so a one-word name that is both a
valid TLD and probe-shaped (e.g. "networks") always counts as minimized,
never as a browser probe.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .model import (
    CLS_EMPTY,
    CLS_INVALID_ALL_NUMERIC,
    CLS_INVALID_APPLETALK,
    CLS_INVALID_BAD_ENCODING,
    CLS_INVALID_CHROMIUM,
    CLS_ONE_WORD_CHROMIUM,
    CLS_ONE_WORD_OTHER,
    Classification,
    DomainName,
    Leaf,
    QueryRecord,
)
from .ingest import IngestStats
from .names import NameParseError, label_has_bad_encoding, parse_presentation
from .tlds import TldRegistry

DEFAULT_APPLETALK_TLDS = frozenset({"appletalk"})


def _probe_shaped(label: bytes) -> bool:
    # Chromium Omnibox captive-portal probes: 7-15 lowercase alphabetic chars.
    # bytes.isalpha/islower are ASCII-only, so this is exactly [a-z]{7,15}.
    return 7 <= len(label) <= 15 and label.isalpha() and label.islower()


def is_chromium_label(label: bytes | str) -> bool:
    """True iff the label looks like a Chromium probe name."""
    if isinstance(label, str):
        try:
            label = label.encode("ascii")
        except UnicodeEncodeError:
            return False
    return _probe_shaped(label)


def is_all_numeric(label: bytes) -> bool:
    """True iff the label is non-empty and entirely ASCII digits."""
    return label.isdigit()


def classify(
    name: DomainName,
    registry: TldRegistry,
    appletalk_tlds: frozenset[str] = DEFAULT_APPLETALK_TLDS,
) -> Classification:
    """Assign a parsed name its taxonomy leaf.

    Total over parseable names: never raises, always returns exactly one
    leaf. Test order within the invalid-TLD branch runs most-specific
    first (appletalk, bad encoding, all-numeric, probe-shaped, other) to
    keep the leaves disjoint.
    """
    labels = name.labels
    if not labels:
        return CLS_EMPTY

    entries = registry._entries_b
    if len(labels) == 1:
        label = labels[0]
        folded = label.lower()
        if folded in entries:
            return Classification(Leaf.ONE_WORD_MINIMIZED, folded.decode("ascii"))
        if _probe_shaped(label):
            return CLS_ONE_WORD_CHROMIUM
        return CLS_ONE_WORD_OTHER

    tld = labels[-1]
    folded = tld.lower()
    if folded in entries:
        chromium_like = len(labels) == 2 and _probe_shaped(labels[0])
        return Classification(Leaf.VALID_TLD, folded.decode("ascii"), chromium_like)

    if folded.decode("latin-1") in appletalk_tlds:
        return CLS_INVALID_APPLETALK
    if label_has_bad_encoding(tld):
        return CLS_INVALID_BAD_ENCODING
    if tld.isdigit():
        return CLS_INVALID_ALL_NUMERIC
    if len(labels) == 2 and _probe_shaped(labels[0]):
        return CLS_INVALID_CHROMIUM
    # bad-encoding screened everything outside [0-9a-z_-], so ascii is safe
    return Classification(Leaf.INVALID_OTHER, folded.decode("ascii"))


def classify_stream(
    records: Iterable[QueryRecord],
    registry: TldRegistry,
    appletalk_tlds: frozenset[str] = DEFAULT_APPLETALK_TLDS,
    stats: Optional[IngestStats] = None,
) -> Iterator[tuple[QueryRecord, Classification]]:
    """Parse and classify a record stream, skipping unparseable names.

    Name parse failures never abort the stream; they bump
    stats.names_unparseable and the record is dropped from classification.
    """
    if stats is None:
        stats = IngestStats()
    parse = parse_presentation
    decide = classify
    for record in records:
        try:
            name = parse(record.qname_raw)
        except NameParseError:
            stats.names_unparseable += 1
            continue
        yield record, decide(name, registry, appletalk_tlds)
