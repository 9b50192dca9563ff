"""Ordered, full-coverage, mutually-exclusive query name classification.

Every parseable name lands in exactly one taxonomy leaf; exclusivity comes
from the fixed order the tests run in, so a one-word name that is both a
valid TLD and probe-shaped (e.g. "networks") always counts as minimized,
never as a browser probe.
"""

from __future__ import annotations

from itertools import compress
from typing import Optional, Sequence

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
)
from .ingest import Block, IngestStats
from .names import NameParseError, label_has_bad_encoding, parse_presentation
from .tlds import TldRegistry

DEFAULT_APPLETALK_TLDS = frozenset({"appletalk"})


def is_chromium_label(label: bytes) -> bool:
    """True iff the label looks like a Chromium probe name.

    Chromium Omnibox captive-portal probes are 7-15 lowercase alphabetic
    chars; bytes.isalpha/islower are ASCII-only, so this is exactly
    [a-z]{7,15}.
    """
    return 7 <= len(label) <= 15 and label.isalpha() and label.islower()


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

    entries = registry.entries
    if len(labels) == 1:
        label = labels[0]
        folded = label.lower()
        if folded in entries:
            return Classification(Leaf.ONE_WORD_MINIMIZED, folded.decode("ascii"))
        if is_chromium_label(label):
            return CLS_ONE_WORD_CHROMIUM
        return CLS_ONE_WORD_OTHER

    tld = labels[-1]
    folded = tld.lower()
    if folded in entries:
        chromium_like = len(labels) == 2 and is_chromium_label(labels[0])
        return Classification(Leaf.VALID_TLD, folded.decode("ascii"), chromium_like)

    if folded.decode("latin-1") in appletalk_tlds:
        return CLS_INVALID_APPLETALK
    if label_has_bad_encoding(tld):
        return CLS_INVALID_BAD_ENCODING
    if tld.isdigit():
        return CLS_INVALID_ALL_NUMERIC
    if len(labels) == 2 and is_chromium_label(labels[0]):
        return CLS_INVALID_CHROMIUM
    # bad-encoding screened everything outside [0-9a-z_-], so ascii is safe
    return Classification(Leaf.INVALID_OTHER, folded.decode("ascii"))


def classify_block(
    block: Block,
    registry: TldRegistry,
    appletalk_tlds: frozenset[str] = DEFAULT_APPLETALK_TLDS,
    stats: Optional[IngestStats] = None,
) -> tuple[Sequence[str], Sequence[int], Sequence[Classification]]:
    """The (prefixes, qtypes, classifications) columns of a block's records
    whose names classify, in order: what report.fold_blocks counts.

    Decoded names (a pcap block's DomainNames) are all valid and are
    classified one by one. Presentation names (a TSV block's bytes) are
    parsed and classified once per distinct text; a record whose name
    fails to parse is left out and bumps stats.names_unparseable.
    """
    names = block.names
    if not names or isinstance(names[0], DomainName):
        return block.prefixes, block.qtypes, [classify(name, registry, appletalk_tlds) for name in names]
    memo = dict.fromkeys(names)
    failed = False
    for raw in memo:
        try:
            memo[raw] = classify(parse_presentation(raw), registry, appletalk_tlds)
        except NameParseError:
            failed = True
    classes = list(map(memo.__getitem__, names))
    if not failed:
        return block.prefixes, block.qtypes, classes
    keep = [cls is not None for cls in classes]
    if stats is not None:
        stats.names_unparseable += keep.count(False)
    return list(compress(block.prefixes, keep)), list(compress(block.qtypes, keep)), list(compress(classes, keep))
