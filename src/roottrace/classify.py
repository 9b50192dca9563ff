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
    Leaf,
)
from .ingest import Block, IngestStats
from .names import NameParseError, _parse_bytes, label_has_bad_encoding
from .tlds import TldRegistry

DEFAULT_APPLETALK_TLDS = frozenset({"appletalk"})


def is_chromium_label(label: bytes) -> bool:
    """True iff the label looks like a Chromium probe name.

    Chromium Omnibox captive-portal probes are 7-15 lowercase alphabetic
    chars; bytes.isalpha/islower are ASCII-only, so this is exactly
    [a-z]{7,15}.
    """
    return 7 <= len(label) <= 15 and label.isalpha() and label.islower()


def _one_word(label: bytes, entries: frozenset) -> Classification:
    folded = label.lower()
    if folded in entries:
        return Classification(Leaf.ONE_WORD_MINIMIZED, folded.decode("ascii"))
    if is_chromium_label(label):
        return CLS_ONE_WORD_CHROMIUM
    return CLS_ONE_WORD_OTHER


def classify(
    labels: tuple[bytes, ...],
    registry: TldRegistry,
    appletalk_tlds: frozenset[str] = DEFAULT_APPLETALK_TLDS,
) -> Classification:
    """Assign a parsed name (its label tuple) its taxonomy leaf.

    Total over parseable names: never raises, always returns exactly one
    leaf. Test order within the invalid-TLD branch runs most-specific
    first (appletalk, bad encoding, all-numeric, probe-shaped, other) to
    keep the leaves disjoint.
    """
    if not labels:
        return CLS_EMPTY

    if len(labels) == 1:
        return _one_word(labels[0], registry.entries)

    tld = labels[-1]
    folded = tld.lower()
    if folded in registry.entries:
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


# A name of two or more labels takes its leaf from its TLD and from whether
# it is two labels with a probe-shaped first one: classify's answers are kept
# for the run in two tables by raw TLD, one per value of that flag, beside
# the registry and appletalk set they hold for (one tuple, read at once). A
# table is cleared at TABLE_CAP entries (~100 B each), as invalid TLDs are
# open-ended; one-word names, Chromium probes among them, never enter.
TABLE_CAP = 1 << 13
_table: tuple = (None, frozenset(), ({}, {}))


def classify_block(
    block: Block,
    registry: TldRegistry,
    appletalk_tlds: frozenset[str] = DEFAULT_APPLETALK_TLDS,
    stats: Optional[IngestStats] = None,
) -> tuple[Sequence[int], Sequence[int], Sequence[Classification]]:
    """The (sender keys, qtypes, classifications) columns of a block's records
    whose names classify, in order: what report.fold_blocks counts.

    A pcap block's names are label tuples and a TSV block's presentation
    bytes, parsed here: a record whose name fails to parse is left out and
    bumps stats.names_unparseable. Another type raises TypeError: a str or
    bytearray name would otherwise be read as labels.
    """
    global _table
    owner, appletalk, tables = _table
    if owner is not registry or appletalk != appletalk_tlds:
        _table = registry, frozenset(appletalk_tlds), (tables := ({}, {}))
    entries, classes, failed = registry.entries, [], 0
    names = block.names
    kind = type(names[0]) if names else tuple
    if kind not in (bytes, tuple):
        raise TypeError(f"a block's names are label tuples or presentation bytes, not {kind.__name__}")
    for labels in names:
        if kind is bytes:
            try:
                labels = _parse_bytes(labels, labels)
            except NameParseError:
                classes.append(None)
                failed += 1
                continue
        if len(labels) > 1:
            by_tld = tables[len(labels) == 2 and is_chromium_label(labels[0])]
            cls = by_tld.get(tld := labels[-1])
            if cls is None:
                if len(by_tld) >= TABLE_CAP:
                    by_tld.clear()
                cls = by_tld[tld] = classify(labels, registry, appletalk_tlds)
        else:
            cls = _one_word(labels[0], entries) if labels else CLS_EMPTY
        classes.append(cls)
    if not failed:
        return block.prefixes, block.qtypes, classes
    if stats is not None:
        stats.names_unparseable += failed
    keep = [cls is not None for cls in classes]
    return list(compress(block.prefixes, keep)), list(compress(block.qtypes, keep)), list(compress(classes, keep))
