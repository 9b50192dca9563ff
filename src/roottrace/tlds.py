"""Registry of valid top-level domains.

Loads the published IANA tlds-alpha-by-domain file format: '#' comment
lines, then one TLD per line. A snapshot is pinned in data/tlds.txt so
classification results stay reproducible; callers can point at a different
snapshot per run.
"""

from __future__ import annotations

import hashlib
import os
import pkgutil
import re
from typing import IO, Iterable

ENV_TLD_LIST = "ROOTTRACE_TLDS"

_ENTRY_RE = re.compile(r"[A-Za-z0-9-]{1,63}")


class RegistryError(ValueError):
    pass


class TldRegistry:
    """Immutable set of lowercase ASCII TLD labels with case-insensitive lookup."""

    __slots__ = ("entries", "source_description")

    def __init__(self, entries: Iterable[bytes], source_description: str):
        self.entries = frozenset(entries)
        self.source_description = source_description

    def __len__(self) -> int:
        return len(self.entries)

    def is_valid_tld(self, label: bytes) -> bool:
        """True iff the lowercase ASCII folding of label is a registry entry.

        Labels holding bytes outside the entry alphabet are simply invalid,
        never an error.
        """
        return label.lower() in self.entries


def load_registry(lines: Iterable[str] | IO[str], source_description: str = "<stream>") -> TldRegistry:
    """Build a registry from text lines in the IANA list format.

    Strips ASCII spaces and tabs and the line end; rejects (with the line
    number) any other line that is neither blank, a '#' comment nor 1-63
    ASCII letters, digits and '-', and an empty registry.
    """
    entries: set[bytes] = set()
    for lineno, line in enumerate(lines, start=1):
        line = line.removesuffix("\n").removesuffix("\r").strip(" \t")
        if not line or line.startswith("#"):
            continue
        if not _ENTRY_RE.fullmatch(line):
            raise RegistryError(f"{source_description}:{lineno}: invalid TLD entry {line!r}")
        entries.add(line.lower().encode("ascii"))
    if not entries:
        raise RegistryError(f"{source_description}: empty registry")
    return TldRegistry(entries, source_description)


def _load_fingerprinted(data: bytes, name: str) -> TldRegistry:
    """A registry described by name, entry count and content fingerprint.

    The description is deterministic for identical file content so reports
    embedding it stay byte-identical across runs.
    """
    digest = hashlib.sha256(data).hexdigest()[:12]
    entries = load_registry(data.decode("utf-8").split("\n"), source_description=name).entries
    return TldRegistry(entries, f"{name} ({len(entries)} entries, sha256:{digest})")


def load_registry_path(path: str | os.PathLike) -> TldRegistry:
    """Load a registry file, describing it by path and content fingerprint."""
    with open(path, "rb") as fh:
        return _load_fingerprinted(fh.read(), str(path))


_default: TldRegistry | None = None


def default_registry() -> TldRegistry:
    """The pinned snapshot shipped with the package (or $ROOTTRACE_TLDS)."""
    global _default
    override = os.environ.get(ENV_TLD_LIST)
    if override:
        return load_registry_path(override)
    if _default is None:
        data = pkgutil.get_data("roottrace", "data/tlds.txt")
        _default = _load_fingerprinted(data, "builtin:data/tlds.txt")
    return _default
