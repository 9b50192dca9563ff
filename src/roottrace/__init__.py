"""roottrace: classify and aggregate DNS root-server query traces."""

__version__ = "0.1.0"

from .classify import (  # noqa: F401
    DEFAULT_APPLETALK_TLDS,
    classify,
    classify_block,
    is_chromium_label,
)
from .ingest import (  # noqa: F401
    Block,
    IngestStats,
    decode_pcap,
    decode_tsv,
    read_pcap,
    read_tsv,
    sampler,
    window,
)
from .model import (  # noqa: F401
    Classification,
    DomainName,
    Leaf,
    QueryRecord,
    TopCategory,
    qclass_code,
    qclass_mnemonic,
    qtype_code,
    qtype_mnemonic,
)
from .names import (  # noqa: F401
    NameParseError,
    label_has_bad_encoding,
    parse_presentation,
    to_presentation,
)
from .report import (  # noqa: F401
    Report,
    chromium_fractions,
    empty_query_stats,
    fold,
    fold_blocks,
    merge,
    top_level_fractions,
    top_senders,
    unexpected_fraction,
    write_report,
)
from .tlds import TldRegistry, default_registry, load_registry, load_registry_path  # noqa: F401

# the load generator, loaded on first use so that classifying never imports it
_SYNTH_NAMES = frozenset({"MixSpec", "generate", "load_mixspec", "write_tsv", "year_mix"})


def __getattr__(name: str):
    if name in _SYNTH_NAMES:
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
