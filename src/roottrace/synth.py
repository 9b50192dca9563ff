"""Seeded synthetic trace generation with per-record ground truth.

Every generated record carries the taxonomy leaf it was built to land in,
so generated traces act as an exact oracle for the classifier and the
aggregation pipeline. Year presets parameterize the mix from the published
longitudinal breakdowns (category rollup, probe series, minimized-query
series); the splits those sources do not pin (inside invalid-TLD, and the
valid/invalid share of probe-with-TLD traffic) use documented defaults.
"""

from __future__ import annotations

import io
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Optional

from .classify import DEFAULT_APPLETALK_TLDS
from .ingest import parse_day
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
    QueryRecord,
    qclass_mnemonic,
    qtype_code,
    qtype_mnemonic,
)
from .tlds import TldRegistry, default_registry

# 2022-04-12 00:00:00 UTC
DEFAULT_DAY_ORIGIN = 1_649_721_600_000_000

MAX_PREFIXES = 50_000

# Generator strata: the ten taxonomy leaves, with valid-TLD split by the
# probe-shaped flag so both variants can be weighted.
STRATA = (
    "empty",
    "one_word_minimized",
    "one_word_chromium",
    "one_word_other",
    "valid_tld",
    "valid_tld_chromium",
    "invalid_tld_appletalk",
    "invalid_tld_bad_encoding",
    "invalid_tld_all_numeric",
    "invalid_tld_chromium",
    "invalid_tld_other",
)

_OTHER = "other"

DEFAULT_MINIMIZED_TLDS = {"com": 0.45, "net": 0.10, "org": 0.05, _OTHER: 0.40}
DEFAULT_VALID_TLDS = {"com": 0.35, "net": 0.15, "org": 0.05, "arpa": 0.05, _OTHER: 0.40}
DEFAULT_INVALID_OTHER_TLDS = {
    "internal": 0.30,
    "local": 0.25,
    "home": 0.20,
    "corp": 0.15,
    "lan": 0.10,
}
DEFAULT_EMPTY_QTYPES = {"NS": 1.0}
DEFAULT_QTYPES = {"A": 1.0}


class MixSpecError(ValueError):
    pass


@dataclass
class MixSpec:
    """Target mix for one generated trace.

    weights maps stratum name to its fraction of records (sums to 1).
    tld_weights holds per-group TLD tables ("minimized", "valid",
    "invalid_other"); the "other" key in the first two spreads its mass
    uniformly over the rest of the registry. qtype_weights maps stratum to
    a qtype table. empty_per_sender, when set, routes root-name queries
    through a dedicated prefix pool sized for that mean.
    """

    weights: dict = field(default_factory=dict)
    tld_weights: dict = field(default_factory=dict)
    qtype_weights: dict = field(default_factory=dict)
    prefixes: int = 10_000
    skew: float = 1.0
    seed: int = 0
    day_origin_micros: int = DEFAULT_DAY_ORIGIN
    empty_per_sender: Optional[float] = None

    def validate(self) -> None:
        unknown = set(self.weights) - set(STRATA)
        if unknown:
            raise MixSpecError(f"unknown strata: {sorted(unknown)}")
        if any(w < 0 for w in self.weights.values()):
            raise MixSpecError("negative stratum weight")
        total = sum(self.weights.values())
        if abs(total - 1.0) > 1e-9:
            raise MixSpecError(f"stratum weights sum to {total!r}, not 1")
        if not 1 <= self.prefixes <= MAX_PREFIXES:
            raise MixSpecError(f"prefixes must be in [1, {MAX_PREFIXES}]")
        if not (math.isfinite(self.skew) and self.skew >= 0):
            raise MixSpecError(f"skew must be finite and non-negative, got {self.skew!r}")
        try:
            MAX_PREFIXES**self.skew  # the largest denominator of a sender weight
        except OverflowError:
            raise MixSpecError(f"skew {self.skew!r} is too large: sender weights overflow") from None
        if self.empty_per_sender is not None and self.empty_per_sender <= 0:
            raise MixSpecError("empty_per_sender must be positive")
        for group, table in list(self.tld_weights.items()) + list(self.qtype_weights.items()):
            if not table:
                raise MixSpecError(f"empty weight table for {group!r}")
            if any(w < 0 for w in table.values()) or sum(table.values()) <= 0:
                raise MixSpecError(f"bad weights for {group!r}")
        for group, table in self.tld_weights.items():
            for tld in table:
                # the classifier reports TLDs lowercase, so truth must too
                if tld != tld.lower():
                    raise MixSpecError(f"{group} TLD {tld!r} is not lowercase")


class _DrawTable:
    """Cumulative-weight sampler over the items of a weight table, with an
    optional uniform fallback pool behind the 'other' item. Items of zero
    weight are never drawn."""

    __slots__ = ("items", "cum", "total", "pool")

    def __init__(self, table: dict, pool: Optional[list] = None):
        self.items = []
        self.cum = []
        self.pool = pool
        acc = 0.0
        for name, weight in table.items():
            if weight <= 0:
                continue
            acc += weight
            self.items.append(name)
            self.cum.append(acc)
        self.total = acc

    def draw(self, rng: random.Random):
        idx = bisect_right(self.cum, rng.random() * self.total)
        item = self.items[min(idx, len(self.items) - 1)]
        if item == _OTHER and self.pool is not None:
            return self.pool[rng.randrange(len(self.pool))]
        return item


class _SenderPool:
    """Zipf-skewed prefix pool; one in twenty prefixes is IPv6."""

    def __init__(self, prefixes: int, skew: float):
        self.v4_base = []
        for i in range(prefixes):
            self.v4_base.append(None if i % 20 == 19 else f"{1 + i // 256}.{i % 256}")
        self.index = _DrawTable({i: 1.0 / (i + 1) ** skew for i in range(prefixes)})

    def draw(self, rng: random.Random) -> str:
        idx = self.index.draw(rng)
        base = self.v4_base[idx]
        if base is None:
            return f"2600:0:{idx:x}:{rng.randrange(0x10000):x}::{rng.randrange(1, 0x10000):x}"
        return f"{base}.{rng.randrange(256)}.{rng.randrange(256)}"


def _chromium_word(rng: random.Random) -> str:
    length = rng.randint(7, 15)
    return "".join(chr(rng.randrange(0x61, 0x7B)) for _ in range(length))


def _build_tld_table(src: dict, pool: list, registry: TldRegistry, group: str) -> _DrawTable:
    for tld in src:
        if tld == _OTHER:
            if src[tld] > 0 and not pool:
                raise MixSpecError(f"registry too small for '{_OTHER}' {group} TLDs")
        elif not registry.is_valid_tld(tld.encode()):
            raise MixSpecError(f"{group} TLD {tld!r} not in registry")
    return _DrawTable(src, pool or None)


def generate(
    spec: MixSpec,
    n: int,
    registry: Optional[TldRegistry] = None,
    appletalk_tlds: frozenset = DEFAULT_APPLETALK_TLDS,
) -> Iterator[tuple[QueryRecord, Classification]]:
    """An iterator over n (record, ground-truth classification) pairs. The
    arguments are checked and the draw tables built when generate is called,
    so bad arguments raise before anything is drawn.

    Names are constructed so the classifier is guaranteed to land on the
    drawn stratum; strings that could collide with a more specific leaf
    (e.g. a random probe-shaped word that happens to be a valid TLD) are
    rejection-sampled away.
    """
    spec.validate()
    if n < 0:
        raise MixSpecError("record count must be non-negative")
    if registry is None:
        registry = default_registry()

    appletalk_list = sorted(appletalk_tlds)
    for tld in appletalk_list:
        if registry.is_valid_tld(tld.encode()):
            raise MixSpecError(f"appletalk TLD {tld!r} is in the registry; leaf unreachable")

    # sorted bytes of ASCII entries sort as their decoded strings do
    tlds = [entry.decode("ascii") for entry in sorted(registry.entries)]
    named = {"com", "net", "org"}
    minimized_src = spec.tld_weights.get("minimized", DEFAULT_MINIMIZED_TLDS)
    minimized_pool = [tld for tld in tlds if tld not in named]
    minimized_table = _build_tld_table(minimized_src, minimized_pool, registry, "minimized")

    valid_src = spec.tld_weights.get("valid", DEFAULT_VALID_TLDS)
    valid_pool = [tld for tld in tlds if tld not in valid_src]
    valid_table = _build_tld_table(valid_src, valid_pool, registry, "valid")

    invalid_other_src = spec.tld_weights.get("invalid_other", DEFAULT_INVALID_OTHER_TLDS)
    for tld in invalid_other_src:
        if (
            registry.is_valid_tld(tld.encode())
            or tld in appletalk_tlds
            or tld.isdigit()
            or not tld.isascii()
        ):
            raise MixSpecError(f"invalid-other TLD {tld!r} would classify elsewhere")
    invalid_other_table = _DrawTable(invalid_other_src)

    qtype_tables = {}
    for stratum in STRATA:
        table = spec.qtype_weights.get(stratum)
        if table is None:
            table = DEFAULT_EMPTY_QTYPES if stratum == "empty" else DEFAULT_QTYPES
        qtype_tables[stratum] = _DrawTable(table)
        for mnemonic in table:
            qtype_code(mnemonic)  # fail early on junk

    strata = _DrawTable({s: spec.weights.get(s, 0.0) for s in STRATA})

    rng = random.Random(spec.seed)
    pool = _SenderPool(spec.prefixes, spec.skew)

    empty_pool_size = 0
    if spec.empty_per_sender is not None:
        expected_empty = spec.weights.get("empty", 0.0) * n
        empty_pool_size = max(1, round(expected_empty / spec.empty_per_sender))

    day = spec.day_origin_micros
    qclass_in = 1

    def draws() -> Iterator[tuple[QueryRecord, Classification]]:
        empty_seq = 0
        seq = 0
        for _ in range(n):
            seq += 1
            stratum = strata.draw(rng)

            if stratum == "empty":
                qname = "."
                truth = CLS_EMPTY
            elif stratum == "one_word_minimized":
                tld = minimized_table.draw(rng)
                qname = tld + "."
                truth = Classification(Leaf.ONE_WORD_MINIMIZED, tld)
            elif stratum == "one_word_chromium":
                word = _chromium_word(rng)
                while registry.is_valid_tld(word.encode()):
                    word = _chromium_word(rng)
                qname = word + "."
                truth = CLS_ONE_WORD_CHROMIUM
            elif stratum == "one_word_other":
                word = f"word{seq}"
                while registry.is_valid_tld(word.encode()):
                    word += "0"
                qname = word + "."
                truth = CLS_ONE_WORD_OTHER
            elif stratum == "valid_tld":
                tld = valid_table.draw(rng)
                if rng.random() < 0.25:
                    qname = f"www.host{seq}.{tld}."
                else:
                    qname = f"host{seq}.{tld}."
                truth = Classification(Leaf.VALID_TLD, tld, False)
            elif stratum == "valid_tld_chromium":
                tld = valid_table.draw(rng)
                qname = f"{_chromium_word(rng)}.{tld}."
                truth = Classification(Leaf.VALID_TLD, tld, True)
            elif stratum == "invalid_tld_appletalk":
                tld = appletalk_list[rng.randrange(len(appletalk_list))]
                qname = f"node{seq}.{tld}."
                truth = CLS_INVALID_APPLETALK
            elif stratum == "invalid_tld_bad_encoding":
                raw = "".join(f"\\{rng.randrange(128, 256):03d}" for _ in range(rng.randint(1, 4)))
                qname = f"host{seq}.{raw}."
                truth = CLS_INVALID_BAD_ENCODING
            elif stratum == "invalid_tld_all_numeric":
                digits = str(rng.randrange(1, 1_000_000))
                while registry.is_valid_tld(digits.encode()):
                    digits += "0"
                qname = f"host{seq}.{digits}."
                truth = CLS_INVALID_ALL_NUMERIC
            elif stratum == "invalid_tld_chromium":
                tld = f"x{seq}z"
                while registry.is_valid_tld(tld.encode()) or tld in appletalk_tlds:
                    tld += "z"
                qname = f"{_chromium_word(rng)}.{tld}."
                truth = CLS_INVALID_CHROMIUM
            else:  # invalid_tld_other
                tld = invalid_other_table.draw(rng)
                qname = f"host{seq}.{tld}."
                truth = Classification(Leaf.INVALID_OTHER, tld)

            qtype = qtype_code(qtype_tables[stratum].draw(rng))

            if stratum == "empty" and empty_pool_size:
                j = empty_seq % empty_pool_size
                empty_seq += 1
                source = f"2600:{1 + (j >> 16):x}:{j & 0xFFFF:x}::{rng.randrange(1, 0x10000):x}"
            else:
                source = pool.draw(rng)

            timestamp = day + rng.randrange(86_400_000_000)
            yield QueryRecord(timestamp, source, qclass_in, qtype, qname), truth

    return draws()


def write_tsv(records: Iterable[QueryRecord], out: IO[bytes]) -> int:
    """Write records in the ingest TSV format; returns the record count."""
    count = 0
    for rec in records:
        line = (
            f"{rec.timestamp}\t{rec.source}\t{qclass_mnemonic(rec.qclass)}"
            f"\t{qtype_mnemonic(rec.qtype)}\t{rec.qname_raw}\n"
        )
        out.write(line.encode("latin-1"))
        count += 1
    return count


def tsv_bytes(records: Iterable[QueryRecord]) -> bytes:
    buf = io.BytesIO()
    write_tsv(records, buf)
    return buf.getvalue()


# --- year presets ------------------------------------------------------------
#
# Percent-of-all-queries tables from the published longitudinal series.
# TREND: (empty, one_word, invalid_tld, valid_tld)
TREND_PERCENT = {
    2013: (2.9603, 8.1450, 30.9352, 57.9595),
    2014: (3.2808, 14.8740, 28.0068, 53.8383),
    2015: (3.6901, 25.0792, 28.7403, 42.4903),
    2016: (3.8242, 23.4651, 34.8556, 37.8551),
    2017: (3.0692, 30.4401, 24.7834, 41.7073),
    2018: (3.8709, 33.6103, 26.8245, 35.6944),
    2019: (2.4860, 49.7478, 20.5680, 27.1982),
    2020: (1.3211, 66.6825, 24.3431, 7.6533),
    2021: (3.0366, 30.8924, 40.5737, 25.4973),
    2022: (37.2394, 19.4543, 26.0706, 17.2357),
}

# (probe without TLD, probe with TLD)
CHROMIUM_PERCENT = {
    2013: (2.5354, 4.8676),
    2014: (8.4787, 3.7813),
    2015: (16.4564, 3.4557),
    2016: (18.5619, 3.7329),
    2017: (25.5965, 3.5171),
    2018: (28.6797, 3.5923),
    2019: (36.3254, 2.5479),
    2020: (41.7465, 1.8229),
    2021: (6.7086, 4.3845),
    2022: (0.9984, 0.4647),
}

# minimized queries: (other, com, net, org); absent before the technique existed
QMIN_PERCENT = {
    2016: (0.2561, 0.0795, 0.0319, 0.0186),
    2017: (0.2692, 0.0612, 0.0612, 0.0163),
    2018: (0.4140, 0.2319, 0.3611, 0.0536),
    2019: (0.6988, 1.8229, 2.6770, 0.1682),
    2020: (0.5574, 1.6202, 0.1299, 0.0527),
    2021: (1.8259, 5.7452, 0.4091, 0.2213),
    2022: (1.3829, 5.9064, 0.5164, 0.1175),
}

# top valid TLD shares, percent of all queries (published for the two
# endpoint years only)
VALID_TLD_PERCENT = {
    2013: {"com": 21.43, "net": 13.83, "org": 2.77, "arpa": 2.66},
    2022: {"com": 5.67, "net": 3.74, "org": 0.60, "arpa": 2.87},
}

# appletalk share, percent of all queries; endpoints published, the rest
# interpolated
_APPLETALK_2013 = 1.13
_APPLETALK_2022 = 0.57

# artifact defaults for splits the published series do not pin
_PROBE_WITH_TLD_VALID_SHARE = 0.5
_INVALID_REST_SPLIT = {"bad_encoding": 0.25, "all_numeric": 0.10, "other": 0.65}


def preset_years() -> list[int]:
    return sorted(TREND_PERCENT)


def year_mix(year: int, seed: Optional[int] = None) -> MixSpec:
    """MixSpec reproducing one year's published category mix."""
    if year not in TREND_PERCENT:
        raise MixSpecError(f"no preset for year {year}")
    empty, one_word, invalid, valid = TREND_PERCENT[year]
    probe_plain, probe_tld = CHROMIUM_PERCENT[year]
    qmin = QMIN_PERCENT.get(year)
    minimized = sum(qmin) if qmin else 0.0
    appletalk = _APPLETALK_2013 + (_APPLETALK_2022 - _APPLETALK_2013) * (year - 2013) / 9.0

    probe_tld_valid = probe_tld * _PROBE_WITH_TLD_VALID_SHARE
    probe_tld_invalid = probe_tld - probe_tld_valid
    invalid_rest = invalid - probe_tld_invalid - appletalk

    weights = {
        "empty": empty,
        "one_word_minimized": minimized,
        "one_word_chromium": probe_plain,
        "one_word_other": one_word - minimized - probe_plain,
        "valid_tld": valid - probe_tld_valid,
        "valid_tld_chromium": probe_tld_valid,
        "invalid_tld_appletalk": appletalk,
        "invalid_tld_bad_encoding": invalid_rest * _INVALID_REST_SPLIT["bad_encoding"],
        "invalid_tld_all_numeric": invalid_rest * _INVALID_REST_SPLIT["all_numeric"],
        "invalid_tld_chromium": probe_tld_invalid,
        "invalid_tld_other": invalid_rest * _INVALID_REST_SPLIT["other"],
    }
    if min(weights.values()) < 0:
        raise MixSpecError(f"inconsistent preset tables for {year}")
    total = sum(weights.values())
    weights = {k: v / total for k, v in weights.items()}

    tld_weights = {}
    if qmin:
        other, com, net, org = qmin
        tld_weights["minimized"] = {"com": com, "net": net, "org": org, _OTHER: other}
    shares = VALID_TLD_PERCENT.get(year)
    if shares:
        rest = max(valid - sum(shares.values()), 0.0)
        tld_weights["valid"] = dict(shares, **{_OTHER: rest})

    return MixSpec(
        weights=weights,
        tld_weights=tld_weights,
        seed=year if seed is None else seed,
    )


# --- mix spec files ----------------------------------------------------------
#
# Flat key-value text: "name = value" lines, '#' comments. Keys:
#   seed, prefixes, skew, day (ISO date or epoch seconds), empty_per_sender
#   weight.<stratum>
#   tld.<minimized|valid|invalid_other>.<tld>    (tld "other" = rest of registry)
#   qtype.<stratum>.<mnemonic>


def parse_mixspec(text: str, source: str = "<mixspec>") -> MixSpec:
    spec = MixSpec()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MixSpecError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "seed":
                spec.seed = int(value)
            elif key == "prefixes":
                spec.prefixes = int(value)
            elif key == "skew":
                spec.skew = float(value)
            elif key == "empty_per_sender":
                spec.empty_per_sender = float(value)
            elif key == "day":
                spec.day_origin_micros = parse_day(value)
            elif key.startswith("weight."):
                spec.weights[key[len("weight."):]] = float(value)
            elif key.startswith("tld."):
                _, group, tld = key.split(".", 2)
                spec.tld_weights.setdefault(group, {})[tld] = float(value)
            elif key.startswith("qtype."):
                _, stratum, mnemonic = key.split(".", 2)
                spec.qtype_weights.setdefault(stratum, {})[mnemonic] = float(value)
            else:
                raise MixSpecError(f"{source}:{lineno}: unknown key {key!r}")
        except ValueError as exc:
            if isinstance(exc, MixSpecError):
                raise
            raise MixSpecError(f"{source}:{lineno}: bad value {value!r} for {key!r}") from exc
    for group in spec.tld_weights:
        if group not in ("minimized", "valid", "invalid_other"):
            raise MixSpecError(f"{source}: unknown tld group {group!r}")
    spec.validate()
    return spec


def load_mixspec(path: str) -> MixSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_mixspec(fh.read(), source=path)
