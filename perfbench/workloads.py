"""Benchmark workloads: seeded input generation, the oracle's expectation,
and the per-(workload, seed) input cache.

Inputs come from `roottrace.synth`, the load generator, which is not under
test. Each workload writes its files, injects a seeded share of malformed
lines or packets, and records what a correct run must report.
"""

from __future__ import annotations

import io
import ipaddress
import json
import os
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from oracle import MNEMONICS, Oracle
from pcapwriter import write_pcap

# Bump when generation changes, so stale cached inputs are never reused.
GEN_VERSION = 2
CACHE_KEEP = 6
MALFORMED_SHARE = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    year: int  # synth year preset
    fmt: str  # "tsv" or "pcap"
    files: int
    records_per_file: int
    prefixes: int  # sender prefix pool
    skew: float  # Zipf skew of the sender pool
    senders: bool  # sender tables on (no --no-senders)
    outputs: tuple  # report formats written: json first, then reformats


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tsv-2022", 2022, "tsv", 1, 150_000, 10_000, 1.0, True, ("json",)),
        Workload("pcap-2013-nosenders", 2013, "pcap", 1, 100_000, 10_000, 1.0, False, ("json",)),
        Workload("ditl-many-files", 2022, "tsv", 20, 2_000, 30_000, 0.3, True, ("json", "csv", "plotdata")),
    )
}


def _malformed_lines(ts: int, source: str) -> list[tuple[bytes, str]]:
    """Seeded bad lines and the stage that must drop each one."""
    return [
        (b"garbage line without any tab", "ingest"),
        (f"{ts}\t{source}\tIN\tA".encode(), "ingest"),
        (f"{ts}x\t{source}\tIN\tA\tcom.".encode(), "ingest"),
        (f"0\t{source}\tIN\tA\tcom.".encode(), "ingest"),
        (f"{ts}\t999.1.2.3\tIN\tA\tcom.".encode(), "ingest"),
        (f"{ts}\t2600:::1\tIN\tA\tcom.".encode(), "ingest"),
        (f"{ts}\t{source}\tIN\tBOGUS\tcom.".encode(), "ingest"),
        (f"{ts}\t{source}\tIN\tA\t".encode(), "ingest"),
        (f"{ts}\t{source}\tIN\tA\thost..com.".encode(), "names"),
        (f"{ts}\t{source}\tIN\tA\t{'x' * 64}.com.".encode(), "names"),
        (f"{ts}\t{source}\tIN\tA\thost.\\12".encode(), "names"),
    ]


def _tsv_line(rec) -> bytes:
    # the generator's names are latin-1 safe presentation strings
    return (f"{rec.timestamp}\t{rec.source}\tIN\t{MNEMONICS[rec.qtype]}\t{rec.qname_raw}\n").encode("latin-1")


def generate(workload: Workload, seed: int, outdir: Path, qtypes: dict | None = None) -> dict:
    """Write the workload's input files under outdir; return the expectation.

    The expectation holds the input paths (relative to outdir), the record
    and byte counts, the oracle's report sections and the ingest counts a
    correct reader reports. Query types follow the year preset's tables
    unless qtypes gives one table for every stratum but root-name queries.
    """
    from roottrace.synth import generate as synth_generate, year_mix
    from roottrace.tlds import default_registry

    start = time.perf_counter()
    spec = year_mix(workload.year, seed=seed)
    spec.prefixes = workload.prefixes
    spec.skew = workload.skew
    if qtypes is not None:
        spec.qtype_weights = {s: dict(qtypes) for s in spec.weights if s != "empty"}
    records = synth_generate(spec, workload.files * workload.records_per_file, default_registry())
    rng = random.Random(seed * 7919 + 1)
    oracle = Oracle(workload.senders)
    ingest = {"emitted": 0, "dropped": 0, "skipped": 0}
    names_failed = 0
    seen = 0
    total_bytes = 0
    paths = []
    for index in range(workload.files):
        block = []
        for _ in range(workload.records_per_file):
            rec, truth = next(records)
            block.append(rec)
            oracle.add(rec.source, rec.qtype, truth.leaf.value, truth.tld, truth.chromium_like)
        name = f"trace{index:03d}.{workload.fmt}"
        paths.append(name)
        with open(outdir / name, "wb") as out:
            if workload.fmt == "pcap":
                counts = write_pcap(block, out, seed=seed * 1000 + index, malformed_share=MALFORMED_SHARE)
                seen += counts.packets
                total_bytes += counts.bytes
                oracle.dropped += counts.dropped
                ingest["emitted"] += counts.emitted
                ingest["dropped"] += counts.dropped
                ingest["skipped"] += counts.skipped
                continue
            for rec in block:
                line = _tsv_line(rec)
                if rng.random() < MALFORMED_SHARE:
                    choices = _malformed_lines(rec.timestamp, rec.source)
                    bad, stage = choices[rng.randrange(len(choices))]
                    out.write(bad + b"\n")
                    total_bytes += len(bad) + 1
                    seen += 1
                    oracle.dropped += 1
                    if stage == "ingest":
                        ingest["dropped"] += 1
                    else:
                        ingest["emitted"] += 1
                        names_failed += 1
                out.write(line)
                total_bytes += len(line)
                seen += 1
                ingest["emitted"] += 1
    return {
        "workload": workload.name,
        "seed": seed,
        "gen_version": GEN_VERSION,
        "paths": paths,
        "seen": seen,
        "bytes": total_bytes,
        "skipped": ingest["skipped"],
        "ingest": ingest,
        "names_failed": names_failed,
        "doc": oracle.doc(),
        "gen_s": time.perf_counter() - start,
    }


def check_pcap_writer(seed: int, count: int = 2000) -> None:
    """Read a written block back through read_pcap and compare it with the
    TSV rendering of the same records read through read_tsv.

    Raises AssertionError (with the first difference) if the writer and the
    readers disagree on any record or on the packet accounting.
    """
    from roottrace.ingest import IngestStats, read_pcap, read_tsv
    from roottrace.synth import generate as synth_generate, year_mix

    block = [rec for rec, _ in synth_generate(year_mix(2013, seed=seed), count)]
    buf = io.BytesIO()
    counts = write_pcap(block, buf, seed=seed, malformed_share=0.05)
    stats = IngestStats()
    from_pcap = list(read_pcap(io.BytesIO(buf.getvalue()), stats))
    from_tsv = list(read_tsv(io.BytesIO(b"".join(_tsv_line(rec) for rec in block))))
    got = (stats.records_emitted, stats.records_dropped_unparseable, stats.packets_skipped, stats.bytes_read)
    want = (counts.emitted, counts.dropped, counts.skipped, counts.bytes)
    if got != want:
        raise AssertionError(f"pcap accounting (emitted, dropped, skipped, bytes): read {got}, wrote {want}")
    if len(from_pcap) != len(from_tsv):
        raise AssertionError(f"pcap gave {len(from_pcap)} records, TSV {len(from_tsv)}")
    for a, b in zip(from_pcap, from_tsv):
        # pcap sources are rendered canonically; the generator's text may not be
        if a._replace(source=ipaddress.ip_address(a.source).compressed) != b._replace(
            source=ipaddress.ip_address(b.source).compressed
        ):
            raise AssertionError(f"pcap record {a} != TSV record {b}")


def prepare(workload: Workload, seed: int, cache_root: Path) -> tuple[Path, dict, bool]:
    """Inputs for (workload, seed): generated once, then reused from the cache.

    Returns (input directory, expectation, whether it came from the cache).
    Least recently used entries beyond CACHE_KEEP are removed.
    """
    cache_root.mkdir(parents=True, exist_ok=True)
    key = f"{workload.name}-{seed}-v{GEN_VERSION}"
    target = cache_root / key
    expected_path = target / "expected.json"
    if expected_path.is_file():
        os.utime(target)
        return target, json.loads(expected_path.read_text()), True
    if workload.fmt == "pcap":
        check_pcap_writer(seed)
    tmp = cache_root / f".tmp-{key}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        expected = generate(workload, seed, tmp)
        (tmp / "expected.json").write_text(json.dumps(expected))
        shutil.rmtree(target, ignore_errors=True)
        os.replace(tmp, target)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    entries = sorted((p for p in cache_root.iterdir() if not p.name.startswith(".")), key=lambda p: p.stat().st_mtime)
    for old in entries[:-CACHE_KEEP]:
        shutil.rmtree(old, ignore_errors=True)
    return target, expected, False

