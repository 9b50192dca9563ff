"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them). Tolerances are pinned here and
never loosened at runtime.
"""

import io
import random
import time

from fuzznames import random_name
from roottrace.classify import classify, classify_block
from roottrace.cli import main
from roottrace.ingest import IngestStats, decode_tsv, read_pcap
from roottrace.model import Leaf, QueryRecord, TopCategory
from roottrace.names import parse_presentation
from roottrace.report import Report, build_report_doc, empty_query_stats, fold, fold_blocks, merge, merge_into
from roottrace.synth import generate, tsv_bytes, year_mix
from roottrace.tlds import default_registry

from test_ingest import dns_payload, pcap_file, udp4, udp6
from test_report import random_pairs, random_report

REGISTRY = default_registry()


def report_line(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def test_partition_property_one_million():
    """10^6 fuzzed parseable names: exactly one leaf each, counts sum
    exactly, within the 30 s budget."""
    n = 1_000_000
    rng = random.Random(0x5EED)
    tld_sample = sorted(REGISTRY.entries)[:64]
    counts = {leaf: 0 for leaf in Leaf}
    start = time.perf_counter()
    for _ in range(n):
        cls = classify(random_name(rng, tld_sample), REGISTRY)
        counts[cls.leaf] += 1
    elapsed = time.perf_counter() - start
    total = sum(counts.values())
    populated = sum(1 for v in counts.values() if v)
    ok = total == n and elapsed <= 30.0
    report_line("partition-property", ok,
                f"({total} names over {populated} leaves in {elapsed:.1f}s)")
    assert total == n
    assert set(counts) == set(Leaf)
    assert elapsed <= 30.0


def test_oracle_roundtrip_2022_mix():
    """10^6 records from the 2022 mix: classifier equals ground truth on
    every record; recovered rollup within 0.15 pp of the published one."""
    n = 1_000_000
    expected = {
        TopCategory.EMPTY: 0.372394,
        TopCategory.ONE_WORD: 0.194543,
        TopCategory.INVALID_TLD: 0.260706,
        TopCategory.VALID_TLD: 0.172357,
    }
    spec = year_mix(2022, seed=20220412)
    mismatches = 0
    pairs = []
    for record, truth in generate(spec, n, REGISTRY):
        got = classify(parse_presentation(record.qname_raw), REGISTRY)
        if got != truth:
            mismatches += 1
        pairs.append((record, got))
    report = fold(pairs, track_senders=False)
    fractions = build_report_doc(report)["totals"]["fractions"]
    worst = max(abs(fractions[cat.value] - expected[cat]) for cat in expected)
    ok = mismatches == 0 and worst <= 0.0015
    report_line("oracle-roundtrip", ok,
                f"({mismatches} mismatches, worst rollup error {worst * 100:.3f} pp)")
    assert mismatches == 0
    assert report.total == n
    for cat, want in expected.items():
        assert abs(fractions[cat.value] - want) <= 0.0015, cat


def test_chromium_detector_boundaries():
    """Probe detector: every 7-15 char lowercase label accepted; 6, 16,
    mixed-case and digit-bearing labels rejected."""
    from roottrace.classify import is_chromium_label

    rng = random.Random(7)
    checked = 0
    for length in range(7, 16):
        for _ in range(200):
            label = bytes(rng.randrange(0x61, 0x7B) for _ in range(length))
            assert is_chromium_label(label), label
            checked += 1
        assert is_chromium_label(b"a" * length)
    for length in (6, 16, 1, 30):
        for _ in range(200):
            label = bytes(rng.randrange(0x61, 0x7B) for _ in range(length))
            assert not is_chromium_label(label), label
            checked += 1
    for length in range(7, 16):
        for _ in range(200):
            pos = rng.randrange(length)
            body = [rng.randrange(0x61, 0x7B) for _ in range(length)]
            cased = list(body)
            cased[pos] = cased[pos] - 0x20  # uppercase one position
            assert not is_chromium_label(bytes(cased))
            digited = list(body)
            digited[pos] = rng.randrange(0x30, 0x3A)  # replace with a digit
            assert not is_chromium_label(bytes(digited))
            checked += 2
    report_line("chromium-detector", True, f"({checked} boundary labels)")


def test_priming_statistics():
    """Trace with 97.2% NS among root-name queries and a mean of 2.8 per
    sending prefix: statistics recovered within 0.1 pp and 0.05."""
    n = 1_000_000
    spec = year_mix(2022, seed=971)
    spec.qtype_weights = {"empty": {"NS": 0.972, "DNSKEY": 0.015, "SOA": 0.008, "A": 0.005}}
    spec.empty_per_sender = 2.8
    report = fold(generate(spec, n, REGISTRY))
    stats = empty_query_stats(report)
    ns_error = abs(stats["qtype_fractions"]["NS"] - 0.972)
    mean_error = abs(stats["mean_per_sender"] - 2.8)
    ok = ns_error <= 0.001 and mean_error <= 0.05
    report_line("priming-statistics", ok,
                f"(NS {stats['qtype_fractions']['NS'] * 100:.2f}%, "
                f"mean {stats['mean_per_sender']:.3f}/prefix over {stats['senders']} prefixes)")
    assert ns_error <= 0.001
    assert mean_error <= 0.05


def test_merge_algebra():
    """Merge is commutative/associative with the empty identity, exactly,
    and fold distributes over stream concatenation."""
    rng = random.Random(42)
    for _ in range(1000):
        a = random_report(rng, label="a")
        b = random_report(rng, label="b")
        c = random_report(rng, label="c")
        assert merge(a, Report()) == a
        assert merge(Report(), a) == a
        assert merge(a, b) == merge(b, a)
        assert merge(merge(a, b), c) == merge(a, merge(b, c))
    for _ in range(100):
        pairs = random_pairs(rng, rng.randint(0, 300))
        cut = rng.randint(0, len(pairs))
        assert merge(fold(pairs[:cut]), fold(pairs[cut:])) == fold(pairs)
    report_line("merge-algebra", True, "(1000 pair/triple cases, 100 fold splits)")


def test_classify_cli_determinism(tmp_path):
    """Two CLI runs over the same TSV with the same seed produce
    byte-identical JSON reports."""
    trace = tmp_path / "t.tsv"
    assert main(["gen", "--preset", "2022", "--count", "20000", "--seed", "5",
                 "--out", str(trace)]) == 0
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = main(["classify", "--in", str(trace), "--label", "2022",
                   "--sample-rate", "0.5", "--seed", "77", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    report_line("cli-determinism", ok, f"({len(outs[0])} byte reports)")
    assert ok


def test_pcap_ingest_fidelity():
    """Crafted 50-packet capture: 48 field-exact records, 0 unparseable,
    2 skipped (one response, one TCP packet)."""
    frames = []
    expected = []

    def add(frame, record=None):
        frames.append(frame)
        if record is not None:
            expected.append(record)

    def ts_of(index):
        return (1_649_721_600 + index) * 1_000_000 + index

    i = 0
    # 24 plain IPv4 queries over assorted names and types
    for k in range(24):
        qtype = (1, 2, 6, 12, 15, 16, 28, 33, 43, 48, 999, 1)[k % 12]
        labels = [b"host%d" % k, b"example", b"com"] if k % 3 else [b"w%d" % k, b"net"]
        add(udp4(f"44.242.{k}.9", dns_payload(labels, qtype)),
            QueryRecord(ts_of(i), f"44.242.{k}.9", 1,
                        qtype, ".".join(l.decode() for l in labels) + "."))
        i += 1
    # one response and one TCP packet buried mid-capture: both skipped
    add(udp4("9.9.9.9", dns_payload([b"com"], 2, qr=1)))
    i += 1
    add(udp4("9.9.9.9", dns_payload([b"com"], 2), proto=6))
    i += 1
    # 10 IPv6-source queries; source text kept in RFC 5952 canonical form
    for k in range(10):
        source = f"2001:db8:{k + 1:x}::1"
        add(udp6(source, dns_payload([b"v6host%d" % k, b"org"], 28)),
            QueryRecord(ts_of(i), source, 1, 28, f"v6host{k}.org."))
        i += 1
    # 5 root-name NS (priming-style) queries
    for k in range(5):
        add(udp4(f"198.51.{k}.7", dns_payload([], 2)),
            QueryRecord(ts_of(i), f"198.51.{k}.7", 1, 2, "."))
        i += 1
    # 9 names with escaped bytes in labels; rendering oracle follows the
    # presentation format directly: dot/backslash get a backslash, bytes
    # outside printable ASCII become \DDD
    def render_byte(b):
        if b == 0x2E:
            return "\\."
        if b == 0x5C:
            return "\\\\"
        if 0x21 <= b <= 0x7E:
            return chr(b)
        return f"\\{b:03d}"

    for k in range(9):
        raw = bytes([0xFF, k]) if k % 2 else bytes([k + 128, 0x2E])
        add(udp4(f"203.0.{k}.3", dns_payload([b"esc%d" % k, raw], 16)))
        rendered = "".join(render_byte(b) for b in raw)
        expected.append(QueryRecord(ts_of(i), f"203.0.{k}.3", 1, 16, f"esc{k}.{rendered}."))
        i += 1

    assert len(frames) == 50
    assert len(expected) == 48
    times = [(1_649_721_600 + j, j) for j in range(50)]
    stats = IngestStats()
    records = list(read_pcap(io.BytesIO(pcap_file(frames, times=times)), stats))
    ok = (records == expected
          and stats.records_dropped_unparseable == 0
          and stats.packets_skipped == 2)
    report_line("pcap-ingest-fidelity", ok,
                f"({stats.records_emitted} emitted, {stats.records_dropped_unparseable}"
                f" unparseable, {stats.packets_skipped} skipped)")
    assert records == expected
    assert stats.records_emitted == 48
    assert stats.records_dropped_unparseable == 0
    assert stats.packets_skipped == 2


def test_throughput_ten_million_soft_gate():
    """Soft gate: 10^7 TSV records through read+classify+fold on one
    worker; target 60 s, measured value reported either way."""
    block_n = 100_000
    replays = 100
    spec = year_mix(2022, seed=8)
    block = tsv_bytes(record for record, _ in generate(spec, block_n, REGISTRY))

    start = time.perf_counter()
    report = Report()
    for _ in range(replays):
        stats = IngestStats()
        blocks = decode_tsv(io.BytesIO(block), stats)
        merge_into(report, fold_blocks(classify_block(b, REGISTRY, stats=stats) for b in blocks))
    elapsed = time.perf_counter() - start

    total = report.total
    rate = total / elapsed
    within = elapsed <= 60.0
    verdict = "PASS" if within else "SOFT FAIL (recorded; see perfbench/README.md)"
    print(f"ACCEPTANCE throughput-benchmark: {verdict} "
          f"({total} records in {elapsed:.1f}s, {rate / 1000:.0f}k records/s)")
    # hard assertions cover pipeline correctness only; the time target is soft
    assert total == block_n * replays
    assert sum(report.leaf_counts.values()) == total
