"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them). Tolerances are pinned here and
never loosened at runtime.
"""

import io
import random
import time
from collections import Counter
from itertools import islice

from fuzznames import random_name
from roottrace import workers
from roottrace.classify import classify
from roottrace.cli import main
from roottrace.ingest import IngestStats, decode_pcap, decode_tsv, line_start, pcap_start, read_pcap
from roottrace.model import Leaf, QueryRecord, TopCategory
from roottrace.names import parse_presentation
from roottrace.report import Report, build_report_doc, empty_query_stats, fold, fold_ranges, merge, merge_into
from roottrace.synth import generate, tsv_bytes, write_tsv, year_mix
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


def fold_in_tasks(path, decode, find, count, **settings):
    """The Report of the file as fold_ranges folds the `count` tasks
    workers.plan_tasks cuts it into, each begun at the record find finds at
    its cut, merged in task order; each task must begin where the one
    before it stopped."""
    tasks = workers.plan_tasks([str(path)], [path.stat().st_size], count)
    assert len(tasks) == count
    report, stop = Report(), 0
    for (name, start, end), *rest in tasks:
        with open(name, "rb") as fh:
            begin = start and find(fh.fileno(), start)
        assert begin == stop
        stop, part = fold_ranges([(name, begin, end), *rest], decode, REGISTRY, **settings)
        merge_into(report, part)
    return report


def oracle_2022(n=1_000_000):
    """The oracle's seeded 2022-mix (record, truth) pairs."""
    return generate(year_mix(2022, seed=20220412), n, REGISTRY)


def test_oracle_roundtrip_2022_mix(tmp_path):
    """10^6 records from the 2022 mix: classifier equals ground truth on
    every record; written as a TSV trace and folded by the CLI's fold, as
    one range and as three tasks, the Report counts exactly the truth;
    recovered rollup within 0.15 pp of the published one."""
    n = 1_000_000
    expected = {
        TopCategory.EMPTY: 0.372394,
        TopCategory.ONE_WORD: 0.194543,
        TopCategory.INVALID_TLD: 0.260706,
        TopCategory.VALID_TLD: 0.172357,
    }
    mismatches = 0
    truth = Counter()

    def records():
        nonlocal mismatches
        for record, cls in oracle_2022(n):
            if classify(parse_presentation(record.qname_raw), REGISTRY) != cls:
                mismatches += 1
            truth[cls] += 1
            yield record

    path = tmp_path / "oracle.tsv"
    with open(path, "wb") as fh:
        write_tsv(records(), fh)
    _, report = fold_ranges([(str(path), 0, None)], decode_tsv, REGISTRY, track_senders=False)
    assert fold_in_tasks(path, decode_tsv, line_start, 3, track_senders=False) == report
    fractions = build_report_doc(report)["totals"]["fractions"]
    worst = max(abs(fractions[cat.value] - expected[cat]) for cat in expected)
    ok = mismatches == 0 and report.leaf_counts == truth and worst <= 0.0015
    report_line("oracle-roundtrip", ok,
                f"({mismatches} mismatches, worst rollup error {worst * 100:.3f} pp)")
    assert mismatches == 0
    assert report.total == n
    assert report.leaf_counts == truth
    assert report.dropped == 0
    for cat, want in expected.items():
        assert abs(fractions[cat.value] - want) <= 0.0015, cat


def test_oracle_roundtrip_2022_mix_pcap(tmp_path):
    """The oracle's first 2*10^5 records as a pcap capture, with a response,
    a non-DNS frame and a compressed name mixed in: the CLI's fold, as one
    range and as three tasks, gives the report document of the same records
    as TSV, but for the compressed name, dropped as unparseable; the
    response and the non-DNS frame count in neither."""
    n = 200_000
    records = [record for record, _ in islice(oracle_2022(), n)]
    frames, times = [], []
    for record in records:
        payload = dns_payload(parse_presentation(record.qname_raw), record.qtype, record.qclass)
        frames.append((udp6 if ":" in record.source else udp4)(record.source, payload))
        times.append(divmod(record.timestamp, 1_000_000))
    odd = [
        udp4("192.0.2.1", dns_payload([b"com"], 2, qr=1)),  # a response: skipped
        udp4("192.0.2.1", b"\0" * 48, dport=123),  # not DNS: skipped
        udp4("192.0.2.1", dns_payload([], 1, name_override=b"\xc0\x0c\x00")),  # compressed: dropped
    ]
    for k, frame in reversed(list(enumerate(odd, 1))):  # each in a task of its own
        at = k * n // (len(odd) + 1)
        frames.insert(at, frame)
        times.insert(at, times[at])
    capture, trace = tmp_path / "oracle.pcap", tmp_path / "oracle.tsv"
    capture.write_bytes(pcap_file(frames, times=times))
    trace.write_bytes(tsv_bytes(records))

    _, report = fold_ranges([(str(capture), 0, None)], decode_pcap, REGISTRY)
    assert fold_in_tasks(capture, decode_pcap, pcap_start, 3) == report
    _, text = fold_ranges([(str(trace), 0, None)], decode_tsv, REGISTRY)
    doc, want = build_report_doc(report), build_report_doc(text)
    ok = doc["totals"]["dropped_unparseable"] == 1 and report.total == n
    report_line("oracle-roundtrip-pcap", ok, f"({report.total} records, {report.dropped} dropped)")
    assert report.total == text.total == n
    assert (report.dropped, text.dropped) == (1, 0)
    doc["totals"]["dropped_unparseable"] = 0
    assert doc == want


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


def test_throughput_ten_million_soft_gate(tmp_path):
    """Soft gate: 10^7 TSV records through the CLI's fold (read, classify
    and fold into one Report) in one process; target 60 s, measured value
    reported either way."""
    block_n = 100_000
    replays = 100
    spec = year_mix(2022, seed=8)
    path = tmp_path / "block.tsv"
    path.write_bytes(tsv_bytes(record for record, _ in generate(spec, block_n, REGISTRY)))

    start = time.perf_counter()
    _, report = fold_ranges([(str(path), 0, None)] * replays, decode_tsv, REGISTRY)
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
