"""Golden report bytes: classify, report, trend and top-senders outputs for
one fixed-seed trace, read as TSV and as pcap, pinned by sha256.

A refactor that keeps these digests keeps every report byte. A change that
means to alter report output must update the digests and say why.
"""

import hashlib
import json
import os

import pytest

from roottrace import cli, ingest, workers
from roottrace.cli import main
from roottrace.model import QueryRecord
from roottrace.names import parse_presentation
from roottrace.synth import generate, tsv_bytes, year_mix

from test_ingest import dns_payload, pcap_file, udp4, udp6

RECORDS = [record for record, _ in generate(year_mix(2022, seed=20221), 3000)]
# root-name queries of mixed types, so the empty-sender tables carry more
# than NS and render an unnamed type as TYPE<code>
RECORDS += [
    QueryRecord(RECORDS[-1].timestamp + k, ("198.51.%d.7" % (k % 3), "2001:db8::5")[k % 5 == 4],
                1, (48, 1, 65, 2, 28)[k % 5], ".")
    for k in range(40)
]
# one unparseable name for the name parser to drop
BAD_NAME = QueryRecord(RECORDS[-1].timestamp + 1, "192.0.2.1", 1, 1, "bad..name.")


def tsv_trace() -> bytes:
    return tsv_bytes(RECORDS + [BAD_NAME]) + b"junk line\n"


def pcap_trace() -> bytes:
    frames = []
    times = []
    for record in RECORDS:
        payload = dns_payload(parse_presentation(record.qname_raw).labels, record.qtype, record.qclass)
        build = udp6 if ":" in record.source else udp4
        frames.append(build(record.source, payload))
        times.append(divmod(record.timestamp, 1_000_000))
    last = times[-1]
    # a compressed name (dropped) and a response (skipped)
    frames.append(udp4("192.0.2.1", dns_payload([], 1, name_override=b"\xc0\x0c\x00")))
    frames.append(udp4("192.0.2.1", dns_payload([b"com"], 2, qr=1)))
    times += [last, last]
    return pcap_file(frames, times=times)


# sha256 of each output
GOLDEN = {
    "pcap/classify-nosenders.json": "4d3c28fa6a8251e93b9c006d0efda45e9220b5baf48601feef762be7d9b72277",
    "pcap/classify-sampled.json": "8c446ae19301ea8ec2a2ac5e544907331a907b1c495ca9ae71e550f93e9a97f7",
    "pcap/classify-top50.json": "886ae7d27d836932a5c7f87bed7df5f45e9bfc1be34fe2dde444f02faaff7cd3",
    "pcap/classify-window.json": "07863c88b1f6ccab38e042125b1df403ec2f209eea6154f0a48359e4f1746f67",
    "pcap/classify.csv": "2fe6f91ef0d30ba75f0e506729159d4d8e9744437686a5380828d13ad379630a",
    "pcap/classify.json": "757eef0816ba943ccb6587fa31e37b4b40c9f29f8fc14ff53db8d566d14b5c55",
    "pcap/classify.plotdata": "463f72dd417861f0b774f6dc493df361c3ff273a1f0167a40eec1e6714b59e14",
    "pcap/top-senders-empty.csv": "109b9f428bdec4fcd22704f44a2002fe1301b2f48dc0689ef47e82927547c404",
    "pcap/top-senders.csv": "d4306e7dcaee42f62a2ccc2c6947bb2565f4b0b2138bb70e175f8a81141035d8",
    "pcap/trend.csv": "7cefc47dbf050dfff293c9d61879424807652d4a5ea3435999a982b88b83471d",
    "tsv/classify-nosenders.json": "81708dfb32924ba4a8ca0c2c55e719622f394077caba7c95bfbe8a353f42a3bc",
    "tsv/classify-sampled.json": "79def30a905641ffe90637a34a023fd5bca0ead467ab48468bb808270e0c9c2c",
    "tsv/classify-top50.json": "e8768994a93ff40b4cc08c6e4e26ff8da0038a17d768ad062a08e39da8fecb17",
    "tsv/classify-window.json": "f15dc1e229333bbd1509e341f8bb8ae6499af9d8d4954004e43d2fcc5bc0f740",
    "tsv/classify.csv": "2fe6f91ef0d30ba75f0e506729159d4d8e9744437686a5380828d13ad379630a",
    "tsv/classify.json": "f00af76e220133b42c68e43837bee15d2cffd731c1037a6e1f08b943d6fb6c3b",
    "tsv/classify.plotdata": "463f72dd417861f0b774f6dc493df361c3ff273a1f0167a40eec1e6714b59e14",
    "tsv/top-senders-empty.csv": "109b9f428bdec4fcd22704f44a2002fe1301b2f48dc0689ef47e82927547c404",
    "tsv/top-senders.csv": "d4306e7dcaee42f62a2ccc2c6947bb2565f4b0b2138bb70e175f8a81141035d8",
    "tsv/trend.csv": "7cefc47dbf050dfff293c9d61879424807652d4a5ea3435999a982b88b83471d",
}

COMMANDS = {
    "classify.json": ["classify", "--label", "golden", "--out", "out"],
    "classify-top50.json": ["classify", "--label", "golden", "--top-k", "50", "--out", "out"],
    "classify-nosenders.json": ["classify", "--label", "golden", "--no-senders", "--out", "out"],
    "top-senders.csv": ["top-senders", "-k", "25", "--out", "out"],
    "top-senders-empty.csv": ["top-senders", "-k", "25", "--empty", "--out", "out"],
    # the sampled records depend on their byte offsets in the trace, the window on their times
    "classify-sampled.json": ["classify", "--label", "golden", "--sample-rate", "0.3", "--seed", "5",
                              "--out", "out"],
    "classify-window.json": ["classify", "--label", "golden", "--window", "06:00-12:00",
                             "--day-origin", "2022-04-12", "--out", "out"],
}


def outputs(fmt: str) -> dict:
    """Every pinned output for one input format, by name."""
    trace = tsv_trace() if fmt == "tsv" else pcap_trace()
    with open(f"trace.{fmt}", "wb") as fh:
        fh.write(trace)
    out = {}
    for name, argv in COMMANDS.items():
        assert main(argv + ["--in", f"trace.{fmt}", "--format", fmt]) == 0
        with open("out", "rb") as fh:
            out[name] = fh.read()
    with open("classify.json", "wb") as fh:
        fh.write(out["classify.json"])
    for report_fmt in ("csv", "plotdata"):
        assert main(["report", "--in", "classify.json", "--format", report_fmt, "--out", "out"]) == 0
        with open("out", "rb") as fh:
            out[f"classify.{report_fmt}"] = fh.read()
    doc = json.loads(out["classify.json"])
    doc["meta"]["label"] = "relabelled"
    with open("relabelled.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert main(["trend", "--in", "classify.json", "relabelled.json", "--out", "out"]) == 0
    with open("out", "rb") as fh:
        out["trend.csv"] = fh.read()
    return out


@pytest.mark.parametrize("fmt", ["tsv", "pcap"])
def test_report_bytes_match_golden(fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ROOTTRACE_TLDS", raising=False)
    digests = {f"{fmt}/{name}": hashlib.sha256(data).hexdigest() for name, data in outputs(fmt).items()}
    assert digests == {k: v for k, v in GOLDEN.items() if k.startswith(f"{fmt}/")}


# each block size puts block boundaries in other places among the
# sampled, windowed and unparseable records of the golden trace
@pytest.mark.parametrize("block", [1, 7, ingest.BLOCK])
@pytest.mark.parametrize("fmt", ["tsv", "pcap"])
def test_report_bytes_match_golden_in_any_block_size(fmt, block, tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "BLOCK", block)
    test_report_bytes_match_golden(fmt, tmp_path, monkeypatch)


# forced worker counts: the trace, TSV or pcap, is cut into that many
# ranges, each folded in a worker of its own that finds its first record;
# a sampled trace is cut too, so the sampled runs check that each record's
# fate does not depend on the range it is read in
@pytest.mark.parametrize("count", [1, 2, 3, 8])
@pytest.mark.parametrize("fmt", ["tsv", "pcap"])
def test_report_bytes_match_golden_at_any_worker_count(fmt, count, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: count)
    monkeypatch.setattr(cli, "MIN_TASK_BYTES", 1)
    real = workers.fold_in_workers
    folded = []  # per split command, how many tasks this process folded
    parent = os.getpid()

    def fold_in_workers(tasks, find, fold):
        folded.append(0)

        def counted(ranges):
            folded[-1] += os.getpid() == parent
            return fold(ranges)

        return real(tasks, find, counted)

    monkeypatch.setattr(workers, "fold_in_workers", fold_in_workers)
    test_report_bytes_match_golden(fmt, tmp_path, monkeypatch)
    size = (tmp_path / f"trace.{fmt}").stat().st_size
    tasks = workers.plan_tasks([f"trace.{fmt}"], [size], count)
    assert len(tasks) == count
    # every command was split, and its tasks met: this process folded the
    # first task only, and no later one again
    assert len(folded) == (0 if count == 1 else len(COMMANDS))
    assert set(folded) <= {1}


def ditl_pool_2022():
    spec = year_mix(2022, seed=7177)
    spec.prefixes = 30_000
    spec.skew = 0.3
    spec.empty_per_sender = 4.0
    return spec


# sha256 of the generated TSV bytes followed by one ground-truth line per
# record (leaf, tld, chromium_like), for 20,000 records of each spec;
# synth makes the benchmark's inputs, so these bytes must not drift
GENERATOR_SPECS = {
    "2013": lambda: year_mix(2013),
    "2022": lambda: year_mix(2022),
    "2022-ditl-pool": ditl_pool_2022,
}
GENERATOR_GOLDEN = {
    "2013": "d7a0b71f1251a5715c2bd4807c8f84d2f2ef44b90b885dab5e6b321190496656",
    "2022": "89edab0fb9ea5c183dba01459e55be228c0a9199b9a80f47ff68ade45c2eeaea",
    "2022-ditl-pool": "9941869374a355b8c4987e2a3bf2fc1229ae265e470118b7f638dcf27f6213f3",
}


@pytest.mark.parametrize("name", sorted(GENERATOR_SPECS))
def test_generated_bytes_match_golden(name, monkeypatch):
    monkeypatch.delenv("ROOTTRACE_TLDS", raising=False)
    pairs = list(generate(GENERATOR_SPECS[name](), 20_000))
    truth = "".join(f"{cls.leaf.value}\t{cls.tld or ''}\t{int(cls.chromium_like)}\n" for _, cls in pairs)
    data = tsv_bytes(rec for rec, _ in pairs) + truth.encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == GENERATOR_GOLDEN[name]
