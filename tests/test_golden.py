"""Golden report bytes: classify and top-senders outputs for one fixed-seed
trace, read as TSV and as pcap, pinned by sha256.

A refactor that keeps these digests keeps every report byte. A change that
means to alter report output must update the digests and say why.
"""

import hashlib

import pytest

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
    "pcap/classify-top50.json": "886ae7d27d836932a5c7f87bed7df5f45e9bfc1be34fe2dde444f02faaff7cd3",
    "pcap/classify.csv": "2fe6f91ef0d30ba75f0e506729159d4d8e9744437686a5380828d13ad379630a",
    "pcap/classify.json": "757eef0816ba943ccb6587fa31e37b4b40c9f29f8fc14ff53db8d566d14b5c55",
    "pcap/classify.plotdata": "463f72dd417861f0b774f6dc493df361c3ff273a1f0167a40eec1e6714b59e14",
    "pcap/top-senders-empty.csv": "109b9f428bdec4fcd22704f44a2002fe1301b2f48dc0689ef47e82927547c404",
    "pcap/top-senders.csv": "d4306e7dcaee42f62a2ccc2c6947bb2565f4b0b2138bb70e175f8a81141035d8",
    "tsv/classify-nosenders.json": "81708dfb32924ba4a8ca0c2c55e719622f394077caba7c95bfbe8a353f42a3bc",
    "tsv/classify-top50.json": "e8768994a93ff40b4cc08c6e4e26ff8da0038a17d768ad062a08e39da8fecb17",
    "tsv/classify.csv": "2fe6f91ef0d30ba75f0e506729159d4d8e9744437686a5380828d13ad379630a",
    "tsv/classify.json": "f00af76e220133b42c68e43837bee15d2cffd731c1037a6e1f08b943d6fb6c3b",
    "tsv/classify.plotdata": "463f72dd417861f0b774f6dc493df361c3ff273a1f0167a40eec1e6714b59e14",
    "tsv/top-senders-empty.csv": "109b9f428bdec4fcd22704f44a2002fe1301b2f48dc0689ef47e82927547c404",
    "tsv/top-senders.csv": "d4306e7dcaee42f62a2ccc2c6947bb2565f4b0b2138bb70e175f8a81141035d8",
}

COMMANDS = {
    "classify.json": ["classify", "--label", "golden", "--out", "out"],
    "classify-top50.json": ["classify", "--label", "golden", "--top-k", "50", "--out", "out"],
    "classify-nosenders.json": ["classify", "--label", "golden", "--no-senders", "--out", "out"],
    "top-senders.csv": ["top-senders", "-k", "25", "--out", "out"],
    "top-senders-empty.csv": ["top-senders", "-k", "25", "--empty", "--out", "out"],
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
    return out


@pytest.mark.parametrize("fmt", ["tsv", "pcap"])
def test_report_bytes_match_golden(fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ROOTTRACE_TLDS", raising=False)
    digests = {f"{fmt}/{name}": hashlib.sha256(data).hexdigest() for name, data in outputs(fmt).items()}
    assert digests == {k: v for k, v in GOLDEN.items() if k.startswith(f"{fmt}/")}
