import dataclasses
import json
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS


def test_refuses_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".cache", "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tsv-2022", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_match_benchmark_json():
    spec = run.load_spec()
    assert set(WORKLOADS) == {w["name"] for w in spec["workloads"]}
    layer = {m["name"] for m in spec["per_layer"]}
    result = {
        "spans": [["pipeline", 0.0, 1.0, None], ["ingest.read", 0.0, 0.4, 0],
                  ["names.parse_presentation", 0.4, 0.6, 0], ["classify.classify", 0.6, 0.7, 0],
                  ["report.fold", 0.7, 0.9, 0], ["report.merge", 0.9, 0.92, 0],
                  ["report.write_report", 0.92, 0.99, 0], ["model.sender_prefix", 1.0, 1.1, None],
                  ["names.to_presentation", 1.1, 1.2, None]],
        "counts": {"emitted": 9, "dropped": 1, "skipped": 0, "bytes": 100, "parse_failed": 1, "merge_calls": 0,
                   "keys_copied": 0, "write_bytes": 10, "parsed": 8, "escaped": 1, "sources": 9, "v6_sources": 1,
                   "folded": 8, "sender_prefixes": 3, "empty_senders": 1},
        "tlds_load_s": 0.001, "import_s": 0.03,
    }
    metrics = run.layer_metrics(result, {"seen": 10})
    assert layer - {"trace.overhead_share"} == {k for k in metrics if not k.startswith("_")}
    assert abs(metrics["ingest.self_share"] - 0.4) < 1e-9
    assert abs(metrics["_glue_s"] - 0.01) < 1e-9


def test_measure_small_workload_is_correct(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CACHE", tmp_path)
    for name, files, records in (("tsv-2022", 1, 2000), ("pcap-2013-nosenders", 1, 2000), ("ditl-many-files", 4, 300)):
        workload = dataclasses.replace(WORKLOADS[name], files=files, records_per_file=records, prefixes=500)
        m = run.measure(workload, seed=3, seconds=0, trace=True)
        assert (m["failed"], m["problems"]) == (0, []), name
        assert m["attempted"] == 3 * m["expected"]["seen"]  # warm-up, untraced and traced pass
        (metrics, spans), = m["traced"]
        assert metrics["ingest.emitted"] == m["expected"]["ingest"]["emitted"]
        assert metrics["report.merge.calls"] == files - 1
        shares = sum(v for k, v in metrics.items() if k.endswith("self_share"))
        assert 0.9 < shares <= 1.0


def test_an_incorrect_run_exits_nonzero(tmp_path, monkeypatch, capsys):
    def measure(workload, seed, seconds, trace):
        failed = 3 if workload.name == "tsv-2022" and not trace else 0
        return {"expected": {"seen": 10, "bytes": 100, "paths": ["a"], "gen_s": 0.1}, "cached": True,
                "samples": {"records_per_s": [1.0], "setup_s": [1.0], "peak_rss_mb": [1.0]}, "traced": [],
                "attempted": 10, "failed": failed, "problems": ["wrong"] if failed else []}

    monkeypatch.setattr(run, "measure", measure)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    args = ["--seed", "1", "--seconds", "0", "--trace", "0"]
    assert run.main(["--workload", "tsv-2022", *args]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False
    assert run.main(["--workload", "all", "--seed", "1", "--seconds", "0"]) == 1
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (last["correct"], last["attempted"], last["failed"]) == (False, 60, 3)
    assert last["runs"]["tsv-2022/trace0"]["correct"] is False
