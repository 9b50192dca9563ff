#!/usr/bin/env python3
"""The roottrace benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py compare BASE.jsonl CHANGE.jsonl

Run from the repository root. A run generates (or reuses from
perfbench/.cache) the workload's inputs for the seed, then starts fresh
single-process workers one after another for S seconds:

* trace 0: untraced `roottrace.cli.main(["classify", ...])` passes give the
  end-to-end metrics (records_per_s, setup_s, peak_rss_mb). The two times
  are corrected for machine contention with the reference kernel
  (reference.py), timed in a process of its own before and after each
  pass; uncorrected figures are printed too.
* trace 1: traced stage-at-a-time passes, alternated with untraced ones,
  give the per-layer metrics and the tracing overhead.

Every pass's outputs are checked against the generator's ground truth. The
last stdout line is the JSON result; lines before it are for people. The
exit code is 0 only if every run was correct. Each
run appends its stamped result to perfbench/results/runs.jsonl, and traced
runs write their spans next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from compare import quartiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE = BENCH_DIR / ".cache"
RESULTS = BENCH_DIR / "results"

# Seed kept out of tuning: a claimed gain must also hold on it.
HELD_OUT_SEED = 7177
SETUP_ONLY_PASSES = 5
PASS_TIMEOUT_S = 150


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def nearest_rank(values: list, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def run_pass(mode: str, spec: dict | None = None, workdir: Path | None = None) -> dict | None:
    """Run one fresh worker process; None if it failed or timed out."""
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), mode]
    if spec is not None:
        spec_path = workdir / f"{mode}-spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        argv += [str(SRC), str(spec_path)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{mode} pass timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(result: dict, expected: dict) -> dict:
    """Per-layer metrics of one traced pass, from its spans and counts."""
    spans = result["spans"]
    counts = result["counts"]
    duration = [end - start for _, start, end, _ in spans]
    covered = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            covered[parent] += duration[i]
    total = defaultdict(float)
    own = defaultdict(float)
    fold_files = []
    for i, (name, _, _, _) in enumerate(spans):
        total[name] += duration[i]
        own[name] += duration[i] - covered[i]
        if name == "report.fold":
            fold_files.append(duration[i])
    pipeline = total["pipeline"]
    return {
        "ingest.records_per_s": expected["seen"] / total["ingest.read"],
        "ingest.bytes_per_s": counts["bytes"] / total["ingest.read"],
        "ingest.self_share": own["ingest.read"] / pipeline,
        "ingest.emitted": counts["emitted"],
        "ingest.dropped": counts["dropped"],
        "ingest.skipped": counts["skipped"],
        "ingest.emitted_ratio": counts["emitted"] / expected["seen"],
        "names.parse.names_per_s": counts["emitted"] / total["names.parse_presentation"],
        "names.parse.escaped_share": counts["escaped"] / counts["emitted"],
        "names.parse.failed": counts["parse_failed"],
        "names.self_share": own["names.parse_presentation"] / pipeline,
        "names.to_presentation.names_per_s": counts["parsed"] / total["names.to_presentation"],
        "classify.names_per_s": counts["parsed"] / total["classify.classify"],
        "classify.self_share": own["classify.classify"] / pipeline,
        "model.sender_prefix.per_s": counts["sources"] / total["model.sender_prefix"],
        "model.sender_prefix.v6_share": counts["v6_sources"] / counts["sources"],
        "report.fold.records_per_s": counts["folded"] / total["report.fold"],
        "report.fold.self_share": own["report.fold"] / pipeline,
        "report.fold.sender_prefixes": counts["sender_prefixes"],
        "report.fold.empty_senders": counts["empty_senders"],
        "report.fold.file_p50_ms": nearest_rank(fold_files, 50) * 1000,
        "report.fold.file_p90_ms": nearest_rank(fold_files, 90) * 1000,
        "report.merge.calls": counts["merge_calls"],
        "report.merge.s": total["report.merge"],
        "report.merge.keys_copied": counts["keys_copied"],
        "report.merge.self_share": own["report.merge"] / pipeline,
        "report.write.s": total["report.write_report"],
        "report.write.bytes": counts["write_bytes"],
        "report.write.self_share": own["report.write_report"] / pipeline,
        "tlds.load_s": result["tlds_load_s"],
        "import_s": result["import_s"],
        # not metrics: kept for the layer table and the overhead
        "_pipeline_s": pipeline,
        "_glue_s": own["pipeline"],
    }


def check_traced_counts(counts: dict, expected: dict) -> tuple[int, list[str]]:
    """Ingest accounting of a traced pass against what the inputs hold."""
    ingest = expected["ingest"]
    pairs = [
        ("emitted", counts["emitted"], ingest["emitted"]),
        ("dropped", counts["dropped"], ingest["dropped"]),
        ("skipped", counts["skipped"], ingest["skipped"]),
        ("names failed", counts["parse_failed"], expected["names_failed"]),
        ("emitted + dropped + skipped", counts["emitted"] + counts["dropped"] + counts["skipped"], expected["seen"]),
        ("bytes", counts["bytes"], expected["bytes"]),
    ]
    problems = [f"traced {what}: expected {want}, got {got}" for what, got, want in pairs if got != want]
    failed = sum(abs(got - want) for what, got, want in pairs if what != "bytes")
    return failed + (counts["bytes"] != expected["bytes"]), problems


def check_outputs(workload, expected: dict, outdir: Path, stem: str, label: str) -> tuple[int, list[str]]:
    import oracle

    try:
        doc = json.loads((outdir / f"{stem}.json").read_bytes())
        failed, problems = oracle.check(doc, expected)
        for fmt in workload.outputs[1:]:
            more, why = oracle.check_reformat(fmt, (outdir / f"{stem}.{fmt}").read_bytes(), expected, label)
            failed += more
            problems += why
    except (OSError, ValueError) as exc:
        return expected["seen"], [f"unreadable {stem} output: {exc}"]
    return min(failed, expected["seen"]), problems


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "roottrace").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(workload, seed: int, expected: dict) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "workload": workload.name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "input_records": expected["seen"],
        "input_bytes": expected["bytes"],
        "input_files": len(expected["paths"]),
    }


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    from reference import REFERENCE_S
    from workloads import prepare

    inputs_dir, expected, cached = prepare(workload, seed, CACHE)
    paths = [str(inputs_dir / p) for p in expected["paths"]]
    label = str(workload.year)
    seen = expected["seen"]
    outcome = {"attempted": 0, "failed": 0, "problems": []}
    samples = defaultdict(list)
    traced = []

    with tempfile.TemporaryDirectory(dir=CACHE, prefix="run-") as tmp:
        workdir = Path(tmp)
        classify_argv = ["classify", "--in", *paths, "--format", workload.fmt, "--label", label,
                         "--out", str(workdir / "e2e.json")]
        if not workload.senders:
            classify_argv.append("--no-senders")
        e2e_spec = {"commands": [classify_argv] + [
            ["report", "--in", str(workdir / "e2e.json"), "--format", fmt, "--out", str(workdir / f"e2e.{fmt}")]
            for fmt in workload.outputs[1:]
        ]}
        traced_spec = {
            "format": workload.fmt,
            "paths": paths,
            "senders": workload.senders,
            "label": label,
            "outputs": [[fmt, str(workdir / f"traced.{fmt}")] for fmt in workload.outputs],
            "meta": {"inputs": paths, "format": workload.fmt, "sample_rate": 1.0, "seed": 0,
                     "window": None, "day_origin": None, "appletalk": ["appletalk"]},
        }

        def settle(failed: int, problems: list) -> None:
            outcome["attempted"] += seen
            outcome["failed"] += failed
            outcome["problems"] += problems[:5]

        def reference() -> float | None:
            result = run_pass("reference")
            if result is None:
                outcome["problems"].append("reference pass failed")
                return None
            return result["reference_s"]

        def e2e_pass(before: float | None) -> float | None:
            """One untraced pass. before is the kernel's time just before it,
            or None for a pass that is checked but not kept. Returns the
            kernel's time after a kept pass."""
            result = run_pass("e2e", e2e_spec, workdir)
            after = None if before is None else reference()
            if result is None or any(result["exit_codes"]):
                settle(seen, [f"e2e pass failed: {result and result['exit_codes']}"])
                return after
            settle(*check_outputs(workload, expected, workdir, "e2e", label))
            if before is not None and after is not None:
                reference_s = (before + after) / 2
                samples["records_per_s"].append(seen / (result["wall_s"] * REFERENCE_S / reference_s))
                samples["wall_records_per_s"].append(seen / result["wall_s"])
                samples["reference_s"].append(reference_s)
                samples["wall_s"].append(result["wall_s"])
                samples["peak_rss_mb"].append(result["rss_mb"])
                add_setup(result, before)
            return after

        def add_setup(result: dict, before: float) -> None:
            samples["setup_s"].append(result["setup_s"] * REFERENCE_S / before)
            samples["wall_setup_s"].append(result["setup_s"])

        def traced_pass() -> None:
            result = run_pass("traced", traced_spec, workdir)
            if result is None:
                settle(seen, ["traced pass failed"])
                return
            failed, problems = check_outputs(workload, expected, workdir, "traced", label)
            more, why = check_traced_counts(result["counts"], expected)
            settle(min(seen, failed + more), problems + why)
            traced.append((layer_metrics(result, expected), result["spans"]))

        # warm-up: fills the page cache and writes bytecode; checked, not kept
        e2e_pass(None)
        # the kernel's time before a worker scales that worker's set-up
        before = reference()
        for _ in range(SETUP_ONLY_PASSES):
            result = run_pass("setup", {}, workdir)
            if result is not None and before is not None:
                add_setup(result, before)
            before = reference()
        deadline = time.perf_counter() + seconds
        while True:
            before = e2e_pass(before)
            if trace:
                traced_pass()
                before = reference()
            if time.perf_counter() >= deadline:
                break

    return {
        "expected": expected,
        "cached": cached,
        "samples": dict(samples),
        "traced": traced,
        **outcome,
    }


def summarise(names: list, values: dict) -> dict:
    out = {}
    for name in names:
        vals = values.get(name) or []
        if vals:
            q1, med, q3 = quartiles(vals)
            out[name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals)}
    return out


def run(args) -> dict:
    """One measured run of a workload; returns the stored result record."""
    spec = load_spec()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(f"perfbench: workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    m = measure(workload, args.seed, args.seconds, bool(args.trace))
    expected = m["expected"]
    info = stamp(workload, args.seed, expected)
    print("stamp: " + json.dumps(info, sort_keys=True))
    print(f"inputs: {expected['seen']} records, {expected['bytes']} bytes in {len(expected['paths'])} file(s); "
          f"generated in {expected['gen_s']:.2f} s ({'reused from cache' if m['cached'] else 'fresh'})")

    samples = m["samples"]
    if args.trace:
        per_pass = defaultdict(list)
        for metrics, _ in m["traced"]:
            for name, value in metrics.items():
                per_pass[name].append(value)
        if per_pass and samples.get("wall_s"):
            wall = statistics.median(samples["wall_s"])
            per_pass["trace.overhead_share"] = [p / wall - 1 for p in per_pass["_pipeline_s"]]
        print(f"traced passes: {len(m['traced'])}, untraced passes: {len(samples.get('wall_s', []))}")
        _print_layers(per_pass, samples)
        values = per_pass
    else:
        print(f"untraced passes: {len(samples.get('wall_s', []))} (plus 1 warm-up and {SETUP_ONLY_PASSES} set-up only)")
        values = samples

    summary = summarise([metric["name"] for metric in wanted], values)
    uncorrected = summarise(["wall_records_per_s", "wall_setup_s", "reference_s"], samples)
    lines = [(metric["name"], metric["name"], metric["unit"]) for metric in wanted] + [
        ("uncorrected records_per_s", "wall_records_per_s", "records/s"),
        ("uncorrected setup_s", "wall_setup_s", "s"),
        ("reference kernel", "reference_s", "s"),
    ]
    for label, name, unit in lines:
        s = summary.get(name) or uncorrected.get(name)
        if s:
            print(f"{label}: median {s['median']:.6g} {unit} (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    failed_fraction = m["failed"] / m["attempted"] if m["attempted"] else 1.0
    print(f"failed_fraction: {failed_fraction:.6g} fraction ({m['failed']} of {m['attempted']} records failed)")
    for problem in m["problems"][:20]:
        print(f"  problem: {problem}")

    missing = [metric["name"] for metric in wanted if metric["name"] not in summary]
    correct = m["failed"] == 0 and not m["problems"] and not missing
    if missing:
        print(f"missing metrics: {', '.join(missing)}", file=sys.stderr)

    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {
        "stamp": info, "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct, "attempted": m["attempted"], "failed": m["failed"],
        "failed_fraction": failed_fraction, "gen_s": expected["gen_s"], "cached": m["cached"],
        "summary": summary, "samples": {k: v for k, v in values.items() if not k.startswith("_")},
    }
    with open(RESULTS / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if m["traced"]:
        spans_path = RESULTS / f"spans-{workload.name}-{args.seed}.json"
        spans_path.write_text(json.dumps([spans for _, spans in m["traced"]]), encoding="utf-8")
        print(f"spans: {spans_path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": correct,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {
            metric["name"]: {"value": summary[metric["name"]]["median"], "unit": metric["unit"]}
            for metric in wanted if metric["name"] in summary
        },
    }))
    return record


def _print_layers(per_pass: dict, samples: dict) -> None:
    """Median self time and share of the traced pipeline, per layer."""
    if not per_pass:
        return
    pipeline = statistics.median(per_pass["_pipeline_s"])
    rows = [
        ("ingest", "ingest.self_share"),
        ("names (parse)", "names.self_share"),
        ("classify", "classify.self_share"),
        ("report.fold", "report.fold.self_share"),
        ("report.merge", "report.merge.self_share"),
        ("report.write", "report.write.self_share"),
    ]
    print(f"traced pipeline: median {pipeline:.4f} s")
    for label, key in rows:
        share = statistics.median(per_pass[key])
        print(f"  {label:<14} self {share * pipeline:8.4f} s  share {share:6.1%}")
    glue = statistics.median(per_pass["_glue_s"])
    print(f"  {'bench glue':<14} self {glue:8.4f} s  share {glue / pipeline:6.1%}")
    if samples.get("wall_s"):
        wall = statistics.median(samples["wall_s"])
        print(f"  cli = untraced wall {wall:.4f} s - traced layers {pipeline - glue:.4f} s = {wall - pipeline + glue:.4f} s")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from compare import main as compare_main

        return compare_main(argv[1:], load_spec())
    if not (SRC / "roottrace" / "__init__.py").is_file():
        print(f"perfbench: no roottrace sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload from BENCHMARK.json, or 'all': every workload untraced, then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    from workloads import WORKLOADS

    if args.workload != "all":
        if args.workload not in WORKLOADS:
            print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
            return 1
        return 0 if run(args)["correct"] else 1
    runs = {
        f"{name}/trace{trace}": run(argparse.Namespace(workload=name, seed=args.seed, seconds=args.seconds, trace=trace))
        for name in WORKLOADS
        for trace in (0, 1)
    }
    # one last line over every run, so a failed run cannot hide behind a later one
    correct = all(r["correct"] for r in runs.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "runs": {key: {k: r[k] for k in ("correct", "attempted", "failed")} for key, r in runs.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
