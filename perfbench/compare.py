"""Compare two result sets written by run.py (perfbench/results/runs.jsonl).

    python3 perfbench/run.py compare BASE.jsonl CHANGE.jsonl

For each workload, trace setting and metric it prints both sides' median
and quartiles with their run counts, the share of pairs the change wins,
and one verdict:

* improved: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the base's quartile spread;
* regressed: the change's median is worse than the base's by more than the
  metric's bound (for a metric with no bound: the base wins 9 of 10 pairs
  and the medians differ by more than the base's quartile spread);
* unresolved: the base's own spread is wider than the bound (or, with no
  bound, the medians differ by more than it) and the change does not read
  better on every run than the base on every run;
* unchanged: otherwise.

Runs are paired by seed where both sets hold the same seed: the i-th base
run of a seed with the i-th change run of that seed. Sets with no seed in
common are paired in the order the runs were made.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> dict:
    """(workload, trace) -> list of run records, in file order."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                runs[(record["workload"], record["trace"])].append(record)
    return runs


def _value(record: dict, name: str):
    entry = record["summary"].get(name)
    return None if entry is None else entry["median"]


def _by_seed(runs: list, name: str) -> dict:
    groups = defaultdict(list)
    for r in runs:
        groups[r["seed"]].append(_value(r, name))
    return groups


def _pairs(base: list, change: list, name: str) -> list:
    base_groups, change_groups = _by_seed(base, name), _by_seed(change, name)
    pairs = [pair for seed in base_groups if seed in change_groups
             for pair in zip(base_groups[seed], change_groups[seed])]
    if not pairs:
        pairs = [(_value(a, name), _value(b, name)) for a, b in zip(base, change)]
    return [(a, b) for a, b in pairs if a is not None and b is not None]


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as statistics.quantiles gives them; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(base: list, change: list, pairs: list, higher: bool, bound) -> tuple[str, float]:
    """The verdict for one metric and the share of pairs the change won."""
    def better(a, b):
        return b > a if higher else b < a

    wins = sum(1 for a, b in pairs if better(a, b))
    losses = sum(1 for a, b in pairs if better(b, a))
    share = wins / len(pairs) if pairs else 0.0
    q1, med_a, q3 = quartiles(base)
    med_b = statistics.median(change)
    spread = q3 - q1
    diff = abs(med_b - med_a)
    if pairs and wins >= 0.9 * len(pairs) and diff > spread and better(med_a, med_b):
        return "improved", share
    all_better = all(better(a, b) for a in base for b in change)
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and diff > spread:
            return "regressed", share
        return ("unchanged" if diff <= spread or all_better else "unresolved"), share
    scale = abs(med_a) or 1.0
    worse_by = (med_a - med_b if higher else med_b - med_a) / scale
    if worse_by > bound:
        return "regressed", share
    if spread / scale > bound and not all_better:
        return "unresolved", share
    return "unchanged", share


def main(argv: list, bench: dict) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BASE.jsonl CHANGE.jsonl", file=sys.stderr)
        return 1
    base_runs, change_runs = load(argv[0]), load(argv[1])
    metrics = {m["name"]: (m, 0) for m in bench["end_to_end"]}
    metrics.update({m["name"]: (m, 1) for m in bench["per_layer"]})
    print("workload\ttrace\tmetric\tunit\tbase median [q1, q3] n\tchange median [q1, q3] n\tchange wins\tverdict")
    for key in sorted(base_runs.keys() & change_runs.keys()):
        workload, trace = key
        base, change = base_runs[key], change_runs[key]
        for name, (metric, metric_trace) in metrics.items():
            if metric_trace != trace:
                continue
            a = [v for v in (_value(r, name) for r in base) if v is not None]
            b = [v for v in (_value(r, name) for r in change) if v is not None]
            if not a or not b:
                continue
            pairs = _pairs(base, change, name)
            result, share = verdict(a, b, pairs, metric["better"] == "higher", metric.get("bound"))
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload}\t{trace}\t{name}\t{metric['unit']}\t"
                  f"{qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] {len(a)}\t"
                  f"{qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {len(b)}\t"
                  f"{share:.0%} of {len(pairs)}\t{result}")
    return 0
