import json

from compare import _pairs, main, verdict


def run_verdict(base, change, higher=True, bound=0.1):
    return verdict(base, change, list(zip(base, change)), higher, bound)[0]


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_improved_needs_nine_of_ten_wins_and_a_gap():
    assert run_verdict(BASE, [v * 1.05 for v in BASE]) == "improved"
    mostly = [v * 1.05 for v in BASE[:8]] + [v * 0.99 for v in BASE[8:]]
    assert run_verdict(BASE, mostly) == "unchanged"


def test_regressed_beyond_bound():
    assert run_verdict(BASE, [v * 0.85 for v in BASE]) == "regressed"
    assert run_verdict(BASE, [v * 1.15 for v in BASE], higher=False) == "regressed"


def test_within_bound_is_unchanged():
    assert run_verdict(BASE, [v * 0.97 for v in BASE]) == "unchanged"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [60.0, 140.0, 70.0, 130.0, 100.0, 90.0, 110.0, 80.0, 120.0, 100.0]
    assert run_verdict(noisy, list(reversed(noisy))) == "unresolved"


def test_metric_without_bound():
    assert run_verdict(BASE, [v * 0.8 for v in BASE], bound=None) == "regressed"
    assert run_verdict(BASE, list(BASE), bound=None) == "unchanged"


def test_main_pairs_by_seed(tmp_path, capsys):
    def write(path, factor):
        with open(path, "w") as fh:
            for seed, value in enumerate(BASE):
                fh.write(json.dumps({"workload": "w", "trace": 0, "seed": seed,
                                     "summary": {"records_per_s": {"median": value * factor}}}) + "\n")

    write(tmp_path / "a.jsonl", 1.0)
    write(tmp_path / "b.jsonl", 1.05)
    bench = {"end_to_end": [{"name": "records_per_s", "unit": "records/s", "better": "higher", "bound": 0.1}],
             "per_layer": []}
    assert main([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")], bench) == 0
    row = capsys.readouterr().out.splitlines()[1].split("\t")
    assert row[:3] == ["w", "0", "records_per_s"]
    assert row[-2:] == ["100% of 10", "improved"]


def test_repeated_seed_pairs_run_by_run():
    def runs(values):
        return [{"seed": 7177, "summary": {"m": {"median": v}}} for v in values]

    base, change = runs(BASE), runs([v * 1.05 for v in BASE])
    assert _pairs(base, change, "m") == [(a, a * 1.05) for a in BASE]
    mixed = runs(BASE[:5]) + [{"seed": 1, "summary": {"m": {"median": 50.0}}}]
    assert _pairs(mixed, runs(BASE[5:]) + [{"seed": 1, "summary": {"m": {"median": 60.0}}}], "m") == (
        list(zip(BASE[:5], BASE[5:])) + [(50.0, 60.0)])
