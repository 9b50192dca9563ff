import csv
import json
import os
import random
import subprocess
import sys
from itertools import accumulate
from pathlib import Path

import pytest

from roottrace.cli import main
from roottrace.ingest import sampler
from test_ingest import dns_payload, pcap_file, udp4
from test_report import parent_and_key

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def trace(tmp_path):
    path = tmp_path / "t.tsv"
    assert run("gen", "--preset", "2022", "--count", "5000", "--seed", "11",
               "--out", str(path)) == 0
    return path


def test_gen_then_classify_round_trip(tmp_path, trace):
    out = tmp_path / "r.json"
    assert run("classify", "--in", str(trace), "--label", "2022", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["totals"]["records"] == 5000
    assert doc["totals"]["dropped_unparseable"] == 0
    assert doc["meta"]["label"] == "2022"
    assert doc["totals"]["fractions"]["empty"] == pytest.approx(0.3724, abs=0.03)
    assert doc["policy"]["unexpected_fraction"] > 0.5


def test_classify_deterministic_bytes(tmp_path, trace):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["classify", "--in", str(trace), "--label", "x", "--seed", "3",
            "--sample-rate", "0.5"]
    assert run(*args, "--out", str(out1)) == 0
    assert run(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_classify_missing_file_is_runtime_error(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = run("classify", "--in", str(tmp_path / "nope.tsv"), "--out", str(out))
    assert rc == 2
    assert not out.exists()
    assert "roottrace:" in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        run("classify", "--out", "x.json")  # --in missing
    assert err.value.code == 1


def test_classify_bad_top_k_is_usage_error_before_ingest(tmp_path):
    with pytest.raises(SystemExit) as err:
        run("classify", "--top-k", "0", "--in", str(tmp_path / "missing.tsv"),
            "--out", str(tmp_path / "r.json"))
    assert err.value.code == 1


def test_unknown_command_exits_one():
    with pytest.raises(SystemExit) as err:
        run("frobnicate")
    assert err.value.code == 1


def test_window_requires_day_origin(tmp_path, trace):
    with pytest.raises(SystemExit) as err:
        run("classify", "--in", str(trace), "--window", "06:00-07:00",
            "--out", str(tmp_path / "r.json"))
    assert err.value.code == 1


@pytest.mark.parametrize("window", ["10:00-09:00", "10:00-10:00", "23:00-24:30", "10:99-12:00", "10:00-11:60",
                                    # int() takes a sign, spaces, _ and other scripts' digits
                                    "+6:00-07:00", " 6:00-07:00", "0_6:00-07:00", "\u0666:00-07:00"])
def test_bad_window_is_usage_error_before_ingest(tmp_path, window):
    with pytest.raises(SystemExit) as err:
        run("classify", "--in", str(tmp_path / "missing.tsv"), "--window", window,
            "--day-origin", "2022-04-12", "--out", str(tmp_path / "r.json"))
    assert err.value.code == 1


@pytest.mark.parametrize("day", ["\u0661\u0666\u0664\u0669\u0667\u0662\u0661\u0666\u0660\u0660", "+1649721600",
                                 "2022-04-1x"])
def test_bad_day_origin_is_usage_error_before_ingest(tmp_path, day):
    with pytest.raises(SystemExit) as err:
        run("classify", "--in", str(tmp_path / "missing.tsv"), "--window", "06:00-07:00",
            "--day-origin", day, "--out", str(tmp_path / "r.json"))
    assert err.value.code == 1


def test_window_may_end_at_midnight(tmp_path, trace):
    out = tmp_path / "r.json"
    assert run("classify", "--in", str(trace), "--window", "00:00-24:00",
               "--day-origin", "2022-04-12", "--out", str(out)) == 0
    assert json.loads(out.read_text())["totals"]["records"] == 5000


def test_classify_with_window(tmp_path, trace):
    out = tmp_path / "r.json"
    assert run("classify", "--in", str(trace), "--window", "06:00-07:00",
               "--day-origin", "2022-04-12", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    # a 1-hour slice of a uniform day holds ~1/24 of the records
    assert 0 < doc["totals"]["records"] < 500


def test_classify_merges_multiple_inputs(tmp_path, trace):
    out = tmp_path / "r.json"
    assert run("classify", "--in", str(trace), str(trace), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["totals"]["records"] == 10_000


def test_classify_same_report_however_inputs_are_split(tmp_path, trace):
    lines = trace.read_bytes().splitlines(keepends=True)
    first, second = tmp_path / "a.tsv", tmp_path / "b.tsv"
    first.write_bytes(b"".join(lines[:1700]))
    second.write_bytes(b"".join(lines[1700:]))
    whole, split = tmp_path / "whole.json", tmp_path / "split.json"
    assert run("classify", "--in", str(trace), "--label", "b+a", "--out", str(whole)) == 0
    assert run("classify", "--in", str(first), str(second), "--label", "b+a", "--out", str(split)) == 0
    docs = [json.loads(path.read_text()) for path in (whole, split)]
    assert docs[0]["meta"]["label"] == docs[1]["meta"]["label"] == "b+a"
    for doc in docs:
        doc["meta"].pop("inputs")
    assert json.dumps(docs[0], sort_keys=True, indent=2) == json.dumps(docs[1], sort_keys=True, indent=2)
    assert docs[0]["senders"]["count"] > 10


def test_classify_samples_each_input_from_the_seed(tmp_path, trace):
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    args = ["--sample-rate", "0.3", "--seed", "5"]
    assert run("classify", "--in", str(trace), *args, "--out", str(once)) == 0
    assert run("classify", "--in", str(trace), str(trace), *args, "--out", str(twice)) == 0
    one, two = (json.loads(path.read_text()) for path in (once, twice))
    assert 0 < one["totals"]["records"] < 5000
    assert two["totals"]["records"] == 2 * one["totals"]["records"]
    assert two["qtypes"] == {m: 2 * n for m, n in one["qtypes"].items()}


def test_classify_sample_seed_recorded(tmp_path, trace):
    out = tmp_path / "r.json"
    assert run("classify", "--in", str(trace), "--sample-rate", "0.25",
               "--seed", "9", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["sample_rate"] == 0.25
    assert doc["meta"]["seed"] == 9
    assert 1000 < doc["totals"]["records"] < 1500
    assert "registry" in doc["meta"]


def test_a_sampled_classify_counts_the_drops_of_the_sample(tmp_path):
    """dropped_unparseable counts the malformed lines, names that fail to
    parse and undecodable pcap queries at kept offsets only; the others are
    never decoded."""
    rng = random.Random(3)
    kinds = [rng.choice(["good", "good", "junk", "bad name", "blank"]) for _ in range(600)]
    text = {"good": b"1649721600000000\t44.242.1.%d\tIN\tA\tex%d.com.\n", "junk": b"junk line %d %d\n",
            "bad name": b"1649721600000000\t44.242.1.%d\tIN\tA\tbad..name%d.\n"}
    lines = [b"\n" if kind == "blank" else text[kind] % (i % 250, i) for i, kind in enumerate(kinds)]
    frames = {"good": udp4("10.0.0.1", dns_payload([b"com"], 1)),
              "junk": udp4("10.0.0.1", dns_payload([], 1, name_override=b"\xc0\x0c\x00")),  # a compressed name
              "bad name": udp4("10.0.0.1", dns_payload([], 1, qdcount=0)),  # no question
              "blank": udp4("10.0.0.1", dns_payload([b"com"], 2, qr=1))}  # a response, skipped
    inputs = {
        "tsv": (b"".join(lines), accumulate(map(len, lines), initial=0)),
        "pcap": (pcap_file([frames[kind] for kind in kinds]),
                 accumulate((16 + len(frames[kind]) for kind in kinds), initial=24)),
    }
    keep = sampler(0.3, 5)
    for fmt, (data, starts) in inputs.items():
        path, out = tmp_path / f"t.{fmt}", tmp_path / f"{fmt}.json"
        path.write_bytes(data)
        sampled = [kind for kind, start in zip(kinds, starts) if keep(start)]

        def totals(*options):
            assert run("classify", "--in", str(path), "--format", fmt, *options, "--out", str(out)) == 0
            return json.loads(out.read_text())["totals"]

        whole = totals()
        assert whole["dropped_unparseable"] == kinds.count("junk") + kinds.count("bad name"), fmt
        got = totals("--sample-rate", "0.3", "--seed", "5")
        assert got["records"] == sampled.count("good"), fmt
        assert got["dropped_unparseable"] == sampled.count("junk") + sampled.count("bad name"), fmt
        assert 0 < got["dropped_unparseable"] < whole["dropped_unparseable"], fmt


def test_report_reformat_csv_and_plotdata(tmp_path, trace):
    report = tmp_path / "r.json"
    run("classify", "--in", str(trace), "--label", "2022", "--out", str(report))
    csv_out = tmp_path / "r.csv"
    assert run("report", "--in", str(report), "--format", "csv", "--out", str(csv_out)) == 0
    lines = csv_out.read_text().strip().split("\n")
    assert lines[0] == "label,empty,one_word,invalid_tld,valid_tld"
    assert lines[1].startswith("2022,")

    plot_out = tmp_path / "r.tsv"
    assert run("report", "--in", str(report), "--format", "plotdata", "--out", str(plot_out)) == 0
    assert "# series: top_level_fractions" in plot_out.read_text()


def test_malformed_report_doc_is_runtime_error(tmp_path, trace, capsys):
    report = tmp_path / "r.json"
    run("classify", "--in", str(trace), "--out", str(report))
    doc = json.loads(report.read_text())
    del doc["senders"]
    no_senders = tmp_path / "no-senders.json"
    no_senders.write_text(json.dumps(doc))
    not_object = tmp_path / "string.json"
    not_object.write_text('"meta totals leaves qtypes"')
    too_deep = tmp_path / "deep.json"
    too_deep.write_text('{"meta": ' + "[" * 100_000 + "]" * 100_000 + "}")
    out = tmp_path / "out"
    assert run("report", "--in", str(no_senders), "--format", "plotdata", "--out", str(out)) == 2
    assert "missing 'senders'" in capsys.readouterr().err
    for bad, message in ((not_object, "not a JSON object"), (too_deep, "nested too deeply")):
        for argv in (["report", "--in", str(bad), "--format", "csv"],
                     ["trend", "--in", str(report), str(bad)]):
            assert run(*argv, "--out", str(out)) == 2
            assert message in capsys.readouterr().err
    assert not out.exists()

    # wrong contents under the right keys; missing deletes the key
    missing = object()
    for path, value, message in (
        ("senders.top[0].categories", missing, "missing 'senders.top[0].categories'"),
        ("totals.fractions.empty", missing, "missing 'totals.fractions.empty'"),
        ("totals.fractions", missing, "missing 'totals.fractions'"),
        ("meta.label", 2013, "'meta.label' holds 2013"),
        ("totals.records", "x", "'totals.records' holds \"x\""),
        ("senders.top", 5, "'senders.top' holds 5"),
        ("leaves.empty", True, "'leaves.empty' holds true"),
    ):
        doc = json.loads(report.read_text())
        node, key = parent_and_key(doc, path)
        if value is missing:
            del node[key]
        else:
            node[key] = value
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        for argv in (["report", "--in", str(broken), "--format", "csv"],
                     ["report", "--in", str(broken), "--format", "plotdata"],
                     ["trend", "--in", str(report), str(broken)]):
            assert run(*argv, "--out", str(out)) == 2, (path, argv[0])
            assert message in capsys.readouterr().err
        assert not out.exists()


def test_report_takes_one_input(tmp_path, trace):
    report = tmp_path / "r.json"
    run("classify", "--in", str(trace), "--out", str(report))
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as err:
        run("report", "--in", str(report), "--in", str(report), "--out", str(out))
    assert err.value.code == 1
    assert not out.exists()


def test_comma_label_keeps_five_csv_fields(tmp_path, trace):
    report = tmp_path / "r.json"
    run("classify", "--in", str(trace), "--label", "2013,b", "--out", str(report))
    csv_out = tmp_path / "r.csv"
    trend_out = tmp_path / "trend.csv"
    assert run("report", "--in", str(report), "--format", "csv", "--out", str(csv_out)) == 0
    assert run("trend", "--in", str(report), "--out", str(trend_out)) == 0
    for path in (csv_out, trend_out):
        rows = list(csv.reader(path.read_text().splitlines()))
        assert [len(row) for row in rows] == [5, 5]
        assert rows[1][0] == "2013,b"


def test_trend_over_years(tmp_path):
    reports = []
    for year in (2013, 2022):
        trace = tmp_path / f"{year}.tsv"
        run("gen", "--preset", str(year), "--count", "4000", "--out", str(trace))
        report = tmp_path / f"{year}.json"
        run("classify", "--in", str(trace), "--label", str(year), "--out", str(report))
        reports.append(str(report))
    out = tmp_path / "trend.csv"
    assert run("trend", "--in", *reports, "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "2013"
    assert lines[2].split(",")[0] == "2022"
    empty_2013 = float(lines[1].split(",")[1])
    empty_2022 = float(lines[2].split(",")[1])
    assert empty_2013 < 0.06 and empty_2022 > 0.3


def test_top_senders_table(tmp_path, trace):
    out = tmp_path / "senders.csv"
    assert run("top-senders", "--in", str(trace), "-k", "5", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "prefix,total,empty,one_word,invalid_tld,valid_tld"
    assert len(lines) == 6
    totals = [int(l.split(",")[1]) for l in lines[1:]]
    assert totals == sorted(totals, reverse=True)


def test_top_senders_empty_table(tmp_path, trace):
    out = tmp_path / "empty.csv"
    assert run("top-senders", "--in", str(trace), "--empty", "-k", "3", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "prefix,total,qtypes"
    assert "NS=" in lines[1]


@pytest.mark.parametrize("bad", ["out", "truth"])
@pytest.mark.parametrize("other", ["absent", "present"])
def test_gen_leaves_both_files_alone_where_one_cannot_be_opened(tmp_path, capsys, bad, other):
    paths = {"out": tmp_path / "t.tsv", "truth": tmp_path / "t.truth"}
    paths[bad] = tmp_path / "missing_dir" / paths[bad].name
    kept = paths["truth" if bad == "out" else "out"]
    if other == "present":
        kept.write_bytes(b"keep\n")
    rc = run("gen", "--preset", "2022", "--count", "10", "--out", str(paths["out"]),
             "--truth-out", str(paths["truth"]))
    assert rc == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == ([kept] if other == "present" else [])
    if other == "present":
        assert kept.read_bytes() == b"keep\n"


@pytest.mark.parametrize("truth, present", [
    ("f", True), ("f", False), ("./f", True), ("./f", False), ("link", True),  # a hard link needs its file
])
def test_gen_refuses_one_file_for_both_outputs(tmp_path, monkeypatch, capsys, truth, present):
    monkeypatch.chdir(tmp_path)
    if present:
        Path("f").write_bytes(b"keep\n")
        os.link("f", "link")
    rc = run("gen", "--preset", "2022", "--count", "5", "--out", "f", "--truth-out", truth)
    assert rc == 2
    assert capsys.readouterr().err == f"roottrace: f and {truth} name one file\n"
    assert sorted(os.listdir()) == (["f", "link"] if present else [])
    if present:
        assert Path("f").read_bytes() == b"keep\n"


def test_gen_writes_both_outputs_to_one_device(capsys):
    # a pipe, a terminal or /dev/null holds nothing that one handle could write over
    assert run("gen", "--preset", "2022", "--count", "5", "--out", os.devnull, "--truth-out", os.devnull) == 0
    assert capsys.readouterr().err == ""


def test_gen_truth_file(tmp_path):
    trace = tmp_path / "t.tsv"
    truth = tmp_path / "t.truth"
    assert run("gen", "--preset", "2020", "--count", "300", "--out", str(trace),
               "--truth-out", str(truth)) == 0
    truth_lines = truth.read_text().strip().split("\n")
    assert len(truth_lines) == 300
    assert all(len(l.split("\t")) == 3 for l in truth_lines)
    assert len(trace.read_bytes().strip().split(b"\n")) == 300


def test_gen_rejects_a_year_without_a_preset(tmp_path, capsys):
    out = tmp_path / "t.tsv"
    with pytest.raises(SystemExit) as err:
        run("gen", "--preset", "1999", "--count", "10", "--out", str(out))
    assert err.value.code == 1
    assert "invalid choice: 1999 (choose from 2013, " in capsys.readouterr().err
    assert not out.exists()


def test_gen_rejected_arguments_leave_the_out_files_alone(tmp_path, capsys):
    out = tmp_path / "out.tsv"
    out.write_bytes(b"keep\n")
    truth = tmp_path / "truth.txt"
    rc = run("gen", "--preset", "2022", "--count", "10", "--appletalk", "com",
             "--out", str(out), "--truth-out", str(truth))
    assert rc == 2
    assert "appletalk TLD 'com' is in the registry" in capsys.readouterr().err
    assert out.read_bytes() == b"keep\n"
    assert not truth.exists()


def test_gen_from_spec_file(tmp_path):
    spec = tmp_path / "mix.cfg"
    spec.write_text("seed = 5\nweight.empty = 1.0\nqtype.empty.NS = 1\n")
    out = tmp_path / "t.tsv"
    assert run("gen", "--spec", str(spec), "--count", "10", "--out", str(out)) == 0
    lines = out.read_bytes().strip().split(b"\n")
    assert len(lines) == 10
    assert all(l.endswith(b"\tIN\tNS\t.") for l in lines)


def test_gen_bad_spec_is_runtime_error(tmp_path, capsys):
    spec = tmp_path / "bad.cfg"
    spec.write_text("weight.empty = 0.4\n")
    rc = run("gen", "--spec", str(spec), "--count", "10", "--out", str(tmp_path / "t.tsv"))
    assert rc == 2


def test_gen_rejects_mixed_case_tld_keys(tmp_path, capsys):
    # the classifier reports TLDs lowercase, so truth lines must not say COM
    spec = tmp_path / "mixed.cfg"
    spec.write_text("weight.valid_tld = 0.5\nweight.one_word_minimized = 0.5\n"
                    "tld.valid.COM = 1\ntld.minimized.NET = 1\n")
    out = tmp_path / "t.tsv"
    rc = run("gen", "--spec", str(spec), "--count", "10", "--out", str(out),
             "--truth-out", str(tmp_path / "t.truth"))
    assert rc == 2
    assert "valid TLD 'COM' is not lowercase" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("skew", ["2000", "nan"])
def test_gen_rejects_unusable_skew(tmp_path, capsys, skew):
    spec = tmp_path / "skew.cfg"
    spec.write_text(f"weight.empty = 1.0\nskew = {skew}\n")
    out = tmp_path / "t.tsv"
    assert run("gen", "--spec", str(spec), "--count", "10", "--out", str(out)) == 2
    assert "skew" in capsys.readouterr().err
    assert not out.exists()


def test_custom_tld_list(tmp_path):
    tlds = tmp_path / "tlds.txt"
    tlds.write_text("ZZ\n")
    trace = tmp_path / "t.tsv"
    trace.write_bytes(b"1\t1.2.3.4\tIN\tA\tfoo.zz.\n1\t1.2.3.4\tIN\tA\tfoo.com.\n")
    out = tmp_path / "r.json"
    assert run("classify", "--in", str(trace), "--tld-list", str(tlds), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["leaves"]["has_tld"]["valid"]["by_tld"] == {"zz": 1}
    assert doc["leaves"]["has_tld"]["invalid"]["other"]["by_tld"] == {"com": 1}


def test_appletalk_flag(tmp_path):
    trace = tmp_path / "t.tsv"
    trace.write_bytes(b"1\t1.2.3.4\tIN\tA\tbox.printerzone.\n")
    out = tmp_path / "r.json"
    assert run("classify", "--in", str(trace), "--appletalk", "appletalk,printerzone",
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["leaves"]["has_tld"]["invalid"]["appletalk"] == 1


def test_appletalk_flag_folds_ascii_only(tmp_path):
    trace = tmp_path / "t.tsv"
    trace.write_bytes(b"1\t1.2.3.4\tIN\tA\tbox.printerzone.\n")
    out = tmp_path / "r.json"
    assert run("classify", "--in", str(trace), "--appletalk", " PrinterZone ,APPLETALK",
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["appletalk"] == ["appletalk", "printerzone"]
    assert doc["leaves"]["has_tld"]["invalid"]["appletalk"] == 1


@pytest.mark.parametrize("entry", ["\u212a", "\u00c0PPLETALK", "appletalk\u00a0"])
def test_appletalk_flag_rejects_non_ascii_entry(tmp_path, capsys, entry):
    # KELVIN SIGN lowers to ASCII 'k', and no wire label matches 'àppletalk'
    trace = tmp_path / "t.tsv"
    trace.write_bytes(b"1\t1.2.3.4\tIN\tA\tbox.k.\n")
    for command in (["classify", "--in", str(trace)], ["gen", "--preset", "2022", "--count", "1"]):
        with pytest.raises(SystemExit) as err:
            run(*command, "--appletalk", f"printerzone,{entry}", "--out", str(tmp_path / "r"))
        assert err.value.code == 1
        assert f"--appletalk entry {entry!r} is not ASCII" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_pcap_classify_end_to_end(tmp_path):
    from test_ingest import dns_payload, pcap_file, udp4

    frames = [udp4("44.242.1.2", dns_payload([b"com"], 2)) for _ in range(3)]
    pcap = tmp_path / "t.pcap"
    pcap.write_bytes(pcap_file(frames))
    out = tmp_path / "r.json"
    assert run("classify", "--in", str(pcap), "--format", "pcap", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["totals"]["records"] == 3
    assert doc["leaves"]["one_word"]["minimized"]["total"] == 3


def test_pcap_corrupt_caplen_is_runtime_error(tmp_path, capsys):
    from test_ingest import dns_payload, pcap_file, udp4, with_caplen

    frame = udp4("44.242.1.2", dns_payload([b"com"], 2))
    pcap = tmp_path / "t.pcap"
    pcap.write_bytes(with_caplen(pcap_file([frame]), 24, 0xFFFFFFF0))
    out = tmp_path / "r.json"
    assert run("classify", "--in", str(pcap), "--format", "pcap", "--out", str(out)) == 2
    assert "corrupt pcap record at byte 24" in capsys.readouterr().err
    assert not out.exists()


def test_module_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "roottrace", "--version"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("roottrace ")


def test_no_senders_flag(tmp_path, trace):
    out = tmp_path / "r.json"
    assert run("classify", "--in", str(trace), "--no-senders", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["senders"] == {"tracked": False}
    assert "top" not in doc["senders"]


def synth_loaded_after(code: str, *args) -> bool:
    """Whether a fresh interpreter has loaded the load generator after
    running code with these arguments."""
    proc = subprocess.run([sys.executable, "-c", f"import sys\n{code}\nprint('roottrace.synth' in sys.modules)",
                           *map(str, args)], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_a_tsv_run_loads_no_address_library(tmp_path, trace):
    """A TSV classify loads neither socket nor ipaddress, and a sampled one
    neither random nor the generator either: set-up time is import time.
    -S, as a site-packages .pth file may import any of them first."""
    code = ("import sys\nfrom roottrace.cli import main\nassert main(sys.argv[1:]) == 0\n"
            "print(sorted(m for m in ('socket', 'ipaddress', 'random', 'roottrace.synth') if m in sys.modules))")
    for options in ([], ["--sample-rate", "0.3"]):
        argv = ["classify", *options, "--in", str(trace), "--out", str(tmp_path / "r.json")]
        proc = subprocess.run([sys.executable, "-S", "-c", code, *argv],
                              capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", options


def test_only_generating_loads_the_generator(tmp_path, trace):
    report = tmp_path / "r.json"
    assert run("classify", "--in", str(trace), "--out", str(report)) == 0
    command = "from roottrace.cli import main\nassert main(sys.argv[1:]) == 0"
    assert not synth_loaded_after("import roottrace")
    assert not synth_loaded_after("import roottrace.cli\nroottrace.cli.build_parser()")
    assert not synth_loaded_after(command, "classify", "--in", trace, "--out", tmp_path / "c.json")
    assert not synth_loaded_after(command, "top-senders", "--in", trace, "--out", tmp_path / "t.csv")
    assert not synth_loaded_after(command, "report", "--in", report, "--out", tmp_path / "r.csv")
    window = ["--window", "00:00-12:00", "--day-origin", "2022-04-12"]
    assert not synth_loaded_after(command, "classify", "--in", trace, *window, "--out", tmp_path / "w.json")
    # the generator's names still resolve from the package, and its command loads it
    assert synth_loaded_after("import roottrace\nassert roottrace.generate and roottrace.MixSpec")
    assert synth_loaded_after(command, "gen", "--preset", "2013", "--count", "10", "--out", tmp_path / "g.tsv")
