"""The oracle accepts what roottrace emits for generated inputs and rejects
deliberately wrong reports."""

import copy
import dataclasses
import json

import pytest

import oracle
from roottrace import cli
from workloads import WORKLOADS, generate


def classify_doc(tmp_path, name, files=1, records=3000, qtypes=None):
    workload = dataclasses.replace(WORKLOADS[name], files=files, records_per_file=records, prefixes=500)
    expected = generate(workload, 5, tmp_path, qtypes=qtypes)
    out = tmp_path / "report.json"
    argv = ["classify", "--in", *(str(tmp_path / p) for p in expected["paths"]),
            "--format", workload.fmt, "--label", str(workload.year), "--out", str(out)]
    if not workload.senders:
        argv.append("--no-senders")
    assert cli.main(argv) == 0
    return workload, expected, json.loads(out.read_bytes()), out


@pytest.mark.parametrize("name", ["tsv-2022", "pcap-2013-nosenders"])
def test_correct_report_passes(tmp_path, name):
    _, expected, doc, _ = classify_doc(tmp_path, name)
    assert oracle.check(doc, expected) == (0, [])
    assert expected["doc"]["totals"]["dropped_unparseable"] > 0


@pytest.mark.parametrize("name", ["tsv-2022", "pcap-2013-nosenders"])
def test_unnamed_qtype_renders_as_type_code(tmp_path, name):
    _, expected, doc, _ = classify_doc(tmp_path, name, qtypes={"A": 0.6, "AAAA": 0.3, "TYPE65": 0.1})
    assert oracle.check(doc, expected) == (0, [])
    assert doc["qtypes"]["TYPE65"] > 0
    wrong = copy.deepcopy(doc)
    wrong["qtypes"]["TYPE65"] -= 3
    wrong["qtypes"]["AAAA"] += 3
    assert oracle.check(wrong, expected)[0] > 0


def tamper_leaf(doc):
    doc["leaves"]["empty"] += 5
    doc["totals"]["records"] += 5


def tamper_top_sender(doc):
    doc["senders"]["top"][0]["prefix"] = "203.0.0.0/16"


def tamper_dropped(doc):
    doc["totals"]["dropped_unparseable"] -= 1


def tamper_qtype(doc):
    doc["qtypes"]["NS"] -= 3
    doc["qtypes"]["A"] += 3


def tamper_tld(doc):
    by_tld = doc["leaves"]["has_tld"]["valid"]["by_tld"]
    by_tld["zz-not-a-tld"] = by_tld.pop("com")


def tamper_fraction(doc):
    doc["totals"]["fractions"]["empty"] += 1e-12


@pytest.mark.parametrize("tamper", [tamper_leaf, tamper_top_sender, tamper_dropped, tamper_qtype,
                                    tamper_tld, tamper_fraction])
def test_wrong_report_fails(tmp_path, tamper):
    _, expected, doc, _ = classify_doc(tmp_path, "tsv-2022")
    wrong = copy.deepcopy(doc)
    tamper(wrong)
    failed, problems = oracle.check(wrong, expected)
    assert failed > 0 and problems


def test_unbalanced_accounting_fails(tmp_path):
    _, expected, doc, _ = classify_doc(tmp_path, "tsv-2022")
    short = dict(expected, seen=expected["seen"] + 2)
    failed, problems = oracle.check(doc, short)
    assert failed == 2
    assert problems[0].startswith("accounting")


def test_reformats_checked(tmp_path):
    workload, expected, _, out = classify_doc(tmp_path, "ditl-many-files", files=3, records=500)
    label = str(workload.year)
    for fmt in ("csv", "plotdata"):
        target = tmp_path / f"report.{fmt}"
        assert cli.main(["report", "--in", str(out), "--format", fmt, "--out", str(target)]) == 0
        data = target.read_bytes()
        assert oracle.check_reformat(fmt, data, expected, label) == (0, [])
        lines = data.decode().splitlines()
        lines[-1] = lines[-1] + "0"
        assert oracle.check_reformat(fmt, ("\n".join(lines) + "\n").encode(), expected, label)[0] > 0


def test_sender_prefix_is_canonical():
    assert oracle.sender_prefix("44.242.1.2") == "44.242.0.0/16"
    assert oracle.sender_prefix("2600:0:1f:0::5") == "2600:0:1f::/48"
    assert oracle.sender_prefix("2600:0:0:7::1") == "2600::/48"
