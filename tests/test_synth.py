import io
import math

import pytest

from roottrace.classify import classify
from roottrace.ingest import read_tsv
from roottrace.model import Leaf, TopCategory, qtype_mnemonic
from roottrace.names import parse_presentation
from roottrace.report import build_report_doc, fold
from roottrace.synth import (
    MAX_PREFIXES,
    STRATA,
    MixSpec,
    MixSpecError,
    generate,
    parse_mixspec,
    preset_years,
    tsv_bytes,
    year_mix,
)

STRATUM_LEAF = {
    "empty": Leaf.EMPTY,
    "one_word_minimized": Leaf.ONE_WORD_MINIMIZED,
    "one_word_chromium": Leaf.ONE_WORD_CHROMIUM,
    "one_word_other": Leaf.ONE_WORD_OTHER,
    "valid_tld": Leaf.VALID_TLD,
    "valid_tld_chromium": Leaf.VALID_TLD,
    "invalid_tld_appletalk": Leaf.INVALID_APPLETALK,
    "invalid_tld_bad_encoding": Leaf.INVALID_BAD_ENCODING,
    "invalid_tld_all_numeric": Leaf.INVALID_ALL_NUMERIC,
    "invalid_tld_chromium": Leaf.INVALID_CHROMIUM,
    "invalid_tld_other": Leaf.INVALID_OTHER,
}


def single_stratum_spec(stratum, seed=1):
    return MixSpec(weights={stratum: 1.0}, seed=seed, prefixes=50)


def test_degenerate_empty_mix(registry):
    pairs = list(generate(single_stratum_spec("empty"), 10, registry))
    assert len(pairs) == 10
    for rec, truth in pairs:
        assert rec.qname_raw == "."
        assert qtype_mnemonic(rec.qtype) == "NS"  # default qtype profile for root queries
        assert truth.leaf is Leaf.EMPTY


@pytest.mark.parametrize("stratum", sorted(STRATUM_LEAF))
def test_every_stratum_is_oracle_exact(stratum, registry):
    pairs = list(generate(single_stratum_spec(stratum), 500, registry))
    assert len(pairs) == 500
    for rec, truth in pairs:
        assert truth.leaf is STRATUM_LEAF[stratum]
        got = classify(parse_presentation(rec.qname_raw), registry)
        assert got == truth
    if stratum == "valid_tld_chromium":
        assert all(truth.chromium_like for _, truth in pairs)
    if stratum == "valid_tld":
        assert not any(truth.chromium_like for _, truth in pairs)


def test_seed_determinism_bytes(registry):
    spec = year_mix(2022)
    first = tsv_bytes(r for r, _ in generate(spec, 3_000, registry))
    second = tsv_bytes(r for r, _ in generate(spec, 3_000, registry))
    assert first == second
    spec_other = year_mix(2022, seed=99)
    third = tsv_bytes(r for r, _ in generate(spec_other, 3_000, registry))
    assert third != first


def test_tsv_round_trip(registry):
    records = [rec for rec, _ in generate(year_mix(2022), 2_000, registry)]
    back = list(read_tsv(io.BytesIO(tsv_bytes(records))))
    assert back == records


def test_empty_sequence_round_trip():
    assert tsv_bytes([]) == b""


def test_mix_fidelity_three_sigma(registry):
    n = 100_000
    spec = year_mix(2022)
    counts = {}
    for _, truth in generate(spec, n, registry):
        key = (truth.leaf, truth.chromium_like)
        counts[key] = counts.get(key, 0) + 1
    for stratum, weight in spec.weights.items():
        leaf = STRATUM_LEAF[stratum]
        chromium_like = stratum == "valid_tld_chromium"
        observed = counts.get((leaf, chromium_like), 0)
        bound = 3 * math.sqrt(n * weight * (1 - weight))
        assert abs(observed - n * weight) <= bound + 1, (stratum, observed, n * weight)


def test_year_presets_well_formed():
    assert preset_years() == list(range(2013, 2023))
    for year in preset_years():
        spec = year_mix(year)
        spec.validate()
        assert abs(sum(spec.weights.values()) - 1.0) < 1e-9
        assert all(w >= 0 for w in spec.weights.values())
        assert set(spec.weights) <= set(STRATA)


def test_2022_preset_matches_published_rollup(registry):
    spec = year_mix(2022)
    rollup = {cat: 0.0 for cat in TopCategory}
    for stratum, w in spec.weights.items():
        leaf = STRATUM_LEAF[stratum]
        if leaf is Leaf.EMPTY:
            rollup[TopCategory.EMPTY] += w
        elif leaf in (Leaf.ONE_WORD_MINIMIZED, Leaf.ONE_WORD_CHROMIUM, Leaf.ONE_WORD_OTHER):
            rollup[TopCategory.ONE_WORD] += w
        elif leaf is Leaf.VALID_TLD:
            rollup[TopCategory.VALID_TLD] += w
        else:
            rollup[TopCategory.INVALID_TLD] += w
    assert rollup[TopCategory.EMPTY] == pytest.approx(0.372394, abs=1e-6)
    assert rollup[TopCategory.ONE_WORD] == pytest.approx(0.194543, abs=1e-6)
    assert rollup[TopCategory.INVALID_TLD] == pytest.approx(0.260706, abs=1e-6)
    assert rollup[TopCategory.VALID_TLD] == pytest.approx(0.172357, abs=1e-6)


def test_minimized_tlds_track_configured_weights(registry):
    n = 50_000
    spec = year_mix(2022)
    com = net = org = minimized = 0
    for _, truth in generate(spec, n, registry):
        if truth.leaf is Leaf.ONE_WORD_MINIMIZED:
            minimized += 1
            com += truth.tld == "com"
            net += truth.tld == "net"
            org += truth.tld == "org"
    # com is 5.9064 of 7.9232 points of minimized mass
    assert com / minimized == pytest.approx(5.9064 / 7.9232, abs=0.03)
    assert net / minimized == pytest.approx(0.5164 / 7.9232, abs=0.02)


def test_empty_per_sender_pool(registry):
    n = 50_000
    spec = year_mix(2022)
    spec.empty_per_sender = 2.8
    senders = {}
    empty_total = 0
    for rec, truth in generate(spec, n, registry):
        if truth.leaf is Leaf.EMPTY:
            empty_total += 1
            prefix = rec.source.rsplit(":", 2)[0]
            senders[prefix] = senders.get(prefix, 0) + 1
    expected_pool = max(1, round(spec.weights["empty"] * n / 2.8))
    assert len(senders) == min(expected_pool, empty_total)
    assert empty_total / len(senders) == pytest.approx(2.8, abs=0.1)


def test_qtype_profile_override(registry):
    spec = MixSpec(
        weights={"empty": 1.0},
        qtype_weights={"empty": {"NS": 0.75, "DNSKEY": 0.25}},
        seed=3,
        prefixes=10,
    )
    counts = {"NS": 0, "DNSKEY": 0}
    for rec, _ in generate(spec, 10_000, registry):
        counts[qtype_mnemonic(rec.qtype)] += 1
    assert counts["NS"] / 10_000 == pytest.approx(0.75, abs=0.02)


def test_generate_rejects_bad_specs(registry):
    with pytest.raises(MixSpecError):
        MixSpec(weights={"empty": 0.5}).validate()  # does not sum to 1
    with pytest.raises(MixSpecError):
        MixSpec(weights={"nonsense": 1.0}).validate()
    with pytest.raises(MixSpecError):
        MixSpec(weights={"empty": 1.0}, prefixes=0).validate()
    with pytest.raises(MixSpecError):
        list(generate(MixSpec(weights={"empty": 1.0}), -1, registry))
    with pytest.raises(MixSpecError):
        list(generate(single_stratum_spec("empty"), 1, registry, appletalk_tlds=frozenset({"com"})))
    with pytest.raises(MixSpecError):
        spec = MixSpec(weights={"one_word_minimized": 1.0},
                       tld_weights={"minimized": {"zz-not-a-tld": 1.0}})
        list(generate(spec, 1, registry))
    with pytest.raises(MixSpecError):
        spec = MixSpec(weights={"invalid_tld_other": 1.0},
                       tld_weights={"invalid_other": {"com": 1.0}})
        list(generate(spec, 1, registry))
    for group, stratum in (("minimized", "one_word_minimized"), ("valid", "valid_tld"),
                           ("invalid_other", "invalid_tld_other")):
        spec = MixSpec(weights={stratum: 1.0}, tld_weights={group: {"Corp": 1.0}})
        with pytest.raises(MixSpecError, match=f"{group} TLD 'Corp' is not lowercase"):
            list(generate(spec, 1, registry))


@pytest.mark.parametrize("skew", [math.nan, math.inf, -math.inf, 66.0, 2000.0])
def test_generate_rejects_unusable_skew(skew, registry):
    # a NaN skew drew every sender from one prefix; 66 and more overflowed
    # a sender weight at MAX_PREFIXES
    spec = MixSpec(weights={"empty": 1.0}, skew=skew)
    with pytest.raises(MixSpecError, match="skew"):
        list(generate(spec, 1, registry))


def test_largest_usable_skew_generates(registry):
    spec = MixSpec(weights={"empty": 1.0}, prefixes=MAX_PREFIXES, skew=65.0)
    records = [rec for rec, _ in generate(spec, 50, registry)]
    assert len(records) == 50


def test_parse_mixspec_round_trip(registry):
    text = """
# synthetic priming trace
seed = 7
prefixes = 500
skew = 1.1
day = 2022-04-12
empty_per_sender = 2.8
weight.empty = 0.4
weight.valid_tld = 0.6
tld.valid.com = 0.7
tld.valid.other = 0.3
qtype.empty.NS = 0.972
qtype.empty.DNSKEY = 0.028
"""
    spec = parse_mixspec(text)
    assert spec.seed == 7
    assert spec.prefixes == 500
    assert spec.empty_per_sender == 2.8
    assert spec.day_origin_micros == 1_649_721_600_000_000
    assert spec.weights == {"empty": 0.4, "valid_tld": 0.6}
    pairs = list(generate(spec, 200, registry))
    assert len(pairs) == 200


def test_parse_mixspec_epoch_day():
    spec = parse_mixspec("day = 1649721600\nweight.empty = 1.0\n")
    assert spec.day_origin_micros == 1_649_721_600_000_000
    # ASCII decimal digits only: int() would also read other scripts' digits
    with pytest.raises(MixSpecError, match="bad value"):
        parse_mixspec("day = \u0661\u0666\u0664\u0669\u0667\u0662\u0661\u0666\u0660\u0660\nweight.empty = 1.0\n")
    with pytest.raises(MixSpecError, match="bad value"):
        parse_mixspec("day = \u0662\u0660\u0662\u0662-04-12\nweight.empty = 1.0\n")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("weight.empty 1.0", "expected"),
        ("bogus = 1", "unknown key"),
        ("weight.empty = x", "bad value"),
        ("weight.empty = 0.5", "sum"),
        ("tld.mystery.com = 1\nweight.empty = 1.0", "unknown tld group"),
    ],
)
def test_parse_mixspec_errors(text, fragment):
    with pytest.raises(MixSpecError) as err:
        parse_mixspec(text)
    assert fragment in str(err.value)


def test_timestamps_inside_configured_day(registry):
    spec = single_stratum_spec("empty")
    day = spec.day_origin_micros
    for rec, _ in generate(spec, 2_000, registry):
        assert day <= rec.timestamp < day + 86_400_000_000


def test_sources_mix_v4_and_v6(registry):
    spec = MixSpec(weights={"empty": 1.0}, prefixes=100, seed=5)
    sources = {rec.source for rec, _ in generate(spec, 5_000, registry)}
    assert any(":" in s for s in sources)
    assert any("." in s for s in sources)


def test_fold_of_generated_matches_top_level(registry):
    n = 100_000
    spec = year_mix(2022)
    report = fold(
        (rec, truth) for rec, truth in generate(spec, n, registry)
    )
    fractions = build_report_doc(report)["totals"]["fractions"]
    assert fractions[TopCategory.EMPTY.value] == pytest.approx(0.372394, abs=0.005)
    assert fractions[TopCategory.VALID_TLD.value] == pytest.approx(0.172357, abs=0.005)


def three_sigma(p, n):
    return 3 * math.sqrt(p * (1 - p) / n) + 1e-4


def test_2013_mix_recovers_target_rollup(registry):
    n = 100_000
    report = fold(generate(year_mix(2013), n, registry), label="2013")
    fractions = build_report_doc(report)["totals"]["fractions"]
    targets = {
        TopCategory.EMPTY: 0.029603,
        TopCategory.ONE_WORD: 0.081450,
        TopCategory.INVALID_TLD: 0.309352,
        TopCategory.VALID_TLD: 0.579595,
    }
    for cat, p in targets.items():
        assert abs(fractions[cat.value] - p) <= three_sigma(p, n), cat


def test_2020_mix_probe_series(registry):
    from roottrace.report import chromium_fractions

    n = 100_000
    doc = build_report_doc(fold(generate(year_mix(2020), n, registry), label="2020"))
    no_tld, with_tld = chromium_fractions(doc)
    assert doc["meta"]["label"] == "2020"
    assert abs(no_tld - 0.417465) <= three_sigma(0.417465, n)
    assert abs(with_tld - 0.018229) <= three_sigma(0.018229, n)


def test_2022_mix_qmin_series(registry):
    n = 100_000
    doc = build_report_doc(fold(generate(year_mix(2022), n, registry), label="2022"))
    by_tld = doc["leaves"]["one_word"]["minimized"]["by_tld"]
    other = sum(count for tld, count in by_tld.items() if tld not in ("com", "net", "org"))
    assert abs(by_tld["com"] / n - 0.059064) <= three_sigma(0.059064, n)
    assert abs(other / n - 0.013829) <= three_sigma(0.013829, n)
    assert abs(by_tld["net"] / n - 0.005164) <= three_sigma(0.005164, n)


def test_2022_mix_unexpected_fraction(registry):
    # under the default policy this is exactly 1 - (valid + minimized);
    # the value is what the generated mix implies, and the policy applied
    # is recorded in report output rather than tuned to any headline figure
    n = 100_000
    spec = year_mix(2022)
    report = fold(generate(spec, n, registry), label="2022")
    implied = 1.0 - (
        spec.weights["valid_tld"]
        + spec.weights["valid_tld_chromium"]
        + spec.weights["one_word_minimized"]
    )
    got = build_report_doc(report)["policy"]["unexpected_fraction"]
    assert implied == pytest.approx(0.748409, abs=1e-5)
    assert abs(got - implied) <= three_sigma(implied, n)
