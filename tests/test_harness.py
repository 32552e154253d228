"""Predicates, boosting, implication trials, reports, and sharpness probes."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvop
from curvop import cli, harness
from curvop import (
    ParameterOutOfRange,
    ParseError,
    Spectrum,
    eigen_sym,
    isotropic_value,
    k_alpha_value,
    second_kind_matrix,
)
from curvop.conditions import min_isotropic_batch
from curvop.harness import (
    CONCLUSIONS,
    PredicateSpec,
    boost_to_hypothesis,
    emit_report,
    implication_trial,
    parse_predicate,
    replay_counterexample,
    sharpness_probe,
)
from curvop.tensor import _pair_index


def test_parse_predicate_forms():
    p = parse_predicate("k4a0.5strict")
    assert p == PredicateSpec(k=4, alpha=0.5, strict=True)
    assert p.name == "k4a0.5strict"
    q = parse_predicate("k5a0.6nonneg")
    assert q.strict is False and q.k == 5 and q.alpha == 0.6
    # the strictness suffix defaults to strict
    assert parse_predicate("k4a0.5") == p
    # conclusions are names, not hypotheses
    for conclusion in ("pic", "ric"):
        with pytest.raises(ParseError):
            parse_predicate(conclusion)


@pytest.mark.parametrize("bad", ["", "k4", "a0.5", "k4a0.5loose", "kxa0.5", "k4a0..5strict",
                                 "k4a.", "k4a1.2.3"])
def test_parse_predicate_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_predicate(bad)


def test_boost_reaches_hypothesis():
    pred = parse_predicate("k4a0.5strict")
    t = curvop.random_curvature(4, seed=(3, 1))
    boosted, spectrum, value, amount = boost_to_hypothesis(t, pred)
    assert amount > 0.0
    assert value > 0.0
    sigma = np.sort(spectrum.eigenvalues)
    assert value == pytest.approx(sigma[:4].sum() + 0.5 * sigma[4], abs=1e-10)
    # the boost is a round-sphere shift: traceless part untouched
    diff = boosted.array - t.array
    sphere = curvop.constant_curvature(4, 1.0).array
    scale = diff[0, 1, 0, 1]
    assert np.abs(diff - scale * sphere).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 5, 6, 8]), st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=-8.0, max_value=8.0),
       st.sampled_from(["k4a0.5strict", "k4a0.5nonneg", "k1a0strict", "k5a0.6strict"]))
def test_boost_shifts_by_the_closed_form_amount(n, seed, exponent, name):
    pred = parse_predicate(name)
    t = curvop.random_curvature(n, seed=seed, scale=10.0 ** exponent)
    before = k_alpha_value(eigen_sym(second_kind_matrix(t), vectors=False), pred.k, pred.alpha)
    _, _, value, amount = boost_to_hypothesis(t, pred)
    assert value > 0.0
    if before > 0.0:
        assert amount == 0.0 and value == before
    else:
        threshold = -before / (pred.k + pred.alpha)
        assert amount == threshold * (1.0 + 0.05) + 0.05 * max(1.0, abs(threshold))


def test_boost_raises_when_the_shift_misses(monkeypatch):
    monkeypatch.setattr(curvop.harness, "shift", lambda t1, t2, amount: t1)
    with pytest.raises(ParameterOutOfRange, match="failing"):
        boost_to_hypothesis(curvop.random_curvature(4, seed=(3, 1)), parse_predicate("k4a0.5strict"))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_search_reports_the_value_of_its_frame_bit_for_bit(n):
    pred = parse_predicate("k4a0.5strict")
    samples = [boost_to_hypothesis(curvop.random_curvature(n, seed=(n, i)), pred)[0]
               for i in range(20)]
    for t, r in zip(samples, min_isotropic_batch(samples, 5, [(n, i, 1) for i in range(20)])):
        assert r.best_value == isotropic_value(t, r.best_frame)


def test_boost_is_identity_when_already_passing():
    pred = parse_predicate("k4a0.5strict")
    t = curvop.constant_curvature(4, 1.0)
    boosted, _, value, amount = boost_to_hypothesis(t, pred)
    assert amount == 0.0
    assert np.array_equal(boosted.array, t.array)
    assert value == pytest.approx(4.5, abs=1e-12)


def test_implication_trial_is_deterministic():
    a = implication_trial(4, "k4a0.5strict", "ric", trials=5, seed=11)
    b = implication_trial(4, "k4a0.5strict", "ric", trials=5, seed=11)
    assert a.to_dict() == b.to_dict()
    assert a.trials_attempted == 5
    assert a.trials_passing == 5
    assert a.verdict == "consistent"
    assert a.dim == 4 and a.seed == 11
    assert a.hypothesis == "k4a0.5strict" and a.conclusion == "ric"


def test_implication_trial_weak_hypothesis_finds_counterexamples():
    # positivity of the full eigenvalue sum does not control Ricci
    rep = implication_trial(4, "k9a0strict", "ric", trials=4, seed=123)
    assert rep.verdict == "counterexample"
    assert len(rep.counterexamples) > 0
    ce = rep.counterexamples[0]
    assert ce.trial == 0
    assert ce.hypothesis_value == pytest.approx(2.907034, abs=1e-5)
    assert ce.conclusion_value == pytest.approx(-1.002853, abs=1e-5)
    assert ce.conclusion_value < 0.0


def test_replay_counterexample_matches_logged_tensor():
    rep = implication_trial(4, "k9a0strict", "ric", trials=3, seed=123)
    for i, ce in enumerate(rep.counterexamples):
        t = replay_counterexample(rep, i)
        assert np.array_equal(t.array, ce.tensor.array)
        # logged values are recomputable from the replayed tensor
        assert curvop.ricci_min(t) == pytest.approx(ce.conclusion_value, abs=1e-9)
    with pytest.raises(ParameterOutOfRange):
        replay_counterexample(rep, len(rep.counterexamples))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_boost_equals_a_shift_by_a_freshly_built_sphere_byte_for_byte(n):
    # the boost shifts by one cached sphere per n; the reference builds the
    # sphere anew for every shift
    shifted = 0
    for name in ("k4a0.5strict", "k9a0strict", "k1a0nonneg"):
        pred = parse_predicate(name)
        for seed in range(6):
            t = curvop.random_curvature(n, seed=(17, n, seed))
            boosted, spectrum, value, amount = boost_to_hypothesis(t, pred)
            expected = t
            if amount != 0.0:
                shifted += 1
                expected = curvop.shift(t, curvop.constant_curvature(n, 1.0), amount)
            assert boosted.array.tobytes() == expected.array.tobytes()
            reference = eigen_sym(second_kind_matrix(expected), vectors=False).eigenvalues
            assert spectrum.eigenvalues.tobytes() == reference.tobytes()
            assert value == k_alpha_value(Spectrum(reference, None, None), pred.k, pred.alpha)
    assert shifted > 0


def test_replay_equals_a_shift_by_a_freshly_built_sphere_byte_for_byte():
    rep = implication_trial(4, "k9a0strict", "ric", trials=30, seed=8)
    assert any(ce.shift_amount != 0.0 for ce in rep.counterexamples)
    for i, ce in enumerate(rep.counterexamples):
        expected = curvop.random_curvature(4, seed=ce.seed_material)
        if ce.shift_amount != 0.0:
            expected = curvop.shift(expected, curvop.constant_curvature(4, 1.0), ce.shift_amount)
        assert replay_counterexample(rep, i).array.tobytes() == expected.array.tobytes()
        assert ce.tensor.array.tobytes() == expected.array.tobytes()


@pytest.mark.parametrize("n", [2, 4, 8])
def test_cached_sphere_and_pair_index_are_read_only(n):
    sphere = harness._unit_sphere(n)
    assert harness._unit_sphere(n) is sphere
    assert np.array_equal(sphere.array, curvop.constant_curvature(n, 1.0).array)
    pairs = _pair_index(n)
    assert _pair_index(n) is pairs
    for index, expected in zip(pairs, np.triu_indices(n, 1)):
        assert np.array_equal(index, expected)
    for array in (sphere.array, *pairs):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def test_ric_trial_is_unchanged_by_trials_in_other_dimensions_between():
    first = implication_trial(4, "k9a0strict", "ric", trials=20, seed=31).to_dict()
    for n in (6, 5, 8):
        implication_trial(n, "k4a0.5strict", "ric", trials=3, seed=31)
    assert implication_trial(4, "k9a0strict", "ric", trials=20, seed=31).to_dict() == first
    assert first["counterexamples"] and first["shiftsApplied"] > 0


def test_pic_counterexamples_replay_bit_for_bit():
    # the samples of a run descend as one batch; each logged conclusion value
    # must equal a search of the replayed tensor on its own
    rep = implication_trial(4, "k9a0strict", "pic", trials=40, seed=123, pic_trials=3)
    assert len(rep.counterexamples) > 0
    for i, ce in enumerate(rep.counterexamples):
        alone = curvop.min_isotropic(replay_counterexample(rep, i), 3, seed=(123, ce.trial, 1))
        assert ce.conclusion_value == alone.best_value


def test_implication_trial_validates_inputs():
    with pytest.raises(ParameterOutOfRange):
        implication_trial(4, "k4a0.5strict", "ric", trials=0)
    with pytest.raises(ParseError):
        implication_trial(4, "bogus", "ric", trials=1)
    # the conclusion is "pic" or "ric"; a hypothesis there is refused
    for conclusion in ("k4a0.5strict", "PIC", PredicateSpec(4, 0.5)):
        with pytest.raises(ParameterOutOfRange):
            implication_trial(4, "k4a0.5strict", conclusion, trials=1)


@pytest.mark.parametrize("hypothesis", ["k9a0.5strict", "k0a0.5strict", "k4a1.5strict"])
def test_hypotheses_outside_the_spectrum_are_refused(hypothesis, capsys):
    # k + alpha beyond N = 9 at n = 4, k below 1, alpha above 1
    for conclusion in CONCLUSIONS:
        with pytest.raises(ParameterOutOfRange):
            implication_trial(4, hypothesis, conclusion, trials=1)
        argv = ["search", "--dim", "4", "--hyp", hypothesis, "--concl", conclusion, "--trials", "1"]
        assert cli.main(argv) == 2
        assert "error" in capsys.readouterr().err


def test_predicate_spec_takes_a_hypothesis_and_reads_like_the_parser():
    spec = PredicateSpec(9, 0.0, strict=False)
    assert spec.name == "k9a0nonneg" and parse_predicate(spec.name) == spec
    assert curvop.secondkind.PredicateSpec is PredicateSpec
    with pytest.raises(TypeError):
        PredicateSpec(4)  # alpha has no default
    assert implication_trial(4, spec, "ric", trials=2, seed=7).to_dict() == \
        implication_trial(4, "k9a0nonneg", "ric", trials=2, seed=7).to_dict()


def test_emit_report_envelope_and_counterexample_files(tmp_path):
    rep = implication_trial(4, "k9a0strict", "ric", trials=2, seed=123)
    out = tmp_path / "search.json"
    envelope = emit_report(rep, str(out), seed=123, config={"trials": 2})
    on_disk = json.loads(out.read_text())
    assert on_disk == envelope
    assert envelope["tool"] == "curvop"
    assert envelope["version"] == curvop.__version__
    assert envelope["seed"] == 123
    assert envelope["config"] == {"trials": 2}
    results = envelope["results"]
    assert results["verdict"] == "counterexample"
    for i, entry in enumerate(results["counterexamples"]):
        fname = entry["tensorFile"]
        assert fname == f"search.counterexample{i}.json"
        path = os.path.join(str(tmp_path), fname)
        saved = curvop.load_tensor(path)
        assert np.array_equal(saved.array, replay_counterexample(rep, i).array)


def test_emit_report_consistent_run_writes_no_side_files(tmp_path):
    rep = implication_trial(4, "k4a0.5strict", "ric", trials=2, seed=1)
    out = tmp_path / "clean.json"
    envelope = emit_report(rep, str(out), seed=1)
    assert envelope["results"]["verdict"] == "consistent"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.json"]


def test_sharpness_probe_cp2_boundary():
    rep = sharpness_probe("cp2", "flat:n=4", steps=3, seed=0, iso_trials=5)
    assert rep.k == 4
    assert rep.boundary_ok
    (exp, act, ok) = rep.boundary["alphaStar(4) = 1/2"]
    assert exp == 0.5 and ok and abs(act - 0.5) <= 1e-9
    (_, iso0, iso_ok) = rep.boundary["isotropic minimum = 0"]
    assert iso_ok and 0.0 <= iso0 <= 1e-6
    assert len(rep.rows) == 3
    assert rep.rows[0].t == 0.0 and rep.rows[-1].t == 1.0


@pytest.mark.parametrize("n", [4, 5, 6])
def test_sharpness_probe_sphere_times_flat_boundary(n):
    base = f"product:(sphere:n={n - 1},k=1)x(flat:n=1)"
    rep = sharpness_probe(base, f"flat:n={n}", steps=2, seed=0, iso_trials=4)
    assert rep.k == n
    assert rep.boundary_ok
    (exp, act, ok) = rep.boundary[f"alphaStar({n}) = (n-2)/n"]
    assert exp == pytest.approx((n - 2) / n) and ok and abs(act - exp) <= 1e-9
    (_, ric0, ric_ok) = rep.boundary["Ricci minimum = 0"]
    assert ric_ok and abs(ric0) <= 1e-9


@pytest.mark.parametrize(("base", "n"), [("cp2", 4), ("product:(sphere:n=4,k=1)x(flat:n=1)", 5)])
def test_probe_rows_equal_separate_searches_bit_for_bit(base, n):
    # The probe searches all rows in one batch; row idx is the search of its
    # blend alone with seed material (seed, idx).
    direction = f"sphere:n={n},k=1"
    rep = sharpness_probe(base, direction, steps=4, seed=13, iso_trials=8)
    t_base, t_dir = curvop.build_model(base), curvop.build_model(direction)
    for idx, row in enumerate(rep.rows):
        alone = curvop.min_isotropic(curvop.interpolate(t_base, t_dir, row.t), 8, seed=(13, idx))
        assert np.float64(row.iso_min).tobytes() == np.float64(alone.best_value).tobytes()
        assert row.converged == alone.converged


def test_sharpness_probe_checks_only_sphere_times_a_line():
    # S^3 x R^2 is not the sharp case, so it has no advertised boundary ...
    wide = sharpness_probe("product:(sphere:n=3,k=1)x(flat:n=2)", "sphere:n=5,k=1", steps=2,
                           iso_trials=4)
    assert wide.boundary == {} and wide.boundary_ok
    # ... while S^4 x R is checked whichever factor comes first.
    line = sharpness_probe("product:(flat:n=1)x(sphere:n=4,k=1)", "flat:n=5", steps=2,
                           iso_trials=4)
    assert set(line.boundary) == {"alphaStar(5) = (n-2)/n", "Ricci minimum = 0"}
    assert line.boundary_ok


def test_sharpness_probe_validates_inputs():
    with pytest.raises(ParameterOutOfRange):
        sharpness_probe("cp2", "flat:n=4", steps=1)
    with pytest.raises(ParameterOutOfRange):
        sharpness_probe("cp2", "flat:n=5", steps=2)


def test_probe_report_round_trips_to_dict():
    rep = sharpness_probe("cp2", "flat:n=4", steps=2, seed=3, iso_trials=4)
    d = rep.to_dict()
    assert d["base"] == "cp2" and d["k"] == 4
    assert d["boundaryOk"] is True
    assert len(d["rows"]) == 2
    assert {"t", "alphaStar", "isoMin", "ricciMin", "converged"} <= set(d["rows"][0])


def test_implication_trial_counts_capped_searches(capped_descent, tmp_path):
    rep = implication_trial(4, "k4a0.5strict", "pic", trials=3, seed=5, pic_trials=2)
    assert rep.capped_searches == 3
    assert rep.to_dict()["cappedSearches"] == 3
    weak = implication_trial(4, "k9a0strict", "pic", trials=40, seed=123, pic_trials=3)
    assert weak.counterexamples
    envelope = emit_report(weak, str(tmp_path / "weak.json"))
    assert envelope["results"]["cappedSearches"] == weak.capped_searches == 40


def test_implication_trial_reports_no_capped_searches_when_descents_converge():
    assert implication_trial(4, "k4a0.5strict", "pic", trials=3, seed=5,
                             pic_trials=2).capped_searches == 0
    assert implication_trial(4, "k4a0.5strict", "ric", trials=3, seed=5).capped_searches == 0


def test_probe_rows_carry_search_convergence(capped_descent):
    rep = sharpness_probe("product:(sphere:n=4,k=1)x(flat:n=1)", "random:n=5,seed=1",
                          steps=2, seed=0, iso_trials=4)
    assert [r.converged for r in rep.rows] == [False, False]
    assert [r["converged"] for r in rep.to_dict()["rows"]] == [False, False]


def test_probe_rows_converged_is_none_without_search():
    rep = sharpness_probe("cp2", "flat:n=4", steps=2, seed=0, iso_trials=4)
    assert all(r.converged is True for r in rep.rows)
    low = sharpness_probe("product:(sphere:n=2,k=1)x(flat:n=1)", "flat:n=3", steps=2)
    assert all(r.converged is None and r.iso_min is None for r in low.rows)
