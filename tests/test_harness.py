"""Predicates, boosting, implication trials, reports, and sharpness probes."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvop
from curvop import cli, harness
from curvop import (
    DimensionTooSmall,
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
from curvop.tensor import _pair_index, _ricci


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
    assert a.dim == 4
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


@pytest.mark.parametrize(("n", "k"), [(3, 5), (4, 9), (5, 14), (8, 35)])
def test_ric_counterexamples_replay_bit_for_bit(n, k):
    # a counterexample keeps only its seed material; both logged values must
    # come back exactly from the replayed tensor
    rep = implication_trial(n, f"k{k}a0strict", "ric", trials=60, seed=8)
    assert rep.counterexamples
    for i, ce in enumerate(rep.counterexamples):
        replay = replay_counterexample(rep, i)
        assert curvop.ricci_min(replay) == ce.conclusion_value
        spectrum = eigen_sym(second_kind_matrix(replay), vectors=False)
        assert k_alpha_value(spectrum, k, 0.0) == ce.hypothesis_value


def _traced_peak(trials):
    tracemalloc.start()
    try:
        rep = implication_trial(8, "k35a0strict", "ric", trials=trials, seed=3)
        return tracemalloc.get_traced_memory()[1], rep
    finally:
        tracemalloc.stop()


def test_counterexamples_do_not_grow_the_trial_memory():
    # every trial is a counterexample; holding each tensor (32 KB at n = 8)
    # would add about 26 MB over the extra 800 trials
    implication_trial(8, "k35a0strict", "ric", trials=1, seed=3)  # warm the caches
    few, _ = _traced_peak(200)
    many, rep = _traced_peak(1000)
    assert len(rep.counterexamples) == 1000
    assert many - few <= 2 * 2**20


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


@pytest.mark.parametrize(("n", "hypothesis"), [(4, "k9a0strict"), (5, "k12a0strict")])
def test_pic_counterexamples_replay_bit_for_bit(n, hypothesis):
    # the samples of a run are searched as one batch (at n = 5 their starts
    # descend together); each logged conclusion value must equal a search of
    # the replayed tensor on its own
    rep = implication_trial(n, hypothesis, "pic", trials=40, seed=123, pic_trials=3)
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


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=35), st.floats(min_value=0.0, max_value=1.0), st.booleans())
def test_hypothesis_names_parse_back_to_their_spec(k, alpha, strict):
    spec = PredicateSpec(k, alpha, strict)
    assert parse_predicate(spec.name) == spec


def test_hypothesis_names_keep_every_digit_of_alpha():
    assert harness.parse_predicate is curvop.secondkind.parse_predicate
    # :g where it is exact, so the names in use stay as they are
    for name in ("k4a0.5strict", "k9a0strict", "k5a0.6strict", "k35a0strict", "k4a0.5nonneg"):
        assert parse_predicate(name).name == name
    assert PredicateSpec(3, 1e-5).name == "k3a1e-05strict"
    assert PredicateSpec(9, -0.0).name == "k9a0strict"
    assert PredicateSpec(8, 1 / 3).name == "k8a0.3333333333333333strict"
    # a report's hypothesis replays its run: every counterexample the same
    first = implication_trial(4, PredicateSpec(8, 1 / 3), "ric", trials=20, seed=123)
    assert first.counterexamples
    again = implication_trial(4, first.hypothesis, "ric", trials=20, seed=123)
    assert again.hypothesis == first.hypothesis and again.counterexamples == first.counterexamples


def test_emit_report_envelope_holds_the_counterexample_tensors(tmp_path):
    rep = implication_trial(4, "k9a0strict", "ric", trials=2, seed=123)
    out = tmp_path / "search.json"
    envelope = emit_report(rep.to_dict(), str(out), 123, {"trials": 2})
    on_disk = json.loads(out.read_text())
    assert on_disk == envelope
    assert envelope["tool"] == "curvop"
    assert envelope["version"] == curvop.__version__
    assert envelope["seed"] == 123
    assert envelope["config"] == {"trials": 2}
    results = envelope["results"]
    assert results["verdict"] == "counterexample"
    assert len(results["counterexamples"]) == 2
    for i, entry in enumerate(results["counterexamples"]):
        replayed = replay_counterexample(rep, i)
        assert entry["tensor"] == curvop.to_dict(replayed)
        stored = curvop.from_dict(entry["tensor"])
        assert stored.array.tobytes() == replayed.array.tobytes()
        assert curvop.ricci_min(stored) == entry["conclusionValue"]
    assert [p.name for p in tmp_path.iterdir()] == ["search.json"]


def test_emit_report_pic_tensors_give_back_their_conclusion_values(tmp_path):
    seed, pic_trials = 123, 3
    rep = implication_trial(5, "k9a0strict", "pic", trials=12, seed=seed, pic_trials=pic_trials)
    envelope = emit_report(rep.to_dict(), str(tmp_path / "pic.json"), seed, {"trials": 12})
    entries = envelope["results"]["counterexamples"]
    assert entries
    for c in entries:
        found = curvop.min_isotropic(curvop.from_dict(c["tensor"]), pic_trials,
                                     seed=(seed, c["trial"], 1))
        assert found.best_value == c["conclusionValue"]


def test_emit_report_consistent_run_writes_no_side_files(tmp_path):
    rep = implication_trial(4, "k4a0.5strict", "ric", trials=2, seed=1)
    out = tmp_path / "clean.json"
    envelope = emit_report(rep.to_dict(), str(out), 1, {"trials": 2})
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


@pytest.mark.parametrize("offset", [-1e-300, 1e-300])
def test_sharpness_probe_boundary_minimum_must_be_exactly_zero(monkeypatch, offset):
    # The minimum at t = 0 carries no rounding bound, so the boundary check
    # reads "nonnegative and not positive" with bound 0: exactly 0.
    base = "product:(sphere:n=3,k=1)x(flat:n=1)"
    assert sharpness_probe(base, "flat:n=4", steps=2, iso_trials=2).boundary_ok
    ricci_min = harness.ricci_min
    monkeypatch.setattr(harness, "ricci_min", lambda t: ricci_min(t) + offset)
    rep = sharpness_probe(base, "flat:n=4", steps=2, iso_trials=2)
    assert rep.boundary["Ricci minimum = 0"] == (0.0, offset, False)
    assert rep.boundary["alphaStar(4) = (n-2)/n"][2] and not rep.boundary_ok


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_sphere_times_circle_probe_rows_are_exact(n):
    # S^(n-1) x S^1 blended toward the unit sphere: minima 2, 3 and 4, each
    # attained exactly by a coordinate seed.
    rep = sharpness_probe(f"product:(sphere:n={n - 1},k=1)x(flat:n=1)", f"sphere:n={n},k=1",
                          steps=3, seed=5, iso_trials=32)
    assert [row.iso_min for row in rep.rows] == [2.0, 3.0, 4.0]


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


_STACKED_BASES = [("cp2", 4), *((f"product:(sphere:n={n - 1},k=1)x(flat:n=1)", n) for n in range(4, 9)),
                  *((f"random:n={n},seed={n}", n) for n in (3, 4, 6, 8))]


@pytest.mark.parametrize(("base", "n"), _STACKED_BASES)
def test_probe_spectra_and_ricci_minima_equal_each_blend_alone(base, n):
    # The probe solves all rows' second-kind and Ricci spectra as two stacks;
    # each row must equal the single-tensor path bit for bit.
    direction = f"random:n={n},seed=99"
    t_base, t_dir = curvop.build_model(base), curvop.build_model(direction)
    blends = [curvop.interpolate(t_base, t_dir, t) for t in np.linspace(0.0, 1.0, 5)]
    arrays = np.stack([blend.array for blend in blends])
    stacked = harness._eigenvalues(harness._second_kind_matrices(arrays, curvop.s20_basis(n)))[1]
    ricci_minima = harness._eigenvalues(_ricci(arrays))[1][:, 0]
    rep = sharpness_probe(base, direction, steps=5, iso_trials=2)
    for blend, eigenvalues, ricci_minimum, row in zip(blends, stacked, ricci_minima, rep.rows):
        alone = eigen_sym(second_kind_matrix(blend), vectors=False)
        assert eigenvalues.tobytes() == alone.eigenvalues.tobytes()
        assert ricci_minimum == row.ricci_min == curvop.ricci_min(blend)
        assert row.alpha_star == curvop.alpha_star(alone, n)


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


def test_sharpness_probe_refuses_dimension_two_before_blending(monkeypatch):
    # alpha_star(n) needs n <= N - 1, and N = 2 at n = 2
    def blend(*args):
        raise AssertionError("blended before the dimension check")

    monkeypatch.setattr(harness, "interpolate", blend)
    with pytest.raises(DimensionTooSmall, match=r"need dimension >= 3, got 2"):
        sharpness_probe("flat:n=2", "sphere:n=2", steps=2)


def test_probe_report_round_trips_to_dict():
    rep = sharpness_probe("cp2", "flat:n=4", steps=2, seed=3, iso_trials=4)
    d = rep.to_dict()
    assert d["base"] == "cp2" and d["k"] == 4
    assert d["boundaryOk"] is True
    assert len(d["rows"]) == 2
    assert {"t", "alphaStar", "isoMin", "ricciMin", "converged"} <= set(d["rows"][0])


def test_implication_trial_counts_capped_searches(capped_descent, tmp_path):
    rep = implication_trial(5, "k4a0.5strict", "pic", trials=3, seed=5, pic_trials=2)
    assert rep.capped_searches == 3
    assert rep.to_dict()["cappedSearches"] == 3
    weak = implication_trial(5, "k9a0strict", "pic", trials=40, seed=123, pic_trials=3)
    assert weak.counterexamples
    envelope = emit_report(weak.to_dict(), str(tmp_path / "weak.json"), 123, {"trials": 40})
    assert envelope["results"]["cappedSearches"] == weak.capped_searches == 40
    # the n = 4 search is exact and runs no descent, so it cannot be capped
    assert implication_trial(4, "k4a0.5strict", "pic", trials=3, seed=5, pic_trials=2).capped_searches == 0


def test_implication_trial_reports_no_capped_searches_when_descents_converge():
    assert implication_trial(4, "k4a0.5strict", "pic", trials=3, seed=5,
                             pic_trials=2).capped_searches == 0
    assert implication_trial(4, "k4a0.5strict", "ric", trials=3, seed=5).capped_searches == 0


def test_probe_rows_carry_search_convergence(capped_descent):
    rep = sharpness_probe("product:(sphere:n=4,k=1)x(flat:n=1)", "random:n=5,seed=1",
                          steps=2, seed=0, iso_trials=4)
    assert [r.converged for r in rep.rows] == [False, False]
    assert [r["converged"] for r in rep.to_dict()["rows"]] == [False, False]


def test_cp2_to_flat_probe_rows_are_never_negative():
    # the rows are multiples of CP^2, whose isotropic minimum is exactly 0;
    # the t = 2/3 row once reported -2.2e-16
    rep = sharpness_probe("cp2", "flat:n=4", steps=4, seed=2, iso_trials=8)
    assert all(row.iso_min >= 0.0 for row in rep.rows)


def test_probe_rows_converged_is_none_without_search():
    rep = sharpness_probe("cp2", "flat:n=4", steps=2, seed=0, iso_trials=4)
    assert all(r.converged is True for r in rep.rows)
    low = sharpness_probe("product:(sphere:n=2,k=1)x(flat:n=1)", "flat:n=3", steps=2)
    assert all(r.converged is None and r.iso_min is None for r in low.rows)


@pytest.mark.parametrize("n", [4, 6])
def test_boost_evaluates_each_spectrum_once(monkeypatch, n):
    # every (k+alpha) evaluation passes the range check once
    calls = []
    check = curvop.secondkind._check_k_alpha
    monkeypatch.setattr(curvop.secondkind, "_check_k_alpha", lambda *args: calls.append(args) or check(*args))
    pred = parse_predicate("k4a0.5strict")
    for seed in range(20):
        calls.clear()
        _, _, _, amount = boost_to_hypothesis(curvop.random_curvature(n, seed=(seed, n)), pred)
        assert len(calls) == (1 if amount == 0.0 else 2)
