"""Tests of the benchmark's checks and tracer: each check must accept curvop's
correct output and reject a deliberately wrong value.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from curvop import conditions, harness, models  # noqa: E402
from spans import Tracer  # noqa: E402

API = {"harness": harness, "conditions": conditions, "models": models}


def boosted_sample(n: int, seed=(7, 0)):
    sample = models.random_curvature(n, seed=seed)
    boosted, spectrum, _, _ = harness.boost_to_hypothesis(sample, harness.parse_predicate("k4a0.5strict"))
    return boosted, spectrum


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_traceless_basis_is_orthonormal_and_the_sphere_is_the_identity(n):
    basis = checks.traceless_basis(n)
    assert basis.shape[0] == (n - 1) * (n + 2) // 2
    assert np.allclose(np.einsum("aij,bji->ab", basis, basis), np.eye(basis.shape[0]), atol=1e-13)
    assert np.allclose(np.einsum("aii->a", basis), 0.0, atol=1e-13)
    assert np.allclose(checks.co2_matrix(checks.sphere(n)), np.eye(basis.shape[0]), atol=1e-13)


def test_cp2_closed_forms():
    ev = checks.co2_eigenvalues(checks.cp2())
    assert np.allclose(ev, [-2, -2, -2, 4, 4, 4, 4, 4, 4], atol=1e-12)
    assert checks.alpha_star(ev, 4) == pytest.approx(0.5, abs=1e-12)
    assert checks.kyfan_iso_bound(ev) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(checks.cp2(), models.cp2_explicit().array, atol=1e-12)


def test_spectrum_check_rejects_one_shifted_eigenvalue():
    boosted, spectrum = boosted_sample(5)
    assert checks.check_spectrum(boosted.array, spectrum.eigenvalues, 4, 0.5) == []
    wrong = spectrum.eigenvalues.copy()
    wrong[6] += 1e-6
    assert checks.check_spectrum(boosted.array, wrong, 4, 0.5)


def test_spectrum_check_rejects_a_sample_outside_the_hypothesis():
    sample = models.random_curvature(5, seed=(7, 0))
    ev = checks.co2_eigenvalues(sample.array)
    assert checks.k_alpha(ev, 4, 0.5) <= 0.0
    assert any("positive" in p for p in checks.check_spectrum(sample.array, ev, 4, 0.5))


def test_pic_sample_check_rejects_wrong_value_frame_and_sign():
    boosted, _ = boosted_sample(5)
    found = conditions.min_isotropic(boosted, 5, seed=(7, 0, 1))
    assert checks.check_pic_sample(boosted.array, found.best_value, found.best_frame) == []
    assert checks.check_pic_sample(boosted.array, found.best_value + 1e-6, found.best_frame)
    assert checks.check_pic_sample(boosted.array, found.best_value, found.best_frame * 1.001)
    flipped = -boosted.array
    value = checks.isotropic(flipped, found.best_frame)
    assert any("Ky Fan" in p or "positive" in p
               for p in checks.check_pic_sample(flipped, value, found.best_frame))


def test_ricci_check_rejects_an_offset_minimum():
    boosted, _ = boosted_sample(6)
    value = conditions.ricci_min(boosted)
    assert checks.check_ricci(boosted.array, value) == []
    assert checks.check_ricci(boosted.array, value + 1e-6)


@pytest.mark.parametrize("spec, n, k, iso, ric", [
    ("cp2", 4, 4, 0.0, 6.0),
    ("product:(sphere:n=4,k=1)x(flat:n=1)", 5, 5, 2.0, 0.0),
])
def test_probe_check_rejects_iso_min_off_by_1e_3(spec, n, k, iso, ric):
    base = checks.cp2() if spec == "cp2" else checks.sphere(n, n - 1)
    report = harness.sharpness_probe(spec, f"sphere:n={n},k=1", steps=3, seed=5, iso_trials=8)
    rows = [(r.t, r.alpha_star, r.iso_min, r.ricci_min) for r in report.rows]
    assert checks.check_probe_rows(base, k, iso, ric, rows) == []
    for delta in (1e-3, -1e-3):
        t, star, iso_min, ricci_min = rows[1]
        wrong = rows[:1] + [(t, star, iso_min + delta, ricci_min)] + rows[2:]
        assert checks.check_probe_rows(base, k, iso, ric, wrong)
    t, star, iso_min, ricci_min = rows[1]
    assert checks.check_probe_rows(base, k, iso, ric, [(t, star, iso_min, ricci_min + 1e-6)])


def test_probe_check_rejects_a_wrong_alpha_star():
    base = checks.cp2()
    report = harness.sharpness_probe("cp2", "sphere:n=4,k=1", steps=3, seed=5, iso_trials=8)
    t, star, iso_min, ricci_min = (report.rows[0].t, report.rows[0].alpha_star,
                                   report.rows[0].iso_min, report.rows[0].ricci_min)
    assert checks.check_probe_rows(base, 4, 0.0, 6.0, [(t, star, iso_min, ricci_min)]) == []
    assert checks.check_probe_rows(base, 4, 0.0, 6.0, [(t, star + 1e-6, iso_min, ricci_min)])
    assert checks.check_probe_rows(base, 4, 0.0, 6.0, [(t, "always", iso_min, ricci_min)])


def test_identity_check_rejects_a_residual_of_1e_8():
    rng = np.random.default_rng(3)
    t = models.random_curvature(6, seed=(3, 1))
    f4 = conditions.random_frame(6, 4, rng)
    fn = conditions.random_frame(6, 6, rng)
    pic, ric = conditions.verify_pic_identities(t, f4), conditions.verify_ric_identities(t, fn)
    good_pic = (pic.max_residual, pic.values["isotropic"])
    good_ric = (ric.max_residual, ric.values["scalar"])
    assert checks.check_identities(t.array, f4, good_pic, good_ric) == []
    assert checks.check_identities(t.array, f4, (1e-8, good_pic[1]), good_ric)
    assert checks.check_identities(t.array, f4, good_pic, (1e-8, good_ric[1]))
    assert checks.check_identities(t.array, f4, (good_pic[0], good_pic[1] + 1e-6), good_ric)
    assert checks.check_identities(t.array, f4, good_pic, (good_ric[0], good_ric[1] + 1e-6))


def test_tracer_counts_spans_and_restores_the_program():
    original = harness.eigen_sym
    tracer = Tracer(API)
    tracer.install()
    try:
        report = harness.implication_trial(4, "k4a0.5strict", "pic", trials=3, seed=9, pic_trials=5)
    finally:
        tracer.uninstall()
    assert harness.eigen_sym is original
    times = tracer.layer_times()
    assert times["harness.implication_trial"][0] == 1
    assert times["harness.boost_to_hypothesis"][0] == 3
    assert times["models.random_curvature"][0] == 3
    assert times["tensor.bianchi_project"][0] == 3
    assert times["conditions.min_isotropic_batch"][0] == 1
    assert times["secondkind.eigen_sym"][0] == 3 + report.shifts_applied
    assert tracer.counts["conditions.descent.starts"] == 15
    assert tracer.counts["harness.shifts_applied"] == report.shifts_applied
    total = sum(self_s for _, self_s, _ in times.values())
    assert total == pytest.approx(times["harness.implication_trial"][2], rel=1e-9)
    for calls, self_s, inclusive in times.values():
        assert 0.0 <= self_s <= inclusive + 1e-12


def test_benchmark_json_lists_every_metric_the_run_reports():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tally = run.Tally()
    for n in run.DIMS:
        tally.add(n, 1.0, 1)
    tally.clock.settle()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end(tally, 1.0))
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer(Tracer(API), tally, 0.0))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
