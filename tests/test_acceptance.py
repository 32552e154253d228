"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Every test emits exactly one line of the form

    ACCEPTANCE <n> PASS|FAIL  <what was checked>  [<elapsed>]

and then asserts. The lines are printed immediately (visible under
``pytest -s``) and replayed in the terminal summary via conftest, so the
full verdict table appears in ordinary ``pytest -v`` output while the
exit status reflects the gate.
"""

import time

import numpy as np
from _acceptance_log import LINES

import curvop
from curvop import (
    alpha_star,
    constant_curvature,
    cp2_explicit,
    eigen_sym,
    flat,
    isotropic_value,
    min_isotropic,
    random_curvature,
    random_frame,
    s20_basis,
    second_kind_matrix,
    second_kind_spectrum,
    verify_pic_identities,
    verify_ric_identities,
)
from curvop.harness import PredicateSpec, implication_trial
from curvop.models import product


def _verdict(idx, ok, what, t0):
    line = f"ACCEPTANCE {idx:2d} {'PASS' if ok else 'FAIL'}  {what}  [{time.time() - t0:.2f}s]"
    print(line)
    LINES.append(line)
    return ok


def test_acceptance_01_cp2_spectrum():
    t0 = time.time()
    eigs = second_kind_spectrum(cp2_explicit()).eigenvalues
    expected = np.array([-2.0] * 3 + [4.0] * 6)
    dev = np.abs(eigs - expected).max()
    ok = dev < 1e-9 and (time.time() - t0) < 1.0
    assert _verdict(1, ok, f"cp2 second-kind spectrum (-2 x3, 4 x6), max dev {dev:.2e}", t0)


def test_acceptance_02_s3xs1_spectrum():
    t0 = time.time()
    t = product(constant_curvature(3, 1.0), flat(1))
    eigs = second_kind_spectrum(t).eigenvalues
    expected = np.array([-0.5, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    dev = np.abs(eigs - expected).max()
    ok = dev < 1e-9 and (time.time() - t0) < 1.0
    assert _verdict(2, ok, f"S3 x flat-line spectrum (-1/2, 0 x3, 1 x5), max dev {dev:.2e}", t0)


def test_acceptance_03_sharpness_thresholds():
    t0 = time.time()
    star_cp2 = alpha_star(second_kind_spectrum(cp2_explicit()), 4)
    ok = isinstance(star_cp2, float) and abs(star_cp2 - 0.5) <= 1e-9
    worst = abs(star_cp2 - 0.5)
    for n in range(4, 9):
        t = product(constant_curvature(n - 1, 1.0), flat(1))
        star = alpha_star(second_kind_spectrum(t), n)
        dev = abs(star - (n - 2) / n)
        worst = max(worst, dev)
        ok = ok and dev <= 1e-9
    ok = ok and (time.time() - t0) < 5.0
    assert _verdict(
        3, ok, f"alphaStar: cp2 = 1/2, S^(n-1) x flat = (n-2)/n for n=4..8, max dev {worst:.2e}", t0
    )


def test_acceptance_04_pic_identity_suite():
    t0 = time.time()
    dims = (4, 5, 6)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(1000):
        n = dims[i % 3]
        t = random_curvature(n, seed=(40, i))
        rep = verify_pic_identities(t, random_frame(n, 4, rng))
        worst = max(worst, rep.max_residual)
    ok = worst < 1e-10 and (time.time() - t0) < 30.0
    assert _verdict(
        4, ok, f"nine-formula/grouped/master identities, 1000 tensors, max rel residual {worst:.2e}", t0
    )


def test_acceptance_05_ric_identity_suite():
    t0 = time.time()
    dims = (3, 4, 5, 6)
    rng = np.random.default_rng(2025)
    worst = 0.0
    for i in range(1000):
        n = dims[i % 4]
        t = random_curvature(n, seed=(50, i))
        rep = verify_ric_identities(t, random_frame(n, n, rng))
        worst = max(worst, rep.max_residual)
    ok = worst < 1e-10 and (time.time() - t0) < 30.0
    assert _verdict(
        5, ok, f"Ricci identity suite Eqs 1-4 + combination, 1000 tensors, max rel residual {worst:.2e}", t0
    )


def test_acceptance_06_cp2_fixture_values():
    t0 = time.time()
    rep = verify_pic_identities(cp2_explicit(), np.eye(4))
    dev = 0.0
    for a in (1, 5, 6):
        dev = max(dev, abs(rep.values[f"q_phi{a}"] - (-8.0)))
    for a in (2, 3, 4, 7, 8, 9):
        dev = max(dev, abs(rep.values[f"q_phi{a}"] - 16.0))
    ok = dev <= 1e-12 and (time.time() - t0) < 1.0
    assert _verdict(
        6, ok, f"cp2 standard-frame diagonal values -8/16 across the nine-member family, max dev {dev:.2e}", t0
    )


def test_acceptance_07_four_and_a_half_implies_pic():
    t0 = time.time()
    ok = True
    passing = []
    for n in (4, 5, 6):
        rep = implication_trial(n, "k4a0.5strict", "pic", trials=500, seed=(1000 + n))
        passing.append(rep.trials_passing)
        ok = ok and rep.trials_passing == 500 and not rep.counterexamples
    ok = ok and (time.time() - t0) < 120.0
    assert _verdict(
        7, ok,
        f"strict 4.5-positivity => sampled isotropic minimum > 0, passing/500 per dim: {passing}", t0,
    )


def test_acceptance_08_n_plus_ratio_implies_ric():
    t0 = time.time()
    ok = True
    passing = []
    for n in (3, 4, 5, 6):
        hyp = PredicateSpec(k=n, alpha=(n - 2) / n, strict=True)
        rep = implication_trial(n, hyp, "ric", trials=500, seed=(2000 + n))
        passing.append(rep.trials_passing)
        ok = ok and rep.trials_passing == 500 and not rep.counterexamples
    ok = ok and (time.time() - t0) < 60.0
    assert _verdict(
        8, ok,
        f"strict (n+(n-2)/n)-positivity => ricci min > 0, passing/500 per dim: {passing}", t0,
    )


def test_acceptance_09_cp2_isotropic_boundary():
    t0 = time.time()
    cp2 = cp2_explicit()
    res = min_isotropic(cp2, trials=500, seed=0)
    iso_std = isotropic_value(cp2, np.eye(4))
    # K13 + K14 + K23 + K24 - 2 R1234 = 4 * 1 - 2 * 2: the standard frame is a minimizer
    components = (
        cp2.component(1, 3, 1, 3) + cp2.component(1, 4, 1, 4)
        + cp2.component(2, 3, 2, 3) + cp2.component(2, 4, 2, 4)
        - 2.0 * cp2.component(1, 2, 3, 4)
    )
    in_band = 0.0 <= res.best_value <= 1e-6
    std_is_zero = iso_std == 0.0 and iso_std == components
    ok = in_band and std_is_zero and (time.time() - t0) < 30.0
    assert _verdict(
        9, ok,
        f"cp2 sampled minimum {res.best_value:.2e} in [0, 1e-6]; standard-frame value {iso_std:g} = 0"
        f" (components {components:g})", t0,
    )


def test_acceptance_10_eigensolver_quality():
    t0 = time.time()
    dims = (3, 4, 5, 6)
    rng = np.random.default_rng(77)
    worst_recon = 0.0
    worst_basis = 0.0
    for i in range(100):
        n = dims[i % 4]
        t = random_curvature(n, seed=(100, i))
        basis = s20_basis(n)
        m = second_kind_matrix(t, basis)
        spec = eigen_sym(m)
        v, lam = spec.eigenvectors, spec.eigenvalues
        recon = np.linalg.norm(m - (v * lam) @ v.T) / np.linalg.norm(m)
        worst_recon = max(worst_recon, recon)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam_rot = eigen_sym(second_kind_matrix(t, q @ basis @ q.T), vectors=False).eigenvalues
        worst_basis = max(worst_basis, np.abs(lam - lam_rot).max())
    ok = worst_recon <= 1e-10 and worst_basis <= 1e-9 and (time.time() - t0) < 10.0
    assert _verdict(
        10, ok,
        f"reconstruction residual {worst_recon:.2e} (<=1e-10 rel), basis independence {worst_basis:.2e} (<=1e-9)", t0,
    )
