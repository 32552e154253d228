"""Frames, isotropic curvature, the descent search, and identity suites."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvop
from curvop import (
    DimensionTooSmall,
    FrameNotOrthonormal,
    ParameterOutOfRange,
    check_frame,
    isotropic_value,
    min_isotropic,
    phi_family,
    pullback,
    quadratic_form,
    random_frame,
    ric_family,
    ricci_min,
    verify_pic_identities,
    verify_ric_identities,
)
from curvop.conditions import (
    _coordinate_seed_frames,
    _descend_batch,
    _iso_value_grad,
    _iso_values_batch,
    _retract,
    min_isotropic_batch,
)


def test_check_frame_accepts_orthonormal_and_rejects_else():
    rng = np.random.default_rng(0)
    f = random_frame(6, 4, rng)
    check_frame(f, width=4, dim=6)
    with pytest.raises(FrameNotOrthonormal):
        check_frame(2.0 * f, width=4, dim=6)
    with pytest.raises(FrameNotOrthonormal):
        check_frame(f[:, :3], width=4, dim=6)


def test_random_frame_is_orthonormal():
    rng = np.random.default_rng(1)
    for _ in range(5):
        f = random_frame(7, 4, rng)
        assert np.abs(f.T @ f - np.eye(4)).max() < 1e-12


def test_isotropic_value_standard_frame_matches_components():
    t = curvop.random_curvature(5, seed=8)
    f = np.eye(5)[:, :4]
    a = t.array
    expected = (
        a[0, 2, 0, 2] + a[0, 3, 0, 3] + a[1, 2, 1, 2] + a[1, 3, 1, 3] - 2.0 * a[0, 1, 2, 3]
    )
    assert isotropic_value(t, f) == pytest.approx(expected, abs=1e-14)


def test_isotropic_value_needs_dim_four():
    with pytest.raises(DimensionTooSmall):
        isotropic_value(curvop.constant_curvature(3, 1.0), np.eye(3))


def test_isotropic_value_pair_symmetries():
    """Swapping both vectors of both pairs, or exchanging the pairs, preserves the value."""
    t = curvop.random_curvature(6, seed=21)
    rng = np.random.default_rng(2)
    f = random_frame(6, 4, rng)
    base = isotropic_value(t, f)
    both_swapped = f[:, [1, 0, 3, 2]]
    pairs_exchanged = f[:, [2, 3, 0, 1]]
    assert isotropic_value(t, both_swapped) == pytest.approx(base, abs=1e-12)
    assert isotropic_value(t, pairs_exchanged) == pytest.approx(base, abs=1e-12)


def test_isotropic_value_on_unit_sphere_is_four():
    t = curvop.constant_curvature(6, 1.0)
    rng = np.random.default_rng(3)
    for _ in range(4):
        f = random_frame(6, 4, rng)
        # four sectional terms of curvature 1, vanishing cross term
        assert isotropic_value(t, f) == pytest.approx(4.0, abs=1e-10)


def test_batch_evaluator_matches_scalar_path():
    t = curvop.random_curvature(5, seed=14)
    rng = np.random.default_rng(4)
    frames = np.stack([random_frame(5, 4, rng) for _ in range(9)])
    batch = _iso_values_batch(t.array, frames)
    singles = np.array([isotropic_value(t, f) for f in frames])
    assert np.abs(batch - singles).max() < 1e-12


def test_coordinate_seed_frames_cover_subsets():
    frames = _coordinate_seed_frames(5)
    assert frames.shape == (5 * 6, 5, 4)  # C(5,4) subsets x six orderings
    for f in frames[:12]:
        assert np.abs(f.T @ f - np.eye(4)).max() == 0.0


def test_pullback_in_full_frame_is_change_of_basis():
    t = curvop.random_curvature(4, seed=33)
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    r4 = pullback(t.array, q)
    back = pullback(r4, q.T)
    assert np.abs(back - t.array).max() < 1e-12


def test_min_isotropic_cp2_boundary_is_zero():
    res = min_isotropic(curvop.cp2_explicit(), trials=25, seed=42)
    assert 0.0 <= res.best_value <= 1e-6
    assert res.converged
    # reported value equals a fresh evaluation of the reported frame
    assert res.best_value == pytest.approx(
        isotropic_value(curvop.cp2_explicit(), res.best_frame), abs=1e-12
    )


def test_min_isotropic_is_deterministic_and_monotone_in_trials():
    t = curvop.random_curvature(5, seed=91)
    a = min_isotropic(t, trials=6, seed=7)
    b = min_isotropic(t, trials=6, seed=7)
    assert a.best_value == b.best_value
    assert np.array_equal(a.best_frame, b.best_frame)
    more = min_isotropic(t, trials=12, seed=7)
    assert more.best_value <= a.best_value + 1e-15
    assert more.samples_used == a.samples_used + 6


def test_min_isotropic_never_exceeds_coordinate_minimum():
    t = curvop.random_curvature(6, seed=17)
    frames = _coordinate_seed_frames(6)
    coord_min = _iso_values_batch(t.array, frames).min()
    res = min_isotropic(t, trials=3, seed=0)
    assert res.best_value <= coord_min + 1e-12


@pytest.mark.parametrize("t", [0.0, 0.5])
@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_descent_converges_on_sphere_times_circle(n, t):
    # S^{n-1} x S^1 has a Morse-Bott isotropic minimum 2 (every frame orthogonal
    # to the flat direction); blending toward the unit sphere (value 4 on every
    # frame) moves it to 2 + 2t. Keeping the largest decreasing step bounced
    # every start here to the 500-iteration cap.
    base = curvop.build_model(f"product:(sphere:n={n - 1},k=1)x(flat:n=1)")
    blend = curvop.interpolate(base, curvop.constant_curvature(n, 1.0), t)
    expected = 2.0 + 2.0 * t
    res = min_isotropic(blend, 32, seed=(n, int(2 * t)))
    assert res.converged
    assert res.refinement_steps <= 320
    scale = max(1.0, blend.max_abs())
    assert expected - 1e-12 * scale <= res.best_value <= expected + 1e-9


def test_descent_keeps_cp2_minimum_sign_exact():
    # CP^2 sits on the boundary: its isotropic minimum is exactly 0, and the
    # program's boundary check requires 0 <= isoMin, so no descent may dip
    # below 0 by rounding.
    cp2 = curvop.cp2_explicit()
    results = min_isotropic_batch([cp2] * 200, 32, list(range(200)))
    assert all(0.0 <= r.best_value <= 1e-6 for r in results)
    assert all(r.converged for r in results)


def test_descent_step_keeps_lowest_sufficient_candidate():
    # One iteration from random frames on S^5 x S^1: the kept frame is the
    # lowest of the four candidate steps that beat the noise guard, which is
    # not always the largest such step.
    n, m = 6, 16
    t = curvop.build_model("product:(sphere:n=5,k=1)x(flat:n=1)")
    rng = np.random.default_rng(0)
    frames = np.array([random_frame(n, 4, rng) for _ in range(m)])
    rmats = np.repeat(t.array.reshape(1, n * n, n * n), m, axis=0)
    noise = np.full(m, 1e-12)
    value, grad = _iso_value_grad(rmats, frames)
    sym = np.matmul(np.swapaxes(frames, -1, -2), grad)
    tangent = grad - np.matmul(frames, (sym + np.swapaxes(sym, -1, -2)) / 2.0)
    steps = 0.5 ** np.arange(4)
    cands = _retract(frames[:, None] - steps[None, :, None, None] * tangent[:, None])
    vals = _iso_value_grad(rmats[:, None], cands)[0]
    ok = vals < (value - noise)[:, None]
    assert ok.any(axis=1).all()
    lowest = np.where(ok, vals, np.inf).argmin(axis=1)
    assert (lowest != ok.argmax(axis=1)).any()
    f, v, _, _ = _descend_batch(rmats, frames, noise, max_iter=1)
    assert np.array_equal(f, cands[np.arange(m), lowest])
    assert np.array_equal(v, vals[np.arange(m), lowest])


def test_min_isotropic_batch_validation():
    four = curvop.random_curvature(4, seed=1)
    five = curvop.random_curvature(5, seed=1)
    assert min_isotropic_batch([], trials=2, seeds=[]) == []
    with pytest.raises(ParameterOutOfRange):
        min_isotropic_batch([four, five], trials=2, seeds=[0, 1])
    with pytest.raises(ParameterOutOfRange):
        min_isotropic_batch([four, four], trials=2, seeds=[0])


def test_min_isotropic_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        min_isotropic(curvop.cp2_explicit(), trials=0)
    with pytest.raises(DimensionTooSmall):
        min_isotropic(curvop.constant_curvature(3, 1.0), trials=1)


def test_ricci_min_matches_numpy():
    for n in (3, 4, 5):
        t = curvop.random_curvature(n, seed=(55, n))
        ref = float(np.linalg.eigvalsh(curvop.ricci(t)).min())
        assert ricci_min(t) == pytest.approx(ref, abs=1e-11)


def test_phi_family_shapes_norms_and_tracelessness():
    rng = np.random.default_rng(6)
    f = random_frame(6, 4, rng)
    phis = phi_family(f)
    assert phis.shape == (9, 6, 6)
    for phi in phis:
        assert np.abs(phi - phi.T).max() < 1e-14
        assert abs(np.trace(phi)) < 1e-13
        assert (phi * phi).sum() == pytest.approx(4.0, abs=1e-12)


def test_quadratic_form_definition():
    t = curvop.random_curvature(4, seed=3)
    rng = np.random.default_rng(7)
    f = random_frame(4, 4, rng)
    phi = phi_family(f)[0]
    direct = float(np.einsum("iklj,ij,kl->", t.array, phi, phi))
    assert quadratic_form(t, phi) == pytest.approx(direct, abs=1e-12)


def test_pic_identities_hold_on_random_tensors():
    rng = np.random.default_rng(8)
    worst = 0.0
    for n in (4, 5, 6):
        for trial in range(5):
            t = curvop.random_curvature(n, seed=(61, n, trial))
            rep = verify_pic_identities(t, random_frame(n, 4, rng))
            worst = max(worst, rep.max_residual)
    assert worst < 1e-12


def test_pic_identity_report_structure():
    rep = verify_pic_identities(curvop.cp2_explicit(), np.eye(4))
    assert rep.kind == "pic" and rep.dim == 4
    assert set(rep.residuals) >= {"phi1", "phi9", "master"}
    assert rep.max_residual == max(rep.residuals.values())
    # CP2 standard-frame diagonal values are the frozen fixture
    for name in ("q_phi1", "q_phi5", "q_phi6"):
        assert rep.values[name] == pytest.approx(-8.0, abs=1e-12)
    for name in ("q_phi2", "q_phi3", "q_phi4", "q_phi7", "q_phi8", "q_phi9"):
        assert rep.values[name] == pytest.approx(16.0, abs=1e-12)


def test_ric_identities_hold_on_random_tensors():
    rng = np.random.default_rng(9)
    worst = 0.0
    for n in (3, 4, 5, 6):
        for trial in range(5):
            t = curvop.random_curvature(n, seed=(62, n, trial))
            rep = verify_ric_identities(t, random_frame(n, n, rng))
            worst = max(worst, rep.max_residual)
    assert worst < 1e-12


def test_ric_family_sizes_and_orthonormality_viewpoint():
    rng = np.random.default_rng(10)
    n = 5
    f = random_frame(n, n, rng)
    fam = ric_family(f)
    # 1 + (n-1) + C(n-1,2) + (n-2) members
    assert fam["phi1"].shape == (n, n)
    assert fam["phi"].shape == (n - 1, n, n)
    assert fam["psi"].shape == ((n - 1) * (n - 2) // 2, n, n)
    assert fam["xi"].shape == (n - 2, n, n)
    # every member is symmetric
    for m in [fam["phi1"], *fam["phi"], *fam["psi"], *fam["xi"]]:
        assert np.abs(m - m.T).max() < 1e-13


def test_identity_suites_reject_small_dimensions():
    with pytest.raises(DimensionTooSmall):
        verify_pic_identities(curvop.constant_curvature(3, 1.0), np.eye(3))
    with pytest.raises(DimensionTooSmall):
        verify_ric_identities(curvop.constant_curvature(2, 1.0), np.eye(2))


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_master_identity_ties_family_to_isotropic_value(seed):
    t = curvop.random_curvature(4, seed=seed)
    rng = np.random.default_rng(seed)
    f = random_frame(4, 4, rng)
    phis = phi_family(f)
    q = np.array([quadratic_form(t, phi) for phi in phis])
    combo = 6.0 * (q[0] + q[4] + q[5]) + 1.5 * (q[1] + q[2] + q[3] + q[6] + q[7] + q[8])
    r4 = pullback(t.array, f)
    s4 = r4[0, 2, 0, 2] + r4[0, 3, 0, 3] + r4[1, 2, 1, 2] + r4[1, 3, 1, 3]
    assert combo == pytest.approx(27.0 * s4 - 54.0 * r4[0, 1, 2, 3], rel=1e-9, abs=1e-9)
