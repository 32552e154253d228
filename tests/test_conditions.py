"""Frames, isotropic curvature, the descent search, and identity suites."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curvop
from curvop import (
    CurvatureTensor,
    DimensionTooSmall,
    FrameNotOrthonormal,
    ParameterOutOfRange,
    check_frame,
    isotropic_value,
    min_isotropic,
    pullback,
    random_frame,
    ricci_min,
    verify_pic_identities,
    verify_ric_identities,
)
from curvop.conditions import (
    _PHI,
    _WARM,
    _coordinate_seed_frames,
    _descend_batch,
    _iso_grads,
    _iso_values,
    _retract,
    _ric_coordinates,
    _seed_values,
    min_isotropic_batch,
)
from curvop.harness import boost_to_hypothesis, parse_predicate


def test_check_frame_accepts_orthonormal_and_rejects_else():
    rng = np.random.default_rng(0)
    f = random_frame(6, 4, rng)
    check_frame(f, width=4, dim=6)
    with pytest.raises(FrameNotOrthonormal):
        check_frame(2.0 * f, width=4, dim=6)
    with pytest.raises(FrameNotOrthonormal):
        check_frame(f[:, :3], width=4, dim=6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_frames_are_rejected(bad):
    t = curvop.random_curvature(5, seed=3)
    f4 = random_frame(5, 4, np.random.default_rng(1))
    f5 = random_frame(5, 5, np.random.default_rng(2))
    f4[2, 1] = bad
    f5[0, 3] = bad
    with pytest.raises(FrameNotOrthonormal):
        check_frame(f4, width=4, dim=5)
    with pytest.raises(FrameNotOrthonormal):
        isotropic_value(t, f4)
    with pytest.raises(FrameNotOrthonormal):
        verify_pic_identities(t, f4)
    with pytest.raises(FrameNotOrthonormal):
        verify_ric_identities(t, f5)


def test_identity_suites_check_their_frame_once(monkeypatch):
    calls = []
    checked = curvop.conditions.check_frame
    monkeypatch.setattr(curvop.conditions, "check_frame",
                        lambda *a, **k: calls.append(1) or checked(*a, **k))
    t = curvop.random_curvature(5, seed=4)
    rng = np.random.default_rng(4)
    verify_pic_identities(t, random_frame(5, 4, rng))
    verify_ric_identities(t, random_frame(5, 5, rng))
    assert len(calls) == 2


def test_random_frame_is_orthonormal():
    rng = np.random.default_rng(1)
    for _ in range(5):
        f = random_frame(7, 4, rng)
        assert np.abs(f.T @ f - np.eye(4)).max() < 1e-12


@pytest.mark.parametrize(("n", "k"), [(3, 4), (4, 5), (5, 0), (1, 2)])
def test_random_frame_needs_between_one_and_n_vectors(n, k):
    with pytest.raises(ParameterOutOfRange):
        random_frame(n, k, np.random.default_rng(0))


def _gram_deviation(q):
    return np.abs(np.swapaxes(q, -1, -2) @ q - np.eye(q.shape[-1])).max(axis=(-2, -1))


def _one_pass_gram_schmidt(f):
    q = np.empty(f.shape)
    for j in range(f.shape[-1]):
        v = f[..., j] - np.einsum("...ij,...j->...i", q[..., :j],
                                  np.einsum("...ij,...i->...j", q[..., :j], f[..., j]))
        q[..., j] = v / np.linalg.norm(v, axis=-1)[..., None]
    return q


@pytest.mark.parametrize("shape", [(200_000, 4, 4), (2_000, 32, 32)])
def test_retraction_is_orthonormal_to_rounding(shape):
    # Among these blocks are some on which one Gram-Schmidt pass leaves a
    # Gram deviation above FRAME_TOL; the second pass brings every block
    # back to rounding.
    f = np.random.default_rng(0).standard_normal(shape)
    assert (_gram_deviation(_one_pass_gram_schmidt(f)) > curvop.conditions.FRAME_TOL).any()
    q = _retract(f)
    assert q.shape == f.shape
    assert _gram_deviation(q).max() <= 1e-14


@pytest.mark.parametrize("n", [4, 6, 8])
def test_retraction_is_the_positive_diagonal_qr_factor(n):
    # Q^T F is R: upper triangular, with a positive diagonal.
    f = np.random.default_rng(n).standard_normal((500, n, 4))
    r = np.swapaxes(_retract(f), -1, -2) @ f
    below = np.tril(np.ones((4, 4), dtype=bool), -1)
    assert np.abs(r[:, below]).max() <= 1e-14 * np.abs(f).max()
    assert (np.diagonal(r, axis1=-2, axis2=-1) > 0.0).all()


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_retraction_agrees_with_positive_diagonal_qr(n):
    # The descent retracts frames moved by a bounded step, which stay well
    # conditioned; there both factorizations agree to rounding.
    rng = np.random.default_rng((5, n))
    f = np.array([random_frame(n, 4, rng) for _ in range(200)]) + 0.5 * rng.standard_normal((200, n, 4))
    q, r = np.linalg.qr(f)
    reference = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    assert np.abs(_retract(f) - reference).max() <= 1e-12


@pytest.mark.parametrize(("n", "k"), [(4, 4), (6, 4), (8, 4), (7, 7)])
def test_retraction_of_a_frame_does_not_depend_on_its_stack(n, k):
    f = np.random.default_rng((6, n, k)).standard_normal((5, 3, n, k))
    stacked = _retract(f)
    for i, j in np.ndindex(5, 3):
        assert stacked[i, j].tobytes() == _retract(f[i, j].copy()).tobytes()
    assert stacked[1].tobytes() == _retract(f[1].copy()).tobytes()


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


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=4, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
def test_isotropic_value_matches_the_pullback_closed_form(n, seed):
    t = curvop.random_curvature(n, seed=seed)
    f = random_frame(n, 4, np.random.default_rng(seed))
    r4 = pullback(t.array, f)
    closed = r4[0, 2, 0, 2] + r4[0, 3, 0, 3] + r4[1, 2, 1, 2] + r4[1, 3, 1, 3] - 2.0 * r4[0, 1, 2, 3]
    assert abs(isotropic_value(t, f) - closed) <= 1e-12 * max(1.0, t.max_abs())


def test_coordinate_seed_frames_cover_subsets():
    frames = _coordinate_seed_frames(5)
    assert frames.shape == (5 * 6, 5, 4)  # C(5,4) subsets x six orderings
    for f in frames[:12]:
        assert np.abs(f.T @ f - np.eye(4)).max() == 0.0


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_coordinate_seed_frames_match_the_reference_loop_and_are_cached(n):
    eye = np.eye(n)
    reference = np.array([
        eye[:, cols]
        for a, b, c, d in combinations(range(n), 4)
        for cols in ((a, b, c, d), (a, b, d, c), (a, c, b, d),
                     (a, c, d, b), (a, d, b, c), (a, d, c, b))
    ])
    frames = _coordinate_seed_frames(n)
    assert frames.dtype == reference.dtype and frames.shape == reference.shape
    assert frames.tobytes() == reference.tobytes()
    assert _coordinate_seed_frames(n) is frames
    assert not frames.flags.writeable


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
    assert res.best_value == isotropic_value(curvop.cp2_explicit(), res.best_frame)


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
    coord_min = _iso_values(t.array.reshape(36, 36), frames)[0].min()
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
    value, y = _iso_values(rmats, frames)
    grad = _iso_grads(y, frames)
    sym = np.matmul(np.swapaxes(frames, -1, -2), grad)
    tangent = grad - np.matmul(frames, (sym + np.swapaxes(sym, -1, -2)) / 2.0)
    steps = 0.5 ** np.arange(4)
    cands = _retract(frames[:, None] - steps[None, :, None, None] * tangent[:, None])
    vals = _iso_values(rmats[:, None], cands)[0]
    ok = vals < (value - noise)[:, None]
    assert ok.any(axis=1).all()
    lowest = np.where(ok, vals, np.inf).argmin(axis=1)
    assert (lowest != ok.argmax(axis=1)).any()
    f, v, _, _ = _descend_batch(rmats, np.arange(m), frames, noise, max_iter=1)
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
    for seeds in ([0, -1], [(1, -2), (1, 2)]):
        with pytest.raises(ParameterOutOfRange):
            min_isotropic_batch([four, four], trials=2, seeds=seeds)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_batch_results_equal_separate_searches_bit_for_bit(n):
    # Boosted samples, an unboosted one and a small one (searched at a
    # power-of-two scale) share one batch; each result is the one its
    # tensor gets alone.
    pred = parse_predicate("k4a0.5strict")
    tensors = [boost_to_hypothesis(curvop.random_curvature(n, seed=(41, n, i)), pred)[0]
               for i in range(3)]
    tensors += [curvop.random_curvature(n, seed=(42, n)),
                curvop.random_curvature(n, seed=(43, n), scale=1e-3)]
    seeds = [(n, i) for i in range(len(tensors))]
    for t, s, got in zip(tensors, seeds, min_isotropic_batch(tensors, 4, seeds)):
        alone = min_isotropic(t, 4, seed=s)
        assert np.float64(got.best_value).tobytes() == np.float64(alone.best_value).tobytes()
        assert got.best_frame.tobytes() == alone.best_frame.tobytes()
        assert got.refinement_steps == alone.refinement_steps
        assert got.converged == alone.converged


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=4, max_value=8), st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=-60, max_value=0))
@example(4, 0, -10)
@example(6, 1, -10)
@example(6, 2, -20)
def test_search_is_scale_equivariant_for_small_tensors(n, seed, e):
    # The minimum over frames is linear in the tensor. A boosted sample
    # normalised to 1 <= max|R| < 2 and multiplied by 2^e, e <= 0, is
    # searched at its normalised scale, so the search follows the scale
    # exactly. Unscaled, every start at e = -10 hit the iteration cap.
    pred = parse_predicate("k4a0.5strict")
    t = boost_to_hypothesis(curvop.random_curvature(n, seed=seed), pred)[0]
    r0 = CurvatureTensor(np.ldexp(t.array, 1 - math.frexp(t.max_abs())[1]))
    assert 1.0 <= r0.max_abs() < 2.0
    base = min_isotropic(r0, 5, seed=seed)
    small = min_isotropic(CurvatureTensor(np.ldexp(r0.array, e)), 5, seed=seed)
    assert small.best_value == math.ldexp(base.best_value, e)
    assert small.converged == base.converged
    assert small.best_frame.tobytes() == base.best_frame.tobytes()
    assert small.refinement_steps == base.refinement_steps


def test_min_isotropic_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        min_isotropic(curvop.cp2_explicit(), trials=0)
    with pytest.raises(ParameterOutOfRange):
        min_isotropic(curvop.cp2_explicit(), trials=2, seed=-1)
    with pytest.raises(DimensionTooSmall):
        min_isotropic(curvop.constant_curvature(3, 1.0), trials=1)


def test_ricci_min_matches_numpy():
    for n in (3, 4, 5):
        t = curvop.random_curvature(n, seed=(55, n))
        ref = float(np.linalg.eigvalsh(curvop.ricci(t)).min())
        assert ricci_min(t) == pytest.approx(ref, abs=1e-11)


def phi_family(f: np.ndarray) -> np.ndarray:
    """The pic suite's family on the 4-frame f, as the suite builds it."""
    return f @ _PHI @ f.T


def ric_family(f: np.ndarray) -> np.ndarray:
    """The ric suite's family on the n-frame f, as the suite builds it."""
    return f @ _ric_coordinates(f.shape[1]) @ f.T


def test_phi_family_shapes_norms_and_tracelessness():
    rng = np.random.default_rng(6)
    f = random_frame(6, 4, rng)
    phis = phi_family(f)
    assert phis.shape == (9, 6, 6)
    for phi in phis:
        assert np.abs(phi - phi.T).max() < 1e-14
        assert abs(np.trace(phi)) < 1e-13
        assert (phi * phi).sum() == pytest.approx(4.0, abs=1e-12)
    # orthogonal, every squared norm 4
    gram = np.einsum("aij,bij->ab", phis, phis)
    assert np.abs(gram - 4.0 * np.eye(9)).max() < 1e-13


def test_phi_family_matches_its_outer_product_definition():
    f = random_frame(5, 4, np.random.default_rng(17))
    e1, e2, e3, e4 = f.T

    def sym(u, v):
        return np.outer(u, v) + np.outer(v, u)

    d1, d2, d3, d4 = (sym(e, e) for e in (e1, e2, e3, e4))
    expected = [
        (d1 + d2 - d3 - d4) / 2.0, (d1 - d2 + d3 - d4) / 2.0, (d1 - d2 - d3 + d4) / 2.0,
        sym(e1, e4) + sym(e2, e3), sym(e1, e4) - sym(e2, e3),
        sym(e1, e3) + sym(e2, e4), sym(e1, e3) - sym(e2, e4),
        sym(e1, e2) + sym(e3, e4), sym(e1, e2) - sym(e3, e4),
    ]
    assert np.abs(phi_family(f) - np.array(expected)).max() < 1e-14


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
    for n in (3, 4, 5, 8):
        f = random_frame(n, n, rng)
        fam = ric_family(f)
        # 1 + (n-1) + C(n-1,2) + (n-2) members, orthonormal and traceless
        size = (n - 1) * (n + 2) // 2
        assert fam.shape == (size, n, n)
        assert np.abs(fam - np.swapaxes(fam, 1, 2)).max() < 1e-13
        assert np.abs(np.trace(fam, axis1=1, axis2=2)).max() < 1e-13
        gram = np.einsum("aij,bij->ab", fam, fam)
        assert np.abs(gram - np.eye(size)).max() < 1e-13


def test_ric_family_matches_its_outer_product_definition():
    n = 5
    f = random_frame(n, n, np.random.default_rng(18))
    e = f.T

    def sym(u, v):
        return np.outer(u, v) + np.outer(v, u)

    diags = [sym(c, c) for c in e]
    expected = [((n - 1) * diags[0] - sum(diags[1:])) / (2.0 * np.sqrt(n * (n - 1)))]
    expected += [sym(e[0], e[i]) / np.sqrt(2.0) for i in range(1, n)]
    expected += [sym(e[k], e[l]) / np.sqrt(2.0) for k in range(1, n) for l in range(k + 1, n)]
    expected += [(sum(diags[1:j]) - (j - 1) * diags[j]) / (2.0 * np.sqrt(j * (j - 1)))
                 for j in range(2, n)]
    assert np.abs(ric_family(f) - np.array(expected)).max() < 1e-14


@pytest.mark.parametrize("exponent", [-20, -40])
def test_identity_residuals_do_not_shrink_with_the_tensor(exponent):
    # scaling by a power of two scales both sides and the denominator exactly
    t = curvop.random_curvature(5, seed=3)
    small = CurvatureTensor(np.ldexp(t.array, exponent))
    rng = np.random.default_rng(3)
    f4, f5 = random_frame(5, 4, rng), random_frame(5, 5, rng)
    for suite, frame in ((verify_pic_identities, f4), (verify_ric_identities, f5)):
        full, scaled = suite(t, frame), suite(small, frame)
        assert scaled.residuals == full.residuals
        assert scaled.max_residual == full.max_residual
    flat = curvop.build_model("flat:n=4")
    assert verify_pic_identities(flat, random_frame(4, 4, rng)).max_residual == 0.0
    assert verify_ric_identities(flat, random_frame(4, 4, rng)).max_residual == 0.0


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
    q = np.array([bilinear_form(t.array, phi) for phi in phi_family(f)])
    combo = 6.0 * (q[0] + q[4] + q[5]) + 1.5 * (q[1] + q[2] + q[3] + q[6] + q[7] + q[8])
    r4 = pullback(t.array, f)
    s4 = r4[0, 2, 0, 2] + r4[0, 3, 0, 3] + r4[1, 2, 1, 2] + r4[1, 3, 1, 3]
    assert combo == pytest.approx(27.0 * s4 - 54.0 * r4[0, 1, 2, 3], rel=1e-9, abs=1e-9)


def bilinear_form(r: np.ndarray, phis: np.ndarray) -> float:
    """Reference: R_iklj phi_ij phi_kl, summed over a stack of tensors."""
    phis = phis.reshape(-1, *r.shape[:2])
    return float(np.einsum("iklj,aij,akl->", r, phis, phis))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
def test_suite_values_equal_the_bilinear_form_on_each_family_slice(n, seed):
    t = curvop.random_curvature(n, seed=seed)
    rng = np.random.default_rng(seed)
    frame = random_frame(n, n, rng)
    fam = ric_family(frame)
    pairs = n * (n - 1) // 2
    slices = {"eq1": fam[0], "eq2": fam[1:n], "eq3": fam[n:1 + pairs], "eq4": fam[1 + pairs:]}
    if n >= 4:
        frame4 = random_frame(n, 4, rng)
        pic = verify_pic_identities(t, frame4).values
        for a, phi in enumerate(phi_family(frame4), start=1):
            assert pic[f"q_phi{a}"] == pytest.approx(bilinear_form(t.array, phi), rel=1e-12, abs=1e-12)
    ric = verify_ric_identities(t, frame).values
    for name, members in slices.items():
        assert ric[name] == pytest.approx(bilinear_form(t.array, members), rel=1e-12, abs=1e-12)


# --- The descent against the plain projected-gradient loop ---------------

def _reference_descent(rmats, frames, noise, max_iter=500, min_step=1e-10):
    """The plain descent as first written: steps along the projected gradient,
    one pass per group of four halvings, every candidate's gradient computed,
    and one copy of its tensor's matrix per frame (``rmats``, ``noise`` and
    ``frames`` are all per frame)."""
    m = frames.shape[0]
    f = frames.copy()
    value, y = _iso_values(rmats, f)
    grad = _iso_grads(y, f)
    step = np.ones(m)
    iterations = np.full(m, max_iter)
    active = np.arange(m)
    halvings = 0.5 ** np.arange(4)
    for iteration in range(max_iter):
        if active.size == 0:
            break
        fa, ga = f[active], grad[active]
        sym = np.matmul(np.swapaxes(fa, -1, -2), ga)
        tangent = ga - np.matmul(fa, (sym + np.swapaxes(sym, -1, -2)) / 2.0)
        moving = np.abs(tangent).max(axis=(1, 2)) != 0.0
        iterations[active[~moving]] = iteration
        active, fa, tangent = active[moving], fa[moving], tangent[moving]
        searching = np.flatnonzero(step[active] >= min_step)
        accepted = np.zeros(active.size, dtype=bool)
        while searching.size:
            idx = active[searching]
            steps = step[idx][:, None] * halvings
            cands = _retract(fa[searching, None] - steps[:, :, None, None] * tangent[searching, None])
            vals, ys = _iso_values(rmats[idx, None], cands)
            grads = _iso_grads(ys, cands)
            ok = (vals < (value[idx] - noise[idx])[:, None]) & (steps >= min_step)
            hit = ok.any(axis=1)
            rows, best = np.flatnonzero(hit), np.where(ok, vals, np.inf).argmin(axis=1)[hit]
            won = idx[hit]
            f[won], value[won], grad[won] = cands[rows, best], vals[rows, best], grads[rows, best]
            step[won] = np.minimum(steps[rows, best] * 2.0, 1.0)
            accepted[searching[hit]] = True
            missed = idx[~hit]
            step[missed] *= 0.5 ** (steps[~hit] >= min_step).sum(axis=1)
            searching = searching[~hit][step[missed] >= min_step]
        iterations[active[~accepted]] = iteration + 1
        active = active[accepted]
    converged = np.ones(m, dtype=bool)
    converged[active] = False
    return f, value, iterations, converged


def _assert_descent_matches_the_reference(tensors, starts_per_tensor, seed, max_iter=500):
    n = tensors[0].dim
    rmats = np.stack([t.array.reshape(n * n, n * n) for t in tensors])
    noise = np.array([1e-12 * max(1.0, t.max_abs()) for t in tensors])
    owner = np.repeat(np.arange(len(tensors)), starts_per_tensor)
    rng = np.random.default_rng(seed)
    starts = np.array([random_frame(n, 4, rng) for _ in owner])
    got = _descend_batch(rmats, owner, starts, noise, max_iter=max_iter)
    want = _reference_descent(rmats[owner], starts, noise[owner], max_iter=max_iter)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("scale", [1.0, 16.0, 4096.0])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_warm_up_reproduces_the_reference_descent_bit_for_bit(n, scale):
    # Inside the warm-up the descent takes the plain steps, so the wider
    # line-search passes, the winner-only gradients and the shared matrix
    # stack must leave every frame, value, count and flag as they were. On
    # the scaled tensors the first unit step overshoots by orders of
    # magnitude, so wide passes often hold sufficient candidates in more
    # than one group, and only the first such group may decide.
    pred = parse_predicate("k4a0.5strict")
    tensors = [boost_to_hypothesis(curvop.random_curvature(n, seed=(81, n, i), scale=scale), pred)[0]
               for i in range(6)]
    _assert_descent_matches_the_reference(tensors, 4, seed=n, max_iter=_WARM)


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("spec", ["cp2"] + [
    f"product:(sphere:n={n - 1},k=1)x(flat:n=1)" for n in (4, 5, 6, 7, 8)
])
def test_structured_descents_reproduce_the_reference_bit_for_bit(spec, t):
    # The descents on CP^2 and on S^(n-1) x S^1, blended toward the unit
    # sphere, stop inside the warm-up, so whole runs (each ending in a line
    # search run down to min_step) equal the plain descent's.
    model = curvop.build_model(spec)
    blend = curvop.interpolate(model, curvop.constant_curvature(model.dim, 1.0), t)
    _assert_descent_matches_the_reference([blend], 32, seed=(model.dim, int(2 * t)))


@pytest.mark.parametrize(("n", "seed", "trial", "plain_value"), [
    (6, 0, 1, 20.290724455052928),
    (6, 17, 5, 16.97336868165245),
    (7, 11, 0, 21.544384856908604),
    (7, 14, 0, 21.345756980467662),
])
def test_formerly_capped_searches_converge_no_higher(n, seed, trial, plain_value):
    # The plain projected-gradient descent hit the 500-iteration cap on these
    # implication-search samples (907 to 1741 iterations over five starts)
    # and reported the pinned value.
    pred = parse_predicate("k4a0.5strict")
    t = boost_to_hypothesis(curvop.random_curvature(n, seed=(seed, trial)), pred)[0]
    res = min_isotropic(t, 5, seed=(seed, trial, 1))
    assert res.converged
    assert res.refinement_steps <= 400
    assert res.best_value <= plain_value + 1e-12 * max(1.0, t.max_abs())


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_seed_values_equal_the_kernel_bit_for_bit(n):
    pred = parse_predicate("k4a0.5strict")
    tensors = [
        curvop.random_curvature(n, seed=(73, n)),
        boost_to_hypothesis(curvop.random_curvature(n, seed=(74, n)), pred)[0],
        curvop.build_model(f"product:(sphere:n={n - 1},k=1)x(flat:n=1)"),
    ]
    if n == 4:
        tensors.append(curvop.cp2_explicit())
    arrays = np.stack([t.array for t in tensors])
    frames = _coordinate_seed_frames(n)
    for array, values in zip(arrays, _seed_values(arrays)):
        kernel = _iso_values(array.reshape(n * n, n * n), frames)[0]
        assert values.dtype == kernel.dtype and values.tobytes() == kernel.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=4, max_value=8), st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=-3.0, max_value=3.0))
def test_sampled_minimum_lies_between_the_ky_fan_bound_and_the_seeds(n, seed, log_scale):
    # 27 iso = 24 (q1 + q5 + q6) + 6 (q2 + q3 + q4 + q7 + q8 + q9) on the
    # orthonormal phi-family, with Ky Fan's weighted minimum principle, bounds
    # every frame's value from below; the search starts from the seeds.
    pred = parse_predicate("k4a0.5strict")
    t = boost_to_hypothesis(curvop.random_curvature(n, seed=seed, scale=10.0 ** log_scale), pred)[0]
    ev = curvop.second_kind_spectrum(t).eigenvalues
    bound = 2.0 / 9.0 * (4.0 * ev[:3].sum() + ev[3:9].sum())
    res = min_isotropic(t, 3, seed=seed)
    assert res.best_value >= bound - 1e-12 * max(1.0, t.max_abs())
    assert res.best_value <= _seed_values(t.array[None])[0].min()
