"""Frames, isotropic curvature, the descent search, and identity suites."""

import math
from itertools import combinations, permutations

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
from curvop import conditions
from curvop.conditions import (
    _PHI,
    _WARM,
    _coordinate_seed_axes,
    _descend_batch,
    _draw_starts,
    _iso_grads,
    _iso_values,
    _retract,
    _ric_coordinates,
    _seed_values,
    min_isotropic_batch,
)
from curvop.harness import boost_to_hypothesis, parse_predicate
from curvop.secondkind import _first_kind_matrices
from curvop.tensor import _bianchi_cyclic


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


@pytest.mark.parametrize("rng", [3, None, np.random.RandomState(0)])
def test_random_frame_needs_a_generator(rng):
    with pytest.raises(ParameterOutOfRange):
        random_frame(5, 4, rng)


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


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_isotropic_value_adds_twice_the_bianchi_sum_of_an_admitted_tensor(n):
    # The kernel computes <R X, X> + <R Y, Y>, the closed form plus
    # 2 b(e1, e2, e3, e4) with b the cyclic Bianchi sum. A 4-form has every
    # index symmetry of a curvature tensor and b = 3 times itself, so a random
    # tensor plus a small one is admitted at a residual near 9e-11 max|R|.
    base = curvop.random_curvature(n, seed=(23, n)).array
    raw = np.random.default_rng((24, n)).standard_normal((n,) * 4)
    form = np.zeros_like(raw)
    for perm in permutations(range(4)):
        form += (-1.0) ** sum(a > b for a, b in combinations(perm, 2)) * raw.transpose(perm)
    t = CurvatureTensor(base + 3e-11 * np.abs(base).max() / np.abs(form).max() * form)
    scale = t.max_abs()
    assert 8e-11 * scale <= np.abs(_bianchi_cyclic(t.array)).max() <= 1e-10 * scale
    rng = np.random.default_rng((25, n))
    moves = []
    for _ in range(8):
        f = random_frame(n, 4, rng)
        r4 = pullback(t.array, f)
        closed = r4[0, 2, 0, 2] + r4[0, 3, 0, 3] + r4[1, 2, 1, 2] + r4[1, 3, 1, 3] - 2.0 * r4[0, 1, 2, 3]
        move = 2.0 * (r4[0, 1, 2, 3] + r4[0, 2, 3, 1] + r4[0, 3, 1, 2])
        assert abs(isotropic_value(t, f) - (closed + move)) <= 1e-13 * scale
        moves.append(abs(move))
    assert max(moves) > 1e-11 * scale  # the move is far above the tolerance


def _first_kind_bound(t):
    """2 (mu1 + mu2), mu the ascending eigenvalues of the first-kind matrix."""
    mu = np.linalg.eigvalsh(_first_kind_matrices(t.array))
    return 2.0 * (mu[0] + mu[1])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=4, max_value=8), st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_isotropic_values_are_at_least_the_first_kind_bound(n, seed, boosted):
    # X = e13 - e24 and Y = e14 + e23 are orthogonal 2-forms of squared norm 2,
    # so <R X, X> + <R Y, Y> >= 2 (mu1 + mu2) on every frame.
    t = curvop.random_curvature(n, seed=seed)
    if boosted:
        t = boost_to_hypothesis(t, parse_predicate("k4a0.5strict"))[0]
    bound = _first_kind_bound(t) - 1e-12 * max(1.0, t.max_abs())
    rng = np.random.default_rng(seed)
    for _ in range(4):
        assert isotropic_value(t, random_frame(n, 4, rng)) >= bound
    assert min_isotropic(t, 2, seed=seed).best_value >= bound


@pytest.mark.parametrize(("spec", "minimum"), [("cp2", 0.0)] + [(f"sphere:n={n},k=1", 4.0) for n in range(4, 9)])
def test_first_kind_bound_is_met_on_cp2_and_the_unit_spheres(spec, minimum):
    t = curvop.build_model(spec)
    assert _first_kind_bound(t) == pytest.approx(minimum, abs=1e-12)
    assert min_isotropic(t, 4, seed=0).best_value == pytest.approx(minimum, abs=1e-12)


def test_first_kind_bound_is_not_tight_on_s3_times_s1():
    t = curvop.build_model("product:(sphere:n=3,k=1)x(flat:n=1)")
    assert _first_kind_bound(t) == pytest.approx(0.0, abs=1e-12)
    assert min_isotropic(t, 4, seed=0).best_value == 2.0


def _coordinate_seed_frames(n):
    """The (m, n, 4) stack of seed frames, column j of frame i the axis
    ``_coordinate_seed_axes(n)[i, j]``."""
    return np.eye(n)[_coordinate_seed_axes(n)].swapaxes(1, 2)


def test_coordinate_seed_frames_cover_subsets():
    frames = _coordinate_seed_frames(5)
    assert frames.shape == (5 * 6, 5, 4)  # C(5,4) subsets x six orderings
    for f in frames[:12]:
        assert np.abs(f.T @ f - np.eye(4)).max() == 0.0


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_coordinate_seed_axes_match_the_reference_loop_and_are_cached(n):
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
    axes = _coordinate_seed_axes(n)
    assert axes.shape == (reference.shape[0], 4)
    assert _coordinate_seed_axes(n) is axes
    assert not axes.flags.writeable


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
    coord_min = _iso_values(_first_kind_matrices(t.array), frames)[0].min()
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


# Seed parts of one, two and three 32-bit words, the edges included.
_SEED_PARTS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 5]), st.integers(0, 2**96))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_SEED_PARTS, max_size=6).map(tuple), min_size=1, max_size=4),
       st.integers(min_value=1, max_value=5), st.integers(min_value=4, max_value=8))
@example([(0,), (2**32 - 1,), (2**32,), (2**64 + 5,)], 2, 5)
@example([(1,), (1, 2), (1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)], 3, 8)
@example([(2**64 + 5, 0), (7,), (2**64 + 5, 2**32, 2**32 - 1, 0)], 4, 6)
def test_drawn_starts_equal_default_rng_draws_byte_for_byte(materials, trials, n):
    # One hash pass over every start's entropy, grouped by word count, must
    # seed each start as default_rng((*material, trial)) does: materials of
    # 1 to 6 words and past the 4-word pool, mixed in one call.
    expected = np.array([np.random.default_rng((*material, trial)).standard_normal((n, 4))
                         for material in materials for trial in range(trials)])
    drawn = _draw_starts(materials, trials, n)
    assert drawn.shape == expected.shape and drawn.tobytes() == expected.tobytes()


def test_descent_keeps_cp2_minimum_sign_exact():
    # CP^2 sits on the boundary: its isotropic minimum is exactly 0, and the
    # probe's boundary check, with no rounding bound on a sampled minimum,
    # requires isoMin to be exactly 0, so no descent may dip below 0 by
    # rounding. The n = 4 search builds its frame instead of
    # descending, so the descent runs here directly, from the 200 x 32
    # starts min_isotropic_batch(200 x CP^2, 32, range(200)) would draw.
    cp2 = curvop.cp2_explicit()
    starts = _retract(np.array([np.random.default_rng((seed, trial)).standard_normal((4, 4))
                                for seed in range(200) for trial in range(32)]))
    noise = np.array([1e-12 * max(1.0, cp2.max_abs())])
    _, values, _, converged = _descend_batch(
        _first_kind_matrices(cp2.array)[None], np.zeros(len(starts), dtype=int), starts, noise)
    assert (values >= 0.0).all()
    assert (values.reshape(200, 32).min(axis=1) <= 1e-6).all()
    assert converged.all()


def test_cp2_over_three_minimum_is_exactly_zero():
    # CP^2 / 3, the probe's t = 2/3 row toward flat space: the descent once
    # settled one ulp below its exact minimum 0.
    cp2 = curvop.cp2_explicit()
    blend = curvop.interpolate(cp2, curvop.build_model("flat:n=4"), 2 / 3)
    assert min_isotropic(blend, 20, seed=2).best_value == 0.0


@pytest.mark.parametrize("trials", [5, 32])
@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_boundary_models_report_their_exact_minima(n, trials):
    # A coordinate seed attains the minimum of the unit sphere (4) and of
    # S^(n-1) x S^1 (2) exactly, and a descended frame that is lower only by
    # rounding must not displace it: the sphere reported 4 - 8.9e-16.
    sphere = curvop.build_model(f"sphere:n={n},k=1")
    product = curvop.build_model(f"product:(sphere:n={n - 1},k=1)x(flat:n=1)")
    assert min_isotropic(sphere, trials, seed=1).best_value == 4.0
    assert min_isotropic(product, trials, seed=1).best_value == 2.0


def test_descent_step_keeps_lowest_sufficient_candidate(monkeypatch):
    # One iteration from random frames on S^5 x S^1: the kept frame is the
    # lowest of the four candidate steps that beat the noise guard, which is
    # not always the largest such step.
    n, m = 6, 16
    t = curvop.build_model("product:(sphere:n=5,k=1)x(flat:n=1)")
    rng = np.random.default_rng(0)
    frames = np.array([random_frame(n, 4, rng) for _ in range(m)])
    rmats = np.repeat(_first_kind_matrices(t.array)[None], m, axis=0)
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
    monkeypatch.setattr(conditions, "_MAX_ITER", 1)
    f, v, _, _ = _descend_batch(rmats, np.arange(m), frames, noise)
    assert np.array_equal(f, cands[np.arange(m), lowest])
    assert np.array_equal(v, vals[np.arange(m), lowest])


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_gradient_matches_a_central_difference_of_the_values(n):
    # The value is a polynomial in the frame entries, so the kernel's
    # gradient is checked off the manifold too, entry by entry.
    t = curvop.random_curvature(n, seed=(32, n))
    rmat = _first_kind_matrices(t.array)
    rng = np.random.default_rng((32, n))
    frames = np.array([random_frame(n, 4, rng) for _ in range(3)])
    grads = _iso_grads(_iso_values(rmat, frames)[1], frames)
    h = 1e-5
    for frame, grad in zip(frames, grads):
        numeric = np.empty_like(frame)
        for index in np.ndindex(frame.shape):
            step = np.zeros_like(frame)
            step[index] = h
            up, down = _iso_values(rmat, frame + step)[0], _iso_values(rmat, frame - step)[0]
            numeric[index] = (up - down) / (2 * h)
        assert np.abs(numeric - grad).max() <= 1e-7 * np.abs(grad).max()


def _record_line_search_passes(monkeypatch):
    """Patch ``_retract`` to record the (frames, candidates) shape of every
    line-search pass, and return the list it appends to."""
    shapes = []
    retract = conditions._retract

    def recording(f):
        if f.ndim == 4:  # a line-search pass: (frames, candidates, n, 4)
            shapes.append(f.shape[:2])
        return retract(f)

    monkeypatch.setattr(conditions, "_retract", recording)
    return shapes


def test_every_line_search_pass_holds_four_candidates_per_frame(monkeypatch):
    # On scaled boosted samples the unit step overshoots by orders of
    # magnitude, so a line search runs many passes, each of them the frame's
    # step and its three halvings.
    shapes = _record_line_search_passes(monkeypatch)
    pred = parse_predicate("k4a0.5strict")
    for n in (5, 6, 8):
        tensors = [boost_to_hypothesis(curvop.random_curvature(n, seed=(81, n, i), scale=4096.0), pred)[0]
                   for i in range(6)]
        results = min_isotropic_batch(tensors, 4, [(n, i) for i in range(6)])
        assert all(r.converged for r in results)
    assert shapes and all(width == 4 for _, width in shapes)


def test_later_line_search_passes_stop_at_the_first_order_floor(monkeypatch):
    # A probe-sized call: three blends of S^7 x S^1 toward the unit sphere,
    # 32 starts each, in one batch. Most starts stop inside the warm-up with
    # a line search that finds nothing; walking its ladder down to min_step
    # took 4,256 candidates in 13 passes, and stopping at noise / <r, d>
    # takes 1,184 in 5, with the same iteration counts.
    shapes = _record_line_search_passes(monkeypatch)
    base = curvop.build_model("product:(sphere:n=7,k=1)x(flat:n=1)")
    blends = [curvop.interpolate(base, curvop.constant_curvature(8, 1.0), t) for t in (0.0, 0.5, 1.0)]
    results = min_isotropic_batch(blends, 32, [(8, row) for row in range(3)])
    assert all(r.converged for r in results)
    assert [r.refinement_steps for r in results] == [126, 138, 32]
    assert sum(frames * width for frames, width in shapes) <= 1500


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


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
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


def _assert_descent_matches_the_reference(tensors, starts_per_tensor, seed):
    n = tensors[0].dim
    rmats = np.stack([_first_kind_matrices(t.array) for t in tensors])
    noise = np.array([1e-12 * max(1.0, t.max_abs()) for t in tensors])
    owner = np.repeat(np.arange(len(tensors)), starts_per_tensor)
    rng = np.random.default_rng(seed)
    starts = np.array([random_frame(n, 4, rng) for _ in owner])
    got = _descend_batch(rmats, owner, starts, noise)
    want = _reference_descent(rmats[owner], starts, noise[owner], max_iter=conditions._MAX_ITER)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("scale", [1.0, 16.0, 4096.0])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_warm_up_reproduces_the_reference_descent_bit_for_bit(n, scale, monkeypatch):
    # Inside the warm-up the descent takes the plain steps, so the
    # first-order floor, the winner-only gradients and the shared matrix
    # stack must leave every frame, value, count and flag as they were. On
    # the scaled tensors the first unit step overshoots by orders of
    # magnitude, so a line search runs many passes of four halvings before
    # one holds a sufficient candidate.
    pred = parse_predicate("k4a0.5strict")
    tensors = [boost_to_hypothesis(curvop.random_curvature(n, seed=(81, n, i), scale=scale), pred)[0]
               for i in range(6)]
    monkeypatch.setattr(conditions, "_MAX_ITER", _WARM)
    _assert_descent_matches_the_reference(tensors, 4, seed=n)


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


# best_value.hex() and refinement_steps of min_isotropic_batch on ten
# k4a0.5strict-boosted samples per dimension, five starts each, recorded from
# the kernel that evaluates <R X, X> + <R Y, Y> on the frame's 2-forms
# X = e13 - e24 and Y = e14 + e23 (NumPy 2.4.6, OpenBLAS 0.3.31, x86-64;
# another BLAS kernel may round the last bits differently). The n = 4 pins
# are the kernel's values at the exact frames built from two complex
# structures and retracted, no descent.
_GOLDEN_SEARCHES = {
    4: (
        ("0x1.fee31634e45eap+2", 0), ("0x1.d9a771140929ep+2", 0),
        ("0x1.217aa0525e904p+2", 0), ("0x1.9715f87d1815cp+2", 0),
        ("0x1.8bb0ad1947380p+2", 0), ("0x1.60d1b46717040p+2", 0),
        ("0x1.3d9a12657061ap+2", 0), ("0x1.7a67148513e55p+2", 0),
        ("0x1.464265811c454p+2", 0), ("0x1.ae58fdc72b812p+2", 0),
    ),
    5: (
        ("0x1.470cfa0d5bac3p+3", 123), ("0x1.75742d3e5930cp+3", 171),
        ("0x1.3e488fd478794p+3", 99), ("0x1.ceb2cb7dc912dp+3", 155),
        ("0x1.ba44478eb41a4p+3", 125), ("0x1.b2c135960c855p+3", 132),
        ("0x1.c559aac07a570p+3", 184), ("0x1.875f7af8a4b10p+3", 204),
        ("0x1.5706d8e0dbef8p+3", 117), ("0x1.838e39e9d3cbdp+3", 132),
    ),
    6: (
        ("0x1.02d8b9f6016e3p+4", 179), ("0x1.1e6dffe7c7806p+4", 138),
        ("0x1.40577ccfcb34fp+4", 144), ("0x1.02d7a78b53efbp+4", 130),
        ("0x1.0920fdb5cdb86p+4", 143), ("0x1.f362aec5bab59p+3", 165),
        ("0x1.31c6c7025f086p+4", 167), ("0x1.00fe1b8519689p+4", 278),
        ("0x1.21c4da32238c8p+4", 187), ("0x1.056c8c0e8eda0p+4", 141),
    ),
    7: (
        ("0x1.75e3ca8ff5112p+4", 172), ("0x1.9ab56aeadc50ep+4", 173),
        ("0x1.8fadf7a44fc5ep+4", 198), ("0x1.5ff1793a91c80p+4", 190),
        ("0x1.746dc4f7b372cp+4", 153), ("0x1.aa8566293b56fp+4", 225),
        ("0x1.6f46462c5e264p+4", 189), ("0x1.74099da0f6a6fp+4", 213),
        ("0x1.708f1df598a16p+4", 184), ("0x1.73e87b3cdfc32p+4", 214),
    ),
    8: (
        ("0x1.e83ac297f109fp+4", 197), ("0x1.015de5fb6bef8p+5", 186),
        ("0x1.f4e96bc3fe764p+4", 205), ("0x1.c1b847b529fe5p+4", 196),
        ("0x1.008f3df591ffep+5", 192), ("0x1.92e9059efcbe9p+4", 186),
        ("0x1.dac0d0bf7ffc6p+4", 198), ("0x1.de5d2a98242fep+4", 197),
        ("0x1.dac2395521a82p+4", 227), ("0x1.a1aa88264ae58p+4", 172),
    ),
}


@pytest.mark.parametrize("n", sorted(_GOLDEN_SEARCHES))
def test_whole_boosted_searches_keep_their_pinned_results(n):
    # The reference tests above stop at the warm-up on random tensors; these
    # pins follow whole conjugate gradient runs, so a change meant to keep
    # every result must reproduce them bit for bit.
    pred = parse_predicate("k4a0.5strict")
    tensors = [boost_to_hypothesis(curvop.random_curvature(n, seed=(97, n, i)), pred)[0]
               for i in range(10)]
    results = min_isotropic_batch(tensors, 5, [(97, n, i) for i in range(10)])
    assert all(r.converged for r in results)
    assert [(r.best_value.hex(), r.refinement_steps) for r in results] == list(_GOLDEN_SEARCHES[n])


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
        kernel = _iso_values(_first_kind_matrices(array), frames)[0]
        assert values.dtype == kernel.dtype and values.tobytes() == kernel.tobytes()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["random", "near cp2", "near sphere"]), st.integers(min_value=4, max_value=8),
       st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=-3.0, max_value=3.0),
       st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4]))
def test_sampled_minimum_lies_between_the_ky_fan_bound_and_the_seeds(family, n, seed, log_scale, eps):
    # 27 iso = 24 (q1 + q5 + q6) + 6 (q2 + q3 + q4 + q7 + q8 + q9) on the
    # orthonormal phi-family, with Ky Fan's weighted minimum principle, bounds
    # every frame's value from below; the search starts from the seeds. Near
    # CP^2 (n = 4) the bound and the minimum meet, their gap falling as eps^2;
    # near the unit sphere (any n) the gap is of order eps.
    pred = parse_predicate("k4a0.5strict")
    if family == "random":
        t = curvop.random_curvature(n, seed=seed, scale=10.0 ** log_scale)
    else:
        base = curvop.cp2_explicit() if family == "near cp2" else curvop.constant_curvature(n, 1.0)
        t = curvop.shift(base, curvop.random_curvature(base.dim, seed=seed), eps)
    t = boost_to_hypothesis(t, pred)[0]
    ev = curvop.second_kind_spectrum(t).eigenvalues
    bound = 2.0 / 9.0 * (4.0 * ev[:3].sum() + ev[3:9].sum())
    res = min_isotropic(t, 3, seed=seed)
    assert res.best_value >= bound - 1e-12 * max(1.0, t.max_abs())
    assert res.best_value <= _seed_values(t.array[None])[0].min()


# --- The exact n = 4 search ------------------------------------------------

def _four_dimensional_tensor(seed, log_scale, boosted):
    t = curvop.random_curvature(4, seed=seed, scale=10.0 ** log_scale)
    return boost_to_hypothesis(t, parse_predicate("k4a0.5strict"))[0] if boosted else t


def _hodge_minimum(t):
    """2 min(a1 + a2, c1 + c2) from the Hodge star: a and c are the
    eigenvalues of the first-kind matrix on the +1 and -1 eigenspaces of the
    star, found by an eigensolve of the star itself."""
    star = np.zeros((6, 6))  # pairs 12, 13, 14, 23, 24, 34
    for p, q, sign in ((0, 5, 1.0), (1, 4, -1.0), (2, 3, 1.0)):
        star[p, q] = star[q, p] = sign
    _, vectors = np.linalg.eigh(star)  # eigenvalues -1, -1, -1, 1, 1, 1
    rmat = _first_kind_matrices(t.array)
    lowest = [np.linalg.eigvalsh(half.T @ rmat @ half)[:2].sum() for half in (vectors[:, :3], vectors[:, 3:])]
    return 2.0 * min(lowest)


def _exact_property(test):
    """Run ``test(seed, log_scale, boosted)`` on 40 random n = 4 tensors."""
    cases = given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=-3.0, max_value=3.0),
                  st.booleans())
    return settings(max_examples=40, deadline=None)(cases(test))


@_exact_property
def test_exact_search_reports_its_frame_and_the_closed_form(seed, log_scale, boosted):
    t = _four_dimensional_tensor(seed, log_scale, boosted)
    res = min_isotropic(t, 3, seed=seed)
    assert res.best_value == isotropic_value(t, res.best_frame)
    assert abs(res.best_value - _hodge_minimum(t)) <= 1e-13 * t.max_abs()
    assert (res.samples_used, res.refinement_steps, res.converged) == (_coordinate_seed_axes(4).shape[0] + 1, 0, True)


@_exact_property
def test_exact_search_is_no_higher_than_a_descent(seed, log_scale, boosted):
    t = _four_dimensional_tensor(seed, log_scale, boosted)
    rng = np.random.default_rng(seed)
    starts = np.array([random_frame(4, 4, rng) for _ in range(32)])
    noise = np.array([1e-12 * max(1.0, t.max_abs())])
    descended = _descend_batch(_first_kind_matrices(t.array)[None], np.zeros(32, dtype=int), starts, noise)[1]
    assert min_isotropic(t, 3, seed=seed).best_value <= descended.min() + 1e-14 * t.max_abs()


@_exact_property
def test_exact_search_is_at_least_the_ky_fan_bound(seed, log_scale, boosted):
    t = _four_dimensional_tensor(seed, log_scale, boosted)
    ev = curvop.second_kind_spectrum(t).eigenvalues
    bound = 2.0 / 9.0 * (4.0 * ev[:3].sum() + ev[3:9].sum())
    assert min_isotropic(t, 3, seed=seed).best_value >= bound - 1e-13 * t.max_abs()


@_exact_property
def test_exact_search_is_invariant_under_a_change_of_basis(seed, log_scale, boosted):
    # Both orientations: a basis change of determinant -1 swaps Lambda+ and
    # Lambda-, so the search then wins on the other block.
    t = _four_dimensional_tensor(seed, log_scale, boosted)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
    moved = CurvatureTensor(pullback(t.array, q))
    base, turned = min_isotropic(t, 3, seed=seed).best_value, min_isotropic(moved, 3, seed=seed).best_value
    assert abs(turned - base) <= 1e-12 * max(abs(base), t.max_abs())


def test_orientation_reversed_cp2_goes_through_the_anti_self_dual_block():
    # Flipping e4 swaps Lambda+ and Lambda-: the zero minimum of CP^2 moves
    # to frames of determinant -1, and the built frame is one.
    cp2 = curvop.cp2_explicit()
    reversed_cp2 = CurvatureTensor(pullback(cp2.array, np.diag([1.0, 1.0, 1.0, -1.0])))
    for t, det in ((cp2, 1.0), (reversed_cp2, -1.0)):
        built = conditions._exact_frames(_first_kind_matrices(t.array)[None])[0]
        assert np.linalg.det(built) == pytest.approx(det, abs=1e-12)
        assert abs(isotropic_value(t, built)) <= 1e-14
        res = min_isotropic(t, 3, seed=0)
        assert res.best_value == 0.0
        assert np.linalg.det(res.best_frame) == pytest.approx(det, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([-20, 20]), st.booleans())
def test_built_frames_are_orthonormal_to_rounding(seed, exponent, boosted):
    # Both orientations at scales 2^-20 and 2^20. Unretracted, the frame read
    # off X and Y is off by a few ulps, which check_frame's 1e-12 would pass.
    t = _four_dimensional_tensor(seed, 0.0, boosted)
    arrays = np.ldexp(np.stack([t.array, pullback(t.array, np.diag([1.0, 1.0, 1.0, -1.0]))]), exponent)
    rmats = _first_kind_matrices(arrays)
    frames = conditions._exact_frames(rmats)
    assert _gram_deviation(frames).max() <= 1e-15
    assert np.linalg.det(frames[0]) * np.linalg.det(frames[1]) == pytest.approx(-1.0, abs=1e-12)
    exact = np.ldexp(_hodge_minimum(t), exponent)
    assert np.abs(_iso_values(rmats, frames)[0] - exact).max() <= 1e-13 * np.abs(arrays).max()


@pytest.mark.parametrize(("angle", "frame_wins"), [(5e-7, False), (1e-6, True)])
def test_built_frame_must_beat_the_seeds_by_more_than_the_noise_guard(angle, frame_wins):
    # CP^2 turned by a small angle in the (e1, e3) plane: its minimum stays 0,
    # while the best coordinate seed rises by about 12 angle^2, 3e-12 and
    # 1.2e-11 here, against a guard of 4e-12.
    c, s = math.cos(angle), math.sin(angle)
    turn = np.array([[c, 0.0, -s, 0.0], [0.0, 1.0, 0.0, 0.0], [s, 0.0, c, 0.0], [0.0, 0.0, 0.0, 1.0]])
    t = CurvatureTensor(pullback(curvop.cp2_explicit().array, turn))
    rmat = _first_kind_matrices(t.array)[None]
    built = _iso_values(rmat, conditions._exact_frames(rmat))[0][0]
    seed = _seed_values(t.array[None]).min()
    assert abs(built) <= 1e-14 < seed
    assert min_isotropic(t, 3, seed=0).best_value == (built if frame_wins else seed)
