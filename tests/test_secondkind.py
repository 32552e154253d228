"""Bases, operator matrices, the LAPACK eigensolver, and graded positivity."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvop
from curvop import (
    ALPHA_ALWAYS,
    ALPHA_UNATTAINABLE,
    CurvopError,
    DimensionMismatch,
    NotSymmetric,
    ParameterOutOfRange,
    PredicateSpec,
    Spectrum,
    ValidationFailure,
    alpha_star,
    eigen_sym,
    k_alpha_positive,
    k_alpha_value,
    lambda2_basis,
    lambda2_dim,
    named_conditions,
    positivity_profile,
    ricci,
    ricci_min,
    s20_basis,
    s20_dim,
    second_kind_matrix,
)
from curvop.conditions import _PHI, _ric_coordinates, pullback
from curvop.secondkind import _first_kind_matrices, _k_alpha_bound, _sign


def test_dimension_counts():
    assert [s20_dim(n) for n in (2, 3, 4, 5, 6)] == [2, 5, 9, 14, 20]
    assert [lambda2_dim(n) for n in (2, 3, 4, 5)] == [1, 3, 6, 10]


def test_s20_basis_is_orthonormal_and_traceless():
    for n in (2, 3, 4, 6):
        basis = s20_basis(n)
        assert basis.shape == (s20_dim(n), n, n)
        gram = np.einsum("aij,bij->ab", basis, basis)
        assert np.abs(gram - np.eye(s20_dim(n))).max() < 1e-14
        assert np.abs(np.trace(basis, axis1=1, axis2=2)).max() < 1e-14


def test_rotated_basis_stays_orthonormal():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    basis = q @ s20_basis(5) @ q.T
    gram = np.einsum("aij,bij->ab", basis, basis)
    assert np.abs(gram - np.eye(14)).max() < 1e-12
    assert np.abs(np.trace(basis, axis1=1, axis2=2)).max() < 1e-12


def reference_s20_basis(n):
    """The element-by-element loop the index-array basis replaced."""
    els = []
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j] = m[j, i] = inv_sqrt2
            els.append(m)
    for j in range(1, n):
        m = np.zeros((n, n))
        c = 1.0 / np.sqrt(j * (j + 1))
        for p in range(j):
            m[p, p] = c
        m[j, j] = -j * c
        els.append(m)
    return np.array(els)


def reference_lambda2_basis(n):
    mats = np.zeros((lambda2_dim(n), n, n))
    a = 0
    for i in range(n):
        for j in range(i + 1, n):
            mats[a, i, j] = 1.0
            mats[a, j, i] = -1.0
            a += 1
    return mats


@pytest.mark.parametrize("n", range(2, 13))
def test_bases_equal_the_reference_loops_bit_for_bit(n):
    basis = s20_basis(n)
    assert basis.tobytes() == reference_s20_basis(n).tobytes()
    assert basis.shape == (s20_dim(n), n, n)
    assert lambda2_basis(n).tobytes() == reference_lambda2_basis(n).tobytes()
    assert lambda2_basis(n).shape == (lambda2_dim(n), n, n)


def test_s20_basis_is_cached_and_read_only():
    assert s20_basis(5) is s20_basis(5)
    with pytest.raises(ValueError):
        s20_basis(5)[0, 0, 1] = 1.0


@pytest.mark.parametrize("n", range(3, 8))
def test_lambda2_basis_carries_the_first_kind_matrix(n):
    t = curvop.random_curvature(n, seed=(8, n))
    forms = lambda2_basis(n)
    m = np.einsum("ijkl,aij,bkl->ab", t.array, forms, forms) / 4.0
    assert np.array_equal(m, _first_kind_matrices(t.array))


def test_second_kind_matrix_matches_bilinear_form_definition():
    t = curvop.random_curvature(4, seed=2)
    phi = s20_basis(4)
    direct = np.einsum("iklj,aij,bkl->ab", t.array, phi, phi)
    assert np.abs(second_kind_matrix(t) - direct).max() < 1e-13


def _tensordot_second_kind(array, phi):
    """The two-tensordot assembly the matrix products replaced, as a reference."""
    half = np.tensordot(phi, array, axes=([1, 2], [0, 3]))  # a k l
    return np.tensordot(half, phi, axes=([1, 2], [1, 2]))  # a b


@pytest.mark.parametrize("n", range(2, 10))
def test_second_kind_matrix_equals_the_tensordot_route_byte_for_byte(n):
    rng = np.random.default_rng((61, n))
    stacks = [s20_basis(n)]
    # the identity suites' F C F^T families: on orthonormal frames, and on
    # Gaussian frames, whose stacks are far from orthonormal
    for frame in (curvop.random_frame(n, n, rng), rng.standard_normal((n, n))):
        if n >= 3:
            stacks.append(frame @ _ric_coordinates(n) @ frame.T)
        if n >= 4:
            stacks.append(frame[:, :4] @ _PHI @ frame[:, :4].T)
    for seed in range(3):
        t = curvop.random_curvature(n, seed=(61, n, seed))
        assert second_kind_matrix(t).tobytes() == _tensordot_second_kind(t.array, s20_basis(n)).tobytes()
        for phi in stacks:
            m = second_kind_matrix(t, phi)
            assert m.tobytes() == _tensordot_second_kind(t.array, phi).tobytes()
            direct = np.einsum("iklj,aij,bkl->ab", t.array, phi, phi)
            assert np.abs(m - direct).max() <= 1e-12 * np.abs(direct).max()


def test_second_kind_matrix_rejects_a_stack_of_the_wrong_shape():
    t = curvop.random_curvature(4, seed=2)
    with pytest.raises(DimensionMismatch):
        second_kind_matrix(t, s20_basis(5))
    with pytest.raises(DimensionMismatch):
        second_kind_matrix(t, s20_basis(4)[:, :, :3])


def test_second_kind_spectrum_is_basis_independent():
    t = curvop.random_curvature(5, seed=4)
    rng = np.random.default_rng(40)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    lam_a = eigen_sym(second_kind_matrix(t, s20_basis(5))).eigenvalues
    lam_b = eigen_sym(second_kind_matrix(t, q @ s20_basis(5) @ q.T)).eigenvalues
    assert np.abs(lam_a - lam_b).max() < 1e-9


def test_first_kind_matrix_sphere_is_identity():
    m = _first_kind_matrices(curvop.constant_curvature(5, 1.0).array)
    assert np.abs(m - np.eye(10)).max() < 1e-14


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_first_kind_matrix_matches_pair_loop(n):
    t = curvop.random_curvature(n, seed=(77, n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    loop = np.array([[t.array[i, j, k, l] for (k, l) in pairs] for (i, j) in pairs])
    assert np.array_equal(_first_kind_matrices(t.array), loop)
    # the (n^2, n^2) view restricted to i < j, k < l; the isotropic kernel
    # takes it for a stack of arrays at once
    flat = [i * n + j for i, j in pairs]
    assert np.array_equal(t.array.reshape(n * n, n * n)[np.ix_(flat, flat)], loop)
    stacked = _first_kind_matrices(np.stack([t.array, np.ldexp(t.array, 3)]))
    assert np.array_equal(stacked, np.stack([loop, np.ldexp(loop, 3)]))


def test_eigen_sym_agrees_with_numpy_on_random_operators():
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        for trial in range(6):
            m = second_kind_matrix(curvop.random_curvature(n, seed=(101, n, trial)))
            got = eigen_sym(m).eigenvalues
            ref = np.linalg.eigvalsh(m)
            worst = max(worst, float(np.abs(got - ref).max()))
    assert worst < 1e-10


def test_eigen_sym_reconstruction_and_orthogonality():
    m = second_kind_matrix(curvop.random_curvature(5, seed=77))
    sp = eigen_sym(m)
    v, lam = sp.eigenvectors, sp.eigenvalues
    fro = float(np.sqrt((m * m).sum()))
    assert np.sqrt(((m - (v * lam) @ v.T) ** 2).sum()) <= 1e-10 * fro
    assert np.abs(v.T @ v - np.eye(len(lam))).max() < 1e-12
    assert sp.residual <= 1e-10 * fro


def test_eigen_sym_vector_free_mode_matches():
    m = second_kind_matrix(curvop.random_curvature(6, seed=13))
    full = eigen_sym(m)
    lean = eigen_sym(m, vectors=False)
    assert lean.eigenvectors is None and lean.residual is None
    assert np.array_equal(full.eigenvalues, lean.eigenvalues)


def test_eigen_sym_handles_degenerate_clusters():
    # spectrum {-1/2, 0 x3, 1 x5} has two flat clusters
    t = curvop.product(curvop.constant_curvature(3, 1.0), curvop.flat(1))
    lam = eigen_sym(second_kind_matrix(t)).eigenvalues
    expected = np.array([-0.5, 0, 0, 0, 1, 1, 1, 1, 1])
    assert np.abs(lam - expected).max() < 1e-12


def test_eigen_sym_rejects_bad_input():
    with pytest.raises(NotSymmetric):
        eigen_sym(np.zeros((3, 4)))
    with pytest.raises(NotSymmetric):
        eigen_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))
    m = second_kind_matrix(curvop.random_curvature(5, seed=1))
    m[2, 3] = m[3, 2] = np.nan
    with pytest.raises(CurvopError):
        eigen_sym(m)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
@pytest.mark.parametrize("vectors", [True, False])
def test_eigen_sym_rejects_non_finite_and_overflowing_input_unwarned(value, vectors):
    # 1e200 is finite, but its square, and so the Frobenius norm, overflows
    m = np.eye(4)
    m[1, 2] = m[2, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationFailure):
            eigen_sym(m, vectors=vectors)
        with pytest.raises(ValidationFailure):
            eigen_sym(np.full((3, 3), value), vectors=vectors)


def test_eigen_sym_trivial_sizes():
    sp = eigen_sym(np.array([[3.0]]))
    assert sp.eigenvalues[0] == 3.0 and sp.residual == 0.0
    sp = eigen_sym(np.zeros((4, 4)))
    assert np.array_equal(sp.eigenvalues, np.zeros(4))


def test_k_alpha_value_uses_partial_sums():
    lam = Spectrum(np.array([-2.0, -1.0, 3.0, 5.0]), None, None)
    assert k_alpha_value(lam, 1, 0.0) == -2.0
    assert k_alpha_value(lam, 2, 1.0) == pytest.approx(0.0)
    assert k_alpha_value(lam, 3, 0.5) == pytest.approx(0.0 + 2.5)
    assert k_alpha_value(lam, 4, 0.0) == pytest.approx(5.0)


def test_k_alpha_positive_strict_vs_nonneg():
    lam = Spectrum(np.array([-2.0, -1.0, 3.0, 5.0]), None, None)
    assert not k_alpha_positive(lam, 2, 1.0, strict=True)
    assert k_alpha_positive(lam, 2, 1.0, strict=False)


def test_k_alpha_parameter_validation():
    lam = Spectrum(np.arange(4.0), None, None)
    with pytest.raises(ParameterOutOfRange):
        k_alpha_value(lam, 0, 0.5)
    with pytest.raises(ParameterOutOfRange):
        k_alpha_value(lam, 1, 1.5)
    with pytest.raises(ParameterOutOfRange):
        k_alpha_value(lam, 4, 0.5)  # k + alpha exceeds the spectrum size


def test_alpha_star_three_regimes():
    def spectrum(values):
        return Spectrum(np.array(values), None, None)

    assert alpha_star(spectrum([1.0, 2.0, 3.0]), 1) == ALPHA_ALWAYS
    assert alpha_star(spectrum([-2.0, -1.0, 3.0, 5.0]), 3) == pytest.approx(0.0)
    assert alpha_star(spectrum([-1.0, 2.0, 3.0]), 1) == pytest.approx(0.5)
    assert alpha_star(spectrum([-5.0, 1.0, 1.0]), 1) == ALPHA_UNATTAINABLE
    assert alpha_star(spectrum([0.0, 0.0, 1.0]), 1) == ALPHA_ALWAYS


def test_named_conditions_cover_both_standard_thresholds():
    names = named_conditions(5)
    assert "4.5-positive" in names and "4.5-nonnegative" in names
    assert "(5+3/5)-positive" in names
    assert names["4.5-nonnegative"] == PredicateSpec(4, 0.5, strict=False)
    assert names["(5+3/5)-positive"] == PredicateSpec(5, 0.6, strict=True)


def test_positivity_profile_structure_and_cp2_threshold():
    sp = eigen_sym(second_kind_matrix(curvop.cp2_explicit()))
    doc = positivity_profile(sp)
    assert len(doc["profile"]) == 8  # k = 1..N-1
    row = doc["profile"][3]
    assert row["k"] == 4 and row["alphaStar"] == pytest.approx(0.5, abs=1e-9)
    assert set(doc) >= {"eigenvalues", "profile", "verdicts"}


def _known_spectra():
    """Models with exact second-kind spectra: (name, tensor, eigenvalues)."""
    cp2 = curvop.cp2_explicit()
    reversed_cp2 = curvop.CurvatureTensor(pullback(cp2.array, np.diag([1.0, 1.0, 1.0, -1.0])))
    cases = [("cp2", cp2, [-2.0] * 3 + [4.0] * 6), ("reversed cp2", reversed_cp2, [-2.0] * 3 + [4.0] * 6)]
    for n in range(4, 9):
        size = s20_dim(n)
        product = curvop.build_model(f"product:(sphere:n={n - 1},k=1)x(flat:n=1)")
        cases.append((f"S^{n - 1} x S^1", product, [-(n - 2) / n] + [0.0] * (n - 1) + [1.0] * (size - n)))
        cases.append((f"S^{n}", curvop.constant_curvature(n, 1.0), [1.0] * size))
    return [(name, t, np.array(ev)) for name, t, ev in cases]


_KNOWN = _known_spectra()
_BOUNDARY = [case for case in _KNOWN if case[2][0] < 0.0]  # CP^2 and S^(n-1) x S^1, not the spheres


def _turned(t, seed, e):
    """2^e times the tensor in a random orthonormal frame (an O(n) turn)."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((t.dim, t.dim)))
    return curvop.CurvatureTensor(np.ldexp(pullback(t.array, q), e))


def _advertised(n):
    """The (n + (n-2)/n) pair of ``named_conditions``: 4.5 at n = 4."""
    return [name for name in named_conditions(n) if name.startswith(f"({n}+")]


@pytest.mark.parametrize("t", [c[1] for c in _BOUNDARY], ids=[c[0] for c in _BOUNDARY])
def test_boundary_models_are_nonnegative_not_positive_at_their_alpha(t):
    verdicts = positivity_profile(eigen_sym(second_kind_matrix(t), vectors=False))["verdicts"]
    positive, nonnegative = _advertised(t.dim)
    assert verdicts[nonnegative] is True and verdicts[positive] is False
    if t.dim == 4:
        assert verdicts["4.5-nonnegative"] is True and verdicts["4.5-positive"] is False


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_BOUNDARY), st.integers(0, 2**31 - 1), st.integers(-30, 30))
def test_boundary_verdicts_do_not_move_under_turns_and_scalings(case, seed, e):
    _, t, _ = case
    verdicts = positivity_profile(curvop.second_kind_spectrum(t))["verdicts"]
    assert positivity_profile(curvop.second_kind_spectrum(_turned(t, seed, e)))["verdicts"] == verdicts


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_KNOWN), st.integers(0, 2**31 - 1), st.integers(-30, 30))
def test_rounding_bound_covers_the_named_values_of_known_spectra(case, seed, e):
    _, t, exact = case
    spectrum = eigen_sym(second_kind_matrix(_turned(t, seed, e)), vectors=False)
    exact = Spectrum(np.ldexp(exact, e), None, None)
    for cond in named_conditions(t.dim).values():
        error = abs(k_alpha_value(spectrum, cond.k, cond.alpha) - k_alpha_value(exact, cond.k, cond.alpha))
        assert error <= 0.5 * _k_alpha_bound(spectrum, cond.k, cond.alpha)


def test_sign_rule_one_ulp_either_side_of_zero_and_of_the_bound():
    def spectrum(value):  # graded value at k = 1, alpha = 0 is ``value``
        return Spectrum(np.array([value, 1.0]), None, None)

    bound = _k_alpha_bound(spectrum(0.0), 1, 0.0)
    assert bound == 8.0 * np.finfo(float).eps  # 4 (k + alpha) N eps max|lambda|
    tiny = np.nextafter(0.0, 1.0)
    for value in (-tiny, 0.0, tiny, -bound, bound):  # within rounding of 0
        assert k_alpha_positive(spectrum(value), 1, 0.0, strict=False)
        assert not k_alpha_positive(spectrum(value), 1, 0.0, strict=True)
    assert k_alpha_positive(spectrum(np.nextafter(bound, 1.0)), 1, 0.0, strict=True)
    assert not k_alpha_positive(spectrum(np.nextafter(-bound, -1.0)), 1, 0.0, strict=False)
    edges = (np.nextafter(-bound, -1.0), -bound, bound, np.nextafter(bound, 1.0))
    assert [_sign(v, bound) for v in edges] == [-1, 0, 0, 1]
    # With no bound the rule is the plain sign of the value; nan reads negative.
    assert [_sign(v, 0.0) for v in (-tiny, 0.0, tiny, np.nan)] == [-1, 0, 1, -1]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("spec, k", [
    ("product:(sphere:n=2,k=1)x(sphere:n=2,k=1)", 5),  # {-1, 0 x4, 1 x4}
    ("csf:m=3,c=4", 11),  # CP^3: {-2 x8, 4 x12}
])
def test_alpha_star_reads_its_boundary_ends_exactly_under_turns(spec, k, seed):
    # sigma_k + lambda_{k+1} = 0 and sigma_{k+1} = 0 exactly, so the threshold
    # is 1 at k and 0 at k + 1 in every frame, however the eigensolver rounds
    # the two sums.
    spectrum = curvop.second_kind_spectrum(_turned(curvop.build_model(spec), seed, 0))
    assert alpha_star(spectrum, k) == 1.0 and alpha_star(spectrum, k + 1) == 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_matrix_scales_linearly_with_tensor_scale(seed):
    t1 = curvop.random_curvature(4, seed=seed, scale=1.0)
    t2 = curvop.random_curvature(4, seed=seed, scale=2.0)  # power of two: exact
    assert np.array_equal(t2.array, 2.0 * t1.array)
    assert np.abs(second_kind_matrix(t2) - 2.0 * second_kind_matrix(t1)).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=4, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_sphere_shift_moves_every_eigenvalue_by_the_amount(n, seed, amount, scale):
    t = curvop.random_curvature(n, seed=seed, scale=scale)
    shifted = curvop.shift(t, curvop.constant_curvature(n, 1.0), amount)
    lam = eigen_sym(second_kind_matrix(t), vectors=False).eigenvalues
    lam_shifted = eigen_sym(second_kind_matrix(shifted), vectors=False).eigenvalues
    bound = 1e-12 * max(1.0, t.max_abs(), abs(amount))
    assert np.abs(lam_shifted - (lam + amount)).max() <= bound


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=4, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_spectrum_is_basis_independent(n, seed, scale):
    t = curvop.random_curvature(n, seed=seed, scale=scale)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    lam = eigen_sym(second_kind_matrix(t), vectors=False).eigenvalues
    lam_rot = eigen_sym(second_kind_matrix(t, q @ s20_basis(n) @ q.T), vectors=False).eigenvalues
    assert np.abs(lam_rot - lam).max() <= 1e-12 * max(1.0, t.max_abs())


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_ricci_min_is_the_smallest_ricci_eigenvalue(n, seed, scale):
    t = curvop.random_curvature(n, seed=seed, scale=scale)
    # The Ricci contraction is exactly symmetric, so both see the same matrix.
    assert ricci_min(t) == np.linalg.eigvalsh(ricci(t))[0]


def test_eigen_sym_reads_eigenvectors_by_position(monkeypatch):
    # NumPy 1.x returns eigh's result as a plain (w, v) tuple, without the
    # named fields NumPy 2 added
    m = second_kind_matrix(curvop.random_curvature(5, seed=8))
    expected = eigen_sym(m)
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: tuple(eigh(a)))
    spectrum = eigen_sym(m)
    assert spectrum.eigenvectors.tobytes() == expected.eigenvectors.tobytes()
    assert spectrum.residual == expected.residual


@pytest.mark.parametrize("n", [2, 4, 7])
def test_second_kind_matrix_takes_any_array_like_basis(n):
    t = curvop.random_curvature(n, seed=(12, n))
    basis = s20_basis(n)
    expected = second_kind_matrix(t).tobytes()
    assert second_kind_matrix(t, basis.tolist()).tobytes() == expected
    assert second_kind_matrix(t, tuple(basis)).tobytes() == expected
