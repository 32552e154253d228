"""Storage, symmetry, Bianchi handling, contractions, and JSON round trips."""

import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvop
from curvop import (
    BianchiViolation,
    CurvatureTensor,
    DegeneratePlane,
    DimensionTooSmall,
    IndexOutOfRange,
    ParseError,
    SymmetryConflict,
    ValidationFailure,
    bianchi_project,
    canonical_index,
    canonical_quadruples,
    from_dense,
    from_dict,
    load_tensor,
    new_from_components,
    ricci,
    save_tensor,
    scalar,
    sectional,
)


def test_component_fanout_covers_all_symmetries():
    t = new_from_components(4, [(1, 2, 3, 4, 2.0), (1, 3, 4, 2, -1.0), (1, 4, 2, 3, -1.0)])
    a = t.array
    # antisymmetry in both pairs, symmetry under pair exchange
    assert a[0, 1, 2, 3] == 2.0
    assert a[1, 0, 2, 3] == -2.0
    assert a[0, 1, 3, 2] == -2.0
    assert a[2, 3, 0, 1] == 2.0
    assert a[3, 2, 1, 0] == 2.0


def test_symmetries_are_bit_exact_on_random_input():
    t = curvop.random_curvature(5, seed=11)
    a = t.array
    assert np.array_equal(a, -np.swapaxes(a, 0, 1))
    assert np.array_equal(a, -np.swapaxes(a, 2, 3))
    assert np.array_equal(a, np.transpose(a, (2, 3, 0, 1)))


def test_canonical_index_sign_and_none():
    quad, sign = canonical_index(2, 1, 3, 4)
    assert quad == (1, 2, 3, 4) and sign == -1.0
    quad, sign = canonical_index(3, 4, 1, 2)
    assert quad == (1, 2, 3, 4) and sign == 1.0
    assert canonical_index(1, 1, 2, 3)[0] is None


def test_canonical_quadruples_count_matches_free_parameters():
    # dim of algebraic curvature tensors without Bianchi: binom(m+1, 2) for m = n(n-1)/2
    for n in (2, 3, 4, 5):
        m = n * (n - 1) // 2
        assert len(list(canonical_quadruples(n))) == m * (m + 1) // 2


def test_new_from_components_rejects_conflicts_and_bad_indices():
    with pytest.raises(SymmetryConflict):
        new_from_components(4, [(1, 2, 1, 2, 1.0), (2, 1, 2, 1, 2.0)])
    with pytest.raises(IndexOutOfRange):
        new_from_components(4, [(1, 2, 1, 5, 1.0)])
    with pytest.raises(IndexOutOfRange):
        new_from_components(4, [(0, 2, 1, 2, 1.0)])
    # equal redundant values are accepted
    t = new_from_components(3, [(1, 2, 1, 2, 1.0), (2, 1, 2, 1, 1.0)])
    assert t.component(1, 2, 1, 2) == 1.0


def test_bianchi_validation_rejects_violating_input():
    with pytest.raises(BianchiViolation):
        new_from_components(4, [(1, 2, 3, 4, 1.0)])  # lone cross term breaks the cyclic sum


def test_bianchi_project_then_validate_round_trips():
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((4, 4, 4, 4))
    t = bianchi_project(_symmetrized(raw))
    assert t.bianchi_residual() <= 1e-12 * max(t.max_abs(), 1.0)
    # projector is idempotent
    again = bianchi_project(t)
    assert np.allclose(again.array, t.array, atol=1e-14)


def _symmetrized(raw):
    a = raw - np.swapaxes(raw, 0, 1)
    a = a - np.swapaxes(a, 2, 3)
    return (a + np.transpose(a, (2, 3, 0, 1))) / 8.0


def test_from_dense_rejects_asymmetric_array():
    bad = np.zeros((3, 3, 3, 3))
    bad[0, 1, 0, 1] = 1.0  # no compensating images
    with pytest.raises(curvop.ValidationFailure):
        from_dense(bad)


def test_dimension_bounds():
    with pytest.raises(DimensionTooSmall):
        new_from_components(0, [])
    t = curvop.constant_curvature(1, 5.0)  # one-dimensional space is flat
    assert t.max_abs() == 0.0


def test_ricci_scalar_and_sectional_on_the_unit_sphere():
    n = 5
    t = curvop.constant_curvature(n, 1.0)
    assert np.allclose(ricci(t), (n - 1) * np.eye(n), atol=1e-12)
    assert scalar(t) == pytest.approx(n * (n - 1), abs=1e-12)
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal((2, n))
    assert sectional(t, u, v) == pytest.approx(1.0, abs=1e-10)


def test_sectional_rejects_degenerate_planes():
    t = curvop.constant_curvature(4, 1.0)
    u = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(DegeneratePlane):
        sectional(t, u, 2.0 * u)


def test_json_round_trip_preserves_components():
    t = curvop.random_curvature(4, seed=19)
    path = "/tmp/curvop_roundtrip.json"
    save_tensor(t, path)
    back = load_tensor(path)
    assert back.dim == 4
    assert np.allclose(back.array, t.array, atol=1e-15)
    payload = json.load(open(path))
    assert payload["convention"] == curvop.SIGN_CONVENTION
    assert all(e["i"] >= 1 for e in payload["entries"])  # 1-based interchange indices
    os.remove(path)


def test_json_parse_errors():
    path = "/tmp/curvop_bad.json"
    with open(path, "w") as fh:
        fh.write('{"dim": 4}')
    with pytest.raises(ParseError):
        load_tensor(path)
    with open(path, "w") as fh:
        fh.write("not json")
    with pytest.raises(ParseError):
        load_tensor(path)
    os.remove(path)


@pytest.mark.parametrize("v", [float("nan"), float("inf"), float("-inf"), -1e308],
                         ids=["nan", "inf", "-inf", "-1e308"])
def test_from_dict_rejects_non_finite_and_overflowing_components(v):
    doc = {"dim": 4, "entries": [{"i": 1, "j": 2, "k": 1, "l": 2, "v": v}]}
    with pytest.raises(ValidationFailure):
        from_dict(doc)


@pytest.mark.parametrize("dim, index", [(True, 1), (4, 1.5), (4, "1"), (4, True)],
                         ids=["dim-true", "index-1.5", "index-str", "index-true"])
def test_from_dict_rejects_non_integer_dim_and_indices(dim, index):
    doc = {"dim": dim, "entries": [{"i": index, "j": 2, "k": 1, "l": 2, "v": 1.0}]}
    with pytest.raises(ParseError):
        from_dict(doc)


@pytest.mark.parametrize("index", [1.5, "1", True])
def test_new_from_components_rejects_non_integer_indices(index):
    with pytest.raises(IndexOutOfRange):
        new_from_components(4, [(index, 2, 1, 2, 1.0)])


def test_from_dense_rejects_non_finite_components():
    a = curvop.random_curvature(4, seed=3).array.copy()
    a[0, 1, 0, 1] = a[1, 0, 1, 0] = np.nan
    a[1, 0, 0, 1] = a[0, 1, 1, 0] = np.nan
    with pytest.raises(ValidationFailure):
        from_dense(a)


def test_tensor_array_is_read_only():
    t = curvop.constant_curvature(3, 1.0)
    with pytest.raises(ValueError):
        t.array[0, 1, 0, 1] = 99.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10_000))
def test_random_curvature_always_satisfies_contract(n, seed):
    t = curvop.random_curvature(n, seed=seed)
    a = t.array
    assert np.array_equal(a, -np.swapaxes(a, 0, 1))
    assert np.array_equal(a, np.transpose(a, (2, 3, 0, 1)))
    assert t.bianchi_residual() <= 1e-10 * max(t.max_abs(), 1.0)


def test_bianchi_project_rejects_asymmetric_array():
    bad = np.zeros((3, 3, 3, 3))
    bad[0, 1, 0, 1] = 1.0  # no compensating images
    with pytest.raises(ValidationFailure):
        bianchi_project(bad)
    with pytest.raises(ValidationFailure):
        bianchi_project(np.zeros((3, 3, 3)))


def test_symmetry_check_accepts_rounding_and_rebuilds_from_canonical_slots():
    a = curvop.random_curvature(5, seed=2).array.copy()
    a[1, 0, 2, 3] *= 1.0 + 1e-14  # a non-canonical image, off by rounding
    assert np.array_equal(from_dense(a).array, curvop.random_curvature(5, seed=2).array)
    a[1, 0, 2, 3] *= 1.0 + 1e-9
    with pytest.raises(ValidationFailure):
        from_dense(a)


# Reference implementations: the per-quadruple loops the index map replaced.
# The vectorised constructors must reproduce them bit for bit, signed zeros
# included.

def _ref_fan_out(a, i, j, k, l, v):
    a[i, j, k, l] = v
    a[j, i, k, l] = -v
    a[i, j, l, k] = -v
    a[j, i, l, k] = v
    a[k, l, i, j] = v
    a[l, k, i, j] = -v
    a[k, l, j, i] = -v
    a[l, k, j, i] = v


def _ref_symmetrize(raw):
    a = np.zeros_like(raw)
    for i, j, k, l in canonical_quadruples(raw.shape[0]):
        _ref_fan_out(a, i, j, k, l, raw[i, j, k, l])
    return a


def _ref_from_components(n, entries):
    seen = {}
    for i, j, k, l, v in entries:
        quad, sign = canonical_index(i - 1, j - 1, k - 1, l - 1)
        if quad is not None:
            seen[quad] = sign * float(v)
    a = np.zeros((n, n, n, n))
    for (i, j, k, l), v in seen.items():
        _ref_fan_out(a, i, j, k, l, v)
    return a


def _ref_bianchi_project(a):
    cyclic = a + np.einsum("iklj->ijkl", a) + np.einsum("iljk->ijkl", a)
    return _ref_symmetrize(a - cyclic / 3.0)


def _ref_random_curvature(n, seed, scale):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = len(pairs)
    g = rng.standard_normal((m, m))
    form = np.triu(g) + np.triu(g, 1).T
    form = form * scale
    a = np.zeros((n, n, n, n))
    for p, (i, jj) in enumerate(pairs):
        for q, (k, l) in enumerate(pairs):
            v = form[p, q]
            a[i, jj, k, l] = v
            a[jj, i, k, l] = -v
            a[i, jj, l, k] = -v
            a[jj, i, l, k] = v
    return _ref_bianchi_project(a)


def _ref_constant_curvature(n, kappa):
    eye = np.eye(n)
    a = kappa * (np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye))
    return _ref_symmetrize(a)


def _ref_complex_space_form(m, c):
    n = 2 * m
    j = np.zeros((n, n))
    for a_idx in range(m):
        j[2 * a_idx + 1, 2 * a_idx] = 1.0
        j[2 * a_idx, 2 * a_idx + 1] = -1.0
    jt = j.T
    eye = np.eye(n)
    a = (c / 4.0) * (
        np.einsum("ik,jl->ijkl", eye, eye)
        - np.einsum("il,jk->ijkl", eye, eye)
        + np.einsum("ik,jl->ijkl", jt, jt)
        - np.einsum("il,jk->ijkl", jt, jt)
        + 2.0 * np.einsum("ij,kl->ijkl", jt, jt)
    )
    return _ref_symmetrize(a)


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
def test_index_map_reproduces_the_reference_loops_bit_for_bit(n, seed):
    from curvop.tensor import _exact_symmetrize

    rng = np.random.default_rng(seed)
    # raw arrays with zeros and negative zeros in canonical and image slots
    raw = rng.standard_normal((n,) * 4)
    raw[rng.random(raw.shape) < 0.3] = 0.0
    raw[rng.random(raw.shape) < 0.2] = -0.0
    assert _same_bits(_exact_symmetrize(raw), _ref_symmetrize(raw))
    sym = _ref_symmetrize(raw)
    assert _same_bits(bianchi_project(sym).array, _ref_bianchi_project(sym))

    scale = float(rng.choice([1.0, 0.5, rng.uniform(0.01, 100.0)]))
    t = curvop.random_curvature(n, seed=(seed, n), scale=scale)
    assert _same_bits(t.array, _ref_random_curvature(n, (seed, n), scale))
    assert _same_bits(from_dense(t.array).array, t.array)
    assert _same_bits(bianchi_project(t.array).array, _ref_bianchi_project(t.array))

    # entries in any index order: some omitted, some explicitly +0.0 or -0.0,
    # plus vanishing (i == j) entries; Bianchi is waived to allow any subset
    entries = [(1, 1, 2, 2, 0.0), (2, 2, 1, 2, -0.0)]
    for i, j, k, l in canonical_quadruples(n):
        choice = int(rng.integers(4))
        if choice == 0:
            continue
        v = (float(t.array[i, j, k, l]), 0.0, -0.0)[choice - 1]
        image = int(rng.integers(3))
        if image == 0:
            entries.append((i + 1, j + 1, k + 1, l + 1, v))
        elif image == 1:
            entries.append((j + 1, i + 1, k + 1, l + 1, -v))
        else:
            entries.append((l + 1, k + 1, i + 1, j + 1, -v))
    with mock.patch.object(curvop.tensor, "_BIANCHI_TOL", 1e300):
        assert _same_bits(new_from_components(n, entries).array, _ref_from_components(n, entries))

    kappa = float(rng.choice([0.0, -0.0, rng.normal()]))
    assert _same_bits(curvop.constant_curvature(n, kappa).array, _ref_constant_curvature(n, kappa))
    c = float(rng.choice([4.0, -0.0, rng.normal()]))
    assert _same_bits(curvop.complex_space_form(n // 2, c).array, _ref_complex_space_form(n // 2, c))
