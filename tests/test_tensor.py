"""Storage, symmetry, Bianchi handling, contractions, and JSON round trips."""

import json
import os

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
    ToleranceConfig,
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


def test_from_dense_rejects_non_finite_components():
    a = curvop.random_curvature(4, seed=3).array.copy()
    a[0, 1, 0, 1] = a[1, 0, 1, 0] = np.nan
    a[1, 0, 0, 1] = a[0, 1, 1, 0] = np.nan
    with pytest.raises(ValidationFailure):
        from_dense(a)


def test_tolerance_config_rejects_nonpositive():
    with pytest.raises(curvop.ParameterOutOfRange):
        ToleranceConfig(tol_bianchi=0.0)


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
