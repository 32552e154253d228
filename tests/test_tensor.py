"""Storage, symmetry, Bianchi handling, contractions, and JSON round trips."""

import errno
import json
import os
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvop
from curvop import (
    BianchiViolation,
    CurvatureTensor,
    DimensionTooSmall,
    FrameNotOrthonormal,
    IndexOutOfRange,
    IoFailure,
    NotSymmetric,
    ParameterOutOfRange,
    ParseError,
    SymmetryConflict,
    ValidationFailure,
    bianchi_project,
    from_dict,
    load_tensor,
    new_from_components,
    ricci,
    save_tensor,
)
from curvop.tensor import _canonical_map, _check_int, _check_seed


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
    # map entries: slot p for sign +1, n**4 + p for sign -1, 2 n**4 where R vanishes
    n = 5
    cmap, canon = _canonical_map(n), np.ravel_multi_index((1, 2, 3, 4), (n,) * 4)
    assert cmap[2, 1, 3, 4] == n ** 4 + canon
    assert cmap[3, 4, 1, 2] == canon
    assert cmap[1, 1, 2, 3] == 2 * n ** 4


def test_canonical_quadruples_count_matches_free_parameters():
    # dim of algebraic curvature tensors without Bianchi: binom(m+1, 2) for m = n(n-1)/2
    for n in (2, 3, 4, 5):
        m = n * (n - 1) // 2
        cmap = _canonical_map(n).ravel()
        assert np.count_nonzero(cmap == np.arange(cmap.size)) == m * (m + 1) // 2


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


@pytest.mark.parametrize("entry", [
    (1, 2, 1, 2, "1.5"), (1, 2, 1, 2, True), (1, 2, 1, 2, np.True_), (1, 2, 1, 2, 10**400),
    (1, 2, 1, 2), (1, 2, 1, 2, 1.0, 0.0), 5,
], ids=["str", "bool", "numpy-bool", "int-overflow", "four-tuple", "six-tuple", "scalar"])
def test_new_from_components_rejects_bad_entries_with_a_curvop_error(entry):
    with pytest.raises(ValidationFailure):
        new_from_components(4, [entry])
    assert new_from_components(4, [(1, 2, 1, 2, 3)]).component(2, 1, 2, 1) == 3.0


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
        CurvatureTensor(bad)


def test_constructor_rejects_arrays_without_the_index_symmetries():
    # delta_ij delta_kl - delta_ik delta_jl: finite and Bianchi, yet R_1122 = 1
    # breaks the antisymmetry in (i, j)
    eye = np.eye(4)
    bad = np.einsum("ij,kl->ijkl", eye, eye) - np.einsum("ik,jl->ijkl", eye, eye)
    assert np.abs(bad + np.einsum("iklj->ijkl", bad) + np.einsum("iljk->ijkl", bad)).max() == 0.0
    with pytest.raises(ValidationFailure):
        CurvatureTensor(bad)
    good = curvop.random_curvature(5, seed=4)
    assert CurvatureTensor(good.array).dim == 5


def test_dimension_bounds():
    with pytest.raises(DimensionTooSmall):
        new_from_components(0, [])
    t = curvop.constant_curvature(1, 5.0)  # one-dimensional space is flat
    assert t.max_abs() == 0.0


def test_ricci_scalar_and_sectional_on_the_unit_sphere():
    n = 5
    t = curvop.constant_curvature(n, 1.0)
    assert np.allclose(ricci(t), (n - 1) * np.eye(n), atol=1e-12)
    assert np.trace(ricci(t)) == pytest.approx(n * (n - 1), abs=1e-12)
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal((2, n))
    gram = (u @ u) * (v @ v) - (u @ v) ** 2
    assert np.einsum("ijkl,i,j,k,l->", t.array, u, v, u, v) / gram == pytest.approx(1.0, abs=1e-10)


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


def test_from_dict_takes_only_json_numbers_as_values():
    def doc(value):
        return {"dim": 4, "entries": [{"i": 1, "j": 2, "k": 1, "l": 2, "v": value}]}

    for bad in ("1.5", True, 10**400):  # a string, a bool, an int beyond the float range
        with pytest.raises(ParseError):
            from_dict(doc(bad))
    assert from_dict(doc(3)).component(2, 1, 2, 1) == 3.0


def _peak_bytes(call, error):
    """Peak traced allocation while ``call()`` raises ``error``."""
    tracemalloc.start()
    try:
        with pytest.raises(error):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build", [
    lambda n: new_from_components(n, []),
    lambda n: from_dict({"dim": n, "entries": []}),
    lambda n: curvop.constant_curvature(n, 1.0),
    lambda n: curvop.complex_space_form((n + 1) // 2, 4.0),
    lambda n: curvop.random_curvature(n, seed=1),
], ids=["components", "dict", "constant", "csf", "random"])
@pytest.mark.parametrize("n", [33, 10**5])
def test_dimension_above_the_bound_raises_before_allocating(build, n):
    assert _peak_bytes(lambda: build(n), ParameterOutOfRange) < 1_000_000  # 33**4 floats: 9.5 MB


def test_product_above_the_dimension_bound_raises_before_allocating():
    left, right = curvop.flat(17), curvop.flat(16)
    assert _peak_bytes(lambda: curvop.product(left, right), ParameterOutOfRange) < 1_000_000
    with pytest.raises(ParameterOutOfRange):
        CurvatureTensor(np.zeros((33,) * 4))


@pytest.mark.parametrize("index", [1.5, "1", True])
def test_new_from_components_rejects_non_integer_indices(index):
    with pytest.raises(IndexOutOfRange):
        new_from_components(4, [(index, 2, 1, 2, 1.0)])


def test_from_dense_rejects_non_finite_components():
    a = curvop.random_curvature(4, seed=3).array.copy()
    a[0, 1, 0, 1] = a[1, 0, 1, 0] = np.nan
    a[1, 0, 0, 1] = a[0, 1, 1, 0] = np.nan
    with pytest.raises(ValidationFailure):
        CurvatureTensor(a)


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
    assert np.array_equal(CurvatureTensor(a).array, curvop.random_curvature(5, seed=2).array)
    a[1, 0, 2, 3] *= 1.0 + 1e-9
    with pytest.raises(ValidationFailure):
        CurvatureTensor(a)


# Reference implementations: the per-quadruple loops the index map replaced.
# The vectorised constructors must reproduce them bit for bit, signed zeros
# included.

def _ref_canonical_index(i, j, k, l):
    """The scalar index rule: canonical 0-based quadruple (i<j, k<l,
    (i,j) <= (k,l)) and sign, or (None, 0) where the component vanishes."""
    if i == j or k == l:
        return None, 0
    sign = 1
    if i > j:
        i, j = j, i
        sign = -sign
    if k > l:
        k, l = l, k
        sign = -sign
    if (i, j) > (k, l):
        i, j, k, l = k, l, i, j
    return (i, j, k, l), sign


def _ref_canonical_quadruples(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for a, (i, j) in enumerate(pairs):
        for (k, l) in pairs[a:]:
            yield i, j, k, l


def _ref_canonical_map(n):
    shape = (n,) * 4
    out = np.full(shape, 2 * n ** 4)
    for quad in np.ndindex(shape):
        canon, sign = _ref_canonical_index(*quad)
        if canon is not None:
            out[quad] = np.ravel_multi_index(canon, shape) + (n ** 4 if sign < 0 else 0)
    return out


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
    for i, j, k, l in _ref_canonical_quadruples(raw.shape[0]):
        _ref_fan_out(a, i, j, k, l, raw[i, j, k, l])
    return a


def _ref_from_components(n, entries):
    seen = {}
    for i, j, k, l, v in entries:
        quad, sign = _ref_canonical_index(i - 1, j - 1, k - 1, l - 1)
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
    assert _same_bits(CurvatureTensor(t.array).array, t.array)
    assert _same_bits(bianchi_project(t.array).array, _ref_bianchi_project(t.array))

    # entries in any index order: some omitted, some explicitly +0.0 or -0.0,
    # plus vanishing (i == j) entries; Bianchi is waived to allow any subset
    entries = [(1, 1, 2, 2, 0.0), (2, 2, 1, 2, -0.0)]
    for i, j, k, l in _ref_canonical_quadruples(n):
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


@pytest.mark.parametrize("n", range(1, 17))
def test_index_map_equals_the_scalar_rule_bit_for_bit(n):
    assert _same_bits(_canonical_map(n), _ref_canonical_map(n))
    canonical = np.flatnonzero(_canonical_map(n).ravel() == np.arange(n ** 4))
    # in ravel order the self-mapped slots are the canonical quadruples in order
    quads = [np.ravel_multi_index(q, (n,) * 4) for q in _ref_canonical_quadruples(n)]
    assert canonical.tolist() == quads


def test_the_largest_dimension_works_end_to_end():
    _canonical_map.cache_clear()
    start = time.perf_counter()
    sphere = curvop.constant_curvature(32, 1.0)
    assert time.perf_counter() - start < 1.0  # the first tensor builds the n = 32 map
    assert sphere.component(31, 32, 31, 32) == 1.0
    assert _same_bits(CurvatureTensor(sphere.array).array, sphere.array)
    doc = curvop.to_dict(sphere)
    assert len(doc["entries"]) == 32 * 31 // 2
    assert np.array_equal(from_dict(json.loads(json.dumps(doc))).array, sphere.array)


# Malformed scalar arguments of the public entry points, each once a bare
# TypeError or IndexError (or, for min_isotropic(t, True), one silent start).
# Every one is refused by the integer or the real rule with the subclass
# that argument's other checks raise. The scale and model-spec cases are
# in test_models.py's parametrized tests.
_T4 = curvop.random_curvature(4, seed=1)
_CP2 = curvop.cp2_explicit()
_H = "k4a0.5strict"


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: curvop.random_curvature(4.0), ParameterOutOfRange, id="random-dim-float"),
    pytest.param(lambda: curvop.random_curvature("4"), ParameterOutOfRange, id="random-dim-str"),
    pytest.param(lambda: curvop.constant_curvature(4.0, 1.0), ParameterOutOfRange, id="sphere-dim-float"),
    pytest.param(lambda: curvop.constant_curvature(4, "1"), ValidationFailure, id="sphere-curvature-str"),
    pytest.param(lambda: curvop.constant_curvature(4, 10**400), ValidationFailure, id="sphere-curvature-huge-int"),
    pytest.param(lambda: curvop.flat(4.5), ParameterOutOfRange, id="flat-dim-float"),
    pytest.param(lambda: curvop.complex_space_form(2.0, 4.0), ParameterOutOfRange, id="csf-m-float"),
    pytest.param(lambda: curvop.complex_space_form(2, "4"), ValidationFailure, id="csf-c-str"),
    pytest.param(lambda: curvop.interpolate(_T4, _T4, "0.5"), ParameterOutOfRange, id="interpolate-t-str"),
    pytest.param(lambda: curvop.shift(_T4, _T4, "1"), ValidationFailure, id="shift-amount-str"),
    pytest.param(lambda: curvop.shift(_T4, _T4, 10**400), ValidationFailure, id="shift-amount-huge-int"),
    pytest.param(lambda: new_from_components(4.0, []), ParameterOutOfRange, id="components-dim-float"),
    pytest.param(lambda: curvop.lambda2_basis(4.0), ParameterOutOfRange, id="lambda2-dim-float"),
    pytest.param(lambda: curvop.s20_basis(4.5), ParameterOutOfRange, id="s20-dim-float"),
    pytest.param(lambda: (curvop.s20_basis(4), curvop.s20_basis(4.0)), ParameterOutOfRange,
                 id="s20-dim-float-after-the-int"),
    pytest.param(lambda: curvop.second_kind_matrix(_T4, [[[1.0]], [[1.0, 2.0]]]), ValidationFailure,
                 id="second-kind-ragged-basis"),
    pytest.param(lambda: curvop.second_kind_matrix(_T4, [["a"]]), ValidationFailure, id="second-kind-str-basis"),
    pytest.param(lambda: curvop.k_alpha_value(curvop.second_kind_spectrum(_T4), 4.5, 0.5), ParameterOutOfRange,
                 id="k-alpha-k-float"),
    pytest.param(lambda: curvop.k_alpha_value(curvop.second_kind_spectrum(_T4), 4, "0.5"), ParameterOutOfRange,
                 id="k-alpha-alpha-str"),
    pytest.param(lambda: curvop.alpha_star(curvop.second_kind_spectrum(_T4), 2.5), ParameterOutOfRange,
                 id="alpha-star-k-float"),
    pytest.param(lambda: curvop.named_conditions(4.0), ParameterOutOfRange, id="named-conditions-dim-float"),
    pytest.param(lambda: curvop.random_frame(4, 2.5, np.random.default_rng(0)), ParameterOutOfRange,
                 id="frame-width-float"),
    pytest.param(lambda: curvop.random_frame(4.0, 2, np.random.default_rng(0)), ParameterOutOfRange,
                 id="frame-dim-float"),
    pytest.param(lambda: curvop.random_frame(33, 4, np.random.default_rng(0)), ParameterOutOfRange,
                 id="frame-dim-above-the-bound"),
    pytest.param(lambda: curvop.random_frame(2**40, 1, np.random.default_rng(0)), ParameterOutOfRange,
                 id="frame-dim-huge"),
    pytest.param(lambda: curvop.min_isotropic(_T4, 2.5), ParameterOutOfRange, id="min-isotropic-trials-float"),
    pytest.param(lambda: curvop.min_isotropic(_T4, True), ParameterOutOfRange, id="min-isotropic-trials-bool"),
    pytest.param(lambda: curvop.implication_trial(4, _H, "ric", 2.5), ParameterOutOfRange, id="trial-trials-float"),
    pytest.param(lambda: curvop.implication_trial(4.0, _H, "ric", 2), ParameterOutOfRange, id="trial-dim-float"),
    pytest.param(lambda: curvop.implication_trial(4, _H, "pic", 2, pic_trials=2.5), ParameterOutOfRange,
                 id="trial-pic-trials-float"),
    pytest.param(lambda: curvop.implication_trial(4, _H, "ric", 2, pic_trials=0), ParameterOutOfRange,
                 id="trial-pic-trials-zero"),
    pytest.param(lambda: curvop.boost_to_hypothesis(_T4, curvop.PredicateSpec(4.0, 0.5)), ParameterOutOfRange,
                 id="boost-k-float"),
    pytest.param(lambda: curvop.sharpness_probe("cp2", "flat:n=4", 2.5), ParameterOutOfRange, id="probe-steps-float"),
    pytest.param(lambda: curvop.sharpness_probe("cp2", "flat:n=4", 2, iso_trials=2.5), ParameterOutOfRange,
                 id="probe-iso-trials-float"),
    pytest.param(lambda: curvop.sharpness_probe("flat:n=3", "sphere:n=3", 2, seed=1.5), ParameterOutOfRange,
                 id="probe-seed-float"),
    pytest.param(lambda: curvop.sharpness_probe("flat:n=3", "sphere:n=3", 2, seed=(1, 2)), ParameterOutOfRange,
                 id="probe-seed-tuple"),
    pytest.param(lambda: _CP2.component(1.0, 2, 1, 2), IndexOutOfRange, id="component-index-float"),
    pytest.param(lambda: curvop.isotropic_value(_T4, [[1, 0], [0]]), FrameNotOrthonormal,
                 id="isotropic-value-ragged-frame"),
    pytest.param(lambda: curvop.isotropic_value(_T4, [["a"] * 4] * 4), FrameNotOrthonormal,
                 id="isotropic-value-str-frame"),
    pytest.param(lambda: curvop.eigen_sym([[1, 0], [0]]), NotSymmetric, id="eigen-sym-ragged-matrix"),
    pytest.param(lambda: curvop.eigen_sym([["a"]]), NotSymmetric, id="eigen-sym-str-matrix"),
    pytest.param(lambda: curvop.s20_dim("4"), ParameterOutOfRange, id="s20-dim-formula-str"),
    pytest.param(lambda: curvop.s20_dim(4.0), ParameterOutOfRange, id="s20-dim-formula-float"),
    pytest.param(lambda: curvop.lambda2_dim("4"), ParameterOutOfRange, id="lambda2-dim-formula-str"),
    pytest.param(lambda: curvop.lambda2_dim(4.0), ParameterOutOfRange, id="lambda2-dim-formula-float"),
    pytest.param(lambda: curvop.lambda2_dim(-1), ParameterOutOfRange, id="lambda2-dim-formula-negative"),
])
def test_malformed_scalar_arguments_raise_their_curvop_error(call, error):
    with pytest.raises(error):
        call()


def test_numpy_integer_dimensions_counts_and_seeds_match_plain_ints():
    i64, i32 = np.int64, np.int32
    assert np.array_equal(curvop.random_curvature(i64(5), seed=i32(3)).array,
                          curvop.random_curvature(5, seed=3).array)
    assert np.array_equal(curvop.complex_space_form(i32(2), 4.0).array, _CP2.array)
    assert _CP2.component(i64(1), i32(2), i64(1), i32(2)) == 4.0
    spectrum = curvop.second_kind_spectrum(_T4)
    assert curvop.k_alpha_value(spectrum, i64(4), 0.5) == curvop.k_alpha_value(spectrum, 4, 0.5)
    assert curvop.alpha_star(spectrum, i32(4)) == curvop.alpha_star(spectrum, 4)
    frame = curvop.random_frame(i64(5), i32(3), np.random.default_rng(2))
    assert frame.tobytes() == curvop.random_frame(5, 3, np.random.default_rng(2)).tobytes()
    wide, plain = curvop.min_isotropic(_T4, i32(3), seed=i64(2)), curvop.min_isotropic(_T4, 3, seed=2)
    assert (wide.best_value, wide.best_frame.tobytes()) == (plain.best_value, plain.best_frame.tobytes())
    for concl in ("pic", "ric"):
        wide = curvop.implication_trial(i64(4), _H, concl, i32(3), seed=i64(1), pic_trials=i32(2))
        assert wide.to_dict() == curvop.implication_trial(4, _H, concl, 3, seed=1, pic_trials=2).to_dict()
    wide = curvop.sharpness_probe("cp2", "flat:n=4", i64(3), seed=i32(1), iso_trials=i64(3))
    assert wide.to_dict() == curvop.sharpness_probe("cp2", "flat:n=4", 3, seed=1, iso_trials=3).to_dict()
    # the dimension formulas take any integer, above the dimension bound too
    assert (curvop.s20_dim(i64(4)), curvop.lambda2_dim(i32(4))) == (9, 6)
    assert (curvop.s20_dim(40), curvop.lambda2_dim(40)) == (819, 780)


def test_numpy_integer_arguments_reach_reports_as_plain_ints(tmp_path):
    # The integer rule returns a plain int, and the harness keeps it, so a
    # report made from NumPy integers serializes like one made from ints.
    i64, i32 = np.int64, np.int32
    assert type(_check_int(i64(3), "count")) is int
    assert _check_seed([i64(1), i32(2)]) == (1, 2)
    reports = [
        curvop.implication_trial(i64(4), _H, "ric", i32(2), seed=i64(1)),
        curvop.implication_trial(i64(4), "k4a0.1strict", "pic", i32(3), seed=i64(1), pic_trials=i32(2)),
        curvop.sharpness_probe("flat:n=3", "sphere:n=3", i64(2), seed=i64(1), iso_trials=i32(2)),
    ]
    for i, report in enumerate(reports):
        path = str(tmp_path / f"report{i}.json")
        results = report.to_dict()
        config = {"n": results["dim"]} if "dim" in results else {"k": results["k"]}
        envelope = curvop.emit_report(results, path, 1, config)
        with open(path) as handle:
            assert json.load(handle) == json.loads(json.dumps(envelope))
        assert all(type(v) is int for v in envelope["config"].values() if not isinstance(v, str))


def test_a_failed_write_names_only_its_target_and_the_os_error(tmp_path):
    # the target is a directory, so the rename fails; the message must not
    # name the random temporary file, and reads the same on every run
    target = tmp_path / "d"
    target.mkdir()
    messages = []
    for _ in range(2):
        with pytest.raises(IoFailure) as info:
            curvop.write_json_atomic({"a": 1}, str(target))
        messages.append(str(info.value))
    assert messages[0] == messages[1] == f"cannot write {target}: {os.strerror(errno.EISDIR)}"
    assert not any(".tmp" in m for m in messages)
    assert [p.name for p in tmp_path.iterdir()] == ["d"]
