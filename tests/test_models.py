"""Model constructors and the model-spec mini-language."""

import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import curvop
from curvop import (
    DimensionMismatch,
    ParameterOutOfRange,
    ParseError,
    ValidationFailure,
    build_model,
    complex_space_form,
    constant_curvature,
    cp2_explicit,
    flat,
    interpolate,
    parse_model,
    random_curvature,
    ricci,
    second_kind_spectrum,
    shift,
)
from curvop.models import ModelSpec, product
from curvop.cli import main
from curvop.tensor import _adopt, _exact_symmetrize


def test_constant_curvature_sectional_is_kappa():
    for kappa in (1.0, -2.5, 0.25):
        t = constant_curvature(5, kappa)
        rng = np.random.default_rng(11)
        for _ in range(4):
            f = curvop.random_frame(5, 2, rng)
            u, v = f[:, 0], f[:, 1]  # orthonormal, so R(u,v,u,v) is the sectional curvature
            assert np.einsum("ijkl,i,j,k,l->", t.array, u, v, u, v) == pytest.approx(kappa, abs=1e-12)


def test_unit_sphere_second_kind_is_identity():
    spec = second_kind_spectrum(constant_curvature(5, 1.0))
    assert np.abs(spec.eigenvalues - 1.0).max() < 1e-15


def test_flat_is_zero():
    assert flat(6).max_abs() == 0.0


def test_product_sphere_flat_spectrum():
    t = product(constant_curvature(3, 1.0), flat(1))
    assert t.dim == 4
    eigs = second_kind_spectrum(t).eigenvalues
    expected = np.array([-0.5, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    assert np.abs(eigs - expected).max() < 1e-12


def test_product_block_structure():
    t = product(constant_curvature(3, 1.0), constant_curvature(2, 4.0))
    # mixed components vanish, pure blocks carry their own curvature
    assert t.component(1, 4, 1, 4) == 0.0
    assert t.component(1, 2, 1, 2) == pytest.approx(1.0)
    assert t.component(4, 5, 4, 5) == pytest.approx(4.0)


def test_cp2_fixture_components_and_einstein():
    t = cp2_explicit()
    assert t.component(1, 2, 1, 2) == pytest.approx(4.0)
    assert t.component(1, 3, 1, 3) == pytest.approx(1.0)
    assert t.component(1, 2, 3, 4) == pytest.approx(2.0)
    assert t.component(1, 3, 4, 2) == pytest.approx(-1.0)
    assert t.component(1, 4, 2, 3) == pytest.approx(-1.0)
    assert np.abs(ricci(t) - 6.0 * np.eye(4)).max() < 1e-12
    assert t.bianchi_residual() < 1e-14


def test_cp2_equals_complex_space_form_m2_c4():
    assert np.array_equal(cp2_explicit().array, complex_space_form(2, 4.0).array)


@pytest.mark.parametrize("m", [2, 3])
def test_complex_space_form_second_kind_spectrum(m):
    t = complex_space_form(m, 4.0)
    eigs = second_kind_spectrum(t).eigenvalues
    low, high = m * m - 1, m * (m + 1)
    expected = np.concatenate([np.full(low, -2.0), np.full(high, 4.0)])
    assert eigs.shape == expected.shape
    assert np.abs(eigs - expected).max() < 1e-9


def test_complex_space_form_einstein_constant_scales_with_c():
    for m, c in ((2, 2.0), (3, 1.0)):
        t = complex_space_form(m, c)
        assert np.abs(ricci(t) - c * (m + 1) / 2.0 * np.eye(2 * m)).max() < 1e-12


def test_random_curvature_is_deterministic():
    a = random_curvature(5, seed=7)
    b = random_curvature(5, seed=7)
    assert np.array_equal(a.array, b.array)
    c = random_curvature(5, seed=8)
    assert not np.array_equal(a.array, c.array)
    # tuple seeds give independent streams
    d = random_curvature(5, seed=(7, 1))
    assert not np.array_equal(a.array, d.array)
    assert np.array_equal(d.array, random_curvature(5, seed=(7, 1)).array)


def test_random_curvature_rejects_negative_seed_material():
    for seed in (-1, (3, -1), [-2]):
        with pytest.raises(ParameterOutOfRange):
            random_curvature(4, seed=seed)
    with pytest.raises(ParameterOutOfRange):
        build_model("random:n=4,seed=-2")


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("scale", [1.0, 3.7, 1e-3, 2.0 ** 40])
def test_random_curvature_equals_the_mirrored_form_bit_for_bit(n, scale):
    # the Gaussian matrix is placed as drawn: only its upper triangle is
    # read, so the tensor equals the one built from the mirrored form
    for seed in range(5):
        g = np.random.default_rng(seed).standard_normal((n * (n - 1) // 2,) * 2)
        form = np.triu(g) + np.triu(g, 1).T
        i, j = np.triu_indices(n, 1)
        a = np.zeros((n, n, n, n))
        a[i[:, None], j[:, None], i, j] = form * scale
        expected = curvop.bianchi_project(_adopt(_exact_symmetrize(a)))
        assert np.array_equal(random_curvature(n, seed=seed, scale=scale).array, expected.array)


def test_random_curvature_scale_power_of_two_is_exact():
    base = random_curvature(4, seed=5, scale=1.0)
    doubled = random_curvature(4, seed=5, scale=2.0)
    assert np.array_equal(doubled.array, 2.0 * base.array)


@pytest.mark.parametrize("scale, error", [
    (1e300, ValidationFailure),
    (1e308, ValidationFailure),
    (float("inf"), ValidationFailure),
    (float("nan"), ParameterOutOfRange),
])
@pytest.mark.parametrize("n", [4, 5, 8])
def test_random_curvature_refuses_unusable_scales_without_warning(n, scale, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            random_curvature(n, seed=1, scale=scale)


def test_random_curvature_satisfies_symmetries():
    t = random_curvature(6, seed=99)
    a = t.array
    assert np.abs(a + np.swapaxes(a, 0, 1)).max() == 0.0
    assert np.abs(a - np.transpose(a, (2, 3, 0, 1))).max() == 0.0
    assert t.bianchi_residual() < 1e-13


def test_interpolate_endpoints_and_midpoint():
    t0, t1 = flat(4), constant_curvature(4, 2.0)
    assert np.array_equal(interpolate(t0, t1, 0.0).array, t0.array)
    assert np.array_equal(interpolate(t0, t1, 1.0).array, t1.array)
    mid = interpolate(t0, t1, 0.5)
    assert np.abs(mid.array - 0.5 * t1.array).max() < 1e-15


def test_interpolate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        interpolate(flat(4), flat(5), 0.5)


def test_shift_adds_scaled_second():
    t = random_curvature(4, seed=12)
    s = constant_curvature(4, 1.0)
    out = shift(t, s, 0.75)
    assert np.abs(out.array - (t.array + 0.75 * s.array)).max() < 1e-15
    with pytest.raises(DimensionMismatch):
        shift(t, constant_curvature(5, 1.0), 1.0)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_linear_combinations_are_exactly_symmetric(n):
    rng = np.random.default_rng(n)
    for trial in range(10):
        t1 = random_curvature(n, seed=(n, trial, 1), scale=float(rng.uniform(0.1, 10.0)))
        t2 = random_curvature(n, seed=(n, trial, 2))
        for out in (shift(t1, t2, float(rng.normal(0.0, 5.0))),
                    interpolate(t1, t2, float(rng.uniform()))):
            assert np.array_equal(out.array, _exact_symmetrize(out.array))


def test_parse_model_atoms():
    spec = parse_model("sphere:n=4,k=2.5")
    assert spec == ModelSpec("sphere", {"n": 4, "k": 2.5})
    assert parse_model("cp2") == ModelSpec("cp2")
    assert parse_model(" flat:n=3 ").params == {"n": 3}
    spec = parse_model("random:n=5,seed=3,scale=1.5")
    assert spec.params == {"n": 5, "seed": 3, "scale": 1.5}


def test_parse_model_combiners():
    spec = parse_model("product:(sphere:n=3,k=1)x(flat:n=1)")
    assert spec.kind == "product"
    assert [c.kind for c in spec.children] == ["sphere", "flat"]
    spec = parse_model("interp:(flat:n=4)x(cp2),t=0.25")
    assert spec.kind == "interp" and spec.params == {"t": 0.25}
    # describe() round-trips through the parser
    assert parse_model(spec.describe()) == spec


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "torus:n=4",
        "sphere:n=4,n=5",
        "sphere:radius=1",
        "sphere:n=abc",
        "product:(sphere:n=3,k=1)",
        "product",
        "interp:,t=0.5",
        "product:(flat:n=1",
        "interp:(flat:n=4)x(cp2),t=0.25,junk",
    ],
)
def test_parse_model_rejects_bad_specs(bad):
    with pytest.raises(ParseError):
        parse_model(bad)


@pytest.mark.parametrize("spec, direct", [
    ("sphere:n=4,k=2", lambda: constant_curvature(4, 2.0)),
    ("sphere:n=4", lambda: constant_curvature(4, 1.0)),
    ("flat:n=3", lambda: flat(3)),
    ("cp2", cp2_explicit),
    ("csf:m=2", lambda: complex_space_form(2, 4.0)),
    ("csf:m=3,c=2", lambda: complex_space_form(3, 2.0)),
    ("random:n=5", lambda: random_curvature(5, seed=0, scale=1.0)),
    ("random:n=5,seed=3", lambda: random_curvature(5, seed=3)),
    ("random:n=6,seed=4,scale=0.5", lambda: random_curvature(6, seed=4, scale=0.5)),
    ("product:(sphere:n=3,k=1)x(flat:n=1)", lambda: product(constant_curvature(3, 1.0), flat(1))),
    ("interp:(flat:n=4)x(cp2),t=0.5", lambda: interpolate(flat(4), cp2_explicit(), 0.5)),
])
def test_build_model_matches_direct_constructors(spec, direct):
    # every kind, with its defaults filled in and with them given
    assert np.array_equal(build_model(spec).array, direct().array)
    assert np.array_equal(build_model(parse_model(spec)).array, direct().array)


def test_build_model_requires_mandatory_params():
    for text in ("sphere", "flat", "csf", "random", "interp:(flat:n=4)x(cp2)"):
        with pytest.raises(ParseError):
            build_model(text)


@pytest.mark.parametrize("spec", [
    "sphere:n=4,k=nan",
    "sphere:n=4,k=inf",
    "sphere:n=4,k=1e300",
    "csf:m=2,c=inf",
    "product:(sphere:n=3,k=nan)x(flat:n=1)",
])
def test_models_reject_non_finite_parameters(spec, capsys):
    with pytest.raises(ValidationFailure):
        build_model(spec)
    assert main(["model", "--model", spec]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "RuntimeWarning" not in err


@pytest.mark.parametrize("spec", ["sphere:n=4,k=inf", "csf:m=2,c=inf"])
def test_model_command_rejects_infinite_parameter_without_warning(spec):
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, "-m", "curvop.cli", "model", "--model", spec],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "error" in proc.stderr and "Warning" not in proc.stderr


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e300])
def test_linear_combinations_reject_non_finite_results(bad):
    a, b = random_curvature(4, seed=1), constant_curvature(4, 1.0)
    with pytest.raises(ValidationFailure):
        shift(a, b, bad)
    with np.errstate(invalid="ignore"):  # inf * 0 here is the test's own arithmetic
        scaled = bad * b.array
    with pytest.raises(ValidationFailure):
        curvop.CurvatureTensor(scaled)
