"""Model curvature tensors and the model-spec mini-language.

Closed-form constructors (space forms, Riemannian products, complex space
forms, the explicit Fubini-Study CP^2 table), seeded random tensors, and
linear interpolation between models. ``parse_model`` understands a small
spec grammar used by the command line and the harness:

    sphere:n=4,k=1
    flat:n=3
    cp2
    csf:m=3,c=4
    random:n=5,seed=7,scale=1
    product:(sphere:n=3,k=1)x(flat:n=1)
    interp:(cp2)x(sphere:n=4,k=1),t=0.25

Product and interpolation take exactly two parenthesized children;
interpolation adds the blend parameter t in [0, 1]. Omitted parameters
take their defaults (sphere k=1, csf c=4, random seed=0 and scale=1);
n, m and t have none. ``_KINDS`` states each kind once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, ParameterOutOfRange, ParseError, ValidationFailure
from .tensor import (
    CurvatureTensor,
    _adopt,
    _check_dim,
    _check_int,
    _check_real,
    _check_seed,
    _exact_symmetrize,
    _pair_index,
    bianchi_project,
    new_from_components,
)


def constant_curvature(n: int, kappa: float) -> CurvatureTensor:
    """Space form of sectional curvature kappa in dimension n.

    R_ijkl = kappa (delta_ik delta_jl - delta_il delta_jk); every 2-plane
    has sectional curvature kappa, and the unit round sphere is kappa = 1.
    Dimension 1 is allowed and is trivially flat (it gives the line factor
    in products such as sphere x line).
    """
    _check_dim(n)
    _check_real(kappa, "curvature", ValidationFailure)
    eye = np.eye(n)
    a = kappa * (np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye))
    return _adopt(_exact_symmetrize(a))


def flat(n: int) -> CurvatureTensor:
    """The zero curvature tensor in dimension n."""
    return constant_curvature(n, 0.0)


def product(t1: CurvatureTensor, t2: CurvatureTensor) -> CurvatureTensor:
    """Curvature tensor of a Riemannian product.

    Each factor's components embed into its own index block; every mixed
    component vanishes. Dimensions add.
    """
    n1, n2 = t1.dim, t2.dim
    n = n1 + n2
    _check_dim(n)
    a = np.zeros((n, n, n, n))
    a[:n1, :n1, :n1, :n1] = t1.array
    a[n1:, n1:, n1:, n1:] = t2.array
    return _adopt(_exact_symmetrize(a))


def complex_space_form(m: int, c: float) -> CurvatureTensor:
    """Complex space form of complex dimension m, holomorphic curvature c.

    Real dimension n = 2m with the complex structure J pairing
    consecutive coordinates (J e_{2a-1} = e_{2a}):

        R(X,Y,Z,W) = (c/4) [ <X,Z><Y,W> - <X,W><Y,Z>
                             + <JX,Z><JY,W> - <JX,W><JY,Z>
                             + 2 <JX,Y><JZ,W> ].

    c = 4 gives the Fubini-Study metric normalized so CP^1 is the round
    2-sphere of curvature 4.
    """
    _check_dim(m)
    _check_dim(2 * m)
    _check_real(c, "holomorphic curvature", ValidationFailure)
    n = 2 * m
    jt = np.zeros((n, n))  # jt[i, k] = <J e_i, e_k>
    idx = np.arange(0, n, 2)
    jt[idx, idx + 1] = 1.0
    jt[idx + 1, idx] = -1.0
    eye = np.eye(n)
    a = (c / 4.0) * (
        np.einsum("ik,jl->ijkl", eye, eye)
        - np.einsum("il,jk->ijkl", eye, eye)
        + np.einsum("ik,jl->ijkl", jt, jt)
        - np.einsum("il,jk->ijkl", jt, jt)
        + 2.0 * np.einsum("ij,kl->ijkl", jt, jt)
    )
    return _adopt(_exact_symmetrize(a))


def cp2_explicit() -> CurvatureTensor:
    """The Fubini-Study CP^2 tensor from its nine nonzero components.

    In an adapted orthonormal frame (e1, e2 = Je1, e3, e4 = Je3):
    holomorphic planes have sectional curvature 4, totally real planes 1,
    and the off-block components are R_1234 = 2, R_1342 = R_1423 = -1
    (the unique values compatible with the Bianchi identity). Identical
    to ``complex_space_form(2, 4)``.
    """
    entries = [
        (1, 2, 1, 2, 4.0),
        (3, 4, 3, 4, 4.0),
        (1, 3, 1, 3, 1.0),
        (1, 4, 1, 4, 1.0),
        (2, 3, 2, 3, 1.0),
        (2, 4, 2, 4, 1.0),
        (1, 2, 3, 4, 2.0),
        (1, 3, 4, 2, -1.0),
        (1, 4, 2, 3, -1.0),
    ]
    return new_from_components(4, entries)


def random_curvature(n: int, seed=0, scale: float = 1.0) -> CurvatureTensor:
    """Seeded random algebraic curvature tensor.

    Draws a Gaussian matrix on the pairs of 2-forms, scales it and places
    it on the 2-form pairs; ``_exact_symmetrize`` reads only its upper
    triangle (the canonical slots) and mirrors it, so the tensor carries a
    Gaussian symmetric form. The result is projected onto the Bianchi
    subspace. The same (n, seed, scale) always reproduces the same
    tensor, and the output is linear in ``scale`` up to rounding
    (bit-for-bit when the scale is a power of two). ``seed`` may be a
    non-negative int or a tuple or list of them (hierarchical seeding);
    NumPy integers count as ints, and a bool or any other seed raises
    ParameterOutOfRange. The 2-form pairs come from the cached
    ``_pair_index``, so a draw builds no index arrays.
    """
    _check_dim(n, least=2)
    # an infinite scale passes here and is refused with the overflowing draw
    if not _check_real(scale, "scale", finite=False) > 0:
        raise ParameterOutOfRange(f"scale must be positive, got {scale}")
    rng = np.random.default_rng(_check_seed(seed))
    i, j = _pair_index(n)
    g = rng.standard_normal((len(i), len(i)))
    a = np.zeros((n, n, n, n))
    with np.errstate(over="ignore"):  # an overflowing scale is refused by _adopt
        a[i[:, None], j[:, None], i, j] = g * scale
    # _adopt checks finiteness; the rebuilt array needs no symmetry re-check.
    return bianchi_project(_adopt(_exact_symmetrize(a)))


def interpolate(t1: CurvatureTensor, t2: CurvatureTensor, t: float) -> CurvatureTensor:
    """Linear blend (1-t) T1 + t T2 of two tensors of equal dimension."""
    if t1.dim != t2.dim:
        raise DimensionMismatch(f"cannot blend dimensions {t1.dim} and {t2.dim}")
    if not 0.0 <= _check_real(t, "blend parameter") <= 1.0:
        raise ParameterOutOfRange(f"blend parameter must lie in [0, 1], got {t}")
    # Both arrays carry the symmetries exactly and rounding commutes with
    # negation, so the blend does too.
    return _adopt((1.0 - t) * t1.array + t * t2.array)


def shift(t1: CurvatureTensor, t2: CurvatureTensor, amount: float) -> CurvatureTensor:
    """The combination T1 + amount * T2 (used for hypothesis boosting)."""
    if t1.dim != t2.dim:
        raise DimensionMismatch(f"cannot combine dimensions {t1.dim} and {t2.dim}")
    _check_real(amount, "shift amount", ValidationFailure)
    # Exactly symmetric for the same reason as ``interpolate``.
    return _adopt(t1.array + amount * t2.array)


@dataclass(frozen=True)
class ModelSpec:
    """Parsed model description: a kind, parameters, and child specs."""

    kind: str
    params: dict = field(default_factory=dict)
    children: tuple = ()

    def describe(self) -> str:
        parts = [f"{k}={v}" for k, v in self.params.items()]
        if self.children:
            parts.insert(0, "x".join(f"({c.describe()})" for c in self.children))
        return f"{self.kind}:{','.join(parts)}" if parts else self.kind


class _Kind(NamedTuple):
    """One model kind: build_model calls builder(*children, **params)."""

    builder: Callable[..., CurvatureTensor]
    children: int  # parenthesized child specs the kind takes
    params: dict  # name -> (type, default); a default of None marks a required parameter


_KINDS = {
    "sphere": _Kind(lambda n, k: constant_curvature(n, kappa=k), 0, {"n": (int, None), "k": (float, 1.0)}),
    "flat": _Kind(flat, 0, {"n": (int, None)}),
    "cp2": _Kind(cp2_explicit, 0, {}),
    "csf": _Kind(complex_space_form, 0, {"m": (int, None), "c": (float, 4.0)}),
    "random": _Kind(random_curvature, 0, {"n": (int, None), "seed": (int, 0), "scale": (float, 1.0)}),
    "product": _Kind(product, 2, {}),
    "interp": _Kind(interpolate, 2, {"t": (float, None)}),
}


def _split_params(body: str) -> dict[str, str]:
    out: dict[str, str] = {}
    if not body:
        return out
    for piece in body.split(","):
        key, _, value = piece.partition("=")  # no "=" leaves value empty
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ParseError(f"expected key=value, got {piece!r}")
        if key in out:
            raise ParseError(f"duplicate parameter {key!r}")
        out[key] = value
    return out


def _coerce(kind: str, raw: dict[str, str]) -> dict:
    """Convert each parameter the kind takes to its type; a name it does
    not take stays a string, for ``_with_defaults`` to refuse."""
    schema = _KINDS[kind].params
    params = {}
    for key, value in raw.items():
        try:
            params[key] = schema[key][0](value) if key in schema else value
        except ValueError as exc:
            raise ParseError(f"bad value for {kind}.{key}: {value!r}") from exc
    return params


def _split_children(body: str) -> tuple[list[str], str]:
    """Split "(A)x(B),rest" into (["A", "B"], "rest")."""
    children = []
    pos = 0
    while pos < len(body) and body[pos] == "(":
        depth = 0
        for end in range(pos, len(body)):
            if body[end] == "(":
                depth += 1
            elif body[end] == ")":
                depth -= 1
                if depth == 0:
                    break
        else:
            raise ParseError(f"unbalanced parentheses in {body!r}")
        children.append(body[pos + 1 : end])
        pos = end + 1
        if pos < len(body) and body[pos] == "x":
            pos += 1
        else:
            break
    rest = body[pos:]
    if rest.startswith(","):
        rest = rest[1:]
    elif rest:
        raise ParseError(f"unexpected text after children: {rest!r}")
    return children, rest


def parse_model(text: str) -> ModelSpec:
    """Parse a model-spec string into a ModelSpec tree that ``_with_defaults`` accepts."""
    text = text.strip()
    if not text:
        raise ParseError("empty model spec")
    kind, _, body = text.partition(":")
    kind = kind.strip()
    if kind not in _KINDS:
        raise ParseError(f"unknown model kind {kind!r}")
    children_raw, rest = _split_children(body.strip()) if _KINDS[kind].children else ([], body.strip())
    spec = ModelSpec(kind, _coerce(kind, _split_params(rest)), tuple(parse_model(c) for c in children_raw))
    _with_defaults(spec)
    return spec


def _with_defaults(spec: ModelSpec) -> dict:
    """A spec's parameters with its kind's defaults filled in; ParseError
    unless its kind, child count, parameter names and types follow ``_KINDS``
    and every required parameter is given, so hand-built specs are held to
    the same table as parsed ones."""
    if spec.kind not in _KINDS:
        raise ParseError(f"unknown model kind {spec.kind!r}")
    kind = _KINDS[spec.kind]
    if len(spec.children) != kind.children:
        raise ParseError(f"{spec.kind} takes exactly {kind.children} children, got {len(spec.children)}")
    for key in spec.params:
        if key not in kind.params:
            raise ParseError(f"model kind {spec.kind!r} does not take parameter {key!r}")
    params = {}
    for key, (typ, default) in kind.params.items():
        value = params[key] = spec.params.get(key, default)
        if value is None:
            raise ParseError(f"{spec.kind} needs {key}")
        if typ is int:
            _check_int(value, f"{spec.kind}.{key}", error=ParseError)
        else:  # the builder checks range and finiteness
            _check_real(value, f"{spec.kind}.{key}", ParseError, finite=False)
    return params


def build_model(spec) -> CurvatureTensor:
    """Construct the tensor a ModelSpec (or spec string) describes."""
    if isinstance(spec, str):
        spec = parse_model(spec)
    params = _with_defaults(spec)
    return _KINDS[spec.kind].builder(*(build_model(c) for c in spec.children), **params)
