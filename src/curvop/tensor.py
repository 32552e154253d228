"""Algebraic curvature tensors: canonical storage, validation, contractions.

A curvature tensor on n-dimensional Euclidean space is kept as the dense
array of components R[i,j,k,l] (0-based internally, 1-based in the public
entry and JSON formats). Only canonical components, those with i<j, k<l and
(i,j) <= (k,l) lexicographically, are independent. ``canonical_index`` is the
one statement of that rule; tabulated once per dimension it gives a map from
every index quadruple to its canonical slot and sign, and every constructor
rebuilds its array from the canonical slots with one gather through that
map, so the antisymmetries

    R[j,i,k,l] = R[i,j,l,k] = -R[i,j,k,l],    R[k,l,i,j] = R[i,j,k,l]

hold bit-for-bit on the stored array. The first Bianchi identity

    R[i,j,k,l] + R[i,k,l,j] + R[i,l,j,k] = 0

is a tolerance check at construction; ``bianchi_project`` is the repair
path for raw arrays that fail it.

Sign convention: R[1,2,1,2] is the sectional curvature of span(e1, e2),
so the unit round sphere has R_1212 = +1.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile

import numpy as np

from .errors import (
    BianchiViolation,
    DegeneratePlane,
    DimensionTooSmall,
    IndexOutOfRange,
    IoFailure,
    ParseError,
    SymmetryConflict,
    ValidationFailure,
)

SIGN_CONVENTION = "R1212-positive-sphere"

_SYM_TOL = 1e-12  # relative index-symmetry deviation accepted in a raw array
_BIANCHI_TOL = 1e-10  # first Bianchi residual accepted, relative to the largest component
_GRAM_TOL = 1e-12  # relative Gram determinant below which two vectors span no plane


def canonical_index(i: int, j: int, k: int, l: int) -> tuple[tuple[int, int, int, int] | None, int]:
    """Map a 0-based index quadruple to its canonical form and sign.

    Returns ``(quad, sign)`` where ``quad`` has i<j, k<l, (i,j) <= (k,l)
    and ``sign`` is the factor relating the requested component to the
    canonical one. Quadruples with i == j or k == l carry no information
    (the component is identically zero) and return ``(None, 0)``.
    """
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


def canonical_quadruples(n: int):
    """Yield all canonical 0-based quadruples for dimension n."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for a, (i, j) in enumerate(pairs):
        for (k, l) in pairs[a:]:
            yield i, j, k, l


@functools.lru_cache(maxsize=None)
def _canonical_map(n: int) -> np.ndarray:
    """Gather indices that rebuild an (n,n,n,n) array from its canonical slots.

    With f the flattened array, entry [i,j,k,l] is the position in
    ``concatenate((f, -f, [0.0]))`` of the value that component takes: the
    flat canonical slot p of (i,j,k,l) for sign +1, n**4 + p for sign -1,
    and the trailing zero 2 n**4 where the component vanishes.
    """
    shape = (n,) * 4
    out = np.full(shape, 2 * n ** 4)
    for quad in np.ndindex(shape):
        canon, sign = canonical_index(*quad)
        if canon is not None:
            out[quad] = np.ravel_multi_index(canon, shape) + (n ** 4 if sign < 0 else 0)
    out.setflags(write=False)
    return out


def _exact_symmetrize(raw: np.ndarray, negated: np.ndarray | None = None) -> np.ndarray:
    """Rebuild an array from its canonical slots so symmetries are exact.

    Images of sign -1 take their value from ``negated`` (default ``-raw``),
    so a caller can keep unset slots +0.0 on every image.
    """
    f = raw.ravel()
    g = -f if negated is None else negated.ravel()
    return np.concatenate((f, g, [0.0]))[_canonical_map(raw.shape[0])]


def _bianchi_cyclic(a: np.ndarray) -> np.ndarray:
    return a + np.einsum("iklj->ijkl", a) + np.einsum("iljk->ijkl", a)


class CurvatureTensor:
    """An algebraic curvature tensor with exact index symmetries.

    Instances are immutable in intent: the component array is exposed
    read-only. Use the module constructors (``new_from_components``,
    ``from_dense``, ``bianchi_project``) rather than ``__init__`` unless
    the array is already exactly symmetric.
    """

    __slots__ = ("dim", "_a")

    def __init__(self, dim: int, array: np.ndarray, *, validate: bool = True):
        if dim < 1:
            raise DimensionTooSmall(f"need dimension >= 1, got {dim}")
        a = np.asarray(array, dtype=float)
        if a.shape != (dim, dim, dim, dim):
            raise ValidationFailure(f"component array must have shape {(dim,) * 4}, got {a.shape}")
        a = a.copy()
        a.setflags(write=False)
        self.dim = dim
        self._a = a
        if validate:
            _check_finite(a)
            _check_bianchi(a)

    @property
    def array(self) -> np.ndarray:
        """Dense (n,n,n,n) component array, 0-based, read-only."""
        return self._a

    def component(self, i: int, j: int, k: int, l: int) -> float:
        """Component R_ijkl with 1-based indices."""
        n = self.dim
        for idx in (i, j, k, l):
            if not 1 <= idx <= n:
                raise IndexOutOfRange(f"index {idx} outside 1..{n}")
        return float(self._a[i - 1, j - 1, k - 1, l - 1])

    def max_abs(self) -> float:
        return float(np.abs(self._a).max())

    def bianchi_residual(self) -> float:
        """Largest absolute cyclic sum over all index quadruples."""
        return float(np.abs(_bianchi_cyclic(self._a)).max())

    def allclose(self, other: "CurvatureTensor", atol: float = 0.0, rtol: float = 0.0) -> bool:
        return self.dim == other.dim and np.allclose(self._a, other._a, atol=atol, rtol=rtol)

    def __repr__(self) -> str:
        return f"CurvatureTensor(dim={self.dim}, max_abs={self.max_abs():.6g})"


def _check_finite(a: np.ndarray) -> None:
    # The second-kind matrix compresses R by an orthonormal basis, so its
    # Frobenius norm is at most ||R||_F; the Ricci matrix's is at most
    # sqrt(n) ||R||_F. The eigensolver squares entries to take those norms,
    # so n ||R||_F^2 must stay finite.
    if not math.isfinite(a.shape[0] * float(np.vdot(a, a))):
        if not np.isfinite(a).all():
            raise ValidationFailure("component array has non-finite entries")
        raise ValidationFailure("components too large: the Ricci and second-kind norms overflow")


def _check_bianchi(a: np.ndarray) -> None:
    residual = float(np.abs(_bianchi_cyclic(a)).max())
    scale = float(np.abs(a).max())
    if residual > _BIANCHI_TOL * scale:
        raise BianchiViolation(
            f"first Bianchi residual {residual:.3e} exceeds {_BIANCHI_TOL:.1e} * {scale:.3e}"
        )


def new_from_components(n: int, entries) -> CurvatureTensor:
    """Build a tensor from 1-based component entries.

    ``entries`` is an iterable of (i, j, k, l, value). Indices may appear
    in any order; each is canonicalized with its sign. Supplying two
    entries that disagree under the symmetries raises SymmetryConflict;
    components not mentioned are zero. The assembled tensor must satisfy
    the first Bianchi identity within ``_BIANCHI_TOL`` relative to its
    largest component.
    """
    if n < 1:
        raise DimensionTooSmall(f"need dimension >= 1, got {n}")
    seen: dict[tuple[int, int, int, int], float] = {}
    for entry in entries:
        i, j, k, l, v = entry
        for idx in (i, j, k, l):
            if not 1 <= idx <= n:
                raise IndexOutOfRange(f"index {idx} outside 1..{n}")
        quad, sign = canonical_index(i - 1, j - 1, k - 1, l - 1)
        if quad is None:
            if v != 0:
                raise SymmetryConflict(
                    f"component ({i},{j},{k},{l}) vanishes by antisymmetry but value {v} given"
                )
            continue
        canon_v = sign * float(v)
        if quad in seen and seen[quad] != canon_v:
            raise SymmetryConflict(
                f"component ({i},{j},{k},{l}) conflicts with an earlier entry: "
                f"{canon_v} vs {seen[quad]}"
            )
        seen[quad] = canon_v
    a = np.zeros((n, n, n, n))
    negated = np.zeros((n, n, n, n))
    for quad, v in seen.items():
        a[quad], negated[quad] = v, -v
    return CurvatureTensor(n, _exact_symmetrize(a, negated))


def _symmetric_array(array) -> np.ndarray:
    """Coerce a raw (n,n,n,n) array; non-finite entries or index symmetries
    off by more than ``_SYM_TOL`` times the largest entry raise ValidationFailure."""
    a = np.asarray(array, dtype=float)
    if a.ndim != 4 or len(set(a.shape)) != 1:
        raise ValidationFailure(f"expected a square 4-index array, got shape {a.shape}")
    n = a.shape[0]
    if n < 1:
        raise DimensionTooSmall(f"need dimension >= 1, got {n}")
    _check_finite(a)
    scale = max(float(np.abs(a).max()), 1e-300)
    asym1 = float(np.abs(a + np.einsum("jikl->ijkl", a)).max())
    asym2 = float(np.abs(a + np.einsum("ijlk->ijkl", a)).max())
    pair = float(np.abs(a - np.einsum("klij->ijkl", a)).max())
    worst = max(asym1, asym2, pair)
    if worst > _SYM_TOL * scale:
        raise ValidationFailure(
            f"index symmetries violated: worst deviation {worst:.3e} vs scale {scale:.3e}"
        )
    return a


def from_dense(array) -> CurvatureTensor:
    """Adopt a raw (n,n,n,n) array as a curvature tensor.

    The array must satisfy the index symmetries within 1e-12 relative to
    its largest component (ValidationFailure otherwise); it is then
    rebuilt exactly from canonical slots and Bianchi-checked.
    """
    a = _symmetric_array(array)
    return CurvatureTensor(a.shape[0], _exact_symmetrize(a))


def bianchi_project(array) -> CurvatureTensor:
    """Orthogonally project a raw array onto the Bianchi subspace.

    Accepts any array with the index symmetries (checked as in
    ``from_dense``) and removes its totally antisymmetric part:
    R' = R - (1/3)(R + R(ikl j-cycled) + R(ilj k-cycled)). The result
    satisfies the first Bianchi identity to rounding; projecting twice
    changes nothing, and a tensor already satisfying the identity is a
    fixed point.
    """
    a = array.array if isinstance(array, CurvatureTensor) else _symmetric_array(array)
    projected = a - _bianchi_cyclic(a) / 3.0
    return CurvatureTensor(a.shape[0], _exact_symmetrize(projected))


def ricci(t: CurvatureTensor) -> np.ndarray:
    """Ricci contraction Ric_ij = sum_k R_ikjk, a symmetric (n,n) array."""
    return np.einsum("ikjk->ij", t.array)


def scalar(t: CurvatureTensor) -> float:
    """Scalar curvature, the trace of the Ricci contraction."""
    return float(np.trace(ricci(t)))


def sectional(t: CurvatureTensor, u, v) -> float:
    """Sectional curvature of the 2-plane spanned by u and v.

    K(u, v) = R(u, v, u, v) / (|u|^2 |v|^2 - <u,v>^2). The vectors need not
    be orthonormal but must span a genuine 2-plane: the Gram determinant
    must exceed ``_GRAM_TOL`` times |u|^2 |v|^2, else DegeneratePlane.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (t.dim,) or v.shape != (t.dim,):
        raise DegeneratePlane(f"expected two vectors of length {t.dim}")
    g11 = float(u @ u)
    g22 = float(v @ v)
    g12 = float(u @ v)
    gram = g11 * g22 - g12 * g12
    if gram <= _GRAM_TOL * max(g11 * g22, 1e-300):
        raise DegeneratePlane("vectors do not span a 2-plane")
    num = float(np.einsum("ijkl,i,j,k,l->", t.array, u, v, u, v))
    return num / gram


def to_dict(t: CurvatureTensor) -> dict:
    """Serialize to the canonical JSON structure (1-based sparse entries)."""
    entries = []
    a = t.array
    for i, j, k, l in canonical_quadruples(t.dim):
        v = a[i, j, k, l]
        if v != 0.0:
            entries.append({"i": i + 1, "j": j + 1, "k": k + 1, "l": l + 1, "v": float(v)})
    return {"dim": t.dim, "convention": SIGN_CONVENTION, "entries": entries}


def from_dict(doc) -> CurvatureTensor:
    """Build a tensor from the JSON structure produced by ``to_dict``.

    Entries need not be canonical; they pass through the same
    canonicalizer as ``new_from_components``. Structural problems raise
    ParseError; symmetry or Bianchi problems raise their specific errors.
    """
    if not isinstance(doc, dict):
        raise ParseError("tensor document must be a JSON object")
    try:
        n = doc["dim"]
        raw_entries = doc["entries"]
    except KeyError as exc:
        raise ParseError(f"tensor document missing key {exc}") from exc
    if not isinstance(n, int):
        raise ParseError("'dim' must be an integer")
    convention = doc.get("convention", SIGN_CONVENTION)
    if convention != SIGN_CONVENTION:
        raise ParseError(f"unsupported sign convention {convention!r}")
    if not isinstance(raw_entries, list):
        raise ParseError("'entries' must be a list")
    entries = []
    for e in raw_entries:
        try:
            entries.append((e["i"], e["j"], e["k"], e["l"], float(e["v"])))
        except (TypeError, KeyError, ValueError) as exc:
            raise ParseError(f"malformed entry {e!r}") from exc
    return new_from_components(n, entries)


def write_json_atomic(doc: dict, path: str) -> None:
    """Write a JSON document atomically (temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def save_tensor(t: CurvatureTensor, path: str) -> None:
    """Write the tensor to ``path`` as JSON, atomically."""
    write_json_atomic(to_dict(t), path)


def load_tensor(path: str) -> CurvatureTensor:
    """Read a tensor JSON file written by ``save_tensor``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return from_dict(doc)
