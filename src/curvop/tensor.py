"""Algebraic curvature tensors: canonical storage, validation, contractions.

A curvature tensor on n-dimensional Euclidean space is kept as the dense
array of components R[i,j,k,l] (0-based internally, 1-based in the public
entry and JSON formats). Only canonical components, those with i<j, k<l and
(i,j) <= (k,l) lexicographically, are independent. ``_canonical_map`` is the
one statement of that rule: built once per dimension from index arrays, it
sends every index quadruple to its canonical slot and sign. Entries are
decoded through it, ``to_dict`` reads the canonical slots off it, and every
array is rebuilt from its canonical slots with one gather through it (or is
an exact linear combination of such arrays), so the antisymmetries

    R[j,i,k,l] = R[i,j,l,k] = -R[i,j,k,l],    R[k,l,i,j] = R[i,j,k,l]

hold bit-for-bit on the stored array. The first Bianchi identity

    R[i,j,k,l] + R[i,k,l,j] + R[i,l,j,k] = 0

is a tolerance check at construction; ``bianchi_project`` is the repair
path for raw arrays that fail it.
``CurvatureTensor(array)`` is the validated way in for raw arrays; arrays
the package builds exactly go through ``_adopt``, which checks finiteness.

Sign convention: R[1,2,1,2] is the sectional curvature of span(e1, e2),
so the unit round sphere has R_1212 = +1.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import numbers
import os
import tempfile

import numpy as np

from .errors import (
    BianchiViolation,
    CurvopError,
    DimensionTooSmall,
    IndexOutOfRange,
    IoFailure,
    ParameterOutOfRange,
    ParseError,
    SymmetryConflict,
    ValidationFailure,
)

SIGN_CONVENTION = "R1212-positive-sphere"

_SYM_TOL = 1e-12  # relative index-symmetry deviation accepted in a raw array
_BIANCHI_TOL = 1e-10  # first Bianchi residual accepted, relative to the largest component
_MAX_DIM = 32  # largest dimension accepted: dense arrays and the index map grow as n**4

# The process umask, read once: os.umask reads it only by setting it, so it
# is put back at once. Written files get the mode a plain open() gives.
_UMASK = os.umask(0o077)
os.umask(_UMASK)


@functools.lru_cache(maxsize=None)
def _canonical_map(n: int) -> np.ndarray:
    """Gather indices that rebuild an (n,n,n,n) array from its canonical slots.

    With f the flattened array, entry [i,j,k,l] is the position in
    ``concatenate((f, -f, [0.0]))`` of the value that component takes: the
    flat canonical slot p of (i,j,k,l) for sign +1, n**4 + p for sign -1,
    and the trailing zero 2 n**4 where the component vanishes (i == j or
    k == l). The canonical quadruple sorts each pair, which sets the sign,
    and swaps the two pairs when they are out of lexicographic order.
    """
    i, j = np.indices((n, n))
    key = np.minimum(i, j) * n + np.maximum(i, j)  # flat index of the sorted pair
    first, second = key[:, :, None, None], key[None, None]
    slot = np.minimum(first, second) * n ** 2 + np.maximum(first, second)
    flip = (i > j)[:, :, None, None] != (i > j)[None, None]
    zero = (i == j)[:, :, None, None] | (i == j)[None, None]
    out = np.where(zero, 2 * n ** 4, slot + flip * n ** 4)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the index pairs i < j in lexicographic
    order, ``np.triu_indices(n, 1)``, built once per n and read-only."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def _skew(y: np.ndarray, n: int) -> np.ndarray:
    """Skew (n, n) expansion of a stack (..., N2) of 2-form coordinates over
    the pairs of ``_pair_index(n)``: Xi[i, j] = y[(i, j)] = -Xi[j, i] for
    i < j."""
    i, j = _pair_index(n)
    xi = np.zeros((*y.shape[:-1], n, n))
    xi[..., i, j] = y
    xi[..., j, i] = -y
    return xi


def _exact_symmetrize(raw: np.ndarray, negated: np.ndarray | None = None) -> np.ndarray:
    """Rebuild an array from its canonical slots so symmetries are exact.

    Images of sign -1 take their value from ``negated`` (default ``-raw``),
    so a caller can keep unset slots +0.0 on every image.
    """
    f = raw.ravel()
    g = -f if negated is None else negated.ravel()
    return np.concatenate((f, g, [0.0]))[_canonical_map(raw.shape[0])]


def _bianchi_cyclic(a: np.ndarray) -> np.ndarray:
    # R[i,j,k,l] + R[i,k,l,j] + R[i,l,j,k], the last two as transposed views
    return a + a.transpose(0, 3, 1, 2) + a.transpose(0, 2, 3, 1)


class CurvatureTensor:
    """An algebraic curvature tensor with exact index symmetries, read-only.

    ``CurvatureTensor(array)`` takes a raw (n,n,n,n) array, n in 1..32, with
    finite, non-overflowing components and the index symmetries within
    ``_SYM_TOL`` (else ValidationFailure), rebuilds it exactly from its
    canonical slots and checks Bianchi within ``_BIANCHI_TOL``.
    """

    __slots__ = ("dim", "_a")

    def __init__(self, array):
        a = _exact_symmetrize(_symmetric_array(array))
        _check_bianchi(a)
        a.setflags(write=False)
        self.dim, self._a = a.shape[0], a

    @property
    def array(self) -> np.ndarray:
        """Dense (n,n,n,n) component array, 0-based, read-only."""
        return self._a

    def component(self, i: int, j: int, k: int, l: int) -> float:
        """Component R_ijkl with 1-based indices."""
        _check_indices(self.dim, (i, j, k, l))
        return float(self._a[i - 1, j - 1, k - 1, l - 1])

    def max_abs(self) -> float:
        return float(np.abs(self._a).max())

    def bianchi_residual(self) -> float:
        """Largest absolute cyclic sum over all index quadruples."""
        return float(np.abs(_bianchi_cyclic(self._a)).max())

    def __repr__(self) -> str:
        return f"CurvatureTensor(dim={self.dim}, max_abs={self.max_abs():.6g})"


def _check_int(value, name: str, least: float = -math.inf, most: float = math.inf,
               error: type[CurvopError] = ParameterOutOfRange) -> int:
    """The integer rule: an int in least..most, where NumPy integers count and
    a bool does not; else ``error``. Returns the value as a plain int, so it
    can go into a report as it is. A plain int passes on its type alone."""
    if type(value) is not int and isinstance(value, numbers.Integral) and not isinstance(value, bool):
        value = int(value)
    if not (type(value) is int and least <= value <= most):
        raise error(f"{name} must be an integer in [{least}, {most}], got {value!r}")
    return value


def _check_real(value, name: str, error: type[CurvopError] = ParameterOutOfRange,
                finite: bool = True) -> float:
    """The real rule: a real number, where a bool does not count, that
    converts to a float (an int beyond the float range does not), finite
    unless ``finite`` is False; else ``error``. Returns the float. A plain
    float passes on its type alone."""
    if type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):
            x = float(value)
            if not finite or math.isfinite(x):
                return x
    raise error(f"{name} must be a {'finite ' * finite}real number, got {value!r}")


def _check_indices(n: int, indices) -> None:
    for idx in indices:
        _check_int(idx, "index", 1, n, IndexOutOfRange)


def _check_dim(n, least: int = 1) -> int:
    """Reject a dimension that is not an integer in least.._MAX_DIM before
    any array is allocated: DimensionTooSmall for a number below ``least``,
    else ParameterOutOfRange. Returns the dimension as a plain int."""
    try:
        return _check_int(n, "dimension", least, _MAX_DIM)
    except ParameterOutOfRange:
        if isinstance(n, numbers.Real) and n < least:
            raise DimensionTooSmall(f"need dimension >= {least}, got {n}") from None
        raise


def _check_seed(seed) -> tuple:
    """Accept seed material for ``np.random.default_rng``: a non-negative
    int, or a tuple or list of them, under the integer rule; anything else
    raises ParameterOutOfRange, not the bare error NumPy would raise.
    Returns the material as a tuple of plain ints, an int n as (n,), which
    ``default_rng`` takes to the same stream as n."""
    parts = seed if isinstance(seed, (tuple, list)) else (seed,)
    return tuple([_check_int(part, "each part of the seed material", 0) for part in parts])


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


def _adopt(a: np.ndarray) -> CurvatureTensor:
    """Wrap a fresh, exactly symmetric array that this package built.

    Only finiteness is checked (ValidationFailure); the array is adopted
    without a copy, so the caller must hold no other reference to it.
    """
    _check_finite(a)
    a.setflags(write=False)
    t = object.__new__(CurvatureTensor)
    t.dim, t._a = a.shape[0], a
    return t


def new_from_components(n: int, entries) -> CurvatureTensor:
    """Build a tensor from 1-based component entries.

    ``entries`` is an iterable of (i, j, k, l, value) tuples (else
    ValidationFailure). Indices must be integers in 1..n (else
    IndexOutOfRange) and may appear in any order; each quadruple is read
    through the index map to its canonical slot and sign. Values must be
    real numbers, not booleans or strings, within the float range (else
    ValidationFailure). Supplying two entries that disagree under the
    symmetries raises SymmetryConflict; components not mentioned are
    zero. The assembled tensor must satisfy the first Bianchi identity
    within ``_BIANCHI_TOL`` relative to its largest component.
    """
    _check_dim(n)
    cmap, size = _canonical_map(n), n ** 4
    seen: dict[int, float] = {}
    for entry in entries:
        try:
            i, j, k, l, v = entry
        except (TypeError, ValueError) as exc:
            raise ValidationFailure(f"entry {entry!r} is not an (i, j, k, l, value) tuple") from exc
        _check_indices(n, (i, j, k, l))
        v = _check_real(v, f"component ({i},{j},{k},{l})", ValidationFailure, finite=False)
        pos = int(cmap[i - 1, j - 1, k - 1, l - 1])
        if pos == 2 * size:
            if v != 0:
                raise SymmetryConflict(
                    f"component ({i},{j},{k},{l}) vanishes by antisymmetry but value {v} given"
                )
            continue
        slot, canon_v = (pos - size, -v) if pos >= size else (pos, v)
        if slot in seen and seen[slot] != canon_v:
            raise SymmetryConflict(
                f"component ({i},{j},{k},{l}) conflicts with an earlier entry: "
                f"{canon_v} vs {seen[slot]}"
            )
        seen[slot] = canon_v
    a, negated = np.zeros(size), np.zeros(size)
    slots, values = list(seen), np.array(list(seen.values()))
    a[slots], negated[slots] = values, -values
    t = _adopt(_exact_symmetrize(a.reshape((n,) * 4), negated))
    _check_bianchi(t.array)
    return t


def _symmetric_array(array) -> np.ndarray:
    """Coerce a raw (n,n,n,n) array; non-finite entries or index symmetries
    off by more than ``_SYM_TOL`` times the largest entry raise ValidationFailure."""
    a = np.asarray(array, dtype=float)
    if a.ndim != 4 or len(set(a.shape)) != 1:
        raise ValidationFailure(f"expected a square 4-index array, got shape {a.shape}")
    _check_dim(a.shape[0])
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


def bianchi_project(array) -> CurvatureTensor:
    """Orthogonally project a raw array onto the Bianchi subspace.

    Accepts a tensor or any raw array with the index symmetries (checked
    as in ``CurvatureTensor``) and removes its totally antisymmetric part:
    R' = R - (1/3)(R + R(ikl j-cycled) + R(ilj k-cycled)). The result
    satisfies the first Bianchi identity to rounding; projecting twice
    changes nothing, and a tensor already satisfying the identity is a
    fixed point.
    """
    a = array.array if isinstance(array, CurvatureTensor) else _symmetric_array(array)
    projected = a - _bianchi_cyclic(a) / 3.0
    t = _adopt(_exact_symmetrize(projected))
    _check_bianchi(t.array)
    return t


def ricci(t: CurvatureTensor) -> np.ndarray:
    """Ricci contraction Ric_ij = sum_k R_ikjk, a symmetric (n,n) array."""
    return _ricci(t.array)


def _ricci(arrays: np.ndarray) -> np.ndarray:
    """Ricci contraction of an (n, n, n, n) array or of each array of a
    stack, shape (..., n, n); an array's contraction does not depend on its
    stack."""
    return np.einsum("...ikjk->...ij", arrays)


def to_dict(t: CurvatureTensor) -> dict:
    """Serialize to the canonical JSON structure (1-based sparse entries).

    The canonical slots are those the index map sends to themselves; in
    ravel order they run lexicographically over (i, j, k, l).
    """
    f, cmap = t.array.ravel(), _canonical_map(t.dim).ravel()
    slots = np.flatnonzero(cmap == np.arange(cmap.size))
    slots = slots[f[slots] != 0.0]
    quads = (q.tolist() for q in np.unravel_index(slots, t.array.shape))
    entries = [
        {"i": i + 1, "j": j + 1, "k": k + 1, "l": l + 1, "v": v}
        for i, j, k, l, v in zip(*quads, f[slots].tolist())
    ]
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
    if type(n) is not int:  # JSON true/false load as bool, a subclass of int
        raise ParseError("'dim' must be an integer")
    convention = doc.get("convention", SIGN_CONVENTION)
    if convention != SIGN_CONVENTION:
        raise ParseError(f"unsupported sign convention {convention!r}")
    if not isinstance(raw_entries, list):
        raise ParseError("'entries' must be a list")
    entries = []
    for e in raw_entries:
        try:
            *indices, v = e["i"], e["j"], e["k"], e["l"], e["v"]
        except (TypeError, KeyError) as exc:
            raise ParseError(f"malformed entry {e!r}") from exc
        if any(type(idx) is not int for idx in indices):
            raise ParseError(f"entry {e!r} has a non-integer index")
        # JSON true/false load as bool, a subclass of int; strings are not numbers
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ParseError(f"entry {e!r} has a non-numeric value")
        try:
            entries.append((*indices, float(v)))
        except OverflowError as exc:  # an integer literal beyond the float range
            raise ParseError(f"entry {e!r} has a value out of range") from exc
    return new_from_components(n, entries)


def write_json_atomic(doc: dict, path: str) -> None:
    """Write a JSON document atomically (temp file + rename).

    The file gets mode 0o666 less the umask, as a plain ``open`` would give
    it, not the 0o600 of the temporary file. A failed write raises
    IoFailure naming ``path`` and the OS error's message, never the
    temporary file, so the same failure reads the same on every run.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                os.fchmod(fh.fileno(), 0o666 & ~_UMASK)
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc.strerror or type(exc).__name__}") from exc


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
