"""Curvature operators on tensor spaces: assembly, spectra, positivity.

The operator of the second kind acts on traceless symmetric 2-tensors,
a space of dimension N = (n-1)(n+2)/2; the operator of the first kind
acts on 2-forms, dimension n(n-1)/2. Both are realized as symmetric
matrices in explicit orthonormal bases, each a plain (N, n, n) stack of
n x n matrices. The bilinear form behind the second-kind matrix is

    M[a,b] = sum_{ijkl} R_iklj phi_a[i,j] phi_b[k,l],

whose eigenvalues are basis-independent. Eigenvalue positivity is graded
by the (k+alpha) conditions: the sum of the k smallest eigenvalues plus
alpha times the next one is positive, zero within rounding, or negative
(``_sign``). The graded functions read a ``Spectrum``, whose eigenvalues
ascend, and ``_check_k_alpha`` states the range of k and alpha once; a
hypothesis's text form is ``PredicateSpec.name`` and ``parse_predicate``.

Eigenvalues come from LAPACK through ``numpy.linalg``. For a fixed
platform, NumPy/BLAS build and BLAS thread count they are bit-for-bit
reproducible; the thread count can change their last bits.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotSymmetric, ParameterOutOfRange, ParseError, ValidationFailure
from .tensor import CurvatureTensor, _check_dim, _check_int, _check_real, _pair_index, _skew

ALPHA_ALWAYS = "always"
ALPHA_UNATTAINABLE = "unattainable"

# c of a graded sum's rounding bound c (k + alpha) N eps max|lambda|.
_ROUNDING_C = 4.0
_EPS = float(np.finfo(float).eps)


def lambda2_dim(n: int) -> int:
    """Dimension of the 2-forms, n(n-1)/2. Any integer n >= 0 counts: the
    formula needs no array."""
    n = _check_int(n, "dimension", 0)
    return n * (n - 1) // 2


def s20_dim(n: int) -> int:
    """Dimension of the traceless symmetric 2-tensors, (n-1)(n+2)/2. Any
    integer n >= 0 counts, so ``positivity_profile`` can test an inferred n
    above the dimension bound."""
    n = _check_int(n, "dimension", 0)
    return (n - 1) * (n + 2) // 2


def lambda2_basis(n: int) -> np.ndarray:
    """Orthonormal basis of 2-forms as an (n(n-1)/2, n, n) stack.

    Element (i,j), i<j in lexicographic order, is (e_i ^ e_j)/sqrt(2)
    under the inner product <A,B> = (1/2) tr(A^T B): entries +-1 at
    (i,j)/(j,i).
    """
    _check_dim(n, 2)
    return _skew(np.eye(lambda2_dim(n), dtype=int), n)  # integers: every zero +0.0


@functools.lru_cache(maxsize=None, typed=True)  # typed: a float n is checked, not served as an int
def s20_basis(n: int) -> np.ndarray:
    """Standard orthonormal basis of the traceless symmetric 2-tensors.

    An ((n-1)(n+2)/2, n, n) stack, orthonormal under <A,B> = tr(A B):
    off-diagonal elements (e_i (.) e_j)/sqrt(2) for i<j in lexicographic
    order followed by the diagonal ladder xi_j = (e_1 (.) e_1 + ... - j
    e_{j+1} (.) e_{j+1}) / (2 sqrt(j(j+1))) for j = 1..n-1, written as
    symmetric matrices. Built once per n and returned read-only.
    """
    _check_dim(n, 2)
    j = np.arange(1, n)[:, None]
    p = np.arange(n)
    c = 1.0 / np.sqrt(j * (j + 1))
    ladder = np.zeros((n - 1, n, n))
    ladder[:, p, p] = np.where(p < j, c, np.where(p == j, -j * c, 0.0))
    # |e_i ^ e_j| = e_i (.) e_j entrywise, in the same lexicographic order
    elements = np.concatenate((np.abs(lambda2_basis(n)) / np.sqrt(2.0), ladder))
    elements.setflags(write=False)
    return elements


def second_kind_matrix(t: CurvatureTensor, basis: np.ndarray | None = None) -> np.ndarray:
    """Matrix of the second-kind operator on a stack of symmetric 2-tensors.

    ``basis`` is an (N, n, n) stack, by default ``s20_basis(t.dim)``; a
    basis that is not an array of numbers raises ValidationFailure, and a
    stack of another trailing shape DimensionMismatch. The result
    is an (N, N) symmetric matrix whose (a,b) entry is the bilinear form
    on elements a and b. The identity suites pass their frame families,
    which need not be orthonormal, straight in. The matrix is the two
    matrix products (P R~) P^T, with P the stack as N rows of n*n entries
    and R~ the array as an n^2 x n^2 matrix from (i, j) to (k, l): the
    products ``np.tensordot`` would form, without its setup per call.
    """
    n = t.dim
    try:
        phi = s20_basis(n) if basis is None else np.asarray(basis, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric
        raise ValidationFailure(f"basis is not an array of numbers: {exc}") from exc
    if phi.shape[1:] != (n, n):
        raise DimensionMismatch(f"tensor dim {n} vs basis elements of shape {phi.shape[1:]}")
    return _second_kind_matrices(t.array, phi)


def _second_kind_matrices(arrays: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The second-kind matrix of an (n, n, n, n) array, or of each array of
    a stack, on the (N, n, n) stack ``phi``, shape (..., N, N).

    M[a,b] = sum_{ijkl} R_iklj phi_a[i,j] phi_b[k,l]: the axes (i, k, l, j)
    of each array reordered to rows (i, j) and columns (k, l). ``matmul``
    runs one BLAS product per array, so an array's matrix does not depend
    on its stack.
    """
    n = arrays.shape[-1]
    p = phi.reshape(phi.shape[0], n * n)
    r = arrays.swapaxes(-1, -3).swapaxes(-1, -2).reshape(arrays.shape[:-4] + (n * n, n * n))
    return (p @ r) @ p.T


def _first_kind_matrices(arrays: np.ndarray) -> np.ndarray:
    """Matrix of the first-kind operator on 2-forms, of an (n, n, n, n)
    array or of a stack of them, shape (..., N2, N2) with N2 = n(n-1)/2.

    Entry ((i,j),(k,l)) is R_ijkl over lexicographic index pairs i<j,
    k<l; with the 2-form inner product <A,B> = (1/2) tr(A^T B) this is
    the operator matrix in the basis ``lambda2_basis``.
    """
    i, j = _pair_index(arrays.shape[-1])
    return arrays[..., i[:, None], j[:, None], i, j]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition of a symmetric matrix.

    ``eigenvalues`` ascend; ``eigenvectors`` holds the matching
    orthonormal columns (None when the solve skipped them); ``residual``
    is the largest entry of |M V - V diag(lambda)| of the returned
    eigenpairs, or None when there are no eigenvectors.
    """

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray | None = field(repr=False)
    residual: float | None


def eigen_sym(m: np.ndarray, vectors: bool = True) -> Spectrum:
    """Diagonalize a symmetric matrix with LAPACK.

    Raises NotSymmetric for input that is not a square array of numbers
    or is asymmetric beyond 1e-10 of its Frobenius norm, ValidationFailure
    for non-finite input or input whose norm overflows, and NoConvergence
    when LAPACK reports failure (see ``_eigenvalues``). Eigenvalues come
    from the eigenvalue-only driver in both modes, so ``vectors=False``
    returns the same bits as ``vectors=True``; the vector driver runs only
    when vectors are requested.
    """
    try:
        m = np.asarray(m, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric
        raise NotSymmetric(f"expected a square array of numbers: {exc}") from exc
    if m.ndim != 2:
        raise NotSymmetric(f"expected a square matrix, got shape {m.shape}")
    a, eigenvalues = _eigenvalues(m)
    if not vectors:
        return Spectrum(eigenvalues, None, None)
    try:
        eigenvectors = np.linalg.eigh(a)[1]  # NumPy 1.x returns a plain (w, v) tuple
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigensolver failed: {exc}") from exc
    residual = float(np.abs(a @ eigenvectors - eigenvectors * eigenvalues).max(initial=0.0))
    return Spectrum(eigenvalues, eigenvectors, residual)


def _eigenvalues(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The checks of ``eigen_sym`` and its eigenvalue solve, for a float
    square matrix or a stack of them, shape (..., N, N).

    A stack is checked as the block-diagonal matrix of its matrices, whose
    eigenvalues are theirs. The Frobenius norm is one ``np.vdot`` of the
    input with itself, which neither warns nor needs an ``np.errstate``: an
    overflowing or non-finite norm comes back as inf or nan and raises
    ValidationFailure. An asymmetry beyond 1e-10 of the norm raises
    NotSymmetric, as does a shape that is not square. Returns
    (a, eigenvalues): a = (m + m^T)/2 and its ascending eigenvalues
    (..., N) from one ``eigvalsh`` call, which runs one LAPACK solve per
    matrix, so a matrix's eigenvalues do not depend on its stack; a failed
    solve raises NoConvergence.
    """
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotSymmetric(f"expected a square matrix, got shape {m.shape}")
    norm = math.sqrt(float(np.vdot(m, m)))
    if not math.isfinite(norm):
        raise ValidationFailure("matrix has non-finite entries or its norm overflows")
    transposed = m.swapaxes(-1, -2)
    if norm > 0 and float(np.abs(m - transposed).max()) > 1e-10 * norm:
        raise NotSymmetric("matrix is not symmetric within 1e-10 of its norm")
    a = (m + transposed) / 2.0
    try:
        return a, np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigensolver failed: {exc}") from exc


def _check_k_alpha(size: int, k: int, alpha: float) -> None:
    _check_int(k, "k", 1, size)
    if not 0.0 <= _check_real(alpha, "alpha") <= 1.0:
        raise ParameterOutOfRange(f"alpha must lie in [0, 1], got {alpha}")
    if k + alpha > size:
        raise ParameterOutOfRange(f"k + alpha = {k + alpha} exceeds the matrix size {size}")


def k_alpha_value(spectrum: Spectrum, k: int, alpha: float) -> float:
    """The graded eigenvalue sum lambda_1 + ... + lambda_k + alpha lambda_{k+1}
    of a spectrum's ascending eigenvalues; ParameterOutOfRange unless
    1 <= k <= N, 0 <= alpha <= 1 and k + alpha <= N."""
    ev = spectrum.eigenvalues
    _check_k_alpha(ev.shape[0], k, alpha)
    value = float(ev.cumsum()[k - 1])
    if k < ev.shape[0]:
        value += alpha * float(ev[k])
    return value


def _sign(value: float, bound: float) -> int:
    """The one sign rule, ``bound`` the value's rounding bound: 1 above the
    bound, 0 within it of zero, -1 below -bound or nan. Positive is
    ``_sign >= 1``, nonnegative ``_sign >= 0``."""
    return 1 if value > bound else 0 if value >= -bound else -1


def _k_alpha_bound(spectrum: Spectrum, k: int, alpha: float) -> float:
    """Rounding bound of a graded sum: by Weyl's inequality and LAPACK's
    backward error each eigenvalue is off by a small multiple of
    N eps max|lambda|, and max|lambda| = max(-lambda_1, lambda_N)."""
    ev = spectrum.eigenvalues
    return _ROUNDING_C * (k + alpha) * ev.shape[0] * _EPS * max(-float(ev[0]), float(ev[-1]))


def _k_alpha_sign(spectrum: Spectrum, k: int, alpha: float) -> tuple[float, int]:
    """The graded sum ``k_alpha_value`` and its ``_sign`` against its own
    rounding bound ``_k_alpha_bound``: the one graded decision."""
    value = k_alpha_value(spectrum, k, alpha)
    return value, _sign(value, _k_alpha_bound(spectrum, k, alpha))


def k_alpha_positive(spectrum: Spectrum, k: int, alpha: float, strict: bool) -> bool:
    """Decide (k+alpha)-positivity (strict) or -nonnegativity of a spectrum."""
    return _k_alpha_sign(spectrum, k, alpha)[1] >= strict


@dataclass(frozen=True)
class PredicateSpec:
    """A (k+alpha) hypothesis: (k+alpha)-positivity when ``strict``, else
    (k+alpha)-nonnegativity, decided by ``k_alpha_positive`` within rounding."""

    k: int
    alpha: float
    strict: bool = True

    @property
    def name(self) -> str:
        # alpha in :g form where that is exact, else in full, and -0 as 0: parse_predicate reads it back
        alpha = f"{self.alpha + 0.0:g}"
        alpha = alpha if float(alpha) == self.alpha else repr(float(self.alpha))
        return f"k{self.k}a{alpha}{'strict' if self.strict else 'nonneg'}"


_PREDICATE_RE = re.compile(r"^k(\d+)a((?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(strict|nonneg)?$")


def parse_predicate(text: str) -> PredicateSpec:
    """Parse a hypothesis such as "k4a0.5strict" or "k9a0nonneg" (strict by default)."""
    text = text.strip()
    m = _PREDICATE_RE.match(text)
    if not m:
        raise ParseError(f"cannot parse hypothesis {text!r}")
    return PredicateSpec(int(m.group(1)), float(m.group(2)), strict=m.group(3) != "nonneg")


def alpha_star(spectrum: Spectrum, k: int) -> float | str:
    """Threshold of the sum sigma_k + alpha lambda_{k+1}: the smallest alpha
    in [0,1] at which it is nonnegative. k runs over 1..N-1.

    Each end, sigma_k (alpha = 0) and sigma_k + lambda_{k+1} (alpha = 1),
    is decided by ``_k_alpha_sign``. Returns "always"
    when sigma_k is positive or both ends are zero; 0.0 when only sigma_k is
    zero; "unattainable" when the alpha = 1 end is negative, 1.0 when it is
    zero; and otherwise the ratio -sigma_k/lambda_{k+1}.
    """
    sigma, low = _k_alpha_sign(spectrum, k, 0.0)
    high = _k_alpha_sign(spectrum, k, 1.0)[1]
    if low >= 0:
        return ALPHA_ALWAYS if low == 1 or high == 0 else 0.0
    if high == -1:
        return ALPHA_UNATTAINABLE
    return 1.0 if high == 0 else -sigma / float(spectrum.eigenvalues[k]) + 0.0


def named_conditions(n: int) -> dict[str, PredicateSpec]:
    """Standard named conditions for dimension n.

    Includes 4.5-positivity/nonnegativity whenever the space is large
    enough and the (n + (n-2)/n) pair, whose fraction is rendered in
    lowest terms, e.g. "(4+1/2)-positive".
    """
    _check_int(n, "dimension", 2)
    size = s20_dim(n)
    conds: dict[str, PredicateSpec] = {}
    if 4 + 0.5 <= size:
        conds["4.5-positive"] = PredicateSpec(4, 0.5, True)
        conds["4.5-nonnegative"] = PredicateSpec(4, 0.5, False)
    frac = Fraction(n - 2, n)
    if n + frac <= size:
        label = f"({n}+{frac})"  # a zero fraction prints as 0
        conds[f"{label}-positive"] = PredicateSpec(n, float(frac), True)
        conds[f"{label}-nonnegative"] = PredicateSpec(n, float(frac), False)
    return conds


def positivity_profile(spectrum: Spectrum) -> dict:
    """The graded positivity of a spectrum, as ``curvop analyze`` prints it.

    "eigenvalues" lists the ascending eigenvalues, "profile" holds for each
    k in 1..N-1 the partial sum "sigma" and "alphaStar" ("always", a float
    in [0,1], or "unattainable"), and "verdicts" maps each of
    ``named_conditions(n)`` to its decision, within rounding: CP^2 is
    4.5-nonnegative, not 4.5-positive. The dimension n solves
    N = (n-1)(n+2)/2, that is n = (sqrt(8N + 9) - 1)/2; a size with no
    integer solution gets no verdicts.
    """
    ev = spectrum.eigenvalues
    size = ev.shape[0]
    sums = np.cumsum(ev)
    n = (math.isqrt(8 * size + 9) - 1) // 2
    conditions = named_conditions(n) if n >= 2 and s20_dim(n) == size else {}
    return {
        "eigenvalues": [float(v) for v in ev],
        "profile": [{"k": k, "sigma": float(sums[k - 1]), "alphaStar": alpha_star(spectrum, k)}
                    for k in range(1, size)],
        "verdicts": {name: k_alpha_positive(spectrum, cond.k, cond.alpha, cond.strict)
                     for name, cond in conditions.items()},
    }
