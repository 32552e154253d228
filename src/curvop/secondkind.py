"""Curvature operators on tensor spaces: assembly, spectra, positivity.

The operator of the second kind acts on traceless symmetric 2-tensors,
a space of dimension N = (n-1)(n+2)/2; the operator of the first kind
acts on 2-forms, dimension n(n-1)/2. Both are realized as symmetric
matrices in explicit orthonormal bases, each a plain (N, n, n) stack of
n x n matrices. The bilinear form behind the second-kind matrix is

    M[a,b] = sum_{ijkl} R_iklj phi_a[i,j] phi_b[k,l],

whose eigenvalues are basis-independent. Eigenvalue positivity is graded
by the (k+alpha) conditions: the sum of the k smallest eigenvalues plus
alpha times the next one is positive (or nonnegative). The graded
functions read a ``Spectrum``, whose eigenvalues ascend, and
``_check_k_alpha`` states the range of k and alpha once.

Eigenvalues come from LAPACK through ``numpy.linalg``. For a fixed
platform, NumPy/BLAS build and BLAS thread count they are bit-for-bit
reproducible; the thread count can change their last bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    NoConvergence,
    NotSymmetric,
    ParameterOutOfRange,
    ValidationFailure,
)
from .tensor import CurvatureTensor, _pair_index

ALPHA_ALWAYS = "always"
ALPHA_UNATTAINABLE = "unattainable"


def lambda2_dim(n: int) -> int:
    return n * (n - 1) // 2


def s20_dim(n: int) -> int:
    """Dimension of the traceless symmetric 2-tensors, (n-1)(n+2)/2."""
    return (n - 1) * (n + 2) // 2


def lambda2_basis(n: int) -> np.ndarray:
    """Orthonormal basis of 2-forms as an (n(n-1)/2, n, n) stack.

    Element (i,j), i<j in lexicographic order, is (e_i ^ e_j)/sqrt(2)
    under the inner product <A,B> = (1/2) tr(A^T B): entries +-1 at
    (i,j)/(j,i).
    """
    if n < 2:
        raise DimensionTooSmall(f"need dimension >= 2, got {n}")
    i, j = _pair_index(n)
    a = np.arange(i.size)
    mats = np.zeros((i.size, n, n))
    mats[a, i, j] = 1.0
    mats[a, j, i] = -1.0
    return mats


@functools.lru_cache(maxsize=None)
def s20_basis(n: int) -> np.ndarray:
    """Standard orthonormal basis of the traceless symmetric 2-tensors.

    An ((n-1)(n+2)/2, n, n) stack, orthonormal under <A,B> = tr(A B):
    off-diagonal elements (e_i (.) e_j)/sqrt(2) for i<j in lexicographic
    order followed by the diagonal ladder xi_j = (e_1 (.) e_1 + ... - j
    e_{j+1} (.) e_{j+1}) / (2 sqrt(j(j+1))) for j = 1..n-1, written as
    symmetric matrices. Built once per n and returned read-only.
    """
    if n < 2:
        raise DimensionTooSmall(f"need dimension >= 2, got {n}")
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
    stack of another trailing shape raises DimensionMismatch. The result
    is an (N, N) symmetric matrix whose (a,b) entry is the bilinear form
    on elements a and b. The identity suites pass their frame families,
    which need not be orthonormal, straight in. The matrix is the two
    matrix products (P R~) P^T, with P the stack as N rows of n*n entries
    and R~ the array as an n^2 x n^2 matrix from (i, j) to (k, l): the
    products ``np.tensordot`` would form, without its setup per call.
    """
    n = t.dim
    phi = s20_basis(n) if basis is None else basis
    if phi.shape[1:] != (n, n):
        raise DimensionMismatch(f"tensor dim {n} vs basis elements of shape {phi.shape[1:]}")
    # M[a,b] = sum_{ijkl} R_iklj phi_a[i,j] phi_b[k,l]: axes (i, k, l, j)
    # of t.array reordered to rows (i, j) and columns (k, l).
    p = phi.reshape(phi.shape[0], n * n)
    r = t.array.transpose(0, 3, 1, 2).reshape(n * n, n * n)
    return (p @ r) @ p.T


def first_kind_matrix(t: CurvatureTensor) -> np.ndarray:
    """Matrix of the first-kind operator on 2-forms.

    Entry ((i,j),(k,l)) is R_ijkl over lexicographic index pairs i<j,
    k<l; with the 2-form inner product <A,B> = (1/2) tr(A^T B) this is
    the operator matrix in the basis ``lambda2_basis``.
    """
    i, j = _pair_index(t.dim)
    return t.array[i[:, None], j[:, None], i, j]


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

    Raises NotSymmetric for non-square input or input that is asymmetric
    beyond 1e-10 of its Frobenius norm, ValidationFailure for non-finite
    input or input whose norm overflows, and NoConvergence when LAPACK
    reports failure. The Frobenius norm is one ``np.vdot`` of the matrix
    with itself, which neither warns nor needs an ``np.errstate``.
    Eigenvalues come from the eigenvalue-only driver in both modes, so
    ``vectors=False`` returns the same bits as ``vectors=True``; the
    vector driver runs only when vectors are requested.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {m.shape}")
    # np.vdot, unlike np.dot, raises no floating-point warning: an
    # overflowing or non-finite norm comes back as inf or nan, unwarned.
    norm = math.sqrt(float(np.vdot(m, m)))
    if not math.isfinite(norm):
        raise ValidationFailure("matrix has non-finite entries or its norm overflows")
    if norm > 0 and float(np.abs(m - m.T).max()) > 1e-10 * norm:
        raise NotSymmetric("matrix is not symmetric within 1e-10 of its norm")

    a = (m + m.T) / 2.0
    try:
        eigenvalues = np.linalg.eigvalsh(a)
        if not vectors:
            return Spectrum(eigenvalues, None, None)
        eigenvectors = np.linalg.eigh(a).eigenvectors
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigensolver failed: {exc}") from exc
    residual = float(np.abs(a @ eigenvectors - eigenvectors * eigenvalues).max(initial=0.0))
    return Spectrum(eigenvalues, eigenvectors, residual)


def _check_k_alpha(size: int, k: int, alpha: float) -> None:
    if not 1 <= k <= size:
        raise ParameterOutOfRange(f"k must lie in 1..{size}, got {k}")
    if not 0.0 <= alpha <= 1.0:
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


def k_alpha_positive(spectrum: Spectrum, k: int, alpha: float, strict: bool) -> bool:
    """Decide (k+alpha)-positivity (strict) or -nonnegativity of a spectrum."""
    value = k_alpha_value(spectrum, k, alpha)
    return value > 0.0 if strict else value >= 0.0


@dataclass(frozen=True)
class PredicateSpec:
    """A (k+alpha) hypothesis: (k+alpha)-positivity when ``strict``, else
    (k+alpha)-nonnegativity, decided by ``k_alpha_positive``."""

    k: int
    alpha: float
    strict: bool = True

    @property
    def name(self) -> str:
        suffix = "strict" if self.strict else "nonneg"
        return f"k{self.k}a{self.alpha:g}{suffix}"


def alpha_star(spectrum: Spectrum, k: int) -> float | str:
    """Largest alpha in [0,1] with sigma_k + alpha lambda_{k+1} >= 0.

    Returns "always" when the sum is nonnegative for every alpha (and in
    particular when sigma_k > 0), the critical ratio -sigma_k/lambda_{k+1}
    when that lies in [0,1], and "unattainable" when no alpha in [0,1]
    restores nonnegativity. k runs over 1..N-1.
    """
    _check_k_alpha(spectrum.eigenvalues.shape[0], k, 1.0)
    sigma = k_alpha_value(spectrum, k, 0.0)
    lam_next = float(spectrum.eigenvalues[k])
    if sigma > 0.0:
        return ALPHA_ALWAYS
    if sigma == 0.0 and lam_next == 0.0:
        return ALPHA_ALWAYS
    if lam_next <= 0.0:
        return ALPHA_UNATTAINABLE
    ratio = -sigma / lam_next + 0.0
    return ratio if ratio <= 1.0 else ALPHA_UNATTAINABLE


def named_conditions(n: int) -> dict[str, PredicateSpec]:
    """Standard named conditions for dimension n.

    Includes 4.5-positivity/nonnegativity whenever the space is large
    enough and the (n + (n-2)/n) pair, whose fraction is rendered in
    lowest terms, e.g. "(4+1/2)-positive".
    """
    size = s20_dim(n)
    conds: dict[str, PredicateSpec] = {}
    if 4 + 0.5 <= size:
        conds["4.5-positive"] = PredicateSpec(4, 0.5, True)
        conds["4.5-nonnegative"] = PredicateSpec(4, 0.5, False)
    frac = Fraction(n - 2, n)
    alpha = (n - 2) / n
    if n + alpha <= size:
        label = f"({n}+{frac})" if frac != 0 else f"({n}+0)"
        conds[f"{label}-positive"] = PredicateSpec(n, alpha, True)
        conds[f"{label}-nonnegative"] = PredicateSpec(n, alpha, False)
    return conds


def positivity_profile(spectrum: Spectrum) -> dict:
    """The graded positivity of a spectrum, as ``curvop analyze`` prints it.

    "eigenvalues" lists the ascending eigenvalues, "profile" holds for each
    k in 1..N-1 the partial sum "sigma" and "alphaStar" ("always", a float
    in [0,1], or "unattainable"), and "verdicts" maps each of
    ``named_conditions(n)`` to its decision. The dimension n solves
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
