"""Curvature operators on tensor spaces: assembly, spectra, positivity.

The operator of the second kind acts on traceless symmetric 2-tensors,
a space of dimension N = (n-1)(n+2)/2; the operator of the first kind
acts on 2-forms, dimension n(n-1)/2. Both are realized as symmetric
matrices in explicit orthonormal bases, each a plain (N, n, n) stack of
n x n matrices. The bilinear form behind the second-kind matrix is

    M[a,b] = sum_{ijkl} R_iklj phi_a[i,j] phi_b[k,l],

whose eigenvalues are basis-independent. Eigenvalue positivity is graded
by the (k+alpha) conditions: the sum of the k smallest eigenvalues plus
alpha times the next one is positive (or nonnegative).

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
from .tensor import CurvatureTensor

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
    i, j = np.triu_indices(n, 1)
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
    which need not be orthonormal, straight in.
    """
    phi = s20_basis(t.dim) if basis is None else basis
    if phi.shape[1:] != (t.dim, t.dim):
        raise DimensionMismatch(f"tensor dim {t.dim} vs basis elements of shape {phi.shape[1:]}")
    # M[a,b] = sum_{ijkl} R_iklj phi_a[i,j] phi_b[k,l], contracted in two
    # matrix-product steps (axes of t.array are labeled i, k, l, j).
    half = np.tensordot(phi, t.array, axes=([1, 2], [0, 3]))  # a k l
    return np.tensordot(half, phi, axes=([1, 2], [1, 2]))  # a b


def first_kind_matrix(t: CurvatureTensor) -> np.ndarray:
    """Matrix of the first-kind operator on 2-forms.

    Entry ((i,j),(k,l)) is R_ijkl over lexicographic index pairs i<j,
    k<l; with the 2-form inner product <A,B> = (1/2) tr(A^T B) this is
    the operator matrix in the basis ``lambda2_basis``.
    """
    i, j = np.triu_indices(t.dim, 1)
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
    reports failure. Eigenvalues come from the eigenvalue-only driver
    in both modes, so ``vectors=False`` returns the same bits as
    ``vectors=True``; the vector driver runs only when vectors are
    requested.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {m.shape}")
    with np.errstate(over="ignore"):
        norm = float(np.sqrt((m * m).sum()))
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


def _ascending_eigenvalues(spectrum) -> np.ndarray:
    """Coerce a Spectrum or a raw eigenvalue sequence to an ascending array."""
    if hasattr(spectrum, "eigenvalues"):
        return spectrum.eigenvalues
    ev = np.asarray(spectrum, dtype=float)
    if ev.ndim != 1 or ev.shape[0] < 1:
        raise ParameterOutOfRange(f"expected a 1-d eigenvalue sequence, got shape {ev.shape}")
    return np.sort(ev)


def k_alpha_value(spectrum, k: int, alpha: float) -> float:
    """The graded eigenvalue sum lambda_1 + ... + lambda_k + alpha lambda_{k+1}.

    Accepts a ``Spectrum`` or any eigenvalue sequence (sorted ascending
    internally).
    """
    ev = _ascending_eigenvalues(spectrum)
    _check_k_alpha(ev.shape[0], k, alpha)
    sums = np.cumsum(ev)
    value = float(sums[k - 1])
    if k < ev.shape[0]:
        value += alpha * float(ev[k])
    return value


def k_alpha_positive(spectrum, k: int, alpha: float, strict: bool = True) -> bool:
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


def alpha_star(spectrum, k: int) -> float | str:
    """Largest alpha in [0,1] with sigma_k + alpha lambda_{k+1} >= 0.

    Returns "always" when the sum is nonnegative for every alpha (and in
    particular when sigma_k > 0), the critical ratio -sigma_k/lambda_{k+1}
    when that lies in [0,1], and "unattainable" when no alpha in [0,1]
    restores nonnegativity.
    """
    ev = _ascending_eigenvalues(spectrum)
    size = ev.shape[0]
    if not 1 <= k <= size - 1:
        raise ParameterOutOfRange(f"k must lie in 1..{size - 1}, got {k}")
    sigma = float(np.cumsum(ev)[k - 1])
    lam_next = float(ev[k])
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


@dataclass(frozen=True, eq=False)
class PositivityProfile:
    """Graded positivity data of one spectrum.

    For each k in 1..N-1: the partial sum sigma_k and the threshold
    ``alpha_star`` entry ("always", a float in [0,1], or "unattainable").
    ``verdicts`` holds named condition decisions computed from the same
    eigenvalues.
    """

    eigenvalues: np.ndarray = field(repr=False)
    sigmas: np.ndarray = field(repr=False)
    alpha_stars: tuple
    verdicts: dict[str, bool]

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "profile": [
                {"k": k + 1, "sigma": float(self.sigmas[k]), "alphaStar": self.alpha_stars[k]}
                for k in range(len(self.alpha_stars))
            ],
            "verdicts": dict(self.verdicts),
        }


def positivity_profile(spectrum: Spectrum) -> PositivityProfile:
    """Tabulate sigma_k and alpha_star for k = 1..N-1, plus named verdicts.

    The ambient dimension of the named conditions is inferred from the
    spectrum size N = (n-1)(n+2)/2, which determines n; a size with no
    integer solution gets no named verdicts.
    """
    ev = spectrum.eigenvalues
    size = ev.shape[0]
    sums = np.cumsum(ev)
    stars = tuple(alpha_star(spectrum, k) for k in range(1, size))
    dim = _infer_dim(size)
    verdicts: dict[str, bool] = {}
    if dim is not None:
        for name, cond in named_conditions(dim).items():
            verdicts[name] = k_alpha_positive(spectrum, cond.k, cond.alpha, cond.strict)
    return PositivityProfile(ev.copy(), sums[: size - 1], stars, verdicts)


def _infer_dim(size: int) -> int | None:
    for n in range(2, 2 * size + 3):
        if s20_dim(n) == size:
            return n
    return None
