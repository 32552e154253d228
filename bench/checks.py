"""Correctness checks for the benchmark, computed apart from curvop.

Nothing here imports curvop. Every quantity a check compares against is
assembled from components with plain NumPy: the CO2 matrix in a basis of
this module's own, its spectrum from ``numpy.linalg.eigvalsh``, frame
components by ``einsum``, the Ricci contraction, and the closed-form model
tensors. Each ``check_*`` function returns a list of problems, empty when
the program's output passes.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance for quantities that must agree up to rounding.
ROUNDING = 1e-9
# The sampled isotropic minimum may exceed the true one by at most this.
ISO_SLACK = 1e-6
# Largest identity residual a verify case may report.
RESIDUAL_MAX = 1e-10
# Fixed rotation seed for the traceless basis: a constant, so the basis is
# the same in every run, and unrelated to any curvop basis.
_BASIS_SEED = 20220901


def traceless_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the traceless symmetric n x n matrices.

    Off-diagonal units (e_i e_j^T + e_j e_i^T)/sqrt(2), plus the diagonal
    matrices of an orthonormal basis of the trace-zero vectors, all
    conjugated by one fixed random rotation. Returns an (N, n, n) stack,
    N = (n-1)(n+2)/2, orthonormal under <A, B> = tr(A B).
    """
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            mats.append(m)
    ones = np.ones((n, 1)) / np.sqrt(n)
    q, _ = np.linalg.qr(np.hstack([ones, np.eye(n)[:, 1:]]))
    for col in q[:, 1:].T:
        mats.append(np.diag(col))
    rot, _ = np.linalg.qr(np.random.default_rng(_BASIS_SEED + n).standard_normal((n, n)))
    return np.einsum("ip,apq,jq->aij", rot, np.array(mats), rot)


def co2_matrix(r: np.ndarray, basis: np.ndarray | None = None) -> np.ndarray:
    """M[a, b] = sum R_iklj phi_a[i, j] phi_b[k, l] in an orthonormal traceless basis."""
    if basis is None:
        basis = traceless_basis(r.shape[0])
    m = np.einsum("iklj,aij,bkl->ab", r, basis, basis, optimize=True)
    return (m + m.T) / 2.0


def co2_eigenvalues(r: np.ndarray) -> np.ndarray:
    """Ascending CO2 eigenvalues of a curvature array."""
    return np.linalg.eigvalsh(co2_matrix(r))


def k_alpha(eigenvalues: np.ndarray, k: int, alpha: float) -> float:
    """lambda_1 + ... + lambda_k + alpha lambda_{k+1} of an ascending spectrum."""
    return float(eigenvalues[:k].sum() + alpha * eigenvalues[k])


def alpha_star(eigenvalues: np.ndarray, k: int):
    """Largest alpha in [0, 1] with sigma_k + alpha lambda_{k+1} >= 0.

    "always" when sigma_k > 0 (or sigma_k = lambda_{k+1} = 0), "unattainable"
    when no alpha in [0, 1] works, else the ratio -sigma_k / lambda_{k+1}.
    """
    sigma, nxt = float(eigenvalues[:k].sum()), float(eigenvalues[k])
    if sigma > 0.0 or (sigma == 0.0 and nxt == 0.0):
        return "always"
    if nxt <= 0.0 or -sigma / nxt > 1.0:
        return "unattainable"
    return -sigma / nxt


def frame_components(r: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """R(e_a, e_b, e_c, e_d) for the columns e of ``frame``."""
    return np.einsum("ijkl,ia,jb,kc,ld->abcd", r, frame, frame, frame, frame, optimize=True)


def isotropic(r: np.ndarray, frame: np.ndarray) -> float:
    """K13 + K14 + K23 + K24 - 2 R1234 on an orthonormal 4-frame."""
    c = frame_components(r, frame)
    return float(c[0, 2, 0, 2] + c[0, 3, 0, 3] + c[1, 2, 1, 2] + c[1, 3, 1, 3] - 2.0 * c[0, 1, 2, 3])


def ricci_matrix(r: np.ndarray) -> np.ndarray:
    return np.einsum("ikjk->ij", r)


def scalar(r: np.ndarray) -> float:
    return float(np.einsum("ikik->", r))


def kyfan_iso_bound(eigenvalues: np.ndarray) -> float:
    """Lower bound of isotropic curvature on every orthonormal 4-frame.

    The master identity 27 iso = 24(q1 + q5 + q6) + 6(q2 + q3 + q4 + q7 + q8
    + q9) over an orthonormal nine-family, with Ky Fan's weighted minimum
    principle, gives iso >= (2/9)(4(l1 + l2 + l3) + l4 + ... + l9).
    """
    ev = eigenvalues
    return float(2.0 / 9.0 * (4.0 * ev[:3].sum() + ev[3:9].sum()))


def _scale(r: np.ndarray) -> float:
    return max(1.0, float(np.abs(r).max()))


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= ROUNDING * scale


def sphere(n: int, dims: int | None = None) -> np.ndarray:
    """Unit-sphere curvature on the first ``dims`` axes of R^n (all by default)."""
    dims = n if dims is None else dims
    e = np.zeros((n, n))
    e[:dims, :dims] = np.eye(dims)
    return np.einsum("ik,jl->ijkl", e, e) - np.einsum("il,jk->ijkl", e, e)


def cp2() -> np.ndarray:
    """Fubini-Study CP^2 with holomorphic curvature 4, J e1 = e2, J e3 = e4.

    R(X,Y,Z,W) = <X,Z><Y,W> - <X,W><Y,Z> + <JX,Z><JY,W> - <JX,W><JY,Z>
                 + 2 <JX,Y><JZ,W>.
    """
    j = np.zeros((4, 4))
    j[0, 1] = j[2, 3] = 1.0  # j[i, k] = <J e_i, e_k>
    j[1, 0] = j[3, 2] = -1.0
    return sphere(4) + (np.einsum("ik,jl->ijkl", j, j) - np.einsum("il,jk->ijkl", j, j)
                        + 2.0 * np.einsum("ij,kl->ijkl", j, j))


def check_spectrum(r: np.ndarray, program_eigenvalues, k: int, alpha: float) -> list[str]:
    """The program's CO2 spectrum matches eigvalsh and is (k + alpha)-positive."""
    ev = co2_eigenvalues(r)
    got = np.asarray(program_eigenvalues, dtype=float)
    problems = []
    if got.shape != ev.shape:
        return [f"spectrum has {got.shape[0]} eigenvalues, expected {ev.shape[0]}"]
    dev = float(np.abs(got - ev).max())
    if dev > ROUNDING * _scale(r):
        problems.append(f"spectrum differs from eigvalsh by {dev:.3e}")
    if not k_alpha(ev, k, alpha) > 0.0:
        problems.append(f"sample is not ({k}+{alpha:g})-positive: {k_alpha(ev, k, alpha):.6g}")
    return problems


def check_pic_sample(r: np.ndarray, best_value: float, best_frame) -> list[str]:
    """A searched isotropic minimum: frame, value, Ky Fan bound and positivity."""
    frame = np.asarray(best_frame, dtype=float)
    scale = _scale(r)
    problems = []
    gram_dev = float(np.abs(frame.T @ frame - np.eye(4)).max())
    if frame.shape != (r.shape[0], 4) or gram_dev > 1e-12:
        problems.append(f"best frame is not orthonormal (Gram deviation {gram_dev:.3e})")
    own = isotropic(r, frame)
    if not _close(best_value, own, scale):
        problems.append(f"best value {best_value!r} differs from components {own!r}")
    bound = kyfan_iso_bound(co2_eigenvalues(r))
    if best_value < bound - ROUNDING * scale:
        problems.append(f"best value {best_value!r} is below the Ky Fan bound {bound!r}")
    if not best_value > 0.0:
        problems.append(f"best value {best_value!r} is not positive")
    return problems


def check_ricci(r: np.ndarray, ricci_min: float) -> list[str]:
    """The program's smallest Ricci eigenvalue matches eigvalsh and is positive."""
    own = float(np.linalg.eigvalsh(ricci_matrix(r))[0])
    problems = []
    if not _close(ricci_min, own, _scale(r)):
        problems.append(f"ricci_min {ricci_min!r} differs from eigvalsh {own!r}")
    if not own > 0.0:
        problems.append(f"smallest Ricci eigenvalue {own!r} is not positive")
    return problems


def check_probe_rows(base: np.ndarray, k: int, iso_base: float, ricci_base: float, rows) -> list[str]:
    """Every row of a probe from ``base`` toward the unit sphere of its dimension.

    ``rows`` holds (t, alpha_star, iso_min, ricci_min). The unit sphere's
    CO2 matrix is the identity and its isotropic value is 4 on every frame,
    so at step t the CO2 eigenvalues are (1-t) lambda_base + t, the true
    isotropic minimum is (1-t) iso_base + 4t, and the smallest Ricci
    eigenvalue is (1-t) ricci_base + (n-1) t.
    """
    n = base.shape[0]
    ev_base = co2_eigenvalues(base)
    scale = _scale(base)
    problems = []
    for t, star, iso_min, ricci_min in rows:
        where = f"t={t:g}"
        expected = alpha_star((1.0 - t) * ev_base + t, k)
        if isinstance(expected, str) or isinstance(star, str):
            if star != expected:
                problems.append(f"{where}: alphaStar {star!r}, expected {expected!r}")
        elif abs(star - expected) > ROUNDING:
            problems.append(f"{where}: alphaStar {star!r}, expected {expected!r}")
        iso_true = (1.0 - t) * iso_base + 4.0 * t
        if iso_min is None or not iso_true - ROUNDING * scale <= iso_min <= iso_true + ISO_SLACK:
            problems.append(f"{where}: isoMin {iso_min!r} outside [{iso_true!r}, +{ISO_SLACK:g}]")
        ric_true = (1.0 - t) * ricci_base + (n - 1) * t
        if not _close(ricci_min, ric_true, scale):
            problems.append(f"{where}: ricciMin {ricci_min!r}, expected {ric_true!r}")
    return problems


def check_residuals(pic_residual: float, ric_residual: float) -> list[str]:
    """Both identity suites hold to RESIDUAL_MAX."""
    return [f"{name} max residual {residual!r} exceeds {RESIDUAL_MAX:g}"
            for name, residual in (("pic", pic_residual), ("ric", ric_residual))
            if not residual <= RESIDUAL_MAX]


def check_identities(r: np.ndarray, frame4, pic: tuple, ric: tuple) -> list[str]:
    """Identity-suite outputs: residuals, the isotropic value and the scalar.

    ``pic`` and ``ric`` are (max_residual, value) pairs: the isotropic value
    of ``frame4`` and the scalar curvature.
    """
    scale = _scale(r)
    problems = check_residuals(pic[0], ric[0])
    own_iso = isotropic(r, np.asarray(frame4, dtype=float))
    if not _close(pic[1], own_iso, scale):
        problems.append(f"isotropic value {pic[1]!r} differs from components {own_iso!r}")
    own_scalar = scalar(r)
    if not _close(ric[1], own_scalar, scale):
        problems.append(f"scalar {ric[1]!r} differs from components {own_scalar!r}")
    return problems
