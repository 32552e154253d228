"""Frame-based curvature conditions: isotropic curvature and identity checks.

The isotropic curvature of an orthonormal 4-frame (e1, e2, e3, e4) is

    K13 + K14 + K23 + K24 - 2 R(e1, e2, e3, e4),

where Kab = R(ea, eb, ea, eb). Positivity of this quantity over all
orthonormal 4-frames is decided here by sampled minimization: evaluation
at every coordinate 4-subset (all pair splits, both cross-term signs,
which covers all 4! * 2^4 signed permutations of a subset) plus projected
gradient descent on the Stiefel manifold from random starts.

The module also carries two families of traceless symmetric 2-tensors
attached to a frame, together with residual checks of the exact algebraic
identities relating the second-kind bilinear form on those families to
frame components of the tensor. The identities are what connects graded
eigenvalue positivity to the isotropic and Ricci conditions, so their
residuals back the Monte Carlo harness with hard evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import (
    DimensionTooSmall,
    FrameNotOrthonormal,
    ParameterOutOfRange,
)
from .secondkind import eigen_sym, second_kind_matrix, s20_basis
from .tensor import CurvatureTensor, ricci

FRAME_TOL = 1e-12


def sym_outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetrized outer product u (.) v = u v^T + v u^T."""
    return np.outer(u, v) + np.outer(v, u)


def check_frame(frame, width: int | None = None, dim: int | None = None) -> np.ndarray:
    """Validate an (n, k) column frame and return it as a float array.

    The Gram matrix F^T F must match the identity to ``FRAME_TOL`` in the
    max norm, else FrameNotOrthonormal.
    """
    f = np.asarray(frame, dtype=float)
    if f.ndim != 2:
        raise FrameNotOrthonormal(f"frame must be a 2-d column block, got shape {f.shape}")
    n, k = f.shape
    if width is not None and k != width:
        raise FrameNotOrthonormal(f"expected {width} frame vectors, got {k}")
    if dim is not None and n != dim:
        raise FrameNotOrthonormal(f"frame lives in dimension {n}, tensor in {dim}")
    gram = f.T @ f
    dev = float(np.abs(gram - np.eye(k)).max())
    if dev > FRAME_TOL:
        raise FrameNotOrthonormal(f"Gram deviation {dev:.3e} exceeds {FRAME_TOL:.1e}")
    return f


def random_frame(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthonormal (n, k) frame via QR of a Gaussian block."""
    x = rng.standard_normal((n, k))
    q, r = np.linalg.qr(x)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def pullback(array: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Components of a curvature array in the columns of ``frame``."""
    out = np.tensordot(array, frame, axes=([3], [0]))  # i j k d
    out = np.tensordot(out, frame, axes=([2], [0]))  # i j d c
    out = np.tensordot(out, frame, axes=([1], [0]))  # i d c b
    out = np.tensordot(out, frame, axes=([0], [0]))  # d c b a
    return np.ascontiguousarray(out.transpose(3, 2, 1, 0))


def isotropic_value(t: CurvatureTensor, frame) -> float:
    """Isotropic curvature of one orthonormal 4-frame."""
    if t.dim < 4:
        raise DimensionTooSmall(f"isotropic curvature needs dimension >= 4, got {t.dim}")
    f = check_frame(frame, width=4, dim=t.dim)
    r4 = pullback(t.array, f)
    return float(
        r4[0, 2, 0, 2] + r4[0, 3, 0, 3] + r4[1, 2, 1, 2] + r4[1, 3, 1, 3] - 2.0 * r4[0, 1, 2, 3]
    )


# Frame pairs (a, c) whose blocks vec(e_a e_c^T) enter the isotropic value
# and its gradient: the four sectional pairs, then the two cross-term pairs.
_PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1))


def _iso_value_grad(rmats: np.ndarray, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic values and Euclidean gradients for a stack of frames.

    ``frames`` has shape (..., n, 4) and ``rmats`` holds the (n^2, n^2)
    matrix view of each frame's tensor, broadcastable against the leading
    dimensions; returns values (...) and gradients (..., n, 4). Row p of
    y = x @ R is the 2-form R(., ., e_a, e_c) of pair p, so one product
    feeds the value and, through the antisymmetry of the 2-forms, the
    gradient. Every product is a stacked ``matmul`` of one fixed shape
    per frame, so a frame's numbers do not depend on how many other
    frames share the call.
    """
    n = frames.shape[-2]
    lead = frames.shape[:-2]
    a = np.swapaxes(frames[..., [p[0] for p in _PAIRS]], -1, -2)  # (..., 6, n)
    c = np.swapaxes(frames[..., [p[1] for p in _PAIRS]], -1, -2)
    x = (a[..., :, None] * c[..., None, :]).reshape(*lead, 6, n * n)
    y = np.matmul(x, rmats)
    dots = (x[..., :4, :] * y[..., :4, :]).sum(axis=-1)
    cross = (x[..., 5, :] * y[..., 4, :]).sum(axis=-1)
    values = dots[..., 0] + dots[..., 1] + dots[..., 2] + dots[..., 3] - 2.0 * cross
    # w[..., p, :, j] = R(., e_j, e_a, e_c), and R(e_j, ., e_a, e_c) = -w[..., p, :, j]
    w = np.matmul(y.reshape(*lead, 6, n, n), frames[..., None, :, :])
    w02, w03, w12, w13, w23, w01 = (w[..., p, :, :] for p in range(6))
    grads = 2.0 * np.stack([
        w02[..., 2] + w03[..., 3] - w23[..., 1],
        w12[..., 2] + w13[..., 3] + w23[..., 0],
        -w02[..., 0] - w12[..., 1] - w01[..., 3],
        -w03[..., 0] - w13[..., 1] + w01[..., 2],
    ], axis=-1)
    return values, grads


def _iso_values_batch(array: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Isotropic values of one tensor on an (m, n, 4) stack of frames."""
    n = array.shape[0]
    return _iso_value_grad(array.reshape(n * n, n * n), frames)[0]


def _coordinate_seed_frames(n: int) -> np.ndarray:
    """Representative coordinate 4-frames covering all signed permutations.

    For each 4-subset of axes the isotropic value depends only on the
    pair split (three choices) and the sign of the cross term (both signs
    occur among signed permutations), so six orderings per subset attain
    every value the full 4! * 2^4 family can produce.
    """
    eye = np.eye(n)
    frames = []
    for a, b, c, d in combinations(range(n), 4):
        for cols in (
            (a, b, c, d),
            (a, b, d, c),
            (a, c, b, d),
            (a, c, d, b),
            (a, d, b, c),
            (a, d, c, b),
        ):
            frames.append(eye[:, cols])
    return np.array(frames)


def _retract(f: np.ndarray) -> np.ndarray:
    """QR retraction with positive-diagonal sign fix; accepts (n, 4) or a stack."""
    q, r = np.linalg.qr(f)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs = np.where(signs == 0, 1.0, signs)
    return q * signs[..., None, :]


def _descend_batch(rmats: np.ndarray, frames: np.ndarray, noise: np.ndarray,
                   max_iter: int = 500, min_step: float = 1e-10):
    """Projected gradient descent on the Stiefel manifold, one frame per row.

    Frame i of the (m, n, 4) stack descends on the tensor with matrix view
    ``rmats[i]`` (shape (m, n^2, n^2)) and accepts a step only if it
    improves the value by more than ``noise[i]``, which keeps the search
    from drifting below a zero minimum. Each iteration projects the
    Euclidean gradient to the tangent space and tries the frame's current
    step and three halvings, retracted by QR. Among the candidates that
    beat ``noise`` it keeps the one of lowest value (ties go to the larger
    step), not the largest step: near a Morse-Bott minimum the largest
    step overshoots to the mirror point, still a decrease, and the frame
    bounces there for hundreds of iterations while a smaller candidate
    lands on the minimum. After a success the kept step doubles, capped
    at 1.
    A frame is done when its tangent vanishes or its step underflows
    ``min_step``. Frames evolve independently, so a frame's result does
    not depend on the rest of the batch.

    Returns (frames, values, iterations, converged) per frame, with
    converged False exactly when the frame hit the iteration cap.
    """
    m = frames.shape[0]
    f = frames.copy()
    value, grad = _iso_value_grad(rmats, f)
    step = np.ones(m)
    iterations = np.full(m, max_iter)
    active = np.arange(m)
    halvings = 0.5 ** np.arange(4)
    for iteration in range(max_iter):
        if active.size == 0:
            break
        fa, ga = f[active], grad[active]
        sym = np.matmul(np.swapaxes(fa, -1, -2), ga)
        tangent = ga - np.matmul(fa, (sym + np.swapaxes(sym, -1, -2)) / 2.0)
        moving = np.abs(tangent).max(axis=(1, 2)) != 0.0
        iterations[active[~moving]] = iteration
        active, fa, tangent = active[moving], fa[moving], tangent[moving]
        # Each pass tries four halvings of every searching frame's step;
        # candidates below min_step are evaluated but never accepted.
        searching = np.flatnonzero(step[active] >= min_step)
        accepted = np.zeros(active.size, dtype=bool)
        while searching.size:
            idx = active[searching]
            steps = step[idx][:, None] * halvings
            cands = _retract(fa[searching, None] - steps[:, :, None, None] * tangent[searching, None])
            vals, grads = _iso_value_grad(rmats[idx, None], cands)
            ok = (vals < (value[idx] - noise[idx])[:, None]) & (steps >= min_step)
            hit = ok.any(axis=1)
            rows, best = np.flatnonzero(hit), np.where(ok, vals, np.inf).argmin(axis=1)[hit]
            won = idx[hit]
            f[won], value[won], grad[won] = cands[rows, best], vals[rows, best], grads[rows, best]
            step[won] = np.minimum(steps[rows, best] * 2.0, 1.0)
            accepted[searching[hit]] = True
            missed = idx[~hit]
            step[missed] *= 0.5 ** (steps[~hit] >= min_step).sum(axis=1)
            searching = searching[~hit][step[missed] >= min_step]
        iterations[active[~accepted]] = iteration + 1
        active = active[accepted]
    converged = np.ones(m, dtype=bool)
    converged[active] = False
    return f, value, iterations, converged


@dataclass(frozen=True, eq=False)
class FrameSearchResult:
    """Outcome of a sampled isotropic-curvature minimization.

    ``best_value`` equals the isotropic value of ``best_frame`` (an (n,4)
    orthonormal block); ``samples_used`` counts frames evaluated as seeds
    (random starts plus coordinate representatives), ``refinement_steps``
    the total descent iterations, and ``converged`` whether every descent
    terminated by step underflow rather than the iteration cap. The value
    is a sampled minimum: an upper bound for the true one.
    """

    best_value: float
    best_frame: np.ndarray = field(repr=False)
    samples_used: int
    refinement_steps: int
    converged: bool

    def to_dict(self) -> dict:
        return {
            "bestValue": self.best_value,
            "bestFrame": [[float(x) for x in row] for row in self.best_frame],
            "samplesUsed": self.samples_used,
            "refinementSteps": self.refinement_steps,
            "converged": self.converged,
        }


def min_isotropic(t: CurvatureTensor, trials: int, seed=0) -> FrameSearchResult:
    """Sampled minimum of isotropic curvature over orthonormal 4-frames.

    Evaluates the coordinate seed frames, then runs ``trials`` gradient
    descents from random orthonormal starts (one child RNG per trial, so
    enlarging ``trials`` only appends candidates and the best value is
    nonincreasing in ``trials`` for a fixed seed).
    """
    return min_isotropic_batch([t], trials, [seed])[0]


# Frames per descent batch: bounds the working set (each frame carries a
# copy of its tensor's matrix view) without changing any result.
_DESCENT_CHUNK = 512


def min_isotropic_batch(tensors, trials: int, seeds) -> list[FrameSearchResult]:
    """``min_isotropic`` for several tensors of one dimension at once.

    Result i equals ``min_isotropic(tensors[i], trials, seed=seeds[i])``
    bit for bit: the starts of all tensors descend together in fixed-size
    batches, and a frame's descent does not depend on its batch.
    """
    tensors, seeds = list(tensors), list(seeds)
    if len(seeds) != len(tensors):
        raise ParameterOutOfRange(f"{len(tensors)} tensors but {len(seeds)} seeds")
    if tensors and tensors[0].dim < 4:
        raise DimensionTooSmall(f"isotropic curvature needs dimension >= 4, got {tensors[0].dim}")
    if any(t.dim != tensors[0].dim for t in tensors):
        raise ParameterOutOfRange("all tensors of a batch must share one dimension")
    if trials < 1:
        raise ParameterOutOfRange(f"trials must be >= 1, got {trials}")
    if not tensors:
        return []
    n = tensors[0].dim

    materials = [s if isinstance(s, (tuple, list)) else (s,) for s in seeds]
    starts = np.array([
        random_frame(n, 4, np.random.default_rng((*material, trial)))
        for material in materials
        for trial in range(trials)
    ])
    owner = np.repeat(np.arange(len(tensors)), trials)
    rmats = np.stack([t.array.reshape(n * n, n * n) for t in tensors])
    noise = np.array([1e-12 * max(1.0, t.max_abs()) for t in tensors])
    frames = np.empty_like(starts)
    values = np.empty(starts.shape[0])
    iterations = np.empty(starts.shape[0], dtype=int)
    converged = np.empty(starts.shape[0], dtype=bool)
    for lo in range(0, starts.shape[0], _DESCENT_CHUNK):
        rows = slice(lo, lo + _DESCENT_CHUNK)
        frames[rows], values[rows], iterations[rows], converged[rows] = _descend_batch(
            rmats[owner[rows]], starts[rows], noise[owner[rows]]
        )

    coordinate = _coordinate_seed_frames(n)
    results = []
    for i, t in enumerate(tensors):
        seed_values = _iso_values_batch(t.array, coordinate)
        best = int(np.argmin(seed_values))
        best_value, best_frame = float(seed_values[best]), coordinate[best]
        rows = slice(i * trials, (i + 1) * trials)
        best = int(np.argmin(values[rows]))
        if values[rows][best] < best_value:
            best_frame = frames[rows][best]
        results.append(FrameSearchResult(
            best_value=isotropic_value(t, best_frame),
            best_frame=best_frame,
            samples_used=trials + coordinate.shape[0],
            refinement_steps=int(iterations[rows].sum()),
            converged=bool(converged[rows].all()),
        ))
    return results


def ricci_min(t: CurvatureTensor) -> float:
    """Smallest eigenvalue of the Ricci contraction, via ``eigen_sym``."""
    return float(eigen_sym(ricci(t), vectors=False).eigenvalues[0])


def phi_family(frame) -> np.ndarray:
    """Nine traceless symmetric 2-tensors attached to an orthonormal 4-frame.

    With (.) the symmetrized outer product and (e1..e4) the frame columns:

        phi1 = (e1(.)e1 + e2(.)e2 - e3(.)e3 - e4(.)e4)/2
        phi2 = (e1(.)e1 - e2(.)e2 + e3(.)e3 - e4(.)e4)/2
        phi3 = (e1(.)e1 - e2(.)e2 - e3(.)e3 + e4(.)e4)/2
        phi4 = e1(.)e4 + e2(.)e3        phi5 = e1(.)e4 - e2(.)e3
        phi6 = e1(.)e3 + e2(.)e4        phi7 = e1(.)e3 - e2(.)e4
        phi8 = e1(.)e2 + e3(.)e4        phi9 = e1(.)e2 - e3(.)e4

    Each has squared norm 4 and the family is orthogonal. Returned as a
    (9, n, n) stack in the order above.
    """
    f = check_frame(frame, width=4)
    e1, e2, e3, e4 = f[:, 0], f[:, 1], f[:, 2], f[:, 3]
    d1, d2, d3, d4 = (sym_outer(e, e) for e in (e1, e2, e3, e4))
    return np.array([
        (d1 + d2 - d3 - d4) / 2.0,
        (d1 - d2 + d3 - d4) / 2.0,
        (d1 - d2 - d3 + d4) / 2.0,
        sym_outer(e1, e4) + sym_outer(e2, e3),
        sym_outer(e1, e4) - sym_outer(e2, e3),
        sym_outer(e1, e3) + sym_outer(e2, e4),
        sym_outer(e1, e3) - sym_outer(e2, e4),
        sym_outer(e1, e2) + sym_outer(e3, e4),
        sym_outer(e1, e2) - sym_outer(e3, e4),
    ])


def quadratic_form(t: CurvatureTensor, phi: np.ndarray) -> float:
    """The second-kind bilinear form evaluated on one symmetric tensor."""
    return float(np.einsum("iklj,ij,kl->", t.array, phi, phi))


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """Residuals of one family of frame identities.

    ``residuals`` maps identity names to relative residuals, where
    relative means |lhs - rhs| divided by max(1, |lhs|, |rhs|, component
    scale); ``values`` records the quantities entering the identities.
    """

    kind: str
    dim: int
    max_residual: float
    residuals: dict[str, float]
    values: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "maxResidual": self.max_residual,
            "residuals": dict(self.residuals),
            "values": dict(self.values),
        }


def _relative(lhs: float, rhs: float, scale: float) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs), scale)


def verify_pic_identities(t: CurvatureTensor, frame) -> IdentityReport:
    """Check the nine diagonal identities of ``phi_family`` plus the master sum.

    Each R(phi_a, phi_a) is compared against its closed form in frame
    components; the grouped combinations and the master identity

        6 (q1 + q5 + q6) + (3/2)(q2+q3+q4+q7+q8+q9)
            = 27 (K13+K14+K23+K24) - 54 R(e1,e2,e3,e4)

    tie the family to the isotropic curvature. Residuals are relative to
    the frame-component scale (see IdentityReport).
    """
    if t.dim < 4:
        raise DimensionTooSmall(f"need dimension >= 4, got {t.dim}")
    f = check_frame(frame, width=4, dim=t.dim)
    phis = phi_family(f)
    q = np.einsum("iklj,aij,akl->a", t.array, phis, phis, optimize=True)

    r4 = pullback(t.array, f)
    k12, k34 = r4[0, 1, 0, 1], r4[2, 3, 2, 3]
    k13, k24 = r4[0, 2, 0, 2], r4[1, 3, 1, 3]
    k14, k23 = r4[0, 3, 0, 3], r4[1, 2, 1, 2]
    r1234, r1342, r1423 = r4[0, 1, 2, 3], r4[0, 2, 3, 1], r4[0, 3, 1, 2]
    iso = k13 + k14 + k23 + k24 - 2.0 * r1234
    scale = max(float(np.abs(r4).max()), float(np.abs(q).max()))

    closed = {
        "phi1": 2.0 * (-k12 - k34 + k13 + k24 + k14 + k23),
        "phi2": 2.0 * (-k13 - k24 + k12 + k34 + k14 + k23),
        "phi3": 2.0 * (-k14 - k23 + k12 + k34 + k13 + k24),
        "phi4": 2.0 * (k14 + k23 + 2.0 * r1234 - 2.0 * r1342),
        "phi5": 2.0 * (k14 + k23 - 2.0 * r1234 + 2.0 * r1342),
        "phi6": 2.0 * (k13 + k24 - 2.0 * r1234 + 2.0 * r1423),
        "phi7": 2.0 * (k13 + k24 + 2.0 * r1234 - 2.0 * r1423),
        "phi8": 2.0 * (k12 + k34 + 2.0 * r1342 - 2.0 * r1423),
        "phi9": 2.0 * (k12 + k34 - 2.0 * r1342 + 2.0 * r1423),
    }
    residuals = {
        name: _relative(float(q[a]), closed[name], scale)
        for a, name in enumerate(closed)
    }
    s4 = k13 + k14 + k23 + k24
    pair_sum = k12 + k34
    grouped = {
        "phi1+phi5+phi6": (float(q[0] + q[4] + q[5]), 4.0 * s4 - 2.0 * pair_sum - 12.0 * r1234),
        "phi2+phi3": (float(q[1] + q[2]), 4.0 * pair_sum),
        "phi8+phi9": (float(q[7] + q[8]), 4.0 * pair_sum),
        "phi4+phi7": (float(q[3] + q[6]), 2.0 * s4 + 12.0 * r1234),
        "master": (
            float(6.0 * (q[0] + q[4] + q[5]) + 1.5 * (q[1] + q[2] + q[3] + q[6] + q[7] + q[8])),
            27.0 * s4 - 54.0 * r1234,
        ),
    }
    for name, (lhs, rhs) in grouped.items():
        residuals[name] = _relative(lhs, rhs, scale)

    values = {f"q_{name}": float(q[a]) for a, name in enumerate(closed)}
    values.update({"isotropic": float(iso), "R1234": float(r1234),
                   "R1342": float(r1342), "R1423": float(r1423)})
    return IdentityReport(
        kind="pic",
        dim=t.dim,
        max_residual=max(residuals.values()),
        residuals=residuals,
        values=values,
    )


def ric_family(frame) -> dict[str, np.ndarray]:
    """Traceless symmetric basis adapted to a distinguished first vector.

    For an orthonormal n-frame with columns (e1, ..., en):

        phi1  = ((n-1) e1(.)e1 - sum_{p>=2} e_p(.)e_p) / (2 sqrt(n(n-1)))
        phi_i = e1(.)e_i / sqrt(2)                    for i = 2..n
        psi_kl = e_k(.)e_l / sqrt(2)                  for 2 <= k < l <= n
        xi_j  = (sum_{p=2}^{j} e_p(.)e_p - (j-1) e_{j+1}(.)e_{j+1})
                 / (2 sqrt(j(j-1)))                   for j = 2..n-1

    Together these are orthonormal and span the traceless symmetric
    2-tensors of the span. Returned as a dict of stacks keyed by
    "phi1", "phi", "psi", "xi".
    """
    f = check_frame(frame)
    n = f.shape[1]
    if n < 3:
        raise DimensionTooSmall(f"the adapted family needs an n-frame with n >= 3, got {n}")
    cols = [f[:, i] for i in range(n)]
    diags = [sym_outer(c, c) for c in cols]
    phi1 = ((n - 1) * diags[0] - sum(diags[1:])) / (2.0 * np.sqrt(n * (n - 1)))
    phi = np.array([sym_outer(cols[0], cols[i]) / np.sqrt(2.0) for i in range(1, n)])
    psi = np.array([
        sym_outer(cols[k], cols[l]) / np.sqrt(2.0)
        for k in range(1, n)
        for l in range(k + 1, n)
    ])
    xi = np.array([
        (sum(diags[1:j]) - (j - 1) * diags[j]) / (2.0 * np.sqrt(j * (j - 1)))
        for j in range(2, n)
    ])
    return {"phi1": phi1, "phi": phi, "psi": psi, "xi": xi}


def verify_ric_identities(t: CurvatureTensor, frame) -> IdentityReport:
    """Check the four contraction identities of ``ric_family``.

    With R11 = Ric(e1, e1) and S the scalar curvature:

        (1) R(phi1, phi1)            = 2 R11/(n-1) - S/(n(n-1))
        (2) sum_i R(phi_i, phi_i)    = R11
        (3) sum_kl R(psi_kl, psi_kl) = S/2 - R11
        (4) sum_j R(xi_j, xi_j)      = (S - 2 R11)/(n - 1)

    and the positive combination

        (n-2)(n+1)/2 * [(1)+(2)] + (n-2)/n * [(3)+(4)]
            = (n-2)(n+1)(n+2)/(2n) * R11,

    which is what turns graded positivity into a Ricci bound. Residuals
    are relative (see IdentityReport).
    """
    n = t.dim
    if n < 3:
        raise DimensionTooSmall(f"need dimension >= 3, got {n}")
    f = check_frame(frame, width=n, dim=n)
    fam = ric_family(f)
    ric_mat = ricci(t)
    r11 = float(f[:, 0] @ ric_mat @ f[:, 0])
    s = float(np.trace(ric_mat))
    scale = max(abs(r11), abs(s), t.max_abs())

    q_phi1 = quadratic_form(t, fam["phi1"])
    q_phi = float(np.einsum("iklj,aij,akl->", t.array, fam["phi"], fam["phi"], optimize=True))
    q_psi = float(np.einsum("iklj,aij,akl->", t.array, fam["psi"], fam["psi"], optimize=True))
    q_xi = float(np.einsum("iklj,aij,akl->", t.array, fam["xi"], fam["xi"], optimize=True))

    eq1_rhs = 2.0 * r11 / (n - 1) - s / (n * (n - 1))
    eq2_rhs = r11
    eq3_rhs = s / 2.0 - r11
    eq4_rhs = (s - 2.0 * r11) / (n - 1)
    comb_lhs = (n - 2) * (n + 1) / 2.0 * (q_phi1 + q_phi) + (n - 2) / n * (q_psi + q_xi)
    comb_rhs = (n - 2) * (n + 1) * (n + 2) / (2.0 * n) * r11

    residuals = {
        "eq1": _relative(q_phi1, eq1_rhs, scale),
        "eq2": _relative(q_phi, eq2_rhs, scale),
        "eq3": _relative(q_psi, eq3_rhs, scale),
        "eq4": _relative(q_xi, eq4_rhs, scale),
        "combination": _relative(comb_lhs, comb_rhs, scale),
    }
    values = {
        "eq1": q_phi1, "eq2": q_phi, "eq3": q_psi, "eq4": q_xi,
        "R11": r11, "scalar": s,
    }
    return IdentityReport(
        kind="ric",
        dim=n,
        max_residual=max(residuals.values()),
        residuals=residuals,
        values=values,
    )


def second_kind_spectrum(t: CurvatureTensor):
    """Convenience: assemble the second-kind matrix and diagonalize it."""
    return eigen_sym(second_kind_matrix(t, s20_basis(t.dim)))
