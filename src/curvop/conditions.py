"""Frame-based curvature conditions: isotropic curvature and identity checks.

The isotropic curvature of an orthonormal 4-frame (e1, e2, e3, e4) is

    K13 + K14 + K23 + K24 - 2 R(e1, e2, e3, e4),

where Kab = R(ea, eb, ea, eb). Positivity of this quantity over all
orthonormal 4-frames is decided here by sampled minimization: evaluation
at every coordinate 4-subset (all pair splits, both cross-term signs,
which covers all 4! * 2^4 signed permutations of a subset) plus a descent
on the Stiefel manifold from random starts retracted as one stack,
projected gradient steps for a warm-up and Polak-Ribiere+ conjugate
gradient after it; a tensor with max|R| < 1 is searched at an exact
power-of-two scale. One batched kernel, ``_iso_values`` (with
``_iso_grads`` for the gradient of a kept frame), evaluates every
isotropic value: single frames, the descent and the reported minimum;
the coordinate seeds read their five components directly, in the
kernel's order, and equal its values bit for bit.
``pullback`` stays apart from it, as the independent reference of the
identity checks.

The module also carries two families of traceless symmetric 2-tensors
attached to a frame, together with residual checks of the exact algebraic
identities relating the second-kind bilinear form on those families to
frame components of the tensor. Each family is a constant stack C of
coordinate matrices carried to the frame F as F C F^T, and each suite
reads its quadratic forms off the diagonal of ``second_kind_matrix`` on
its family, while the closed forms they are checked against come from
``pullback`` and ``ricci``. The identities are what connects graded
eigenvalue positivity to the isotropic and Ricci conditions, so their
residuals back the Monte Carlo harness with hard evidence.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import (
    DimensionTooSmall,
    FrameNotOrthonormal,
    ParameterOutOfRange,
)
from .secondkind import (
    eigen_sym,
    lambda2_basis,
    lambda2_dim,
    s20_basis,
    second_kind_matrix,
)
from .tensor import CurvatureTensor, _check_seed, ricci

FRAME_TOL = 1e-12


def check_frame(frame, width: int | None = None, dim: int | None = None) -> np.ndarray:
    """Validate an (n, k) column frame and return it as a float array.

    The Gram matrix F^T F must match the identity to ``FRAME_TOL`` in the
    max norm, else FrameNotOrthonormal; so must a frame with a nan or
    infinite entry.
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
    if not dev <= FRAME_TOL:  # a non-finite frame gives a nan deviation
        raise FrameNotOrthonormal(f"Gram deviation {dev:.3e} exceeds {FRAME_TOL:.1e}")
    return f


def _retract(f: np.ndarray) -> np.ndarray:
    """QR retraction with positive-diagonal sign fix; accepts (n, k) or a stack."""
    q, r = np.linalg.qr(f)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs = np.where(signs == 0, 1.0, signs)
    return q * signs[..., None, :]


def random_frame(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthonormal (n, k) frame: the retraction of a Gaussian block."""
    return _retract(rng.standard_normal((n, k)))


def pullback(array: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Components of a curvature array in the columns of ``frame``."""
    out = np.tensordot(array, frame, axes=([3], [0]))  # i j k d
    out = np.tensordot(out, frame, axes=([2], [0]))  # i j d c
    out = np.tensordot(out, frame, axes=([1], [0]))  # i d c b
    out = np.tensordot(out, frame, axes=([0], [0]))  # d c b a
    return np.ascontiguousarray(out.transpose(3, 2, 1, 0))


# Frame pairs (a, c) whose blocks vec(e_a e_c^T) enter the isotropic value
# and its gradient: the four sectional pairs, then the two cross-term pairs.
_PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1))


def _iso_values(rmats: np.ndarray, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic values of a stack of frames, and the products behind them.

    ``frames`` has shape (..., n, 4) and ``rmats`` holds the (n^2, n^2)
    matrix view of each frame's tensor, broadcastable against the leading
    dimensions; returns values (...) and y (..., 6, n^2). Row p of
    y = x @ R is the 2-form R(., ., e_a, e_c) of pair p, which feeds the
    value here and the gradient in ``_iso_grads``. Every product is a
    stacked ``matmul`` of one fixed shape per frame, so a frame's numbers
    do not depend on how many other frames share the call.
    """
    n = frames.shape[-2]
    lead = frames.shape[:-2]
    a = np.swapaxes(frames[..., [p[0] for p in _PAIRS]], -1, -2)  # (..., 6, n)
    c = np.swapaxes(frames[..., [p[1] for p in _PAIRS]], -1, -2)
    x = (a[..., :, None] * c[..., None, :]).reshape(*lead, 6, n * n)
    y = np.matmul(x, rmats)
    dots = (x[..., :4, :] * y[..., :4, :]).sum(axis=-1)
    cross = (x[..., 5, :] * y[..., 4, :]).sum(axis=-1)
    return dots[..., 0] + dots[..., 1] + dots[..., 2] + dots[..., 3] - 2.0 * cross, y


def _iso_grads(y: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Euclidean gradients (..., n, 4) of the isotropic value at ``frames``,
    from the products y that ``_iso_values`` returned for the same frames;
    the antisymmetry of the 2-forms turns y into the gradient."""
    n = frames.shape[-2]
    # w[..., p, :, j] = R(., e_j, e_a, e_c), and R(e_j, ., e_a, e_c) = -w[..., p, :, j]
    w = np.matmul(y.reshape(*y.shape[:-2], 6, n, n), frames[..., None, :, :])
    w02, w03, w12, w13, w23, w01 = (w[..., p, :, :] for p in range(6))
    return 2.0 * np.stack([
        w02[..., 2] + w03[..., 3] - w23[..., 1],
        w12[..., 2] + w13[..., 3] + w23[..., 0],
        -w02[..., 0] - w12[..., 1] - w01[..., 3],
        -w03[..., 0] - w13[..., 1] + w01[..., 2],
    ], axis=-1)


def isotropic_value(t: CurvatureTensor, frame) -> float:
    """Isotropic curvature of one orthonormal 4-frame.

    Evaluated by the same kernel as the search, so it reproduces a
    ``FrameSearchResult.best_value`` from its ``best_frame`` bit for bit.
    """
    if t.dim < 4:
        raise DimensionTooSmall(f"isotropic curvature needs dimension >= 4, got {t.dim}")
    f = check_frame(frame, width=4, dim=t.dim)
    return float(_iso_values(t.array.reshape(t.dim ** 2, t.dim ** 2), f)[0])


# The six orderings of a 4-subset (a, b, c, d) that seed the search.
_SEED_ORDERINGS = np.array([
    [0, 1, 2, 3], [0, 1, 3, 2], [0, 2, 1, 3], [0, 2, 3, 1], [0, 3, 1, 2], [0, 3, 2, 1],
])


@functools.lru_cache(maxsize=None)
def _coordinate_seed_frames(n: int) -> np.ndarray:
    """Representative coordinate 4-frames covering all signed permutations.

    For each 4-subset of axes the isotropic value depends only on the
    pair split (three choices) and the sign of the cross term (both signs
    occur among signed permutations), so six orderings per subset attain
    every value the full 4! * 2^4 family can produce. Returned as an
    (m, n, 4) stack, subsets in lexicographic order; built once per n and
    read-only.
    """
    cols = np.array(list(combinations(range(n), 4)))[:, _SEED_ORDERINGS].reshape(-1, 4)
    frames = np.zeros((cols.shape[0], n, 4))
    frames[np.arange(cols.shape[0])[:, None], cols, np.arange(4)] = 1.0
    frames.setflags(write=False)
    return frames


@functools.lru_cache(maxsize=None)
def _seed_components(n: int) -> np.ndarray:
    """Flat indices into an (n, n, n, n) array of the five components that
    each coordinate seed's value reads: R_acac, R_adad, R_bcbc, R_bdbd and
    R_cdab (the cross term as the kernel reads it), shape (m, 5). Frame
    columns (e_a, e_b, e_c, e_d) are the coordinate axes a, b, c, d."""
    a, b, c, d = _coordinate_seed_frames(n).argmax(axis=1).T
    idx = np.ravel_multi_index(
        ([a, a, b, b, c], [c, d, c, d, d], [a, a, b, b, a], [c, d, c, d, b]), (n,) * 4
    ).T
    idx.setflags(write=False)
    return idx


def _seed_values(arrays: np.ndarray) -> np.ndarray:
    """Isotropic values of every coordinate seed frame for a stack of
    (n, n, n, n) arrays, shape (tensors, m). Five component reads per frame,
    summed in the kernel's order, equal ``_iso_values`` on
    ``_coordinate_seed_frames(n)`` bit for bit."""
    n = arrays.shape[-1]
    r = arrays.reshape(arrays.shape[0], n ** 4)[:, _seed_components(n)]
    return r[..., 0] + r[..., 1] + r[..., 2] + r[..., 3] - 2.0 * r[..., 4]


# Plain projected-gradient iterations before the conjugate directions start.
# They keep each random start in the basin the plain descent reaches, and
# the descents on the structured models stop inside them.
_WARM = 8

# Step factors of a line-search pass: four in a frame's first pass, eight in
# each later one, so a step runs down to ``min_step`` in five passes, not nine.
_HALVINGS = 0.5 ** np.arange(8)


def _tangent(frames: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Projection of ``v`` onto the tangent spaces of the Stiefel manifold at a
    stack of frames: v - F sym(F^T v)."""
    sym = np.matmul(np.swapaxes(frames, -1, -2), v)
    return v - np.matmul(frames, (sym + np.swapaxes(sym, -1, -2)) / 2.0)


def _descend_batch(rmats: np.ndarray, owner: np.ndarray, frames: np.ndarray,
                   noise: np.ndarray, max_iter: int = 500, min_step: float = 1e-10):
    """Conjugate gradient descent on the Stiefel manifold, one frame per row.

    Frame i of the (m, n, 4) stack descends on tensor ``owner[i]``, whose
    (n^2, n^2) matrix view is ``rmats[owner[i]]`` and whose noise guard is
    ``noise[owner[i]]``: a step is accepted only if it improves the value
    by more than the guard, which keeps the search from drifting below a
    zero minimum. Each iteration projects the Euclidean gradient to the
    tangent space (r). For the first ``_WARM`` iterations a frame moves
    along r; after that along the Polak-Ribiere+ direction
    d = r + beta P(d_prev), with P the projection onto the new tangent
    space and beta = max(0, <r, r - r_prev> / <r_prev, r_prev>) (P is
    self-adjoint, so the old tangent needs no transport), and along r
    whenever <d, r> <= 0 (Absil, Mahony & Sepulchre 2008, ch. 8).
    The line search tries the frame's current step and three halvings,
    retracted by QR. Among the candidates that beat the guard it keeps the
    one of lowest value (ties go to the larger step), not the largest
    step: near a Morse-Bott minimum the largest step overshoots to the
    mirror point, still a decrease, and the frame bounces there for
    hundreds of iterations while a smaller candidate lands on the minimum.
    If no candidate beats the guard, the next halvings are tried, eight
    per pass after the first; the first group of four in halving order
    with a sufficient candidate decides, so the wider passes change no
    result. After a success the kept step doubles, capped at 1. Only the
    kept candidate's gradient is computed.
    A frame is done when its tangent vanishes or its step underflows
    ``min_step``. Frames evolve independently, so a frame's result does
    not depend on the rest of the batch.

    Returns (frames, values, iterations, converged) per frame, with
    converged False exactly when the frame hit the iteration cap.
    """
    m = frames.shape[0]
    f = frames.copy()
    value, products = _iso_values(rmats[owner], f)
    grad = _iso_grads(products, f)
    tangent_prev, direction_prev = np.empty_like(f), np.empty_like(f)
    step = np.ones(m)
    iterations = np.full(m, max_iter)
    active = np.arange(m)
    for iteration in range(max_iter):
        if active.size == 0:
            break
        fa = f[active]
        tangent = _tangent(fa, grad[active])
        moving = np.abs(tangent).max(axis=(1, 2)) != 0.0
        iterations[active[~moving]] = iteration
        active, fa, tangent = active[moving], fa[moving], tangent[moving]
        direction = tangent
        if iteration >= _WARM:
            previous = tangent_prev[active]
            beta = np.maximum(0.0, (tangent * (tangent - previous)).sum(axis=(1, 2))
                              / (previous * previous).sum(axis=(1, 2)))
            cg = tangent + beta[:, None, None] * _tangent(fa, direction_prev[active])
            descending = (cg * tangent).sum(axis=(1, 2)) > 0.0
            direction = np.where(descending[:, None, None], cg, tangent)
        tangent_prev[active], direction_prev[active] = tangent, direction
        # Candidates below min_step are evaluated but never accepted.
        searching = np.flatnonzero(step[active] >= min_step)
        accepted = np.zeros(active.size, dtype=bool)
        width = 4
        while searching.size:
            idx = active[searching]
            steps = step[idx][:, None] * _HALVINGS[:width]
            cands = _retract(fa[searching, None] - steps[:, :, None, None] * direction[searching, None])
            vals, ys = _iso_values(rmats[owner[idx], None], cands)
            ok = (vals < (value[idx] - noise[owner[idx]])[:, None]) & (steps >= min_step)
            groups = ok.reshape(idx.size, width // 4, 4).any(axis=2)
            hit = groups.any(axis=1)
            rows = np.flatnonzero(hit)
            first = np.arange(width) // 4 == groups.argmax(axis=1)[rows, None]
            best = np.where(ok[rows] & first, vals[rows], np.inf).argmin(axis=1)
            won = idx[hit]
            f[won], value[won], products[won] = cands[rows, best], vals[rows, best], ys[rows, best]
            step[won] = np.minimum(steps[rows, best] * 2.0, 1.0)
            accepted[searching[hit]] = True
            missed = idx[~hit]
            step[missed] *= 0.5 ** (steps[~hit] >= min_step).sum(axis=1)
            searching = searching[~hit][step[missed] >= min_step]
            width = 8
        iterations[active[~accepted]] = iteration + 1
        active = active[accepted]
        grad[active] = _iso_grads(products[active], f[active])
    converged = np.ones(m, dtype=bool)
    converged[active] = False
    return f, value, iterations, converged


@dataclass(frozen=True, eq=False)
class FrameSearchResult:
    """Outcome of a sampled isotropic-curvature minimization.

    ``best_value`` is the value the search minimized, and equals
    ``isotropic_value(t, best_frame)`` bit for bit (``best_frame`` is an
    (n,4) orthonormal block); ``samples_used`` counts frames evaluated as seeds
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


def min_isotropic(t: CurvatureTensor, trials: int, seed=0) -> FrameSearchResult:
    """Sampled minimum of isotropic curvature over orthonormal 4-frames.

    Evaluates the coordinate seed frames, then runs ``trials`` descents
    (see ``_descend_batch``) from random orthonormal starts (one child RNG
    per trial, so enlarging ``trials`` only appends candidates and the best
    value is nonincreasing in ``trials`` for a fixed seed).
    """
    return min_isotropic_batch([t], trials, [seed])[0]


# Frames per descent batch: bounds the working set (the candidates of a
# line-search pass and the per-pass gather of their tensors' matrix views)
# without changing any result.
_DESCENT_CHUNK = 512


def min_isotropic_batch(tensors, trials: int, seeds) -> list[FrameSearchResult]:
    """``min_isotropic`` for several tensors of one dimension at once.

    Result i equals ``min_isotropic(tensors[i], trials, seed=seeds[i])``
    bit for bit: the starts of all tensors descend together in fixed-size
    batches, and a frame's descent does not depend on its batch. Start
    (i, trial) is a Gaussian (n, 4) block from ``default_rng((*seeds[i],
    trial))``; one stacked QR retracts them all, with the bytes each gets
    alone. The seed values are five component reads per frame, equal to
    the kernel's bit for bit; the descent and the reported value come
    from the kernel. A tensor with 0 < max|R| < 1 is searched times the
    power of two 2^p that brings max|R| into [1, 2) and its values are
    divided by 2^p, exactly, so min_isotropic(2^e R) = 2^e min_isotropic(R)
    bit for bit for e <= 0 and 1 <= max|R| < 2.
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
    for material in materials:
        _check_seed(material)
    starts = _retract(np.array([
        np.random.default_rng((*material, trial)).standard_normal((n, 4))
        for material in materials
        for trial in range(trials)
    ]))
    owner = np.repeat(np.arange(len(tensors)), trials)
    peak = np.array([t.max_abs() for t in tensors])
    # 2^power brings a max|R| in (0, 1) into [1, 2) and is 1 for max|R| >= 1.
    power = np.maximum(0, 1 - np.frexp(peak)[1])
    arrays = np.ldexp(np.stack([t.array for t in tensors]), power[:, None, None, None, None])
    rmats = arrays.reshape(len(tensors), n * n, n * n)
    noise = 1e-12 * np.maximum(1.0, np.ldexp(peak, power))
    chunks = [_descend_batch(rmats, owner[lo:lo + _DESCENT_CHUNK], starts[lo:lo + _DESCENT_CHUNK], noise)
              for lo in range(0, len(starts), _DESCENT_CHUNK)]
    frames, values, iterations, converged = (np.concatenate(part) for part in zip(*chunks))

    seed_values = _seed_values(arrays)
    coordinate = _coordinate_seed_frames(n)
    seeded = coordinate.shape[0]
    results = []
    for i in range(len(tensors)):
        rows = slice(i * trials, (i + 1) * trials)
        # One argmin over the seed values followed by the descent values:
        # the first minimum wins, so a seed wins a tie.
        candidates = np.concatenate((seed_values[i], values[rows]))
        best = int(np.argmin(candidates))
        best_frame = coordinate[best] if best < seeded else frames[rows][best - seeded]
        results.append(FrameSearchResult(
            best_value=float(np.ldexp(candidates[best], -power[i])),
            best_frame=best_frame,
            samples_used=trials + seeded,
            refinement_steps=int(iterations[rows].sum()),
            converged=bool(converged[rows].all()),
        ))
    return results


def ricci_min(t: CurvatureTensor) -> float:
    """Smallest eigenvalue of the Ricci contraction, via ``eigen_sym``."""
    return float(eigen_sym(ricci(t), vectors=False).eigenvalues[0])


def _phi_coordinates() -> np.ndarray:
    """``phi_family`` of the standard 4-frame: three diagonal sign patterns,
    then e_a(.)e_b +- e_c(.)e_d for the pair splits 14|23, 13|24, 12|34."""
    diagonal = np.array([[1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])[:, None, :] * np.eye(4)
    pairs = np.abs(lambda2_basis(4))  # e_a(.)e_b for ab = 12, 13, 14, 23, 24, 34
    signs = np.tile([1.0, -1.0], 3)[:, None, None]
    c = np.concatenate((diagonal, pairs[[2, 2, 1, 1, 0, 0]] + signs * pairs[[3, 3, 4, 4, 5, 5]]))
    c.setflags(write=False)
    return c


_PHI = _phi_coordinates()


def phi_family(frame) -> np.ndarray:
    """Nine traceless symmetric 2-tensors attached to an orthonormal 4-frame.

    With (.) the symmetrized outer product u(.)v = u v^T + v u^T and
    (e1..e4) the frame columns:

        phi1 = (e1(.)e1 + e2(.)e2 - e3(.)e3 - e4(.)e4)/2
        phi2 = (e1(.)e1 - e2(.)e2 + e3(.)e3 - e4(.)e4)/2
        phi3 = (e1(.)e1 - e2(.)e2 - e3(.)e3 + e4(.)e4)/2
        phi4 = e1(.)e4 + e2(.)e3        phi5 = e1(.)e4 - e2(.)e3
        phi6 = e1(.)e3 + e2(.)e4        phi7 = e1(.)e3 - e2(.)e4
        phi8 = e1(.)e2 + e3(.)e4        phi9 = e1(.)e2 - e3(.)e4

    The family is orthogonal with every squared norm 4 (Gram matrix
    4 I_9). Returned as a (9, n, n) stack F C F^T in the order above,
    with C the family of the standard frame.
    """
    f = check_frame(frame, width=4)
    return f @ _PHI @ f.T


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


def _relative(lhs: float, rhs: float, scale: float) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs), scale)


def verify_pic_identities(t: CurvatureTensor, frame) -> IdentityReport:
    """Check the nine diagonal identities of ``phi_family`` plus the master sum.

    Each R(phi_a, phi_a), read off the diagonal of ``second_kind_matrix``
    on the family, is compared against its closed form in frame
    components from ``pullback``; the grouped combinations and the master identity

        6 (q1 + q5 + q6) + (3/2)(q2+q3+q4+q7+q8+q9)
            = 27 (K13+K14+K23+K24) - 54 R(e1,e2,e3,e4)

    tie the family to the isotropic curvature. Residuals are relative to
    the frame-component scale (see IdentityReport).
    """
    if t.dim < 4:
        raise DimensionTooSmall(f"need dimension >= 4, got {t.dim}")
    f = check_frame(frame, width=4, dim=t.dim)
    q = np.diagonal(second_kind_matrix(t, f @ _PHI @ f.T))

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


@functools.lru_cache(maxsize=None)
def _ric_coordinates(n: int) -> np.ndarray:
    """``ric_family`` of the standard n-frame: phi1, the off-diagonal block
    of ``s20_basis(n)`` (phi_2..phi_n, then the psi_kl), and the diagonal
    ladder of ``s20_basis(n - 1)`` moved onto axes 2..n (the xi_j)."""
    phi1 = np.diag(np.r_[n - 1.0, -np.ones(n - 1)]) / np.sqrt(n * (n - 1))
    xi = np.zeros((n - 2, n, n))
    xi[:, 1:, 1:] = s20_basis(n - 1)[lambda2_dim(n - 1):]
    c = np.concatenate((phi1[None], s20_basis(n)[:lambda2_dim(n)], xi))
    c.setflags(write=False)
    return c


def ric_family(frame) -> np.ndarray:
    """Traceless symmetric basis adapted to a distinguished first vector.

    For an orthonormal n-frame with columns (e1, ..., en):

        phi1  = ((n-1) e1(.)e1 - sum_{p>=2} e_p(.)e_p) / (2 sqrt(n(n-1)))
        phi_i = e1(.)e_i / sqrt(2)                    for i = 2..n
        psi_kl = e_k(.)e_l / sqrt(2)                  for 2 <= k < l <= n
        xi_j  = (sum_{p=2}^{j} e_p(.)e_p - (j-1) e_{j+1}(.)e_{j+1})
                 / (2 sqrt(j(j-1)))                   for j = 2..n-1

    Together these are orthonormal and span the traceless symmetric
    2-tensors of the span. Returned as one ((n-1)(n+2)/2, m, m) stack
    F C F^T for an (m, n) frame F, in the order phi1, phi_2..phi_n,
    psi_kl (lexicographic in (k, l)), xi_2..xi_{n-1}.
    """
    f = check_frame(frame)
    n = f.shape[1]
    if n < 3:
        raise DimensionTooSmall(f"the adapted family needs an n-frame with n >= 3, got {n}")
    return f @ _ric_coordinates(n) @ f.T


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

    which is what turns graded positivity into a Ricci bound. The sums
    (1)-(4) are slices of the diagonal of ``second_kind_matrix`` on the
    family; R11 and S come from ``ricci``. Residuals are relative (see
    IdentityReport).
    """
    n = t.dim
    if n < 3:
        raise DimensionTooSmall(f"need dimension >= 3, got {n}")
    f = check_frame(frame, width=n, dim=n)
    q = np.diagonal(second_kind_matrix(t, f @ _ric_coordinates(n) @ f.T))
    pairs = lambda2_dim(n)
    q_phi1, q_phi = float(q[0]), float(q[1:n].sum())
    q_psi, q_xi = float(q[n:1 + pairs].sum()), float(q[1 + pairs:].sum())
    ric_mat = ricci(t)
    r11 = float(f[:, 0] @ ric_mat @ f[:, 0])
    s = float(np.trace(ric_mat))
    scale = max(abs(r11), abs(s), t.max_abs())

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
    return eigen_sym(second_kind_matrix(t))
