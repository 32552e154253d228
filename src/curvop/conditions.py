"""Frame-based curvature conditions: isotropic curvature and identity checks.

The isotropic curvature of an orthonormal 4-frame (e1, e2, e3, e4) is

    K13 + K14 + K23 + K24 - 2 R(e1, e2, e3, e4),

where Kab = R(ea, eb, ea, eb). Its minimum over all orthonormal 4-frames
is searched here from the coordinate 4-subsets (all pair splits, both
cross-term signs, which covers all 4! * 2^4 signed permutations of a
subset) and one more source of frames. At n = 4 that is a frame that
attains the exact minimum 2 min(a1 + a2, c1 + c2), read off two complex
structures in the self-dual or anti-self-dual 2-forms and retracted
(``_exact_frames``), so the search is exact there and runs no descent. For
n >= 5 it is a descent on the Stiefel manifold from random starts,
projected gradient steps for a warm-up and Polak-Ribiere+ conjugate
gradient after it, and the minimum is a sampled one. Starts and steps
are retracted to frames as one stack by ``_retract``, a Gram-Schmidt with
two projection passes per column that gives QR's positive-diagonal Q to
rounding at a fraction of ``numpy.linalg.qr``'s cost. A tensor with
max|R| < 1 is searched at an exact power-of-two scale. One batched
kernel, ``_iso_values`` (with ``_iso_grads`` for the gradient of a kept
frame), evaluates every isotropic value: single frames, the descent, the
built n = 4 frames and the reported minimum. It runs on the frame's two
complex structures X = e13 - e24 and Y = e14 + e23, whose isotropic
2-vector (e1 + i e2) ^ (e3 + i e4) is X + iY, so the value is
<R X, X> + <R Y, Y> (Micallef & Moore, Ann. Math. 1988). A tensor enters
as its (N2, N2) matrix R_L[(i<j), (k<l)] = R_ijkl, N2 = n(n-1)/2, which is
the first-kind matrix (``secondkind._first_kind_matrices``), and a frame F
as the 2-forms F J F^T, with J the constant skew matrices ``_J`` of X and
Y. This is the formula above plus 2 b(e1, e2, e3, e4), b the first
Bianchi sum, which vanishes up to rounding on the tensors the package
builds (see ``isotropic_value``).
Each pass of a line search tries a frame's step and three halvings, and
the passes go on down to the frame's first-order floor
max(_MIN_STEP, noise / <r, d>) (see ``_descend_batch``); below that floor a
step gains less than the noise guard, so stopping there changes no decision.
The coordinate seeds read their six components directly and equal the
kernel's values bit for bit (see ``_seed_values``). In every dimension one
rule picks the result: a searched frame, built or descended, replaces the
best seed only if it is lower by more than the noise guard, so rounding
cannot carry a value below an exact seed (CP^2 reports 0, S^(n-1) x S^1
2 and the unit sphere 4).
``pullback`` stays apart from it, as the independent reference of the
identity checks.

The module also carries residual checks of the exact algebraic identities
relating the second-kind bilinear form on two families of traceless
symmetric 2-tensors attached to a frame to frame components of the
tensor. Each family is a constant stack C of coordinate matrices
(``_phi_coordinates``, ``_ric_coordinates``, whose docstrings define the
families) carried to the frame F as F C F^T, and each suite
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
from numpy.random.bit_generator import ISeedSequence

from .errors import FrameNotOrthonormal, ParameterOutOfRange
from .secondkind import (
    _eigenvalues,
    _first_kind_matrices,
    eigen_sym,
    lambda2_basis,
    lambda2_dim,
    s20_basis,
    second_kind_matrix,
)
from .tensor import CurvatureTensor, _check_dim, _check_int, _check_seed, _pair_index, _ricci, _skew, ricci

FRAME_TOL = 1e-12


def check_frame(frame, width: int, dim: int) -> np.ndarray:
    """Validate a (dim, width) column frame and return it as a float array.

    Another shape raises FrameNotOrthonormal, and so does a Gram matrix
    F^T F off the identity by more than ``FRAME_TOL`` in the max norm,
    which covers a frame with a nan or infinite entry, and so does a frame
    that is not an array of numbers.
    """
    try:
        f = np.asarray(frame, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric
        raise FrameNotOrthonormal(f"frame is not an array of numbers: {exc}") from exc
    if f.ndim != 2:
        raise FrameNotOrthonormal(f"frame must be a 2-d column block, got shape {f.shape}")
    n, k = f.shape
    if k != width:
        raise FrameNotOrthonormal(f"expected {width} frame vectors, got {k}")
    if n != dim:
        raise FrameNotOrthonormal(f"frame lives in dimension {n}, tensor in {dim}")
    gram = f.T @ f
    dev = float(np.abs(gram - np.eye(k)).max())
    if not dev <= FRAME_TOL:  # a non-finite frame gives a nan deviation
        raise FrameNotOrthonormal(f"Gram deviation {dev:.3e} exceeds {FRAME_TOL:.1e}")
    return f


def _retract(f: np.ndarray) -> np.ndarray:
    """Retraction of an (n, k) block, or a stack of them, onto orthonormal
    frames: the Q of the QR factorization with a positive R diagonal.

    Gram-Schmidt builds it column by column: each column has the earlier
    columns projected out twice, then is normalized. One pass loses
    orthogonality on ill-conditioned blocks; a second pass restores it to
    rounding (Giraud, Langou & Rozloznik 2005, "twice is enough"). Every
    product has one fixed shape per block, so a block's result does not
    depend on the stack it is retracted in.
    """
    q = np.empty(f.shape)
    for j in range(q.shape[-1]):
        v = f[..., j]
        if j:
            done = q[..., :j]
            for _ in range(2):
                v = v - np.einsum("...ij,...j->...i", done, np.einsum("...ij,...i->...j", done, v))
        q[..., j] = v / np.sqrt(np.einsum("...i,...i->...", v, v))[..., None]
    return q


def random_frame(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthonormal (n, k) frame, 1 <= k <= n <= 32: the
    retraction of a Gaussian block. ``rng`` must be an
    ``np.random.Generator``."""
    n = _check_dim(n)
    _check_int(k, "frame width", 1, n)
    if not isinstance(rng, np.random.Generator):
        raise ParameterOutOfRange(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")
    return _retract(rng.standard_normal((n, k)))


def pullback(array: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Components of a curvature array in the columns of ``frame``."""
    out = np.tensordot(array, frame, axes=([3], [0]))  # i j k d
    out = np.tensordot(out, frame, axes=([2], [0]))  # i j d c
    out = np.tensordot(out, frame, axes=([1], [0]))  # i d c b
    out = np.tensordot(out, frame, axes=([0], [0]))  # d c b a
    return np.ascontiguousarray(out.transpose(3, 2, 1, 0))


# Lambda+ and Lambda-, (e12 + e34, e13 - e24, e14 + e23) and (e12 - e34,
# e13 + e24, e14 - e23), as coordinates over the pairs of ``_pair_index(4)``,
# shape (2, 3, 6). Integers, so the zeros of ``_J`` are all +0.0. Read-only.
_SELF_DUAL = np.array([
    [[1, 0, 0, 0, 0, 1], [0, 1, 0, 0, -1, 0], [0, 0, 1, 1, 0, 0]],
    [[1, 0, 0, 0, 0, -1], [0, 1, 0, 0, 1, 0], [0, 0, 1, -1, 0, 0]],
])
_SELF_DUAL.setflags(write=False)

# The complex structures X = e13 - e24 and Y = e14 + e23 of a 4-frame, the
# last two rows of Lambda+, as skew 4 x 4 matrices: for a frame F, F J[0] F^T
# and F J[1] F^T are its 2-forms X and Y as skew (n, n) matrices. Read-only.
_J = _skew(_SELF_DUAL[0, 1:], 4)
_J.setflags(write=False)


def _iso_values(rmats: np.ndarray, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic values of a stack of frames, and the products behind them.

    ``frames`` has shape (..., n, 4) and ``rmats`` holds the (N2, N2)
    matrix R_L on 2-forms (``_first_kind_matrices``) of each frame's tensor,
    broadcastable against the leading dimensions; returns values (...) and
    y (..., 2, N2). The rows of w are the 2-forms X and Y of ``_J``, the
    i < j entries of F J F^T, and the rows of y = w @ R_L are R X and R Y,
    so the value is <R X, X> + <R Y, Y>; y feeds the gradient in
    ``_iso_grads``. F J only permutes and negates columns of F, so it is
    exact. Every product is a stacked ``matmul`` or ``einsum`` of one fixed
    shape per frame, so a frame's numbers do not depend on how many other
    frames share the call.
    """
    n = frames.shape[-2]
    i, j = _pair_index(n)
    forms = (frames[..., None, :, :] @ _J) @ np.swapaxes(frames, -1, -2)[..., None, :, :]
    # np.take, unlike an index on the last axes, returns C order, so the
    # einsum below sums every frame's products in the same order.
    w = np.take(forms.reshape(*forms.shape[:-2], n * n), i * n + j, axis=-1)
    y = np.matmul(w, rmats)
    dots = np.einsum("...k,...k->...", w, y)
    return dots[..., 0] + dots[..., 1], y


def _iso_grads(y: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Euclidean gradients (..., n, 4) of the isotropic value at ``frames``,
    from the products y that ``_iso_values`` returned for the same frames:
    -2 (Xi_X F J_X + Xi_Y F J_Y), with Xi the skew (n, n) expansion
    (``_skew``) of each row of y."""
    terms = _skew(y, frames.shape[-2]) @ (frames[..., None, :, :] @ _J)
    return -2.0 * (terms[..., 0, :, :] + terms[..., 1, :, :])


def isotropic_value(t: CurvatureTensor, frame) -> float:
    """Isotropic curvature of one orthonormal 4-frame.

    Evaluated by the same kernel as the search, so it reproduces a
    ``FrameSearchResult.best_value`` from its ``best_frame`` bit for bit.
    The kernel computes <R X, X> + <R Y, Y> with X = e13 - e24 and
    Y = e14 + e23, which is K13 + K14 + K23 + K24 - 2 R1234 + 2 b(e1, e2,
    e3, e4), with b the first Bianchi sum R1234 + R1342 + R1423
    (``tensor._bianchi_cyclic``). b vanishes up to rounding on every tensor
    the package builds; on a tensor that ``CurvatureTensor`` admits at a
    Bianchi residual of 9e-11 max|R|, 2 b reached 2.9e-10 max|R| on random
    frames (n = 4..8).
    """
    _check_dim(t.dim, 4)
    f = check_frame(frame, width=4, dim=t.dim)
    return float(_iso_values(_first_kind_matrices(t.array), f)[0])


# The six orderings of a 4-subset (a, b, c, d) that seed the search.
_SEED_ORDERINGS = np.array([
    [0, 1, 2, 3], [0, 1, 3, 2], [0, 2, 1, 3], [0, 2, 3, 1], [0, 3, 1, 2], [0, 3, 2, 1],
])


@functools.lru_cache(maxsize=None)
def _coordinate_seed_axes(n: int) -> np.ndarray:
    """Axes (a, b, c, d) of the coordinate 4-frames (e_a, e_b, e_c, e_d)
    that seed the search, covering all signed permutations.

    For each 4-subset of axes the isotropic value depends only on the
    pair split (three choices) and the sign of the cross term (both signs
    occur among signed permutations), so six orderings per subset attain
    every value the full 4! * 2^4 family can produce. Returned as an
    (m, 4) array, subsets in lexicographic order; built once per n and
    read-only. Only a seed that wins is built as a frame,
    ``np.eye(n)[:, axes]``.
    """
    axes = np.array(list(combinations(range(n), 4)))[:, _SEED_ORDERINGS].reshape(-1, 4)
    axes.setflags(write=False)
    return axes


@functools.lru_cache(maxsize=None)
def _seed_components(n: int) -> np.ndarray:
    """Flat indices into an (n, n, n, n) array of the six components that
    each coordinate seed's value reads: R_acac, R_acbd and R_bdbd for
    X = e_ac - e_bd, then R_adad, R_adbc and R_bcbc for Y = e_ad + e_bc,
    shape (m, 6), for the seed axes (a, b, c, d) of
    ``_coordinate_seed_axes``."""
    a, b, c, d = _coordinate_seed_axes(n).T
    idx = np.ravel_multi_index(
        ([a, a, b, a, a, b], [c, c, d, d, d, c], [a, b, b, a, b, b], [c, d, d, d, c, c]), (n,) * 4
    ).T
    idx.setflags(write=False)
    return idx


def _seed_values(arrays: np.ndarray) -> np.ndarray:
    """Isotropic values of every coordinate seed frame for a stack of
    (n, n, n, n) arrays, shape (tensors, m): <R X, X> + <R Y, Y> as
    ((R_acac - R_acbd) + (R_bdbd - R_acbd)) + ((R_adad + R_adbc) +
    (R_bcbc + R_adbc)). Each of the kernel's two dot products has only
    these two nonzero terms, so its sum does not depend on the order, and
    the seeds equal ``_iso_values`` on the seed frames bit for bit."""
    n = arrays.shape[-1]
    r = arrays.reshape(arrays.shape[0], n ** 4)[:, _seed_components(n)]
    x = (r[..., 0] - r[..., 1]) + (r[..., 2] - r[..., 1])
    return x + ((r[..., 3] + r[..., 4]) + (r[..., 5] + r[..., 4]))


def _exact_frames(rmats: np.ndarray) -> np.ndarray:
    """A minimizing 4-frame of each n = 4 tensor, shape (m, 4, 4), from its
    (6, 6) first-kind matrix in the stack ``rmats``.

    With X = e13 - e24 and Y = e14 + e23 the frame's 2-forms, iso =
    <R X, X> + <R Y, Y>. For a frame of either orientation X/sqrt(2) and
    Y/sqrt(2) are orthonormal in one of Lambda+ and Lambda-, and SO(4)
    turns each of them by all of SO(3). So the minimum is 2 min(a1 + a2,
    c1 + c2), with a and c the ascending eigenvalues of the blocks A and C
    of R on Lambda+ and Lambda- (Hamilton, Comm. Anal. Geom. 1997). The
    frame carries the two lowest eigenvectors u1, u2 of the winning block
    (Lambda+ on a tie), with B its (6, 3) orthonormal basis, the rows of
    ``_SELF_DUAL`` times sqrt(1/2): as skew 4 x 4 matrices X = sqrt(2) B u1
    and Y = sqrt(2) B u2 are anticommuting complex structures (X^2 = Y^2 =
    -I, XY = -YX), so e1 = the first standard vector, e3 = -X e1, e4 = -Y e1
    and e2 = Y e3 form an orthonormal frame with e13 - e24 = X and
    e14 + e23 = Y, of determinant +1 on Lambda+ and -1 on Lambda-. One
    ``_retract`` makes it orthonormal to rounding. Each step is per tensor, so a frame does not depend on its
    stack. Like a descended frame, the built frame must beat the best
    coordinate seed by more than the noise guard (``min_isotropic_batch``).
    """
    bases = np.sqrt(0.5) * np.swapaxes(_SELF_DUAL, 1, 2)
    blocks = np.swapaxes(bases, 1, 2)[:, None] @ rmats @ bases[:, None]
    eigenvalues, eigenvectors = np.linalg.eigh(blocks)
    lowest = eigenvalues[..., 0] + eigenvalues[..., 1]
    side = (lowest[1] < lowest[0]).astype(int)
    tensor = np.arange(rmats.shape[0])
    forms = np.sqrt(2.0) * np.swapaxes(bases[side] @ eigenvectors[side, tensor, :, :2], 1, 2)
    skew = _skew(forms, 4)  # X and Y
    e3, e4 = -skew[:, 0, :, 0], -skew[:, 1, :, 0]
    e1 = np.broadcast_to(np.eye(4)[0], e3.shape)
    return _retract(np.stack((e1, np.einsum("mij,mj->mi", skew[:, 1], e3), e3, e4), axis=-1))


# Plain projected-gradient iterations before the conjugate directions start.
# They keep each random start in the basin the plain descent reaches, and
# the descents on the structured models stop inside them.
_WARM = 8

# Smallest step a line search may accept.
_MIN_STEP = 1e-10

# Iteration cap of each descent; a frame that reaches it is reported as not
# converged.
_MAX_ITER = 500

# Frames per descent batch: it bounds the working set (the candidates of a
# line-search pass and the per-pass gather of their tensors' matrices)
# without changing any result.
_DESCENT_CHUNK = 512


def _tangent(frames: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Projection of ``v`` onto the tangent spaces of the Stiefel manifold at a
    stack of frames: v - F sym(F^T v)."""
    sym = np.matmul(np.swapaxes(frames, -1, -2), v)
    return v - np.matmul(frames, (sym + np.swapaxes(sym, -1, -2)) / 2.0)


def _descend_batch(rmats: np.ndarray, owner: np.ndarray, frames: np.ndarray, noise: np.ndarray):
    """Conjugate gradient descent on the Stiefel manifold, one frame per row.

    Frame i of the (m, n, 4) stack descends on tensor ``owner[i]``, whose
    (N2, N2) matrix on 2-forms is ``rmats[owner[i]]`` and whose noise guard
    is ``noise[owner[i]]``: a step is accepted only if it improves the value
    by more than the guard, which keeps the search from drifting below a
    zero minimum. Each iteration projects the Euclidean gradient to the
    tangent space (r). For the first ``_WARM`` iterations a frame moves
    along r; after that along the Polak-Ribiere+ direction
    d = r + beta P(d_prev), with P the projection onto the new tangent
    space and beta = max(0, <r, r - r_prev> / <r_prev, r_prev>) (P is
    self-adjoint, so the old tangent needs no transport), and along r
    whenever <d, r> <= 0 (Absil, Mahony & Sepulchre 2008, ch. 8).
    Each pass of the line search tries the frame's current step and three
    halvings, retracted by ``_retract``. Among the candidates that beat the
    guard it keeps the one of lowest value (ties go to the larger step), not
    the largest step: near a Morse-Bott minimum the largest step overshoots
    to the mirror point, still a decrease, and the frame bounces there for
    hundreds of iterations while a smaller candidate lands on the minimum.
    If no candidate beats the guard, the step halves past the four and the
    frame runs another pass while its step is at or above its floor
    max(``_MIN_STEP``, noise / <r, d>). The floor is the first-order
    (Armijo) model of the line search (Absil, Mahony & Sepulchre 2008,
    sec. 4.2): where the value along the step is convex, a step s below the
    floor gains at most s <r, d> < noise, and where it is concave out to
    the smallest step tried, which missed, no smaller step gains more. So the halvings below the floor decide nothing unless the
    curvature changes sign inside that smallest step or rounding decides at
    the floor. After a success the kept step doubles, capped at 1. Only the
    kept candidate's gradient is computed.
    A frame is done when its tangent vanishes or its line search finds no
    sufficient step down to its floor. Frames evolve independently, so a
    frame's result does not depend on the rest of the batch.

    Returns (frames, values, iterations, converged) per frame, with
    converged False exactly when the frame hit the iteration cap ``_MAX_ITER``.
    """
    m = frames.shape[0]
    f = frames.copy()
    value, products = _iso_values(rmats[owner], f)
    tangent_prev, direction_prev = np.empty_like(f), np.empty_like(f)
    step = np.ones(m)
    iterations = np.full(m, _MAX_ITER)
    active = np.arange(m)
    for iteration in range(_MAX_ITER):
        if active.size == 0:
            break
        fa = f[active]
        tangent = _tangent(fa, _iso_grads(products[active], fa))
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
        # A step s below noise / <r, d> gains s <r, d> < noise to first order,
        # so a pass runs only from a step at or above this floor. Candidates
        # below _MIN_STEP are evaluated but never accepted.
        floor = np.maximum(_MIN_STEP, noise[owner[active]] / (tangent * direction).sum(axis=(1, 2)))
        searching = np.arange(active.size)
        accepted = np.zeros(active.size, dtype=bool)
        while searching.size:
            idx = active[searching]
            steps = step[idx][:, None] * 0.5 ** np.arange(4)
            cands = _retract(fa[searching, None] - steps[:, :, None, None] * direction[searching, None])
            vals, ys = _iso_values(rmats[owner[idx], None], cands)
            ok = (vals < (value[idx] - noise[owner[idx]])[:, None]) & (steps >= _MIN_STEP)
            hit = ok.any(axis=1)
            rows = np.flatnonzero(hit)
            best = np.where(ok[rows], vals[rows], np.inf).argmin(axis=1)
            won = idx[hit]
            f[won], value[won], products[won] = cands[rows, best], vals[rows, best], ys[rows, best]
            step[won] = np.minimum(steps[rows, best] * 2.0, 1.0)
            accepted[searching[hit]] = True
            missed = idx[~hit]
            step[missed] = steps[~hit, -1] * 0.5
            searching = searching[~hit]
            searching = searching[step[missed] >= floor[searching]]
        iterations[active[~accepted]] = iteration + 1
        active = active[accepted]
    converged = np.ones(m, dtype=bool)
    converged[active] = False
    return f, value, iterations, converged


# NumPy's SeedSequence, O'Neill's seed_seq design ("PCG: A Family of Simple
# Fast Space-Efficient Statistically Good Algorithms for Random Number
# Generation", 2014), whose output NumPy keeps fixed for reproducibility:
# the first constant and multiplier of the hash that fills and mixes its
# 4-word pool (A) and of the hash that reads the pool out (B), and the two
# multipliers of mix(x, y) = L x - R y, which mixes word y into word x.
_MASK32 = 0xFFFFFFFF
_HASH_A = (0x43B0D7E5, 0x931E8875)
_HASH_B = (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(first: int, multiplier: int, count: int) -> np.ndarray:
    """The run first, first * multiplier, ... of ``count`` hash constants,
    mod 2^32; hash call k uses constants k and k + 1."""
    constants = [first]
    while len(constants) < count:
        constants.append(constants[-1] * multiplier & _MASK32)
    return np.array(constants, dtype=np.uint32)


def _hashmix(value: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix with consecutive constants, one call per
    column: (value ^ c_k) * c_(k+1), then xor-shifted by 16. uint32 array
    arithmetic wraps mod 2^32 without a warning."""
    value = (value ^ constants[:-1]) * constants[1:]
    return value ^ (value >> np.uint32(16))


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` of every row of an
    (m, w) uint32 entropy array, shape (m, 4) uint64, in one pass.

    The hash constants depend only on the word count w, so every row runs
    the same sequence of array operations. The pool is the hash of the first
    four words (of 0 past w); each pool word is then mixed into the other
    three, and each word past the fourth into all four, as SeedSequence
    does one word at a time. A mixed-in word does not change while it is
    mixed, so the three or four mixes of one word are one operation.
    """
    m, w = entropy.shape
    a = _hash_constants(*_HASH_A, 17 + 4 * max(0, w - 4))
    pool = np.zeros((m, 4), dtype=np.uint32)
    pool[:, :min(w, 4)] = entropy[:, :4]
    pool = _hashmix(pool, a[:5])
    k = 4
    for source in range(4 + max(0, w - 4)):
        if source < 4:
            targets, word, count = np.arange(4) != source, pool[:, source, None], 3
        else:
            targets, word, count = slice(None), entropy[:, source, None], 4
        mixed = _MIX_L * pool[:, targets] - _MIX_R * _hashmix(word, a[k:k + count + 1])
        pool[:, targets] = mixed ^ (mixed >> np.uint32(16))
        k += count
    state = _hashmix(np.tile(pool, 2), _hash_constants(*_HASH_B, 9)).astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)  # little-endian word pairs


class _Seeded(ISeedSequence):
    """A seed sequence whose state is already generated: the (4,) uint64
    ``generate_state(4, np.uint64)``, the one call PCG64 makes on it."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _words(part: int) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first; 0
    is the one word 0. SeedSequence reads each part of a tuple so."""
    words = [part & _MASK32]
    while part > _MASK32:
        part >>= 32
        words.append(part & _MASK32)
    return words


def _draw_starts(materials, trials: int, n: int) -> np.ndarray:
    """Gaussian (n, 4) blocks for every (material, trial), material-major,
    shape (len(materials) * trials, n, 4).

    Block (material, trial) equals
    ``np.random.default_rng((*material, trial)).standard_normal((n, 4))``
    byte for byte. That generator is a PCG64 seeded by SeedSequence on the
    words of the parts (``_words``); here the hash runs once over the
    entropy of every start with the same word count (``_pcg64_seeds``), and
    each start's PCG64 takes its seed through ``_Seeded``. A trial index is
    one word: 2^32 starts would not fit in memory.
    """
    words = [[word for part in material for word in _words(part)] for material in materials]
    seeds = np.empty((len(materials), trials, 4), dtype=np.uint64)
    for width in set(map(len, words)):
        members = [i for i, w in enumerate(words) if len(w) == width]
        entropy = np.empty((len(members), trials, width + 1), dtype=np.uint32)
        material_words = np.array([words[i] for i in members], dtype=np.uint32)
        entropy[..., :width] = material_words.reshape(len(members), 1, width)
        entropy[..., width] = np.arange(trials)
        seeds[members] = _pcg64_seeds(entropy.reshape(-1, width + 1)).reshape(-1, trials, 4)
    blocks = np.empty((len(materials) * trials, n, 4))
    for block, seed in zip(blocks, seeds.reshape(-1, 4)):
        np.random.Generator(np.random.PCG64(_Seeded(seed))).standard_normal(out=block)
    return blocks


@dataclass(frozen=True, eq=False)
class FrameSearchResult:
    """Outcome of a sampled isotropic-curvature minimization.

    ``best_value`` is the value the search minimized, and equals
    ``isotropic_value(t, best_frame)`` bit for bit (``best_frame`` is an
    (n,4) orthonormal block); ``samples_used`` counts frames evaluated as seeds
    (random starts plus coordinate representatives), ``refinement_steps``
    the total descent iterations, and ``converged`` whether every descent
    terminated by step underflow rather than the iteration cap. For n >= 5
    the value is a sampled minimum: an upper bound for the true one. At
    n = 4 it is the exact minimum to rounding, from the coordinate seeds and
    one built frame, so ``samples_used`` is the seed count + 1,
    ``refinement_steps`` is 0 and ``converged`` is True. In every dimension
    a searched frame is kept only if it beats the best coordinate seed by
    more than the noise guard, so a seed that attains the minimum exactly
    is reported exactly.
    """

    best_value: float
    best_frame: np.ndarray = field(repr=False)
    samples_used: int
    refinement_steps: int
    converged: bool


def min_isotropic(t: CurvatureTensor, trials: int, seed=0) -> FrameSearchResult:
    """Minimum of isotropic curvature over orthonormal 4-frames: exact at
    n = 4, sampled for n >= 5.

    Evaluates the coordinate seed frames, then, for n >= 5, runs ``trials``
    descents (see ``_descend_batch``) from random orthonormal starts (one
    child RNG per trial, so enlarging ``trials`` only appends candidates and
    the best value is nonincreasing in ``trials`` for a fixed seed). At
    n = 4 it builds one exact minimizing frame instead (see
    ``min_isotropic_batch``).
    """
    return min_isotropic_batch([t], trials, [seed])[0]


def min_isotropic_batch(tensors, trials: int, seeds) -> list[FrameSearchResult]:
    """``min_isotropic`` for several tensors of one dimension at once.

    Result i equals ``min_isotropic(tensors[i], trials, seed=seeds[i])``
    bit for bit: the starts of all tensors descend together in fixed-size
    batches, and a frame's descent does not depend on its batch. Start
    (i, trial) is the Gaussian (n, 4) block of ``default_rng((*material,
    trial))``, byte for byte, with material ``_check_seed(seeds[i])`` (an
    int n as (n,)); ``_draw_starts`` draws every start of the
    call from one pass of the seed hash. One stacked ``_retract`` retracts
    them all, with the bytes each gets alone. The seed values are six
    component reads per frame, equal to the kernel's bit for bit
    (``_seed_values``); the descent and the reported value come from the
    kernel. A tensor with 0 < max|R| < 1
    is searched times the power of two 2^p that brings max|R| into [1, 2)
    and its values are divided by 2^p, exactly, so min_isotropic(2^e R) =
    2^e min_isotropic(R) bit for bit for e <= 0 and 1 <= max|R| < 2.

    At n = 4 the search is exact: no start is drawn and no descent runs.
    Each tensor gets the frame ``_exact_frames`` builds for its minimum
    2 min(a1 + a2, c1 + c2), valued by the kernel. ``trials`` and the seeds
    are validated but not used; ``samples_used`` is the seed count + 1,
    ``refinement_steps`` is 0 and ``converged`` is True.

    In every dimension a searched frame, built or descended, replaces the
    tensor's best coordinate seed only if its value is lower by more than
    the noise guard, the rule a descent step obeys. So rounding does not
    displace a seed that attains the minimum exactly: CP^2 reports 0.0,
    S^(n-1) x S^1 2.0 and the unit sphere 4.0.
    """
    tensors, seeds = list(tensors), list(seeds)
    if len(seeds) != len(tensors):
        raise ParameterOutOfRange(f"{len(tensors)} tensors but {len(seeds)} seeds")
    if tensors:
        _check_dim(tensors[0].dim, 4)
    if any(t.dim != tensors[0].dim for t in tensors):
        raise ParameterOutOfRange("all tensors of a batch must share one dimension")
    _check_int(trials, "trials", 1)
    if not tensors:
        return []
    n = tensors[0].dim

    materials = [_check_seed(s) for s in seeds]
    peak = np.array([t.max_abs() for t in tensors])
    # 2^power brings a max|R| in (0, 1) into [1, 2) and is 1 for max|R| >= 1.
    power = np.maximum(0, 1 - np.frexp(peak)[1])
    arrays = np.ldexp(np.stack([t.array for t in tensors]), power[:, None, None, None, None])
    rmats = _first_kind_matrices(arrays)
    noise = 1e-12 * np.maximum(1.0, np.ldexp(peak, power))
    seed_values = _seed_values(arrays)
    if n == 4:
        searched = 1
        frames = _exact_frames(rmats)
        values = _iso_values(rmats, frames)[0]
        iterations, converged = np.zeros(len(tensors), dtype=int), np.ones(len(tensors), dtype=bool)
    else:
        searched = trials
        starts = _retract(_draw_starts(materials, trials, n))
        owner = np.repeat(np.arange(len(tensors)), trials)
        chunks = [_descend_batch(rmats, owner[lo:lo + _DESCENT_CHUNK], starts[lo:lo + _DESCENT_CHUNK], noise)
                  for lo in range(0, len(starts), _DESCENT_CHUNK)]
        frames, values, iterations, converged = (np.concatenate(part) for part in zip(*chunks))

    # A searched frame must beat its tensor's best seed by more than the noise
    # guard, as a descent step must beat its frame, so rounding cannot carry
    # a value below an exact seed (CP^2 keeps 0, the sphere 4).
    values[values >= np.repeat(seed_values.min(axis=1) - noise, searched)] = np.inf
    candidates = np.concatenate((seed_values, values.reshape(-1, searched)), axis=1)
    axes = _coordinate_seed_axes(n)
    seeded = axes.shape[0]
    results = []
    for i, best in enumerate(candidates.argmin(axis=1)):
        rows = slice(i * searched, (i + 1) * searched)
        best_frame = np.eye(n)[:, axes[best]].copy() if best < seeded else frames[rows][best - seeded]
        results.append(FrameSearchResult(
            best_value=float(np.ldexp(candidates[i, best], -power[i])),
            best_frame=best_frame,
            samples_used=searched + seeded,
            refinement_steps=int(iterations[rows].sum()),
            converged=bool(converged[rows].all()),
        ))
    return results


def _ricci_minima(arrays: np.ndarray) -> np.ndarray:
    """The smallest Ricci eigenvalue of an array or of each array of a
    stack, from one stacked solve through the checks of ``eigen_sym``; an
    array's value does not depend on its stack."""
    return _eigenvalues(_ricci(arrays))[1][..., 0]


def ricci_min(t: CurvatureTensor) -> float:
    """Smallest eigenvalue of the Ricci contraction."""
    return float(_ricci_minima(t.array))


def _phi_coordinates() -> np.ndarray:
    """The nine traceless symmetric 2-tensors of the pic suite on the
    standard 4-frame, as a (9, 4, 4) stack C.

    With (.) the symmetrized outer product u(.)v = u v^T + v u^T and
    (e1..e4) the frame columns, the family F C F^T of a frame F is

        phi1 = (e1(.)e1 + e2(.)e2 - e3(.)e3 - e4(.)e4)/2
        phi2 = (e1(.)e1 - e2(.)e2 + e3(.)e3 - e4(.)e4)/2
        phi3 = (e1(.)e1 - e2(.)e2 - e3(.)e3 + e4(.)e4)/2
        phi4 = e1(.)e4 + e2(.)e3        phi5 = e1(.)e4 - e2(.)e3
        phi6 = e1(.)e3 + e2(.)e4        phi7 = e1(.)e3 - e2(.)e4
        phi8 = e1(.)e2 + e3(.)e4        phi9 = e1(.)e2 - e3(.)e4

    in that order, orthogonal with every squared norm 4 (Gram matrix 4 I_9).
    """
    diagonal = np.array([[1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])[:, None, :] * np.eye(4)
    pairs = np.abs(lambda2_basis(4))  # e_a(.)e_b for ab = 12, 13, 14, 23, 24, 34
    signs = np.tile([1.0, -1.0], 3)[:, None, None]
    c = np.concatenate((diagonal, pairs[[2, 2, 1, 1, 0, 0]] + signs * pairs[[3, 3, 4, 4, 5, 5]]))
    c.setflags(write=False)
    return c


_PHI = _phi_coordinates()


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """Residuals of one family of frame identities.

    ``residuals`` maps identity names to relative residuals, where
    relative means |lhs - rhs| divided by max(|lhs|, |rhs|, component
    scale), and 0 when all three are 0, so a residual does not change
    when the tensor is scaled by a power of two; ``values`` records the
    quantities entering the identities.
    """

    kind: str
    dim: int
    max_residual: float
    residuals: dict[str, float]
    values: dict[str, float]


def _report(kind: str, dim: int, identities: dict, scale: float, values: dict) -> IdentityReport:
    """The ``IdentityReport`` of ``identities``, {name: (lhs, rhs)}, with each
    residual relative to ``scale`` (see ``IdentityReport``)."""
    residuals = {}
    for name, (lhs, rhs) in identities.items():
        lhs = float(lhs)
        denominator = max(abs(lhs), abs(rhs), scale)
        residuals[name] = abs(lhs - rhs) / denominator if denominator else 0.0
    return IdentityReport(kind=kind, dim=dim, max_residual=max(residuals.values()),
                          residuals=residuals, values=values)


def verify_pic_identities(t: CurvatureTensor, frame) -> IdentityReport:
    """Check the nine diagonal identities of the phi family plus the master sum.

    Each R(phi_a, phi_a), read off the diagonal of ``second_kind_matrix``
    on the family F C F^T (C from ``_phi_coordinates``), is compared
    against its closed form in frame components from ``pullback``; the
    grouped combinations and the master identity

        6 (q1 + q5 + q6) + (3/2)(q2+q3+q4+q7+q8+q9)
            = 27 (K13+K14+K23+K24) - 54 R(e1,e2,e3,e4)

    tie the family to the isotropic curvature. Residuals are relative to
    the frame-component scale (see IdentityReport).
    """
    _check_dim(t.dim, 4)
    f = check_frame(frame, width=4, dim=t.dim)
    q = np.diagonal(second_kind_matrix(t, f @ _PHI @ f.T))

    r4 = pullback(t.array, f)
    k12, k34 = r4[0, 1, 0, 1], r4[2, 3, 2, 3]
    k13, k24 = r4[0, 2, 0, 2], r4[1, 3, 1, 3]
    k14, k23 = r4[0, 3, 0, 3], r4[1, 2, 1, 2]
    r1234, r1342, r1423 = r4[0, 1, 2, 3], r4[0, 2, 3, 1], r4[0, 3, 1, 2]
    iso = k13 + k14 + k23 + k24 - 2.0 * r1234
    scale = max(float(np.abs(r4).max()), float(np.abs(q).max()))

    s4 = k13 + k14 + k23 + k24
    pair_sum = k12 + k34
    closed = (
        2.0 * (-k12 - k34 + k13 + k24 + k14 + k23),
        2.0 * (-k13 - k24 + k12 + k34 + k14 + k23),
        2.0 * (-k14 - k23 + k12 + k34 + k13 + k24),
        2.0 * (k14 + k23 + 2.0 * r1234 - 2.0 * r1342),
        2.0 * (k14 + k23 - 2.0 * r1234 + 2.0 * r1342),
        2.0 * (k13 + k24 - 2.0 * r1234 + 2.0 * r1423),
        2.0 * (k13 + k24 + 2.0 * r1234 - 2.0 * r1423),
        2.0 * (k12 + k34 + 2.0 * r1342 - 2.0 * r1423),
        2.0 * (k12 + k34 - 2.0 * r1342 + 2.0 * r1423),
    )
    identities = {f"phi{a + 1}": (q[a], rhs) for a, rhs in enumerate(closed)}
    identities.update({
        "phi1+phi5+phi6": (q[0] + q[4] + q[5], 4.0 * s4 - 2.0 * pair_sum - 12.0 * r1234),
        "phi2+phi3": (q[1] + q[2], 4.0 * pair_sum),
        "phi8+phi9": (q[7] + q[8], 4.0 * pair_sum),
        "phi4+phi7": (q[3] + q[6], 2.0 * s4 + 12.0 * r1234),
        "master": (
            6.0 * (q[0] + q[4] + q[5]) + 1.5 * (q[1] + q[2] + q[3] + q[6] + q[7] + q[8]),
            27.0 * s4 - 54.0 * r1234,
        ),
    })
    values = {f"q_phi{a + 1}": float(q[a]) for a in range(9)}
    values.update({"isotropic": float(iso), "R1234": float(r1234),
                   "R1342": float(r1342), "R1423": float(r1423)})
    return _report("pic", t.dim, identities, scale, values)


@functools.lru_cache(maxsize=None)
def _ric_coordinates(n: int) -> np.ndarray:
    """The traceless symmetric basis of the ric suite on the standard
    n-frame, adapted to its first vector, as an ((n-1)(n+2)/2, n, n) stack C.

    For a frame F with columns (e1, ..., en) the family F C F^T is

        phi1  = ((n-1) e1(.)e1 - sum_{p>=2} e_p(.)e_p) / (2 sqrt(n(n-1)))
        phi_i = e1(.)e_i / sqrt(2)                    for i = 2..n
        psi_kl = e_k(.)e_l / sqrt(2)                  for 2 <= k < l <= n
        xi_j  = (sum_{p=2}^{j} e_p(.)e_p - (j-1) e_{j+1}(.)e_{j+1})
                 / (2 sqrt(j(j-1)))                   for j = 2..n-1

    in the order phi1, phi_2..phi_n, psi_kl (lexicographic in (k, l)),
    xi_2..xi_{n-1}; orthonormal, it spans the traceless symmetric
    2-tensors. C is phi1, the off-diagonal block of ``s20_basis(n)`` and
    the diagonal ladder of ``s20_basis(n - 1)`` moved onto axes 2..n.
    Built once per n and read-only.
    """
    phi1 = np.diag(np.r_[n - 1.0, -np.ones(n - 1)]) / np.sqrt(n * (n - 1))
    xi = np.zeros((n - 2, n, n))
    xi[:, 1:, 1:] = s20_basis(n - 1)[lambda2_dim(n - 1):]
    c = np.concatenate((phi1[None], s20_basis(n)[:lambda2_dim(n)], xi))
    c.setflags(write=False)
    return c


def verify_ric_identities(t: CurvatureTensor, frame) -> IdentityReport:
    """Check the four contraction identities of the adapted family
    F C F^T (C from ``_ric_coordinates``).

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
    _check_dim(n, 3)
    f = check_frame(frame, width=n, dim=n)
    q = np.diagonal(second_kind_matrix(t, f @ _ric_coordinates(n) @ f.T))
    pairs = lambda2_dim(n)
    q_phi1, q_phi = float(q[0]), float(q[1:n].sum())
    q_psi, q_xi = float(q[n:1 + pairs].sum()), float(q[1 + pairs:].sum())
    ric_mat = ricci(t)
    r11 = float(f[:, 0] @ ric_mat @ f[:, 0])
    s = float(np.trace(ric_mat))
    scale = max(abs(r11), abs(s), t.max_abs())

    identities = {
        "eq1": (q_phi1, 2.0 * r11 / (n - 1) - s / (n * (n - 1))),
        "eq2": (q_phi, r11),
        "eq3": (q_psi, s / 2.0 - r11),
        "eq4": (q_xi, (s - 2.0 * r11) / (n - 1)),
        "combination": ((n - 2) * (n + 1) / 2.0 * (q_phi1 + q_phi) + (n - 2) / n * (q_psi + q_xi),
                        (n - 2) * (n + 1) * (n + 2) / (2.0 * n) * r11),
    }
    values = {"eq1": q_phi1, "eq2": q_phi, "eq3": q_psi, "eq4": q_xi, "R11": r11, "scalar": s}
    return _report("ric", n, identities, scale, values)


def second_kind_spectrum(t: CurvatureTensor):
    """Convenience: assemble the second-kind matrix and diagonalize it."""
    return eigen_sym(second_kind_matrix(t))
