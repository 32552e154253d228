"""Monte Carlo implication harness and sharpness probes.

``implication_trial`` samples random curvature tensors, boosts each into
the hypothesis class by adding a multiple of the unit-sphere tensor
(whose second-kind matrix is the identity, so eigenvalues shift by the
added amount), evaluates the conclusion ("pic" or "ric"), and reports
every counterexample with enough seed material to replay it.

``sharpness_probe`` walks the line from a boundary model toward another
model and tabulates how the graded-positivity threshold and the frame
minima move, confirming that the base sits exactly on the advertised
boundary at t = 0.

A report holds results only. Its ``to_dict`` is its one serialization,
the results that ``emit_report`` wraps in a JSON envelope {tool,
version, seed, config, results}, written in one atomic rename; the
caller states the envelope's seed and config. A counterexample keeps
only its seed material in memory; ``TrialReport.to_dict`` replays its
tensor from it into its own entry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# models.random_curvature is looked up on its module at each draw, so that a
# wrapper installed there (bench/spans.py) sees every draw.
from . import __version__, models
from .conditions import _ricci_minima, min_isotropic_batch, ricci_min
from .errors import ParameterOutOfRange
from .models import ModelSpec, build_model, constant_curvature, interpolate, parse_model, shift
from .secondkind import (
    PredicateSpec,
    Spectrum,
    _eigenvalues,
    _k_alpha_sign,
    _second_kind_matrices,
    _sign,
    alpha_star,
    eigen_sym,
    parse_predicate,
    s20_basis,
    second_kind_matrix,
)
from .tensor import (
    CurvatureTensor,
    _check_dim,
    _check_int,
    to_dict,
    write_json_atomic,
)

TOOL_NAME = "curvop"

# Samples boosted and searched together in implication_trial; bounds the
# samples held at once without changing any result. Counterexamples keep
# only their seed material, so the bound holds for them too.
_TRIAL_BLOCK = 100

# boost_to_hypothesis clears the analytic threshold by this margin
# (relative plus absolute), which dwarfs the rounding of the shift.
_BOOST_MARGIN = 0.05

# The conclusions implication_trial can test.
CONCLUSIONS = ("pic", "ric")


@dataclass(frozen=True)
class Counterexample:
    """One sampled tensor that passed the hypothesis but failed the conclusion.

    The tensor itself is not kept: ``replay_counterexample`` rebuilds it
    byte for byte from the seed material and the shift.
    """

    trial: int
    seed_material: tuple
    shift_amount: float
    hypothesis_value: float
    conclusion_value: float

    def to_dict(self) -> dict:
        return {
            "trial": self.trial,
            "seedMaterial": list(self.seed_material),
            "shift": self.shift_amount,
            "hypothesisValue": self.hypothesis_value,
            "conclusionValue": self.conclusion_value,
        }


@dataclass(frozen=True, eq=False)
class TrialReport:
    """Outcome of one implication suite.

    ``verdict`` is "consistent" when every hypothesis-passing sample also
    satisfied the conclusion, else "counterexample". ``shifts_applied``
    counts samples that needed boosting into the hypothesis class, and
    ``capped_searches`` the pic samples whose isotropic search hit the
    descent's iteration cap (their sampled minimum is less trustworthy).
    """

    dim: int
    hypothesis: str
    conclusion: str
    trials_attempted: int
    shifts_applied: int
    capped_searches: int
    counterexamples: tuple

    @property
    def trials_passing(self) -> int:
        """Every sample passes the hypothesis: one the boost cannot bring
        into the hypothesis class raises instead."""
        return self.trials_attempted

    @property
    def verdict(self) -> str:
        return "consistent" if not self.counterexamples else "counterexample"

    def to_dict(self) -> dict:
        """The report's results. Each counterexample entry carries its tensor
        under "tensor", replayed from its seed material
        (``replay_counterexample``) in the canonical form of a tensor file."""
        return {
            "dim": self.dim,
            "hypothesis": self.hypothesis,
            "conclusion": self.conclusion,
            "trialsAttempted": self.trials_attempted,
            "trialsPassing": self.trials_passing,
            "shiftsApplied": self.shifts_applied,
            "cappedSearches": self.capped_searches,
            "counterexamples": [{**c.to_dict(), "tensor": to_dict(replay_counterexample(self, i))}
                                for i, c in enumerate(self.counterexamples)],
            "verdict": self.verdict,
        }


@functools.lru_cache(maxsize=None)
def _unit_sphere(n: int) -> CurvatureTensor:
    """The unit-sphere tensor, the boost direction, built once per n;
    its array is read-only, like every tensor's."""
    return constant_curvature(n, 1.0)


def boost_to_hypothesis(t: CurvatureTensor,
                        pred: PredicateSpec) -> tuple[CurvatureTensor, Spectrum, float, float]:
    """Shift a tensor into the hypothesis class along the sphere direction.

    Adds t* times the unit-sphere tensor (``_unit_sphere``, built once per
    dimension), where t* clears the analytic threshold
    -(sigma_k + alpha lambda_{k+1})/(k + alpha) by ``_BOOST_MARGIN``
    (relative plus absolute). The sphere's second-kind matrix is the
    identity, so the shift moves every eigenvalue by t*; the shifted
    spectrum is solved once and the predicate re-verified, and a shifted
    tensor that still fails it raises ParameterOutOfRange. Returns
    (tensor, spectrum, hypothesis value, shift amount); the shift is 0.0
    when the tensor already satisfies the predicate. The returned
    spectrum is eigenvalue-only (no eigenvectors).
    """
    spectrum = eigen_sym(second_kind_matrix(t), vectors=False)
    value, sign = _k_alpha_sign(spectrum, pred.k, pred.alpha)
    if sign >= pred.strict:
        return t, spectrum, value, 0.0
    threshold = -value / (pred.k + pred.alpha)
    amount = threshold * (1.0 + _BOOST_MARGIN) + _BOOST_MARGIN * max(1.0, abs(threshold))
    shifted = shift(t, _unit_sphere(t.dim), amount)
    spectrum = eigen_sym(second_kind_matrix(shifted), vectors=False)
    value, sign = _k_alpha_sign(spectrum, pred.k, pred.alpha)
    if sign < pred.strict:
        raise ParameterOutOfRange(
            f"a shift by {amount:.6g} left hypothesis {pred.name} failing at {value:.6g}"
        )
    return shifted, spectrum, value, amount


def implication_trial(
    n: int,
    hypothesis: PredicateSpec | str,
    conclusion: str,
    trials: int,
    seed: int = 0,
    pic_trials: int = 5,
) -> TrialReport:
    """Monte Carlo test of "hypothesis implies conclusion" in dimension n.

    ``hypothesis`` is a PredicateSpec or its string form, ``conclusion``
    "pic" (sampled isotropic minimum > 0) or "ric" (smallest Ricci
    eigenvalue > 0). Each trial draws a random tensor with its own child
    seed (seed, trial), boosts it into the hypothesis class when needed,
    evaluates the conclusion, and records a counterexample when the
    conclusion value fails. The run is reproducible from (n, hypothesis,
    conclusion, trials, seed) alone; pic conclusions use ``pic_trials``
    descent starts with seed material (seed, trial, 1), searched for a
    block of samples at a time with ``min_isotropic_batch``, and ric
    conclusions one stacked Ricci solve per block (``_ricci_minima``). A
    hypothesis that does not fit the spectrum raises at the first boost.
    """
    hyp = parse_predicate(hypothesis) if isinstance(hypothesis, str) else hypothesis
    if conclusion not in CONCLUSIONS:
        raise ParameterOutOfRange(f"the conclusion must be one of {CONCLUSIONS}, got {conclusion!r}")
    # Checked values are plain ints, so the report serializes as it is.
    n = _check_dim(n, 4 if conclusion == "pic" else 2)
    trials = _check_int(trials, "trials", 1)
    pic_trials = _check_int(pic_trials, "pic_trials", 1)
    seed = _check_int(seed, "each part of the seed material", 0)

    shifts = 0
    capped = 0
    counterexamples = []
    for lo in range(0, trials, _TRIAL_BLOCK):
        block = range(lo, min(lo + _TRIAL_BLOCK, trials))
        boosted = [boost_to_hypothesis(models.random_curvature(n, seed=(seed, trial)), hyp)
                   for trial in block]
        samples = [b[0] for b in boosted]
        if conclusion == "pic":
            results = min_isotropic_batch(samples, pic_trials, [(seed, trial, 1) for trial in block])
            concl_values = [r.best_value for r in results]
            capped += sum(not r.converged for r in results)
        else:
            concl_values = _ricci_minima(np.stack([sample.array for sample in samples])).tolist()
        for trial, (_, _, hyp_value, amount), concl_value in zip(block, boosted, concl_values):
            if amount != 0.0:
                shifts += 1
            # no certified bound on a sampled minimum or Ricci eigenvalue yet
            if _sign(concl_value, 0.0) < 1:
                counterexamples.append(
                    Counterexample(
                        trial=trial,
                        seed_material=(seed, trial),
                        shift_amount=amount,
                        hypothesis_value=hyp_value,
                        conclusion_value=concl_value,
                    )
                )
    return TrialReport(
        dim=n,
        hypothesis=hyp.name,
        conclusion=conclusion,
        trials_attempted=trials,
        shifts_applied=shifts,
        capped_searches=capped,
        counterexamples=tuple(counterexamples),
    )


def replay_counterexample(report: TrialReport, index: int) -> CurvatureTensor:
    """Rebuild a counterexample tensor from its recorded seed material."""
    _check_int(index, "counterexample index", 0, len(report.counterexamples) - 1)
    cex = report.counterexamples[index]
    n = report.dim
    base = models.random_curvature(n, seed=cex.seed_material)
    if cex.shift_amount != 0.0:
        return shift(base, _unit_sphere(n), cex.shift_amount)
    return base


@dataclass(frozen=True, eq=False)
class ProbeRow:
    """One interpolation step of a sharpness probe.

    ``converged`` is False when the isotropic search hit the descent's
    iteration cap, and None when there is no search (dimension < 4).
    """

    t: float
    alpha_star: float | str
    iso_min: float | None
    ricci_min: float
    converged: bool | None

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "alphaStar": self.alpha_star,
            "isoMin": self.iso_min,
            "ricciMin": self.ricci_min,
            "converged": self.converged,
        }


@dataclass(frozen=True, eq=False)
class ProbeReport:
    """Interpolation table plus the boundary check at t = 0.

    ``boundary`` maps check names to (expected, actual, ok); it is empty
    when the base model has no advertised boundary.
    """

    base: str
    direction: str
    k: int
    rows: tuple
    boundary: dict

    @property
    def boundary_ok(self) -> bool:
        return all(ok for (_, _, ok) in self.boundary.values())

    def to_dict(self) -> dict:
        return {
            "base": self.base,
            "direction": self.direction,
            "k": self.k,
            "rows": [r.to_dict() for r in self.rows],
            "boundary": {
                name: {"expected": exp, "actual": act, "ok": ok}
                for name, (exp, act, ok) in self.boundary.items()
            },
            "boundaryOk": self.boundary_ok,
        }


def _is_sphere_times_flat(spec: ModelSpec) -> bool:
    """Whether a built spec is a unit sphere times a line, in either order."""
    if spec.kind != "product":
        return False
    factors = {c.kind: models._with_defaults(c) for c in spec.children}
    return (factors.keys() == {"sphere", "flat"}
            and factors["sphere"]["k"] == 1.0 and factors["flat"]["n"] == 1)


def sharpness_probe(
    base: str,
    direction: str,
    steps: int,
    seed: int = 0,
    iso_trials: int = 20,
) -> ProbeReport:
    """Walk from ``base`` toward ``direction`` and tabulate thresholds.

    ``base`` and ``direction`` are model spec strings of equal dimension.
    The dimension n must be at least 3, since alpha_star(n) needs
    n <= N - 1 for the N = n(n+1)/2 - 1 second-kind eigenvalues. For each
    of ``steps`` evenly spaced t in [0, 1] the probe records alpha_star(n)
    of the second-kind spectrum, the sampled isotropic minimum
    (dimension >= 4), and the smallest Ricci eigenvalue. One
    ``min_isotropic_batch`` call searches every row, row idx with seed
    material (seed, idx) for the int ``seed``, so each row equals
    ``min_isotropic`` on its blend alone. The rows'
    second-kind matrices are one stacked product, and their second-kind
    and Ricci spectra two stacked solves, through the kernels and checks of
    ``second_kind_matrix``, ``eigen_sym`` and ``ricci_min``, so each row
    equals those functions on its blend alone, bit for bit. Known boundary
    bases are verified at t = 0 as the paper states them, nonnegative and
    not positive: (n+alpha) at the advertised alpha (1/2 on cp2, (n-2)/n on
    a unit S^(n-1) x R, which puts alpha_star(n) there) within its rounding
    bound, and the isotropic (cp2) or Ricci (S^(n-1) x R) minimum exactly.
    """
    steps = _check_int(steps, "steps", 2)
    iso_trials = _check_int(iso_trials, "iso_trials", 1)
    seed = _check_int(seed, "each part of the seed material", 0)
    base_spec, dir_spec = parse_model(base), parse_model(direction)
    t_base = build_model(base_spec)
    t_dir = build_model(dir_spec)
    n = _check_dim(t_base.dim, 3)
    if t_dir.dim != n:
        raise ParameterOutOfRange(f"base dim {n} and direction dim {t_dir.dim} differ")

    ts = [float(t) for t in np.linspace(0.0, 1.0, steps)]
    blends = [interpolate(t_base, t_dir, t) for t in ts]
    if n >= 4:
        searches = [(r.best_value, r.converged) for r in
                    min_isotropic_batch(blends, iso_trials, [(seed, idx) for idx in range(steps)])]
    else:
        searches = [(None, None)] * steps
    arrays = np.stack([blend.array for blend in blends])
    co2 = _eigenvalues(_second_kind_matrices(arrays, s20_basis(n)))[1]
    spectra = [Spectrum(eigenvalues, None, None) for eigenvalues in co2]
    ricci_minima = _ricci_minima(arrays).tolist()
    rows = [ProbeRow(t, alpha_star(spectrum, n), iso, ric, converged)
            for t, spectrum, ric, (iso, converged) in zip(ts, spectra, ricci_minima, searches)]

    boundary: dict[str, tuple] = {}
    cp2 = base_spec.kind == "cp2"
    if cp2 or _is_sphere_times_flat(base_spec):
        first, alpha = rows[0], (n - 2) / n  # 1/2 on cp2, where n = 4
        star_name = "alphaStar(4) = 1/2" if cp2 else f"alphaStar({n}) = (n-2)/n"
        boundary[star_name] = (alpha, first.alpha_star, _k_alpha_sign(spectra[0], n, alpha)[1] == 0)
        # The Ricci check takes t = 0 through ``ricci_min``, the single-tensor
        # path, which row 0's stacked value equals bit for bit.
        min_name, minimum = (("isotropic minimum = 0", first.iso_min) if cp2
                             else ("Ricci minimum = 0", ricci_min(blends[0])))
        boundary[min_name] = (0.0, minimum, _sign(minimum, 0.0) == 0)

    return ProbeReport(
        base=base_spec.describe(),
        direction=dir_spec.describe(),
        k=n,
        rows=tuple(rows),
        boundary=boundary,
    )


def emit_report(results: dict, path: str, seed: int, config: dict) -> dict:
    """Write a results dict, a report's ``to_dict``, as a JSON envelope
    {tool, version, seed, config, results}, atomically; returns the
    envelope. ``seed`` and ``config`` are the caller's: the seed and the
    arguments of the run as it was made. The envelope is the only file
    written, in one atomic rename, so a failed write leaves nothing."""
    envelope = {"tool": TOOL_NAME, "version": __version__, "seed": seed, "config": config,
                "results": results}
    write_json_atomic(envelope, path)
    return envelope
