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

Reports serialize to a JSON envelope {tool, version, seed, config,
results}; writes are atomic and counterexample tensors land in sibling
files referenced from the report.
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass, field, replace

import numpy as np

# models.random_curvature is looked up on its module at each draw, so that a
# wrapper installed there (bench/spans.py) sees every draw.
from . import __version__, models
from .conditions import min_isotropic_batch, ricci_min
from .errors import DimensionTooSmall, ParameterOutOfRange, ParseError
from .models import ModelSpec, build_model, constant_curvature, interpolate, parse_model, shift
from .secondkind import (
    PredicateSpec,
    Spectrum,
    alpha_star,
    eigen_sym,
    k_alpha_positive,
    k_alpha_value,
    second_kind_matrix,
)
from .tensor import CurvatureTensor, save_tensor, write_json_atomic

TOOL_NAME = "curvop"

# Samples boosted and searched together in implication_trial; bounds the
# samples held at once without changing any result.
_TRIAL_BLOCK = 100

# boost_to_hypothesis clears the analytic threshold by this margin
# (relative plus absolute), which dwarfs the rounding of the shift.
_BOOST_MARGIN = 0.05

_PREDICATE_RE = re.compile(r"^k(\d+)a(\d+\.?\d*|\.\d+)(strict|nonneg)?$")

# The conclusions implication_trial can test.
CONCLUSIONS = ("pic", "ric")


def parse_predicate(text: str) -> PredicateSpec:
    """Parse a hypothesis such as "k4a0.5strict" or "k9a0nonneg"."""
    text = text.strip()
    m = _PREDICATE_RE.match(text)
    if not m:
        raise ParseError(f"cannot parse hypothesis {text!r}")
    return PredicateSpec(int(m.group(1)), float(m.group(2)), strict=m.group(3) != "nonneg")


@dataclass(frozen=True)
class Counterexample:
    """One sampled tensor that passed the hypothesis but failed the conclusion."""

    trial: int
    seed_material: tuple
    shift_amount: float
    hypothesis_value: float
    conclusion_value: float
    tensor: CurvatureTensor = field(compare=False, repr=False)
    tensor_file: str | None = None

    def to_dict(self) -> dict:
        return {
            "trial": self.trial,
            "seedMaterial": list(self.seed_material),
            "shift": self.shift_amount,
            "hypothesisValue": self.hypothesis_value,
            "conclusionValue": self.conclusion_value,
            "tensorFile": self.tensor_file,
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
    seed: int
    config: dict

    @property
    def trials_passing(self) -> int:
        """Every sample passes the hypothesis: one the boost cannot bring
        into the hypothesis class raises instead."""
        return self.trials_attempted

    @property
    def verdict(self) -> str:
        return "consistent" if not self.counterexamples else "counterexample"

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "hypothesis": self.hypothesis,
            "conclusion": self.conclusion,
            "trialsAttempted": self.trials_attempted,
            "trialsPassing": self.trials_passing,
            "shiftsApplied": self.shifts_applied,
            "cappedSearches": self.capped_searches,
            "counterexamples": [c.to_dict() for c in self.counterexamples],
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
    value = k_alpha_value(spectrum, pred.k, pred.alpha)
    if k_alpha_positive(spectrum, pred.k, pred.alpha, pred.strict):
        return t, spectrum, value, 0.0
    threshold = -value / (pred.k + pred.alpha)
    amount = threshold * (1.0 + _BOOST_MARGIN) + _BOOST_MARGIN * max(1.0, abs(threshold))
    shifted = shift(t, _unit_sphere(t.dim), amount)
    spectrum = eigen_sym(second_kind_matrix(shifted), vectors=False)
    value = k_alpha_value(spectrum, pred.k, pred.alpha)
    if not k_alpha_positive(spectrum, pred.k, pred.alpha, pred.strict):
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
    block of samples at a time with ``min_isotropic_batch``. A hypothesis
    that does not fit the spectrum raises at the first boost.
    """
    hyp = parse_predicate(hypothesis) if isinstance(hypothesis, str) else hypothesis
    if conclusion not in CONCLUSIONS:
        raise ParameterOutOfRange(f"the conclusion must be one of {CONCLUSIONS}, got {conclusion!r}")
    if n < 4 and conclusion == "pic":
        raise DimensionTooSmall(f"pic conclusions need dimension >= 4, got {n}")
    if trials < 1:
        raise ParameterOutOfRange(f"trials must be >= 1, got {trials}")

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
            concl_values = [ricci_min(sample) for sample in samples]
        for trial, (sample, _, hyp_value, amount), concl_value in zip(block, boosted, concl_values):
            if amount != 0.0:
                shifts += 1
            if not concl_value > 0.0:
                counterexamples.append(
                    Counterexample(
                        trial=trial,
                        seed_material=(seed, trial),
                        shift_amount=amount,
                        hypothesis_value=hyp_value,
                        conclusion_value=concl_value,
                        tensor=sample,
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
        seed=seed,
        config={
            "n": n,
            "hypothesis": hyp.name,
            "conclusion": conclusion,
            "trials": trials,
            "picTrials": pic_trials,
        },
    )


def replay_counterexample(report: TrialReport, index: int) -> CurvatureTensor:
    """Rebuild a counterexample tensor from its recorded seed material."""
    if not 0 <= index < len(report.counterexamples):
        raise ParameterOutOfRange(f"no counterexample at index {index}")
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
    seed: int
    config: dict

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
    For each of ``steps`` evenly spaced t in [0, 1] the probe records
    alpha_star(k) of the second-kind spectrum (k = 4 for the cp2 base,
    k = n otherwise), the sampled isotropic minimum (dimension >= 4), and
    the smallest Ricci eigenvalue. One ``min_isotropic_batch`` call
    searches every row, row idx with seed material (seed, idx), so each
    row equals ``min_isotropic`` on its blend alone. Known boundary bases
    are verified at t = 0: cp2 must show alpha_star(4) = 1/2 and isotropic
    minimum 0; a unit S^(n-1) x R must show alpha_star(n) = (n-2)/n and
    Ricci minimum 0.
    """
    if steps < 2:
        raise ParameterOutOfRange(f"steps must be >= 2, got {steps}")
    base_spec, dir_spec = parse_model(base), parse_model(direction)
    t_base = build_model(base_spec)
    t_dir = build_model(dir_spec)
    n = t_base.dim
    if t_dir.dim != n:
        raise ParameterOutOfRange(f"base dim {n} and direction dim {t_dir.dim} differ")

    k = 4 if base_spec.kind == "cp2" else n
    ts = [float(t) for t in np.linspace(0.0, 1.0, steps)]
    blends = [interpolate(t_base, t_dir, t) for t in ts]
    if n >= 4:
        searches = [(r.best_value, r.converged) for r in
                    min_isotropic_batch(blends, iso_trials, [(seed, idx) for idx in range(steps)])]
    else:
        searches = [(None, None)] * steps
    rows = []
    for t, blend, (iso, converged) in zip(ts, blends, searches):
        spectrum = eigen_sym(second_kind_matrix(blend), vectors=False)
        rows.append(ProbeRow(t, alpha_star(spectrum, k), iso, ricci_min(blend), converged))

    boundary: dict[str, tuple] = {}
    first = rows[0]
    if base_spec.kind == "cp2":
        star0 = first.alpha_star
        ok = isinstance(star0, float) and abs(star0 - 0.5) <= 1e-9
        boundary["alphaStar(4) = 1/2"] = (0.5, star0, ok)
        boundary["isotropic minimum = 0"] = (
            0.0, first.iso_min, first.iso_min is not None and 0.0 <= first.iso_min <= 1e-6,
        )
    elif _is_sphere_times_flat(base_spec):
        expected = (n - 2) / n
        star0 = first.alpha_star
        ok = isinstance(star0, float) and abs(star0 - expected) <= 1e-9
        boundary[f"alphaStar({n}) = (n-2)/n"] = (expected, star0, ok)
        boundary["Ricci minimum = 0"] = (0.0, first.ricci_min, abs(first.ricci_min) <= 1e-9)

    return ProbeReport(
        base=base_spec.describe(),
        direction=dir_spec.describe(),
        k=k,
        rows=tuple(rows),
        boundary=boundary,
        seed=seed,
        config={
            "base": base_spec.describe(),
            "direction": dir_spec.describe(),
            "steps": steps,
            "isoTrials": iso_trials,
        },
    )


def emit_report(report, path: str, seed: int | None = None, config: dict | None = None) -> dict:
    """Write a report as a JSON envelope, atomically; returns the envelope.

    TrialReport counterexample tensors are saved to sibling files named
    "<stem>.counterexample<i>.json" before the envelope is written, and
    the envelope references them by filename.
    """
    if isinstance(report, TrialReport) and report.counterexamples:
        stem, _ = os.path.splitext(path)
        rewritten = []
        for i, cex in enumerate(report.counterexamples):
            tensor_file = f"{stem}.counterexample{i}.json"
            save_tensor(cex.tensor, tensor_file)
            rewritten.append(replace(cex, tensor_file=os.path.basename(tensor_file)))
        report = replace(report, counterexamples=tuple(rewritten))
    envelope = {
        "tool": TOOL_NAME,
        "version": __version__,
        "seed": seed if seed is not None else getattr(report, "seed", None),
        "config": config if config is not None else getattr(report, "config", {}),
        "results": report.to_dict() if hasattr(report, "to_dict") else report,
    }
    write_json_atomic(envelope, path)
    return envelope
