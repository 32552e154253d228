"""Monte Carlo implication harness and sharpness probes.

``implication_trial`` samples random curvature tensors, boosts each into
the hypothesis class by adding a multiple of the unit-sphere tensor
(whose second-kind matrix is the identity, so eigenvalues shift by the
added amount), evaluates a conclusion predicate, and reports every
counterexample with enough seed material to replay it.

``sharpness_probe`` walks the line from a boundary model toward another
model and tabulates how the graded-positivity threshold and the frame
minima move, confirming that the base sits exactly on the advertised
boundary at t = 0.

Reports serialize to a JSON envelope {tool, version, seed, config,
results}; writes are atomic and counterexample tensors land in sibling
files referenced from the report.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .conditions import min_isotropic, min_isotropic_batch, ricci_min
from .errors import DimensionTooSmall, ParameterOutOfRange, ParseError
from .models import ModelSpec, build_model, constant_curvature, interpolate, parse_model, shift
from .secondkind import (
    Spectrum,
    alpha_star,
    eigen_sym,
    k_alpha_value,
    s20_dim,
    second_kind_matrix,
)
from .tensor import CurvatureTensor, save_tensor, to_dict, write_json_atomic

TOOL_NAME = "curvop"

# Samples boosted and searched together in implication_trial; bounds the
# samples held at once without changing any result.
_TRIAL_BLOCK = 100

# boost_to_hypothesis clears the analytic threshold by this margin
# (relative plus absolute), which dwarfs the rounding of the shift.
_BOOST_MARGIN = 0.05


@dataclass(frozen=True)
class PredicateSpec:
    """One hypothesis or conclusion predicate.

    kind "k_alpha" carries (k, alpha, strict) and is decided on the
    second-kind spectrum; kind "pic" is positivity of the sampled
    isotropic minimum; kind "ric" is positivity of the smallest Ricci
    eigenvalue.
    """

    kind: str
    k: int = 0
    alpha: float = 0.0
    strict: bool = True

    @property
    def name(self) -> str:
        if self.kind == "k_alpha":
            suffix = "strict" if self.strict else "nonneg"
            alpha = f"{self.alpha:g}"
            return f"k{self.k}a{alpha}{suffix}"
        return self.kind

    def describe(self) -> str:
        if self.kind == "k_alpha":
            rel = ">" if self.strict else ">="
            return f"sum of {self.k} smallest eigenvalues + {self.alpha:g} * next {rel} 0"
        if self.kind == "pic":
            return "sampled isotropic-curvature minimum > 0"
        return "smallest Ricci eigenvalue > 0"


_PREDICATE_RE = re.compile(r"^k(\d+)a([0-9.]+)(strict|nonneg)?$")


def parse_predicate(text: str) -> PredicateSpec:
    """Parse "k4a0.5strict", "k9a0nonneg", "pic", or "ric"."""
    text = text.strip()
    if text == "pic":
        return PredicateSpec("pic")
    if text == "ric":
        return PredicateSpec("ric")
    m = _PREDICATE_RE.match(text)
    if not m:
        raise ParseError(f"cannot parse predicate {text!r}")
    k = int(m.group(1))
    try:
        alpha = float(m.group(2))
    except ValueError as exc:
        raise ParseError(f"bad alpha in predicate {text!r}") from exc
    strict = (m.group(3) or "strict") == "strict"
    return PredicateSpec("k_alpha", k=k, alpha=alpha, strict=strict)


def _as_predicate(value) -> PredicateSpec:
    if isinstance(value, PredicateSpec):
        return value
    return parse_predicate(value)


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
    trials_passing: int
    shifts_applied: int
    capped_searches: int
    counterexamples: tuple
    seed: int
    config: dict

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


def _hypothesis_value(spectrum: Spectrum, pred: PredicateSpec) -> float:
    return k_alpha_value(spectrum, pred.k, pred.alpha)


def _hypothesis_holds(value: float, pred: PredicateSpec) -> bool:
    return value > 0.0 if pred.strict else value >= 0.0


def boost_to_hypothesis(t: CurvatureTensor,
                        pred: PredicateSpec) -> tuple[CurvatureTensor, Spectrum, float, float]:
    """Shift a tensor into the hypothesis class along the sphere direction.

    Adds t* times the unit-sphere tensor, where t* clears the analytic
    threshold -(sigma_k + alpha lambda_{k+1})/(k + alpha) by ``_BOOST_MARGIN``
    (relative plus absolute). The sphere's second-kind matrix is the
    identity, so the shift moves every eigenvalue by t*; the shifted
    spectrum is solved once and the predicate re-verified, and a shifted
    tensor that still fails it raises ParameterOutOfRange. Returns
    (tensor, spectrum, hypothesis value, shift amount); the shift is 0.0
    when the tensor already satisfies the predicate. The returned
    spectrum is eigenvalue-only (no eigenvectors).
    """
    if pred.kind != "k_alpha":
        raise ParameterOutOfRange("only k_alpha hypotheses support boosting")
    spectrum = eigen_sym(second_kind_matrix(t), vectors=False)
    value = _hypothesis_value(spectrum, pred)
    if _hypothesis_holds(value, pred):
        return t, spectrum, value, 0.0
    threshold = -value / (pred.k + pred.alpha)
    amount = threshold * (1.0 + _BOOST_MARGIN) + _BOOST_MARGIN * max(1.0, abs(threshold))
    shifted = shift(t, constant_curvature(t.dim, 1.0), amount)
    spectrum = eigen_sym(second_kind_matrix(shifted), vectors=False)
    value = _hypothesis_value(spectrum, pred)
    if not _hypothesis_holds(value, pred):
        raise ParameterOutOfRange(
            f"a shift by {amount:.6g} left hypothesis {pred.name} failing at {value:.6g}"
        )
    return shifted, spectrum, value, amount


def implication_trial(
    n: int,
    hypothesis,
    conclusion,
    trials: int,
    seed: int = 0,
    pic_trials: int = 5,
    scale: float = 1.0,
) -> TrialReport:
    """Monte Carlo test of "hypothesis implies conclusion" in dimension n.

    Each trial draws a random tensor with its own child seed (seed,
    trial), boosts it into the hypothesis class when needed, evaluates
    the conclusion, and records a counterexample when the conclusion
    value fails. The run is reproducible from (n, predicates, trials,
    seed) alone; pic conclusions use ``pic_trials`` descent starts with
    seed material (seed, trial, 1), searched for a block of samples at a
    time with ``min_isotropic_batch``.
    """
    hyp = _as_predicate(hypothesis)
    concl = _as_predicate(conclusion)
    if hyp.kind != "k_alpha":
        raise ParameterOutOfRange("the hypothesis must be a k_alpha predicate")
    if concl.kind not in ("pic", "ric"):
        raise ParameterOutOfRange("the conclusion must be 'pic' or 'ric'")
    if n < 4 and concl.kind == "pic":
        raise DimensionTooSmall(f"pic conclusions need dimension >= 4, got {n}")
    if trials < 1:
        raise ParameterOutOfRange(f"trials must be >= 1, got {trials}")
    size = s20_dim(n)
    if hyp.k + hyp.alpha > size:
        raise ParameterOutOfRange(
            f"hypothesis {hyp.name} does not fit the spectrum size {size} for n={n}"
        )

    passing = 0
    shifts = 0
    capped = 0
    counterexamples = []
    for lo in range(0, trials, _TRIAL_BLOCK):
        block = range(lo, min(lo + _TRIAL_BLOCK, trials))
        boosted = [boost_to_hypothesis(_random_for_trial(n, seed, trial, scale), hyp)
                   for trial in block]
        samples = [b[0] for b in boosted]
        if concl.kind == "pic":
            results = min_isotropic_batch(samples, pic_trials, [(seed, trial, 1) for trial in block])
            concl_values = [r.best_value for r in results]
            capped += sum(not r.converged for r in results)
        else:
            concl_values = [ricci_min(sample) for sample in samples]
        for trial, (sample, _, hyp_value, amount), concl_value in zip(block, boosted, concl_values):
            if amount != 0.0:
                shifts += 1
            passing += 1
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
        conclusion=concl.name,
        trials_attempted=trials,
        trials_passing=passing,
        shifts_applied=shifts,
        capped_searches=capped,
        counterexamples=tuple(counterexamples),
        seed=seed,
        config={
            "n": n,
            "hypothesis": hyp.name,
            "conclusion": concl.name,
            "trials": trials,
            "picTrials": pic_trials,
            "scale": scale,
        },
    )


def _random_for_trial(n: int, seed: int, trial: int, scale: float) -> CurvatureTensor:
    from .models import random_curvature

    return random_curvature(n, seed=(seed, trial), scale=scale)


def replay_counterexample(report: TrialReport, index: int = 0) -> CurvatureTensor:
    """Rebuild a counterexample tensor from its recorded seed material."""
    if not 0 <= index < len(report.counterexamples):
        raise ParameterOutOfRange(f"no counterexample at index {index}")
    cex = report.counterexamples[index]
    n = report.dim
    base = _random_for_trial(n, cex.seed_material[0], cex.seed_material[1],
                             report.config.get("scale", 1.0))
    if cex.shift_amount != 0.0:
        return shift(base, constant_curvature(n, 1.0), cex.shift_amount)
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
    if spec.kind != "product" or len(spec.children) != 2:
        return False
    kinds = sorted(c.kind for c in spec.children)
    if kinds != ["flat", "sphere"]:
        return False
    sphere = next(c for c in spec.children if c.kind == "sphere")
    return sphere.params.get("k", 1.0) == 1.0


def sharpness_probe(
    base,
    direction,
    steps: int,
    seed: int = 0,
    iso_trials: int = 20,
) -> ProbeReport:
    """Walk from ``base`` toward ``direction`` and tabulate thresholds.

    ``base`` and ``direction`` are ModelSpecs or spec strings of equal
    dimension. For each of ``steps`` evenly spaced t in [0, 1] the probe
    records alpha_star(k) of the second-kind spectrum (k = 4 for the cp2
    base, k = n otherwise), the sampled isotropic minimum (dimension >= 4),
    and the smallest Ricci eigenvalue. Known boundary bases are verified
    at t = 0: cp2 must show alpha_star(4) = 1/2 and isotropic minimum 0;
    a sphere x flat product must show alpha_star(n) = (n-2)/n and Ricci
    minimum 0.
    """
    if steps < 2:
        raise ParameterOutOfRange(f"steps must be >= 2, got {steps}")
    base_spec = parse_model(base) if isinstance(base, str) else base
    dir_spec = parse_model(direction) if isinstance(direction, str) else direction
    t_base = build_model(base_spec)
    t_dir = build_model(dir_spec)
    n = t_base.dim
    if t_dir.dim != n:
        raise ParameterOutOfRange(f"base dim {n} and direction dim {t_dir.dim} differ")

    k = 4 if base_spec.kind == "cp2" else n
    rows = []
    for idx, t in enumerate(np.linspace(0.0, 1.0, steps)):
        blend = interpolate(t_base, t_dir, float(t))
        spectrum = eigen_sym(second_kind_matrix(blend), vectors=False)
        star = alpha_star(spectrum, k)
        iso = converged = None
        if n >= 4:
            search = min_isotropic(blend, iso_trials, seed=(seed, idx))
            iso, converged = search.best_value, search.converged
        rows.append(ProbeRow(float(t), star, iso, ricci_min(blend), converged))

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
