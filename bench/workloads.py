"""The four benchmark workloads.

A workload turns the benchmark seed into rounds of operations. An
operation is one public curvop call (one ``implication_trial``, one
``sharpness_probe``) or one verify case (``random_curvature`` plus both
identity suites on one tensor). Every round runs the same operations on
fresh inputs drawn from (seed, round), so any number of rounds is a whole
number of the same calls. Calls go through the module attributes
(``harness.implication_trial``, ...) so that a tracer can wrap them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import checks

DIMS = (4, 5, 6, 7, 8)
HYPOTHESIS = "k4a0.5strict"


def derived_seed(*material: int) -> int:
    """A 32-bit seed for the program, drawn from the benchmark seed material."""
    return int(np.random.SeedSequence(material).generate_state(1)[0])


def orthonormal_frame(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


@dataclass(frozen=True)
class Op:
    n: int
    args: tuple


class Search:
    """``implication_trial(n, "k4a0.5strict", conclusion)`` for n = 4..8.

    ``trials`` maps n to the samples of one call. Cheaper dimensions get
    more samples, so that each dimension takes a similar share of the run
    and its rate rests on enough samples to be steady.
    """

    def __init__(self, api: dict, seed: int, conclusion: str, trials: dict[int, int]):
        self.api, self.seed, self.conclusion, self.trials = api, seed, conclusion, trials
        self.hypothesis = api["harness"].parse_predicate(HYPOTHESIS)

    def ops(self, r: int) -> list[Op]:
        return [Op(n, (derived_seed(self.seed, r, n), self.trials[n])) for n in DIMS]

    def call(self, op: Op):
        seed, trials = op.args
        return self.api["harness"].implication_trial(
            op.n, HYPOTHESIS, self.conclusion, trials=trials, seed=seed, pic_trials=5)

    def tensors(self, op: Op, report) -> int:
        return report.trials_attempted

    def check(self, op: Op, report, deep: bool) -> list[str]:
        seed, trials = op.args
        where = f"n={op.n} seed={seed}"
        problems = []
        if report.verdict != "consistent" or report.trials_passing != trials:
            problems.append(f"{where}: verdict {report.verdict}, "
                            f"{report.trials_passing}/{trials} passing")
        if deep:
            problems += [f"{where}: {p}" for p in self.check_first_sample(op)]
        return problems

    def check_first_sample(self, op: Op) -> list[str]:
        """Rebuild the call's sample 0 as the search did and check it independently."""
        harness, conditions = self.api["harness"], self.api["conditions"]
        seed, trial = op.args[0], 0
        sample = self.api["models"].random_curvature(op.n, seed=(seed, trial))
        boosted, spectrum, _, _ = harness.boost_to_hypothesis(sample, self.hypothesis)
        problems = checks.check_spectrum(boosted.array, spectrum.eigenvalues, 4, 0.5)
        if self.conclusion == "pic":
            found = conditions.min_isotropic(boosted, 5, seed=(seed, trial, 1))
            problems += checks.check_pic_sample(boosted.array, found.best_value, found.best_frame)
        else:
            problems += checks.check_ricci(boosted.array, conditions.ricci_min(boosted))
        return problems


def probe_bases() -> list[tuple[int, str, np.ndarray, int, float, float]]:
    """(n, base spec, closed-form base, k, isotropic minimum, Ricci minimum).

    CP^2 sits on the 4.5 boundary (isotropic minimum 0, Ricci 6); the
    S^{n-1} x S^1 products sit on the (n + (n-2)/n) boundary (isotropic
    minimum 2, Ricci minimum 0).
    """
    bases = [(4, "cp2", checks.cp2(), 4, 0.0, 6.0)]
    for n in DIMS:
        bases.append((n, f"product:(sphere:n={n - 1},k=1)x(flat:n=1)",
                      checks.sphere(n, n - 1), n, 2.0, 0.0))
    return bases


class Probe:
    """``sharpness_probe`` from each boundary model toward the unit sphere.

    The n = 4 probes cost a tenth of the others (their descents stop within
    a few iterations), so each round repeats them with ``N4_REPEATS`` seeds
    to give n = 4 a similar share of the run.
    """

    STEPS = 3
    ISO_TRIALS = 32
    N4_REPEATS = 6

    def __init__(self, api: dict, seed: int):
        self.api, self.seed = api, seed
        self.bases = probe_bases()

    def ops(self, r: int) -> list[Op]:
        return [Op(n, (index, derived_seed(self.seed, r, index, repeat)))
                for index, (n, *_) in enumerate(self.bases)
                for repeat in range(self.N4_REPEATS if n == 4 else 1)]

    def call(self, op: Op):
        index, seed = op.args
        spec = self.bases[index][1]
        return self.api["harness"].sharpness_probe(
            spec, f"sphere:n={op.n},k=1", steps=self.STEPS, seed=seed, iso_trials=self.ISO_TRIALS)

    def tensors(self, op: Op, report) -> int:
        return len(report.rows)

    def check(self, op: Op, report, deep: bool) -> list[str]:
        index, _ = op.args
        n, spec, base, k, iso_base, ricci_base = self.bases[index]
        problems = []
        if not report.boundary_ok:
            problems.append(f"boundary check failed: {report.boundary}")
        if report.k != k:
            problems.append(f"probe graded k={report.k}, expected {k}")
        rows = [(row.t, row.alpha_star, row.iso_min, row.ricci_min) for row in report.rows]
        problems += checks.check_probe_rows(base, k, iso_base, ricci_base, rows)
        if deep:
            built = self.api["models"].build_model(spec).array
            if float(np.abs(built - base).max()) > 1e-12:
                problems.append("program model differs from the closed form")
        return [f"{spec}: {p}" for p in problems]


class Verify:
    """``random_curvature`` then both identity suites on random frames, n = 4..8."""

    CASES = 20

    def __init__(self, api: dict, seed: int):
        self.api, self.seed = api, seed

    def ops(self, r: int) -> list[Op]:
        ops = []
        for n in DIMS:
            rng = np.random.default_rng((self.seed, r, n))
            tensor_seed = derived_seed(self.seed, r, n)
            for case in range(self.CASES):
                ops.append(Op(n, ((tensor_seed, case), orthonormal_frame(rng, n, 4),
                                  orthonormal_frame(rng, n, n))))
        return ops

    def call(self, op: Op):
        seed, frame4, frame_n = op.args
        conditions = self.api["conditions"]
        t = self.api["models"].random_curvature(op.n, seed=seed)
        return t, conditions.verify_pic_identities(t, frame4), conditions.verify_ric_identities(t, frame_n)

    def tensors(self, op: Op, output) -> int:
        return 1

    def check(self, op: Op, output, deep: bool) -> list[str]:
        """Residuals of every case; the component formulas on the first case
        of each dimension, and on every case of a deep round."""
        t, pic, ric = output
        seed = op.args[0]
        if deep or seed[1] == 0:
            problems = checks.check_identities(
                t.array, op.args[1],
                (pic.max_residual, pic.values["isotropic"]),
                (ric.max_residual, ric.values["scalar"]),
            )
        else:
            problems = checks.check_residuals(pic.max_residual, ric.max_residual)
        return [f"n={op.n} seed={seed}: {p}" for p in problems]


# Workload name -> (constructor, nominal seconds per round on the reference
# machine, used only to size the fixed-length traced run).
WORKLOADS = {
    "search-pic": (lambda api, seed: Search(api, seed, "pic", {4: 40, 5: 30, 6: 12, 7: 8, 8: 6}), 3.9),
    "search-ric": (lambda api, seed: Search(api, seed, "ric", {4: 24, 5: 8, 6: 4, 7: 2, 8: 1}), 0.9),
    "probe": (Probe, 4.2),
    "verify": (Verify, 0.22),
}
