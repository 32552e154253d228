"""Command-line interface.

Five subcommands: ``model`` writes a tensor JSON file, ``analyze``
reports the second-kind spectrum and positivity profile of a tensor,
``verify`` checks the frame identities on random tensors, ``search``
runs the Monte Carlo implication harness, and ``probe`` walks a
sharpness interpolation. Exit codes: 0 on success, 1 when a check fails
or a counterexample is found, 2 on bad input or usage.

Numeric results are computed once into a JSON-shaped dict; the text
format renders that dict, so both formats always agree. ``--seed``
defaults to the CURV_SEED environment variable when present.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .conditions import min_isotropic, random_frame, ricci_min, verify_pic_identities, verify_ric_identities
from .errors import CurvopError, ParameterOutOfRange
from .harness import CONCLUSIONS, TOOL_NAME, emit_report, implication_trial, sharpness_probe
from .models import build_model, random_curvature
from .secondkind import eigen_sym, positivity_profile, second_kind_matrix
from .tensor import load_tensor, save_tensor, to_dict

# Default relative residual bound of the identity suites run by ``verify``.
_TOL_IDENTITY = 1e-8


def _default_seed() -> int:
    env = os.environ.get("CURV_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise CurvopError(f"CURV_SEED must be an integer, got {env!r}") from None


def _add_common(parser: argparse.ArgumentParser, with_seed: bool = True) -> None:
    parser.add_argument("--output", help="write JSON results to this file")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="stdout rendering (default text)")
    if with_seed:
        parser.add_argument("--seed", type=int,
                            help="base RNG seed (default: CURV_SEED or 0)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=TOOL_NAME,
                                     description="curvature operators of the second kind")
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="construct a model tensor and write it as JSON")
    p_model.add_argument("--model", required=True, help="model spec, e.g. sphere:n=4,k=1")
    _add_common(p_model, with_seed=False)

    p_analyze = sub.add_parser("analyze", help="spectrum and positivity profile of a tensor")
    p_analyze.add_argument("tensor", nargs="?", help="tensor JSON file")
    p_analyze.add_argument("--model", help="model spec instead of a file")
    p_analyze.add_argument("--trials", type=int, default=100,
                           help="descent starts for the isotropic minimum (default 100)")
    _add_common(p_analyze)

    p_verify = sub.add_parser("verify", help="frame identity checks on random tensors")
    p_verify.add_argument("tensor", nargs="?", help="also check this tensor JSON file")
    p_verify.add_argument("--model", help="also check this model spec")
    p_verify.add_argument("--dim", type=int, default=4, help="dimension for random tensors")
    p_verify.add_argument("--trials", type=int, default=100,
                          help="random tensor/frame pairs per suite (default 100)")
    p_verify.add_argument("--tol-identity", type=float, default=_TOL_IDENTITY,
                          help=f"relative residual bound (default {_TOL_IDENTITY:g})")
    _add_common(p_verify)

    p_search = sub.add_parser("search", help="Monte Carlo implication search")
    p_search.add_argument("--dim", type=int, required=True)
    p_search.add_argument("--hyp", required=True,
                          help="hypothesis k<k>a<alpha>[strict|nonneg], e.g. k4a0.5strict")
    p_search.add_argument("--concl", required=True, choices=CONCLUSIONS, help="conclusion")
    p_search.add_argument("--trials", type=int, default=100)
    p_search.add_argument("--pic-trials", type=int, default=5,
                          help="descent starts per pic evaluation (default 5)")
    _add_common(p_search)

    p_probe = sub.add_parser("probe", help="sharpness interpolation probe")
    p_probe.add_argument("--base", required=True, help="boundary model spec")
    p_probe.add_argument("--direction", required=True, help="target model spec")
    p_probe.add_argument("--steps", type=int, default=10)
    p_probe.add_argument("--iso-trials", type=int, default=20,
                         help="descent starts per isotropic minimum (default 20)")
    _add_common(p_probe)
    return parser


def _load_input(args, required: bool):
    if getattr(args, "model", None) and getattr(args, "tensor", None):
        raise CurvopError("give either a tensor file or --model, not both")
    if getattr(args, "model", None):
        return build_model(args.model)
    if getattr(args, "tensor", None):
        return load_tensor(args.tensor)
    if required:
        raise CurvopError("a tensor file or --model is required")
    return None


def _sig(v: float) -> str:
    return f"{v:.12g}"


def _emit(args, report, seed: int | None = None, config: dict | None = None) -> dict:
    """Write the envelope to --output, print its results for --format json
    and return them, so the file, stdout and the text renderer agree."""
    if args.output:
        results = emit_report(report, args.output, seed=seed, config=config)["results"]
    else:
        results = report if isinstance(report, dict) else report.to_dict()
    if args.format == "json":
        print(json.dumps(results, indent=2, sort_keys=True))
    return results


def _cmd_model(args) -> int:
    tensor = build_model(args.model)
    doc = to_dict(tensor)
    if args.output:
        save_tensor(tensor, args.output)
    if args.format == "json" or not args.output:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"wrote {args.output}: dim {tensor.dim}, {len(doc['entries'])} canonical entries")
    return 0


def _cmd_analyze(args) -> int:
    tensor = _load_input(args, required=True)
    spectrum = eigen_sym(second_kind_matrix(tensor), vectors=False)
    results = positivity_profile(spectrum)
    results["dim"] = tensor.dim
    results["ricciMin"] = ricci_min(tensor)
    if tensor.dim >= 4:
        search = min_isotropic(tensor, args.trials, seed=args.seed)
        results["isotropicMin"] = search.best_value
        results["isotropicSamples"] = search.samples_used
    config = {"trials": args.trials}
    _emit(args, results, args.seed, config)
    if args.format == "text":
        print(f"dim {tensor.dim}, second-kind eigenvalues:")
        print("  " + "  ".join(_sig(v) for v in results["eigenvalues"]))
        print("positivity profile (k, sigma_k, alphaStar):")
        for row in results["profile"]:
            star = row["alphaStar"]
            star_text = _sig(star) if isinstance(star, float) else star
            print(f"  k={row['k']:<3d} sigma={_sig(row['sigma']):<20s} alphaStar={star_text}")
        for name, verdict in results["verdicts"].items():
            print(f"  {name}: {'yes' if verdict else 'no'}")
        print(f"ricci min: {_sig(results['ricciMin'])}")
        if "isotropicMin" in results:
            print(f"isotropic min (sampled, {results['isotropicSamples']} frames): "
                  f"{_sig(results['isotropicMin'])}")
    return 0


def _cmd_verify(args) -> int:
    extra = _load_input(args, required=False)
    if args.dim < 3 or (extra is not None and extra.dim < 3):
        raise ParameterOutOfRange("the identity suites need dimension >= 3")
    fewest = 1 if extra is None else 0  # a run must check at least one case
    if args.trials < fewest:
        raise ParameterOutOfRange(f"--trials must be >= {fewest}, got {args.trials}")
    tol = args.tol_identity
    if not 0.0 < tol < math.inf:  # a nan bound would pass every residual
        raise ParameterOutOfRange(f"--tol-identity must be finite and positive, got {tol}")
    worst = 0.0
    checked = 0
    failures = 0
    suites: dict[str, float] = {}

    def run_case(tensor) -> None:
        nonlocal worst, checked, failures
        rng = np.random.default_rng((args.seed, checked))
        runs = [("pic", verify_pic_identities, 4)] if tensor.dim >= 4 else []
        for name, suite, width in runs + [("ric", verify_ric_identities, tensor.dim)]:
            report = suite(tensor, random_frame(tensor.dim, width, rng))
            suites[name] = max(suites.get(name, 0.0), report.max_residual)
            worst = max(worst, report.max_residual)
            if report.max_residual > tol:
                failures += 1
        checked += 1

    if extra is not None:
        run_case(extra)
    for trial in range(args.trials):
        tensor = random_curvature(args.dim, seed=(args.seed, trial))
        run_case(tensor)

    ok = failures == 0
    results = {
        "dim": args.dim,
        "casesChecked": checked,
        "maxResidual": worst,
        "tolerance": tol,
        "suites": suites,
        "pass": ok,
    }
    config = {"dim": args.dim, "trials": args.trials, "tolIdentity": tol}
    _emit(args, results, args.seed, config)
    if args.format == "text":
        print(f"checked {checked} cases in dim {args.dim}; "
              f"max relative residual {worst:.3e} (tolerance {tol:.1e})")
        for name, value in suites.items():
            print(f"  suite {name}: max residual {value:.3e}")
        print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_search(args) -> int:
    report = implication_trial(
        args.dim, args.hyp, args.concl, trials=args.trials, seed=args.seed, pic_trials=args.pic_trials
    )
    _emit(args, report)
    if args.format == "text":
        print(f"dim {report.dim}: {report.hypothesis} => {report.conclusion}?")
        print(f"  {report.trials_passing}/{report.trials_attempted} samples satisfied the "
              f"hypothesis ({report.shifts_applied} boosted, "
              f"{report.capped_searches} isotropic searches capped)")
        if report.counterexamples:
            print(f"  {len(report.counterexamples)} counterexample(s):")
            for cex in report.counterexamples:
                print(f"    trial {cex.trial}: hypothesis value {_sig(cex.hypothesis_value)}, "
                      f"conclusion value {_sig(cex.conclusion_value)}")
        print(f"verdict: {report.verdict}")
    return 0 if report.verdict == "consistent" else 1


def _cmd_probe(args) -> int:
    report = sharpness_probe(args.base, args.direction, steps=args.steps,
                             seed=args.seed, iso_trials=args.iso_trials)
    results = _emit(args, report)
    if args.format == "text":
        print(f"probe {report.base} -> {report.direction} (k = {report.k})")
        print(f"  {'t':>6s}  {'alphaStar':>14s}  {'isoMin':>14s}  {'ricciMin':>14s}")
        for row in results["rows"]:
            star = row["alphaStar"]
            star_text = _sig(star) if isinstance(star, float) else star
            iso_text = _sig(row["isoMin"]) if row["isoMin"] is not None else "-"
            capped = "  (search capped)" if row["converged"] is False else ""
            print(f"  {row['t']:6.3f}  {star_text:>14s}  {iso_text:>14s}  "
                  f"{_sig(row['ricciMin']):>14s}{capped}")
        for name, entry in results["boundary"].items():
            status = "ok" if entry["ok"] else "FAIL"
            print(f"  boundary {name}: expected {entry['expected']}, "
                  f"actual {entry['actual']} [{status}]")
    return 0 if report.boundary_ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "model": _cmd_model,
        "analyze": _cmd_analyze,
        "verify": _cmd_verify,
        "search": _cmd_search,
        "probe": _cmd_probe,
    }
    try:
        if getattr(args, "seed", 0) is None:
            args.seed = _default_seed()
        if getattr(args, "seed", 0) < 0:
            raise ParameterOutOfRange(f"the seed must be non-negative, got {args.seed}")
        return handlers[args.command](args)
    except CurvopError as exc:
        print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
