"""Command-line interface.

Five subcommands: ``model`` writes a tensor JSON file, ``analyze``
reports the second-kind spectrum and positivity profile of a tensor,
``verify`` checks the frame identities on random tensors, ``search``
runs the Monte Carlo implication harness, and ``probe`` walks a
sharpness interpolation. The last four compute a results dict once (a
report's ``to_dict`` for ``search`` and ``probe``), and ``main`` sends
that one dict down one output path: ``emit_report`` writes it for
``--output``; ``--format json`` prints it, with or without ``--output``;
else a text renderer reads only it. So all three agree. The CLI states
every envelope's seed, ``--seed``, and config, the subcommand's
arguments as run with names normalised. One exit rule
follows: 1 when ``pass`` is false, ``verdict`` is "counterexample" or
``boundaryOk`` is false, 2 on bad input or usage, else 0. ``--seed``
defaults to 0.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from .conditions import min_isotropic, random_frame, ricci_min, verify_pic_identities, verify_ric_identities
from .errors import CurvopError, ParameterOutOfRange
from .harness import CONCLUSIONS, TOOL_NAME, emit_report, implication_trial, sharpness_probe
from .models import build_model, random_curvature
from .secondkind import eigen_sym, positivity_profile, second_kind_matrix
from .tensor import _check_int, load_tensor, save_tensor, to_dict

# Default relative residual bound of the identity suites run by ``verify``.
_TOL_IDENTITY = 1e-8


def _add_common(parser: argparse.ArgumentParser, with_seed: bool = True) -> None:
    parser.add_argument("--output", help="write JSON results to this file")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="stdout rendering (default text)")
    if with_seed:
        parser.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")


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
    if args.model and args.tensor:
        raise CurvopError("give either a tensor file or --model, not both")
    if args.model:
        return build_model(args.model)
    if args.tensor:
        return load_tensor(args.tensor)
    if required:
        raise CurvopError("a tensor file or --model is required")
    return None


def _sig(v: float | str) -> str:
    return v if isinstance(v, str) else f"{v:.12g}"  # alphaStar may be a word


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


def _cmd_analyze(args):
    tensor = _load_input(args, required=True)
    _check_int(args.trials, "trials", 1)
    spectrum = eigen_sym(second_kind_matrix(tensor), vectors=False)
    results = positivity_profile(spectrum)
    results["dim"] = tensor.dim
    results["ricciMin"] = ricci_min(tensor)
    if tensor.dim >= 4:
        search = min_isotropic(tensor, args.trials, seed=args.seed)
        results["isotropicMin"] = search.best_value
        results["isotropicSamples"] = search.samples_used
    return results, {"trials": args.trials}


def _render_analyze(results: dict) -> None:
    print(f"dim {results['dim']}, second-kind eigenvalues:")
    print("  " + "  ".join(_sig(v) for v in results["eigenvalues"]))
    print("positivity profile (k, sigma_k, alphaStar):")
    for row in results["profile"]:
        print(f"  k={row['k']:<3d} sigma={_sig(row['sigma']):<20s} alphaStar={_sig(row['alphaStar'])}")
    for name, verdict in results["verdicts"].items():
        print(f"  {name}: {'yes' if verdict else 'no'}")
    print(f"ricci min: {_sig(results['ricciMin'])}")
    if "isotropicMin" in results:
        how = "exact" if results["dim"] == 4 else "sampled"
        print(f"isotropic min ({how}, {results['isotropicSamples']} frames): "
              f"{_sig(results['isotropicMin'])}")


def _cmd_verify(args):
    extra = _load_input(args, required=False)
    if args.dim < 3 or (extra is not None and extra.dim < 3):
        raise ParameterOutOfRange("the identity suites need dimension >= 3")
    fewest = 1 if extra is None else 0  # a run must check at least one case
    if args.trials < fewest:
        raise ParameterOutOfRange(f"--trials must be >= {fewest}, got {args.trials}")
    tol = args.tol_identity
    if not 0.0 < tol < math.inf:  # a nan bound would pass every residual
        raise ParameterOutOfRange(f"--tol-identity must be finite and positive, got {tol}")
    randoms = (random_curvature(args.dim, seed=(args.seed, trial)) for trial in range(args.trials))
    suites: dict[str, float] = {}
    for case, tensor in enumerate(itertools.chain(() if extra is None else (extra,), randoms)):
        rng = np.random.default_rng((args.seed, case))
        runs = [("pic", verify_pic_identities, 4)] if tensor.dim >= 4 else []
        for name, suite, width in runs + [("ric", verify_ric_identities, tensor.dim)]:
            report = suite(tensor, random_frame(tensor.dim, width, rng))
            suites[name] = max(suites.get(name, 0.0), report.max_residual)
    worst = max(suites.values())
    results = {
        "dim": args.dim,
        "casesChecked": args.trials + (extra is not None),
        "maxResidual": worst,
        "tolerance": tol,
        "suites": suites,
        "pass": bool(worst <= tol),
    }
    return results, {"dim": args.dim, "trials": args.trials, "tolIdentity": tol}


def _render_verify(results: dict) -> None:
    print(f"checked {results['casesChecked']} cases in dim {results['dim']}; max relative residual "
          f"{results['maxResidual']:.3e} (tolerance {results['tolerance']:.1e})")
    for name, value in results["suites"].items():
        print(f"  suite {name}: max residual {value:.3e}")
    print("PASS" if results["pass"] else "FAIL")


def _cmd_search(args):
    results = implication_trial(args.dim, args.hyp, args.concl, trials=args.trials,
                                seed=args.seed, pic_trials=args.pic_trials).to_dict()
    return results, {"n": results["dim"], "hypothesis": results["hypothesis"],
                     "conclusion": results["conclusion"], "trials": args.trials,
                     "picTrials": args.pic_trials}


def _render_search(results: dict) -> None:
    print(f"dim {results['dim']}: {results['hypothesis']} => {results['conclusion']}?")
    print(f"  {results['trialsPassing']}/{results['trialsAttempted']} samples satisfied the "
          f"hypothesis ({results['shiftsApplied']} boosted, "
          f"{results['cappedSearches']} isotropic searches capped)")
    if results["counterexamples"]:
        print(f"  {len(results['counterexamples'])} counterexample(s):")
        for cex in results["counterexamples"]:
            print(f"    trial {cex['trial']}: hypothesis value {_sig(cex['hypothesisValue'])}, "
                  f"conclusion value {_sig(cex['conclusionValue'])}")
    print(f"verdict: {results['verdict']}")


def _cmd_probe(args):
    results = sharpness_probe(args.base, args.direction, steps=args.steps,
                              seed=args.seed, iso_trials=args.iso_trials).to_dict()
    return results, {"base": results["base"], "direction": results["direction"],
                     "steps": args.steps, "isoTrials": args.iso_trials}


def _render_probe(results: dict) -> None:
    print(f"probe {results['base']} -> {results['direction']} (k = {results['k']})")
    print(f"  {'t':>6s}  {'alphaStar':>14s}  {'isoMin':>14s}  {'ricciMin':>14s}")
    for row in results["rows"]:
        iso_text = _sig(row["isoMin"]) if row["isoMin"] is not None else "-"
        capped = "  (search capped)" if row["converged"] is False else ""
        print(f"  {row['t']:6.3f}  {_sig(row['alphaStar']):>14s}  {iso_text:>14s}  "
              f"{_sig(row['ricciMin']):>14s}{capped}")
    for name, entry in results["boundary"].items():
        status = "ok" if entry["ok"] else "FAIL"
        print(f"  boundary {name}: expected {entry['expected']}, "
              f"actual {entry['actual']} [{status}]")


# subcommand -> (compute step, text renderer); compute returns the results dict
# and its envelope config, the arguments as run with names in normalised form
_COMMANDS = {
    "analyze": (_cmd_analyze, _render_analyze),
    "verify": (_cmd_verify, _render_verify),
    "search": (_cmd_search, _render_search),
    "probe": (_cmd_probe, _render_probe),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "model":
            return _cmd_model(args)
        if args.seed < 0:
            raise ParameterOutOfRange(f"the seed must be non-negative, got {args.seed}")
        compute, render = _COMMANDS[args.command]
        results, config = compute(args)
        if args.output:
            emit_report(results, args.output, args.seed, config)
        if args.format == "json":
            print(json.dumps(results, indent=2, sort_keys=True))
        else:
            render(results)
        failed = (results.get("pass") is False or results.get("verdict") == "counterexample"
                  or results.get("boundaryOk") is False)
        return 1 if failed else 0
    except CurvopError as exc:
        print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
