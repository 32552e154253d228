"""Benchmark of curvop's implication searches, sharpness probes and identity suites.

    python3 bench/run.py --workload search-pic --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; curvop is imported from its
``src/`` directory. With ``--trace 0`` the run repeats whole rounds of the
workload for about ``--seconds`` of measured call time and reports the
end-to-end metrics. With ``--trace 1`` it runs a warm-up round and then a
fixed number of rounds twice, untraced and then traced, and reports
per-layer spans and counts. See README.md for the workloads and metrics.
Outputs are checked against computations made apart from curvop (see
``checks.py``). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Result and span files go
to ``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS thread: the load is this one process, and small matrices gain
# nothing from more threads. Must be set before NumPy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_REPEATS = 5

from spans import LAYERS, Tracer  # noqa: E402
from speed import REFERENCE_S, ReferenceClock, kernel_seconds  # noqa: E402
from workloads import DIMS, WORKLOADS  # noqa: E402


def load_curvop() -> dict:
    """Import curvop from this checkout's ``src/``, or exit with a message."""
    sys.path.insert(0, str(SRC))
    try:
        curvop = importlib.import_module("curvop")
    except ImportError as exc:
        sys.exit(f"cannot import curvop from {SRC}: {exc}")
    if Path(curvop.__file__).resolve().parent.parent != SRC:
        sys.exit(f"curvop was imported from {curvop.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"curvop.{name}")
            for name in ("harness", "conditions", "models", "errors")}


def blas_record() -> dict:
    """BLAS build and the thread count it actually runs with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": None}
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    func = getattr(lib, symbol)
                    func.restype = ctypes.c_int
                    record["blas_threads"] = func()
                    return record
    except OSError:
        pass
    return record


def machine_record() -> dict:
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, **blas_record(), "threads_requested": BLAS_THREADS}


class Tally:
    """Operations, tensors and call time per dimension.

    ``raw`` holds measured seconds; ``seconds`` the same calls scaled to the
    reference machine's speed (see speed.py), once ``clock.settle`` has run.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tensors = dict.fromkeys(DIMS, 0)
        self.raw = dict.fromkeys(DIMS, 0.0)
        self.clock = ReferenceClock()

    def add(self, n: int, seconds: float, tensors: int) -> None:
        self.tensors[n] += tensors
        self.raw[n] += seconds
        self.clock.add(n, seconds)

    @property
    def busy(self) -> float:
        return sum(self.raw.values())

    @property
    def seconds(self) -> dict[int, float]:
        return {n: self.clock.scaled.get(n, 0.0) for n in DIMS}

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())


def run_round(workload, r: int, tally: Tally, errors, problems: list | None) -> list:
    """Run round r's operations, timing each call; check them unless problems is None."""
    done = []
    for op in workload.ops(r):
        tally.attempted += 1
        start = time.perf_counter()
        try:
            output = workload.call(op)
        except errors.CurvopError as exc:
            tally.failed += 1
            print(f"operation failed: n={op.n}: {exc!r}", file=sys.stderr)
            continue
        tally.add(op.n, time.perf_counter() - start, workload.tensors(op, output))
        done.append((op, output))
    tally.clock.settle()
    if problems is not None:
        for op, output in done:
            problems += workload.check(op, output, deep=(r == 0))
    return done


def measure(workload, seconds: float, errors, problems: list) -> Tally:
    """Whole rounds until another round would pass ``seconds`` of call time."""
    tally = Tally()
    r, last, last_round = 0, 0.0, None
    while r == 0 or tally.busy + last <= seconds:
        before = tally.busy
        last_round = (r, run_round(workload, r, tally, errors, problems))
        last = tally.busy - before
        r += 1
    final, done = last_round
    if final > 0:
        for op, output in done:
            problems += workload.check(op, output, deep=True)
    return tally


def setup_seconds(args) -> float:
    """Median time from process start to the first timed call, over fresh processes.

    Each time is scaled to the reference machine's speed by the kernel
    timed just before and after the child process.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        before = kernel_seconds()
        start = time.monotonic()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        raw = float(child.stdout.split()[-1]) - start
        times.append(raw * REFERENCE_S / ((before + kernel_seconds()) / 2.0))
    return statistics.median(times)


def end_to_end(tally: Tally, setup_s: float) -> dict:
    metrics = {"setup_s": (setup_s, "s"),
               "tensors_per_s": (sum(tally.tensors.values()) / tally.total_seconds, "1/s")}
    for n in DIMS:
        metrics[f"tensors_per_s.n{n}"] = (tally.tensors[n] / tally.seconds[n], "1/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(tracer: Tracer, tally: Tally, overhead_s: float) -> dict:
    metrics = {}
    times = tracer.layer_times()
    for layer in LAYERS:
        calls, self_s, _ = times[layer]
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
    tensors = sum(tally.tensors.values())
    metrics["secondkind.eigen_sym.per_tensor"] = (
        times["secondkind.eigen_sym"][0] / tensors if tensors else 0.0, "solves/tensor")
    counts = tracer.counts
    starts, iterations = counts["conditions.descent.starts"], counts["conditions.descent.iterations"]
    descent_s = times["conditions.min_isotropic_batch"][2]
    metrics["conditions.descent.starts"] = (starts, "count")
    metrics["conditions.descent.iterations"] = (iterations, "count")
    metrics["conditions.descent.iterations_per_start"] = (
        iterations / starts if starts else 0.0, "iter/start")
    metrics["conditions.descent.capped_tensors"] = (counts["conditions.descent.capped_tensors"], "count")
    metrics["conditions.descent.iterations_per_s"] = (
        iterations / descent_s if descent_s else 0.0, "iter/s")
    metrics["harness.shifts_applied"] = (counts["harness.shifts_applied"], "count")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def traced_run(workload, api: dict, rounds: int, errors, problems: list):
    """A warm-up round, then the same rounds untraced (checked) and traced.

    Returns (tracer, traced tally, traced minus untraced call time, calls
    attempted and failed in all passes).
    """
    # The first calls in a process run slower (allocator and page-fault
    # warm-up); untimed, they would otherwise read as negative overhead.
    warm, plain, traced = Tally(), Tally(), Tally()
    run_round(workload, 0, warm, errors, None)
    for r in range(rounds):
        run_round(workload, r, plain, errors, problems)
    tracer = Tracer(api)
    tracer.install()
    try:
        for r in range(rounds):
            run_round(workload, r, traced, errors, None)
    finally:
        tracer.uninstall()
    passes = (warm, plain, traced)
    return (tracer, traced, traced.total_seconds - plain.total_seconds,
            sum(t.attempted for t in passes), sum(t.failed for t in passes))


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1))
    tmp.replace(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the first round's inputs, print the time, exit")
    args = parser.parse_args(argv)

    api = load_curvop()
    make, nominal_round_s = WORKLOADS[args.workload]
    workload = make(api, args.seed)
    if args.setup_only:
        workload.ops(0)
        print(time.monotonic())
        return 0

    machine = machine_record()
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()), flush=True)
    problems: list[str] = []
    errors = api["errors"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        rounds = max(1, round(args.seconds / (2.0 * nominal_round_s)))
        tracer, tally, overhead, attempted, failed = traced_run(workload, api, rounds, errors, problems)
        metrics = per_layer(tracer, tally, overhead)
        write_json(RESULTS / f"{tag}.spans.json", tracer.to_records())
    else:
        setup_s = setup_seconds(args)
        tally = measure(workload, args.seconds, errors, problems)
        attempted, failed = tally.attempted, tally.failed
        metrics = end_to_end(tally, setup_s)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    write_json(RESULTS / f"{tag}.json", {"machine": machine, "tensors": tally.tensors,
                                         "raw_seconds": tally.raw, "reference_seconds": tally.seconds,
                                         **result})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
