"""Benchmark mistrustq end to end (and per module with --trace 1).

    python3 perfbench/run.py --workload {ensemble,commit,toss} --seed N \
        --seconds S --trace {0,1}

Run from a checkout that holds the package source under src/.  The
workload's inputs come from --seed.  The runner imports the package and
builds the inputs several times (setup_s is the median), then runs whole
rounds of the workload's fixed operations for about --seconds seconds and
checks every output outside the timer.  With --trace 0 nothing is wrapped
and the last line of stdout is a JSON object with setup_s, run_s and
peak_rss_mb.  With --trace 1 the first half of the time runs untraced and
the second half traced, and the JSON reports the per-layer metrics of the
traced rounds plus trace.overhead_s.  Each run also writes
perfbench/results/<workload>-seed<N>-trace<T>.json (and the spans, for a
traced run).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
MODULES = ("qmath", "bitwise", "codebook", "cointoss", "harness", "cli")
SETUP_REPS = 9
MAX_FAILURE_NOTES = 20


def import_package():
    """Import mistrustq afresh from the checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "mistrustq" or m.startswith("mistrustq.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"mistrustq.{name}") for name in MODULES}
    return SimpleNamespace(**mods)


class Runner:
    """Runs rounds of operations, checks them and keeps the tallies."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}
        self.rerun_mismatch: list[str] = []

    def _timed(self, traced: bool):
        """Run every operation once; only the loop itself is timed."""
        outputs = []
        root = self.tracer.root if traced else None
        if traced:
            self.tracer.recording = True
        t0 = time.perf_counter()
        for op in self.ops:
            try:
                if root is None:
                    outputs.append(op.call())
                else:
                    with root(op.label):
                        outputs.append(op.call())
            except Exception as exc:  # a failed operation is counted, not fatal
                outputs.append(exc)
        elapsed = time.perf_counter() - t0
        if traced:
            self.tracer.recording = False
        return elapsed, outputs

    def round(self, traced: bool) -> float:
        elapsed, outputs = self._timed(traced)
        for i, (op, out) in enumerate(zip(self.ops, outputs)):
            self.attempted += 1
            try:
                if isinstance(out, Exception):
                    raise out
                op.check(out)
            except Exception as exc:
                self.failed += 1
                if len(self.failures) < MAX_FAILURE_NOTES:
                    self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            if op.deterministic:
                first = self.digests.setdefault(i, out.digest)
                if first != out.digest:
                    self.rerun_mismatch.append(op.label)
        return elapsed

    def rounds(self, budget: float, traced: bool = False) -> list[float]:
        """Whole rounds, at least one, stopping before the budget would be
        exceeded by another round as long as the last one."""
        times = []
        start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            gc.collect()  # every round starts from the same heap
            times.append(self.round(traced))
            last = time.perf_counter() - r0
            if time.perf_counter() - start + last > budget:
                return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("ensemble", "commit", "toss"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mistrustq" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'mistrustq'}", file=sys.stderr)
        return 2
    # One thread per process: the workloads' matrices are small and a shared
    # machine gives steadier figures without BLAS worker threads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np  # imported before setup so setup_s times the package alone

    import tracing
    import workloads

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = RESULTS / f"scratch-{tag}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            shutil.rmtree(scratch, ignore_errors=True)
            gc.collect()  # the previous import's modules are garbage now
            t0 = time.perf_counter()
            pkg = import_package()
            ops = workloads.WORKLOADS[args.workload](pkg, args.seed, scratch)
            setup_times.append(time.perf_counter() - t0)
        pkg_file = Path(pkg.qmath.__file__).resolve()
        if SRC.resolve() not in pkg_file.parents:
            print(f"error: imported mistrustq from {pkg_file}, not {SRC}", file=sys.stderr)
            return 2

        if args.trace:
            tracer = tracing.Tracer()
            runner = Runner(ops, tracer)
            half = args.seconds / 2
            plain = runner.rounds(half)
            tracer.install(vars(pkg))
            try:
                traced = runner.rounds(half, traced=True)
            finally:
                tracer.uninstall()
            layers = tracing.layer_metrics(tracer.spans, len(traced))
            layers["trace.overhead_s"] = (
                statistics.median(traced) - statistics.median(plain), "s")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            tracer.write(RESULTS / f"{tag}.spans.jsonl")
            round_times = {"untraced": plain, "traced": traced}
        else:
            runner = Runner(ops)
            times = runner.rounds(args.seconds)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "run_s": {"value": statistics.median(times), "unit": "s"},
                "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            }
            round_times = {"untraced": times}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = {
        "correct": not runner.rerun_mismatch,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        operations_per_round=len(ops),
        setup_times=setup_times,
        round_times=round_times,
        failures=runner.failures,
        rerun_mismatch=runner.rerun_mismatch,
        unwrapped=tracer.missing if args.trace else [],
        versions={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "mistrustq": sys.modules["mistrustq"].__version__,
        },
        machine={"platform": platform.platform(), "cpus": os.cpu_count()},
    )
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for note in runner.failures:
        print("failed:", note, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
