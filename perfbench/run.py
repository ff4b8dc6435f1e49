"""Run one cohphase benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload verify-desk --seed 1 --seconds 25 --trace 0

Workloads: verify-desk, sweep-tau, oracle-large-rho (see README.md).  The ops
run in this process with BLAS/OpenMP pinned to one thread, in a closed loop
(the next op starts when the previous one and its check are done).  The loop
cycles through the workload's fixed number of seeded inputs until the ops' own
wall time reaches --seconds and every input has run at least once.  Each op's
output is checked outside its timing.  `attempted` counts the distinct inputs
and `failed` those whose op failed, so both depend on the seed only, not on
how many ops fit in --seconds; an input whose verdict changes from one of its
runs to the next marks the run incorrect.  With --trace 0 the end-to-end
metrics are printed, with times scaled to a reference machine speed
(calibration.py); with --trace 1 the public functions of each package layer
are timed and the per-layer metrics, in wall time, are printed instead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Thread pools pinned before numpy loads: the oracle's dot products call
#: OpenBLAS, which would otherwise start a thread per core.
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-up interpreters per run, each paired with a reference interpreter
#: (calibration.IMPORT_TASK); and interpreters for the import split.
SETUP_RUNS = 11
IMPORTTIME_RUNS = 3

#: Ops on each side whose reference task times set an op's speed factor.
SPEED_RADIUS = 2

READY = "import cohphase.cli; cohphase.cli.build_parser(); import time; print(time.perf_counter())"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn_seconds(code: str) -> float:
    """Wall time from spawning a fresh interpreter to the end of `code`, which
    prints time.perf_counter() last."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
        check=True, timeout=120,
    )
    return float(done.stdout) - start


def setup_seconds(calibration) -> tuple[float, float]:
    """Wall time from a fresh interpreter to a built CLI parser, and that of
    the reference interpreter spawned right after it."""
    return spawn_seconds(READY), spawn_seconds(calibration.IMPORT_TASK)


def import_seconds() -> dict[str, float]:
    """Self time of numpy's, scipy's and cohphase's modules on `import cohphase.cli`."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import cohphase.cli"], env=child_env(),
        capture_output=True, text=True, check=True, timeout=120,
    )
    totals = {"numpy": 0.0, "scipy": 0.0, "cohphase": 0.0}
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        package = name.strip().split(".")[0]
        if package in totals:
            totals[package] += int(self_us) / 1e6
    return totals


def thread_count() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


class Loop:
    """Closed-loop runner: timings and failures of one measured loop."""

    def __init__(self, workload, tracer=None, calibration=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.calibration = calibration
        self.latencies: list[float] = []
        #: Reference task times just before and after each op.
        self.tasks: list[tuple[float, float]] = []
        #: (traced latency, untraced latency) of the ops also run untraced,
        #: right after their traced run or, for every other one, right before.
        self.reruns: list[tuple[float, float]] = []
        #: Failed ops by kind, and each input's verdict (None when correct).
        self.failures: dict[str, int] = {}
        self.verdicts: dict[int, str | None] = {}
        self.attempted = 0
        self.wrong: list[str] = []
        self.n_max: list[int] = []

    def timed_run(self, job, tracer=None):
        """Latency of one op, with its result or the name of the exception it raised."""
        if tracer:
            tracer.install()
        try:
            start = time.perf_counter()
            try:
                result, failure = self.workload.run(job), None
            except Exception as exc:  # every escaping exception is a failed op
                result, failure = None, type(exc).__name__
            latency = time.perf_counter() - start
        finally:
            if tracer:
                tracer.uninstall()
        return latency, result, failure

    def step(self, k: int) -> None:
        """Run, time and check input k."""
        job = self.workload.prepare(k)
        rerun = self.tracer and sum(u for _, u in self.reruns) <= sum(self.latencies) / 4
        first = rerun and len(self.reruns) % 2 == 1
        if first:
            untraced = self.timed_run(job)[0]
        if self.calibration:
            before = self.calibration.reference_task()
        latency, result, failure = self.timed_run(job, self.tracer)
        self.latencies.append(latency)
        if self.calibration:
            self.tasks.append((before, self.calibration.reference_task()))
        if failure is None:
            self.n_max.extend(getattr(result, "n_max", ()))
            failure = self.verdict(job, result)
        if self.verdicts.setdefault(k, failure) != failure:
            self.wrong.append(f"input {k}: {failure or 'correct'} after {self.verdicts[k] or 'correct'}")
        if failure is not None:
            self.failures[failure] = self.failures.get(failure, 0) + 1
            if failure not in self.workload.known_defects:
                self.wrong.append(f"input {k}: {failure}")
        if rerun and not first:
            untraced = self.timed_run(job)[0]
        if rerun:
            self.reruns.append((latency, untraced))

    def verdict(self, job, result) -> str | None:
        """None for a correct output, else why the op failed.  A workload's
        known defect passes through as is; a check that raises fails the op."""
        try:
            reason = self.workload.check(job, result)
        except Exception as exc:
            return f"check raised {type(exc).__name__}"
        if reason is None or reason in self.workload.known_defects:
            return reason
        return "wrong output: " + reason

    def measure(self, seconds: float) -> None:
        inputs = self.workload.inputs
        ops = 0
        while ops < inputs or sum(self.latencies) < seconds:
            self.step(ops % inputs)
            ops += 1
        self.attempted = min(ops, inputs)

    @property
    def failed_inputs(self) -> dict[int, str]:
        return {k: failure for k, failure in sorted(self.verdicts.items()) if failure is not None}

    @property
    def failed(self) -> int:
        return len(self.failed_inputs)


def min_median_max(values: list[float]) -> dict[str, float]:
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


def timings(latencies: list[float], setup: list[float], tail_pct: float) -> dict[str, tuple[float, str]]:
    import numpy as np

    lat = np.array(latencies)
    return {
        "ops_per_s": (len(lat) / float(lat.sum()), "1/s"),
        "op_p50_ms": (1e3 * float(np.median(lat)), "ms"),
        "op_tail_ms": (1e3 * float(np.percentile(lat, tail_pct)), "ms"),
        "setup_s": (statistics.median(setup), "s"),
    }


def end_to_end(loop: Loop, setup: list[tuple[float, float]], tail_pct: float,
               factors: list[float]) -> dict[str, tuple[float, str]]:
    metrics = timings(
        [latency * factor for latency, factor in zip(loop.latencies, factors)],
        [ready / reference * loop.calibration.REFERENCE_IMPORT_S for ready, reference in setup],
        tail_pct,
    )
    metrics.update({
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_frac": (loop.failed / loop.attempted, "frac"),
        "ok_frac": (1.0 - loop.failed / loop.attempted, "frac"),
    })
    return metrics


def per_layer(loop: Loop, imports: list[dict]) -> dict[str, tuple[float, str]]:
    ops = len(loop.latencies)
    units = {"calls": "calls/op", "cells": "cells/op", "bytes_computed": "B/op", "rows": "rows/op",
             "undefined": "raises/op", "overflow": "raises/op", "us_per_call": "us", "spans": "spans/op"}
    metrics = {
        name: (value, units.get(name.rsplit(".", 1)[1], "s/op"))
        for name, value in loop.tracer.summary(ops).items()
    }
    traced, untraced = (sum(column) for column in zip(*loop.reruns))
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")
    for package in ("numpy", "scipy", "cohphase"):
        metrics[f"setup.import_{package}_s"] = (statistics.median(t[package] for t in imports), "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cohphase" / "__init__.py").is_file():
        print(f"error: no cohphase sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    for var in PINNED:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import calibration
    import cohphase
    import workloads
    from workloads import WORKLOADS

    if Path(cohphase.__file__).resolve().parent != SRC / "cohphase":
        print(f"error: imported cohphase from {cohphase.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            imports = [import_seconds() for _ in range(IMPORTTIME_RUNS)]
        else:
            setup = [setup_seconds(calibration) for _ in range(SETUP_RUNS)]
        warm_up = Loop(workload)
        warm_up.step(-1)  # not measured, but checked

        if args.trace:
            from tracing import Tracer

            loop = Loop(workload, Tracer(callers=(workloads,)))
            loop.measure(args.seconds)
            metrics = per_layer(loop, imports)
            n_max = loop.tracer.n_max
            spans_file = OUT / f"spans-{workload.name}-seed{args.seed}.npz"
            loop.tracer.save(str(spans_file))
        else:
            loop = Loop(workload, calibration=calibration)
            loop.measure(args.seconds)
            factors = calibration.speed_factors(loop.tasks, SPEED_RADIUS)
            metrics = end_to_end(loop, setup, workload.tail_pct, factors)
            n_max = loop.n_max

    ops = len(loop.latencies)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
        "distinct_inputs": loop.attempted,
        "failed_inputs": loop.failed_inputs,
        "inputs": workload.describe(),
        "failures": loop.failures,
        "wrong": (warm_up.wrong + loop.wrong)[:10],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_pinning": {var: os.environ[var] for var in PINNED},
        "threads": thread_count(),
    }
    if n_max:
        record["n_max"] = min_median_max(n_max)
    if not args.trace:
        beyond = ops * (1.0 - workload.tail_pct / 100.0)
        record["op_tail"] = f"p{workload.tail_pct:g} of {ops} ops, {beyond:.1f} beyond it"
        wall = timings(loop.latencies, [ready for ready, _ in setup], workload.tail_pct)
        record["wall"] = {name: value for name, (value, _) in wall.items()}
        record["wall"]["setup_reference_s"] = statistics.median(reference for _, reference in setup)
        record["speed_factor"] = min_median_max(factors)
    else:
        record["spans_file"] = str(spans_file.relative_to(ROOT))
        record["reruns"] = len(loop.reruns)
    record.update(workload.stats())

    for name, (value, unit) in metrics.items():
        print(f"{name:<28}{value:>16.6g} {unit}")
    print("record " + json.dumps(record, sort_keys=True))
    reported = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
        if name != "fail_frac"
    }
    print(json.dumps({
        "correct": not (warm_up.wrong or loop.wrong),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
