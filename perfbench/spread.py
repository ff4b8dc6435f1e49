"""Run the benchmark over several seeds and report each metric's spread.

From the repository root:

    python3 perfbench/spread.py --workloads sweep-tau --seeds 1 2 3 4 5

Runs `run.py` untraced once per (workload, seed), one run at a time, for
`run_seconds` from BENCHMARK.json.  For every end-to-end metric it prints the
median of the runs and the spread, the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, next to the
metric's bound.  The raw results go to
perfbench/out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    (HERE / "out").mkdir(exist_ok=True)
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result = run_once(workload, seed, bench["run_seconds"])
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        (HERE / "out" / f"spread-{workload}.json").write_text(json.dumps(results, indent=1))
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds[name]
            flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {name:<28} median {median:<14.6g} spread {spread:8.4f}  bound {bound:g}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
