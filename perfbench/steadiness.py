"""Steadiness report: run one workload several times and show the spread.

    python3 perfbench/steadiness.py --workload comb --runs 10 --first-seed 1
    python3 perfbench/steadiness.py --workload comb --runs 10 --sets 2

Each run is a fresh ``run.py`` process with its own seed (first-seed,
first-seed+1, ...); a second set reuses the same seeds.  For every end-to-end
metric and every set the report prints the median, the quartiles (Python's
statistics.quantiles, n=4), the spread (q3 - q1) / median and the metric's
bound from BENCHMARK.json; for the second set also the drift
|median2 - median1| / median1.  It flags every spread and drift above the
bound.  The share of failed operations must be the same in every run.
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


def one_run(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"run with seed {seed} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = []
    for k in range(args.sets):
        runs = []
        for i in range(args.runs):
            res = one_run(args.workload, args.first_seed + i, bench["run_seconds"])
            runs.append(res)
            print(f"set {k + 1} seed {args.first_seed + i}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{n}={m['value']:.6g}"
                             for n, m in res["metrics"].items()), flush=True)
        sets.append(runs)

    flagged = False
    shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
    if len(shares) > 1:
        flagged = True
        print(f"FLAG failed share differs between runs: {sorted(shares)}")
    if not all(r["correct"] for runs in sets for r in runs):
        flagged = True
        print("FLAG a run reported correct=false")
    print(f"\n{'metric':20s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s} {'drift':>7s}")
    for spec in bench["end_to_end"]:
        name = spec["name"]
        bound = spec["bound"]
        for k, runs in enumerate(sets, 1):
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            if k == 1:
                first = med
            spread = (q3 - q1) / med if med else 0.0
            drift = abs(med - first) / first if first else 0.0
            line = (f"{name:20s} {k:3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                    f"{spread:7.3f} {bound:6} " + (f"{drift:7.3f}" if k > 1 else " " * 7))
            if spread > bound or drift > bound:
                flagged = True
                line += "  FLAG"
            print(line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
