"""Spread of a fixed kernel over time, to judge the benchmark's bounds.

    python3 perfbench/kernel_spread.py --seconds 60

Repeats one fixed call, find_zeros of sin(pi z) on Rect(-10.3, 10.3, -1, 1),
for the given time and prints the quantiles of its latency and the median
of every 5-second slice.  The program's work does not change from call to
call, so the spread is the machine's.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import sinecomb as sc  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args(argv)
    p = sc.expand_sine_product(sc.SineProduct.from_factors(1.0, 0.0, [(math.pi, 0.0, 1)]))
    rect = sc.Rect(-10.3, 10.3, -1.0, 1.0)
    samples: list[tuple[float, float]] = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        sc.find_zeros(p, rect)
        samples.append((t0 - start, time.perf_counter() - t0))
    ms = [1e3 * dt for _, dt in samples]
    q = statistics.quantiles(ms, n=20)
    print(f"{len(ms)} calls: min {min(ms):.1f}  p5 {q[0]:.1f}  median "
          f"{statistics.median(ms):.1f}  p95 {q[-1]:.1f}  max {max(ms):.1f} ms")
    slices: dict[int, list[float]] = {}
    for t, dt in samples:
        slices.setdefault(int(t // 5), []).append(1e3 * dt)
    print("5 s slice medians (ms):",
          " ".join(f"{statistics.median(v):.1f}" for _, v in sorted(slices.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
