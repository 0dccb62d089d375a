"""Benchmark of sinecomb: run one workload and print its metrics.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 35 --trace 0

One process, one caller, closed loop: each operation starts when the
previous one returns.  A run repeats whole rounds of the workload's
operations for about --seconds (at least the workload's minimum number of
rounds) and checks every answer outside the timed region.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
a traced run with --trace 1.  The full result, with the versions and the
machine it ran on, is written under perfbench/results/.
"""

from __future__ import annotations

import os

# pin the BLAS and OpenMP pools before numpy loads, here and in the probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
#: fresh interpreters started per run to time the set-up
SETUP_PROBES = 5
WORKLOAD_NAMES = ("roundtrip", "comb", "spectral")


def _import_program() -> float:
    """Put the checkout's src/ and this directory on the path; import
    sinecomb and return the seconds the import took."""
    if not (ROOT / "src" / "sinecomb" / "__init__.py").is_file():
        sys.exit(f"run.py: no sinecomb package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    t0 = time.perf_counter()
    import sinecomb  # noqa: F401
    return time.perf_counter() - t0


def probe(workload: str, seed: int) -> None:
    """Set-up path of a run in a fresh interpreter: import, build the inputs,
    warm up; print the import time and the moment it was ready."""
    import_s = _import_program()
    import workloads
    workloads.WORKLOADS[workload](seed).warmup()
    print(json.dumps({"import_s": import_s, "ready": time.perf_counter()}))


def run_probe(workload: str, seed: int) -> tuple[float, float]:
    """(set-up seconds from spawn to ready, import seconds) of one probe."""
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    line = json.loads(out.stdout.strip().splitlines()[-1])
    return line["ready"] - t0, line["import_s"]


def machine() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


def tail_percentile(n_min: int) -> int:
    """Highest whole percentile with at least ten operations beyond it in a
    run of ``n_min`` operations."""
    return math.floor(100.0 * (n_min - 10) / n_min)


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


@dataclass
class Measured:
    """What the timed phase of a run saw, in operation order."""
    latencies: list[float] = field(default_factory=list)
    op_names: list[str] = field(default_factory=list)
    op_windows: dict[int, float] = field(default_factory=dict)
    round_s: list[float] = field(default_factory=list)
    probes: list[tuple[float, float]] = field(default_factory=list)
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    faults: dict[str, int] = field(default_factory=dict)
    timed: float = 0.0


def measure(work, seconds: float, tracer=None, probe=None) -> Measured:
    """Run whole rounds of ``work`` for about ``seconds`` of operation time.

    An exception that is not the operation's known fault, and an answer its
    check rejects, are both wrong answers.  ``probe()`` times one set-up; it
    is called SETUP_PROBES times, spread over the timed phase."""
    import checks

    m = Measured()
    n_probes = SETUP_PROBES if probe else 0
    while True:
        round_start = m.timed
        for op in work.ops:
            # set-up probes are spread over the timed phase, between operations
            if len(m.probes) < n_probes \
                    and m.timed >= len(m.probes) * seconds / n_probes:
                m.probes.append(probe())
            op_id = len(m.latencies)
            m.op_names.append(f"{op.name}({op.case.label})")
            if op.window is not None:
                m.op_windows[op_id] = op.window
            if tracer:
                tracer.begin_op(op_id)
            t0 = time.perf_counter()
            try:
                out = op.run()
                exc = None
            except Exception as err:  # an operation that fails counts as failed
                exc = err
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_op()
            m.timed += dt
            if exc is not None:
                m.failed += 1
                m.latencies.append(math.inf)
                key = f"{op.name}({op.case.label}): {type(exc).__name__}: {exc}"
                if not (op.known_fault and op.known_fault(exc)):
                    if key not in m.faults:
                        traceback.print_exception(exc, file=sys.stderr)
                    m.wrong.append(f"{op.name}: unexpected {key}")
                m.faults[key] = m.faults.get(key, 0) + 1
                continue
            m.latencies.append(dt)
            try:
                op.check(out)
            except checks.CheckError as err:
                m.wrong.append(f"{op.name}: {err}")
        m.round_s.append(m.timed - round_start)
        if len(m.round_s) >= work.min_rounds and m.timed + m.round_s[-1] > seconds:
            break
    while len(m.probes) < n_probes:
        m.probes.append(probe())
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.workload, args.seed)
        return 0

    _import_program()
    import spans as tracing
    import workloads

    work = workloads.WORKLOADS[args.workload](args.seed)
    work.warmup()
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    m = measure(work, args.seconds, tracer,
                lambda: run_probe(args.workload, args.seed))
    if tracer:
        tracer.uninstall()
    for msg in m.wrong[:10]:
        print("WRONG", msg, file=sys.stderr)
    attempted = len(m.latencies)
    pct = tail_percentile(work.min_rounds * len(work.ops))
    if args.trace:
        metrics = tracing.layer_metrics(tracer, len(m.round_s), m.op_windows,
                                        workloads.COMB_WINDOWS)
        metrics["setup.import_s"] = (statistics.median(p[1] for p in m.probes), "s")
    else:
        metrics = {
            "setup_s": (statistics.median(p[0] for p in m.probes), "s"),
            "ops_per_s": ((attempted - m.failed) / m.timed, "1/s"),
            "op_ms_p50": (1e3 * statistics.median(m.latencies), "ms"),
            "op_ms_tail": (1e3 * nearest_rank(m.latencies, pct), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    result = {"correct": not m.wrong, "attempted": attempted, "failed": m.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, rounds=len(m.round_s), round_s=m.round_s,
                  timed_s=m.timed, tail_percentile=pct,
                  setup_probes_s=[p[0] for p in m.probes],
                  import_probes_s=[p[1] for p in m.probes],
                  faults=m.faults, wrong=m.wrong[:50], machine=machine(),
                  op_ms=[[name, 1e3 * t if math.isfinite(t) else None]
                         for name, t in zip(m.op_names, m.latencies)])
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        tracer.save(RESULTS / f"{stem}.spans.npz")
    print(json.dumps(detail["machine"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
