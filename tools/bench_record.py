"""Write the paired benchmark record of a change against its parent.

    python3 tools/bench_record.py PARENT_CHECKOUT CHANGE_CHECKOUT BENCH_<n>.json

Reads ``perfbench/results/*.json`` of both checkouts, written there by
``perfbench/run.py``, and pairs the runs of one workload, seed and trace flag
found on both sides.  For each workload (traced runs under
``<workload>:traced``) the record holds the seeds, each side's correctness
and failed share, and per metric the unit, the better direction from
``BENCHMARK.json``, each side's median and quartiles (Python's
statistics.quantiles, n=4, as ``perfbench/steadiness.py`` uses), the number
of pairs the change won (ties count for neither) and whether the median
moved by more than the parent's quartile spread.  Runs found on one side
only are listed and left out of every figure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(checkout: Path) -> dict[tuple[str, int, int], dict]:
    """Result files of one checkout, keyed by (workload, seed, trace)."""
    runs = {}
    for path in sorted((checkout / "perfbench" / "results").glob("*.json")):
        run = json.loads(path.read_text())
        trace = int(path.stem.rsplit("-trace", 1)[1])
        runs[(run["workload"], int(run["seed"]), trace)] = run
    return runs


def summary(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def record(parent: dict, change: dict, better: dict[str, str]) -> dict:
    """The paired record of two sets of runs keyed as in load_runs."""
    paired = sorted(set(parent) & set(change))
    groups: dict[str, list[tuple[str, int, int]]] = {}
    for key in paired:
        workload, _, trace = key
        groups.setdefault(workload + (":traced" if trace else ""), []).append(key)

    out = {"unpaired": [f"{side} {w} seed {s} trace {t}"
                        for side, mine, other in (("parent", parent, change),
                                                  ("change", change, parent))
                        for w, s, t in sorted(set(mine) - set(other))],
           "workloads": {}}
    for name, keys in sorted(groups.items()):
        p_runs = [parent[k] for k in keys]
        c_runs = [change[k] for k in keys]
        entry = {
            "seeds": [seed for _, seed, _ in keys],
            "correct": {"parent": all(r["correct"] for r in p_runs),
                        "change": all(r["correct"] for r in c_runs)},
            "failed_share": {
                side: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                for side, runs in (("parent", p_runs), ("change", c_runs))},
            "metrics": {},
        }
        for metric in p_runs[0]["metrics"]:
            if not all(metric in r["metrics"] for r in p_runs + c_runs):
                continue
            pv = [r["metrics"][metric]["value"] for r in p_runs]
            cv = [r["metrics"][metric]["value"] for r in c_runs]
            m = {"unit": p_runs[0]["metrics"][metric]["unit"]}
            if len(keys) >= 2:
                m["parent"], m["change"] = summary(pv), summary(cv)
            else:
                m["parent"], m["change"] = {"median": pv[0]}, {"median": cv[0]}
            direction = better.get(metric)
            if direction is not None:
                sign = 1.0 if direction == "higher" else -1.0
                m["better"] = direction
                m["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(pv, cv))
                m["pairs"] = len(keys)
                if len(keys) >= 2:
                    m["beyond_parent_spread"] = (
                        abs(m["change"]["median"] - m["parent"]["median"])
                        > m["parent"]["q3"] - m["parent"]["q1"])
            entry["metrics"][metric] = m
        out["workloads"][name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("out", type=Path, help="record to write, BENCH_<n>.json")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load_runs(args.parent), load_runs(args.change)
    if not set(parent) & set(change):
        print("no run is found in both checkouts", file=sys.stderr)
        return 1
    rec = record(parent, change, better)
    first = next(iter(change.values()))
    rec = {"run_seconds": first["seconds"], "machine": first["machine"], **rec}
    args.out.write_text(json.dumps(rec, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
