"""tools/bench_record.py: pairing, medians, quartiles and wins."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_record  # noqa: E402


def _write_runs(checkout: Path, workload: str, ops: dict[int, float], trace=0):
    results = checkout / "perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    for seed, rate in ops.items():
        run = {"correct": True, "attempted": 100, "failed": 0, "workload": workload,
               "seed": seed, "seconds": 35.0, "machine": {"nproc": 2},
               "metrics": {"ops_per_s": {"value": rate, "unit": "1/s"},
                           "op_ms_p50": {"value": 1e3 / rate, "unit": "ms"}}}
        (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(
            json.dumps(run))


def test_record_pairs_runs_by_seed(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write_runs(parent, "comb", {1: 8.0, 2: 9.0, 3: 10.0, 4: 11.0, 5: 30.0})
    _write_runs(change, "comb", {1: 12.0, 2: 13.0, 3: 9.5, 4: 14.0, 6: 1.0})
    _write_runs(parent, "comb", {1: 8.0}, trace=1)
    _write_runs(change, "comb", {1: 12.0}, trace=1)
    out = tmp_path / "BENCH.json"
    assert bench_record.main([str(parent), str(change), str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["unpaired"] == ["parent comb seed 5 trace 0",
                               "change comb seed 6 trace 0"]
    comb = rec["workloads"]["comb"]
    assert comb["seeds"] == [1, 2, 3, 4]
    assert comb["correct"] == {"parent": True, "change": True}
    ops = comb["metrics"]["ops_per_s"]
    assert ops["parent"]["median"] == 9.5 and ops["change"]["median"] == 12.5
    assert ops["parent"]["q1"] < 9.5 < ops["parent"]["q3"]
    assert ops["change_wins"] == 3 and ops["pairs"] == 4
    assert ops["beyond_parent_spread"] is True
    # lower is better for latency: the change wins the same three pairs
    assert comb["metrics"]["op_ms_p50"]["change_wins"] == 3
    assert rec["workloads"]["comb:traced"]["seeds"] == [1]


def test_no_common_run_is_an_error(tmp_path):
    _write_runs(tmp_path / "parent", "comb", {1: 8.0})
    _write_runs(tmp_path / "change", "comb", {2: 8.0})
    assert bench_record.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                              str(tmp_path / "out.json")]) == 1
