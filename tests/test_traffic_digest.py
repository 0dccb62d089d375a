"""tools/traffic_digest.py: one digest line per workload seed and corpus."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_digest_of_one_seed():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "traffic_digest.py"), str(ROOT),
         "--seeds", "1", "--workloads", "spectral"],
        capture_output=True, text=True, timeout=300, check=True).stdout
    lines = out.splitlines()
    names = [line.split(":")[0] for line in lines]
    assert names == ["spectral seed 1", "sweep seed-60601", "sweep seed-424242",
                     "sweep generic", "sweep lee-yang", "sweep symmetric"]
    counts = [int(re.fullmatch(r".*: (\d+) outputs [0-9a-f]{64}", line)[1])
              for line in lines]
    assert counts[0] > 0 and counts[1:] == [50, 50, 33, 3, 2]


def test_missing_checkout_is_refused(tmp_path):
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "traffic_digest.py"), str(tmp_path),
         "--seeds", "1"], capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and "no sinecomb package" in run.stderr
