"""Smoke test of the benchmark: one traced operation per workload, every
check on.  Kept out of the repository's own test suite; run it with

    python3 -m pytest perfbench/check_smoke.py
    python3 perfbench/check_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["certify-closed", "rootfound", "split-trace", "cli-readme"]


def test_smoke():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "7"],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert [r["workload"] for r in results] == WORKLOADS
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    for r in results:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] == 2, r
        assert set(r["metrics"]) == names, r["workload"]
    assert proc.returncode == 0


if __name__ == "__main__":
    test_smoke()
    print("smoke ok")
