"""The benchmark's own output checks, run on its smoke-size decks."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_sweep_smoke_has_no_failures():
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--size", "smoke",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, res.stderr


def test_perfbench_search_smoke_has_no_failures():
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--size", "smoke",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, res.stderr
