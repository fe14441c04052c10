"""The benchmark's own output checks, run on its smoke-size decks.

Each deck also runs traced, which installs a wrapper around every function
``perfbench/spans.py`` names: a traced function that is renamed or deleted
fails the traced run only.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", ["0", "1"], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", ["sweep", "search", "simulate", "analyze"])
def test_perfbench_smoke_has_no_failures(workload, trace):
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--size", "smoke",
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, res.stderr
