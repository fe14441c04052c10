"""The demos print what they printed when their output was recorded.

Demos 01-04 take about two seconds together. Demo 05 (about 9 s) is
left out; the sync tests cover its simulations.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", [
    "01_double_star_exact",
    "02_bounds_tour",
    "03_dolphin_strategies",
    "04_crossover_sweep",
])
def test_demo_stdout_matches_recorded_bytes(name):
    # recorded on two BLAS threads, like the CLI's recorded outputs
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    res = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], capture_output=True,
                         timeout=120, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == (DATA / f"demo_{name}.txt").read_bytes()
