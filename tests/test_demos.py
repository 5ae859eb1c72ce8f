"""Every script under demos/ runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# One line each demo prints: the table1 row and the trajectory export go
# through semiclassics.cli.
DEMOS = [
    ("complex_trajectory.py", "wrote 2901 samples to complex_trajectory.csv"),
    ("crossing_vs_lifetime.py", "  0.17888       50.4     10.23      4.9       49       10"),
    ("potential_landscape.py", "barrier top at x = 1/(3g) = 1.8634, height 1/(54 g^2) = 0.5787"),
    ("resonance_poles.py", "  0   1     1.500000    -0.039789"),
    ("time_reversal.py", "cubic well, real bound energy (g = 0.1, E = 0.3), T = 50:"),
]


@pytest.mark.parametrize("script, line", DEMOS, ids=[script for script, _ in DEMOS])
def test_demo_runs(tmp_path, script, line):
    # complex_trajectory.py writes its CSV into the working directory
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert line in result.stdout
