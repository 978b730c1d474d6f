"""Every demo script runs to completion; the region-map demo reproduces its tracked CSV."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    """Run each demo in a temporary copy of demos/, so the tracked outputs stay untouched."""
    work = tmp_path_factory.mktemp("demos")
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    runs = {}
    for script in DEMOS:
        shutil.copy(script, work)
        runs[script.stem] = subprocess.run(
            [sys.executable, script.name], cwd=work, env=env,
            capture_output=True, text=True, timeout=300)
    return work, runs


@pytest.mark.parametrize("name", [script.stem for script in DEMOS])
def test_demo_exits_cleanly(demo_runs, name):
    run = demo_runs[1][name]
    assert run.returncode == 0, run.stderr


def test_region_map_csv_unchanged(demo_runs):
    """Byte-identical to the tracked file.

    The numbers are shortest round-trip floats computed through the package's
    own Pade exponential, numpy and LAPACK, so the tracked file belongs to the
    numpy/BLAS build that wrote it: on another build a mismatch in the last
    bits only is drift of the numeric stack, not a change of the program.
    """
    written = (demo_runs[0] / "comm_region_map.csv").read_bytes()
    assert written == (ROOT / "demos" / "comm_region_map.csv").read_bytes()
