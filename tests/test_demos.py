"""Every script in demos/ runs to completion from this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import h2body

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    # an empty glob would otherwise pass with no demo run
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # threshold_curve.py writes its CSV into the working directory; the
    # suite's warnings-as-errors setting does not reach a subprocess, so
    # -W error makes any warning fail the demo here too
    src = str(Path(h2body.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
