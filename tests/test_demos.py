"""Smoke test: every demo script runs to completion with small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = {
    "01_bregman_geometry.py": [],
    "02_online_engine.py": ["--horizon", "200"],
    "03_hindsight_and_duals.py": [],
    "04_rate_sweep.py": ["--seeds", "2"],
    "05_datacenter_pacing.py": ["--horizon", "200", "--seeds", "1"],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_runs(script, tmp_path):
    args = list(DEMOS[script])
    if script.startswith(("04", "05")):
        args += ["--out", str(tmp_path)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / script), *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
