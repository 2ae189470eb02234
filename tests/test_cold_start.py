"""Cold-start cost: pdomd never imports scipy. Neither `import pdomd`, nor a
`run` and `audit` of either scenario, nor the multiplier estimate and the
error-bound probe on a linear window load a scipy module.

Each check runs in a fresh interpreter, since this test process may have
scipy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

import pdomd
loaded = {"import": scipy_modules()}
config, record = "config.json", "out/records/run_seed0.csv"
for argv in (["run", "--config", config], ["audit", "--config", config, "--record", record]):
    if pdomd.cli.main(argv) != 0:
        sys.exit(f"pdomd {argv[0]} failed")
loaded["run"] = scipy_modules()
if "linear-window" in sys.argv:
    problem = pdomd.build_synthetic_problem(6, 2, 2, 0)
    pdomd.estimate_multipliers(problem, 0, 100)
    pdomd.weak_ebc_probe(problem, 0, 100, 4, [0.5, 1.0])
    loaded["linear-window"] = scipy_modules()
print(json.dumps(loaded))
"""


def scipy_loaded(tmp_path, config, *stages):
    """The scipy modules loaded by a fresh `import pdomd`, then after a T=50
    `run` and `audit` of `config`, then after each extra stage."""
    (tmp_path / "config.json").write_text(
        json.dumps({**config, "T": 50, "seeds": [0], "out_dir": str(tmp_path / "out")})
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *stages],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_and_datacenter_run_leave_scipy_unloaded(tmp_path):
    loaded = scipy_loaded(tmp_path, {"scenario": "datacenter"})
    assert loaded == {"import": [], "run": []}


@pytest.mark.parametrize("variant", ["general", "simplex"])
def test_synthetic_run_and_linear_oracle_leave_scipy_unloaded(tmp_path, variant):
    config = {"scenario": "synthetic", "variant": variant, "synthetic": {"d": 4}}
    loaded = scipy_loaded(tmp_path, config, "linear-window")
    assert loaded == {"import": [], "run": [], "linear-window": []}
