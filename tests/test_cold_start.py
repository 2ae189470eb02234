"""Cold-start cost: scipy is imported only when a linear hindsight program is
solved, never by `import pdomd` or a datacenter run and its audit.

Each check runs in a fresh interpreter, since this test process has scipy
loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
print(json.dumps(loaded))
"""


def scipy_loaded(tmp_path, config):
    """The scipy modules loaded by a fresh `import pdomd`, and then after a
    T=50 `run` and `audit` of `config`."""
    (tmp_path / "config.json").write_text(
        json.dumps({**config, "T": 50, "seeds": [0], "out_dir": str(tmp_path / "out")})
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
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


def test_synthetic_run_loads_highs(tmp_path):
    loaded = scipy_loaded(tmp_path, {"scenario": "synthetic", "synthetic": {"d": 4}})
    assert loaded["import"] == []
    assert "scipy.optimize" in loaded["run"]
