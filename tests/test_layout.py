"""The package's module layout and its entry points.

`cli.py` is the command line alone: the config schema and the trace files
live in `config.py`, the harness and the sweep in `experiment.py`, and
neither of those imports `cli`. `pdomd.cli` is an attribute of a bare
`import pdomd`, loaded on first use, because bench/run.py reads
`pdomd.cli.run_experiment`, `main` and `AUDIT_TOL` right after it; the
`pdomd` console script resolves to a working `main`, as do `python -m pdomd`
and `python -m pdomd.cli`. The engine, `core.py`, takes its prox step from
`geometry` and names no decision set and no closed form itself."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import pdomd

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pdomd"

PUBLIC_NAMES = """
AlgorithmParams Box BregmanGeometry ConfigError DatacenterConfig DecisionSet
DualPoint DualState EuclideanGeometry ExperimentConfig GeometryError
InfeasibleProblemError LinearRows MeanModel MetricsSummary MultiplierDivergenceError
NegativeEntropyGeometry ObservationBatch OracleError PdomdError PriceTrace
ProblemError ProblemInstance ReplayMismatchError
RunRecord ServiceRows Simplex SlotFunctions SolverState StepOutcome
assemble_dual_weighted_gradient build_datacenter_problem
build_synthetic_problem compute_metrics dual_function estimate_multipliers
export generate_price_trace
hindsight_optimum import_record ingest_price_trace initial_state iterate_run
make_linear_problem mirror_step mix_toward_uniform parameter_schedule parse_config
reac_schedule run run_experiment service_curve service_curve_inverse
step sweep_rates weak_ebc_probe write_price_trace
""".split()


def fresh_python(*args):
    """Run a fresh interpreter on the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_bare_import_loads_the_cli():
    # a fresh interpreter, since this test process has imported pdomd.cli
    # already; the attribute is read as bench/run.py reads it
    probe = (
        "import pdomd; cli = pdomd.cli; "
        "print(callable(cli.run_experiment), callable(cli.main), cli.AUDIT_TOL)"
    )
    proc = fresh_python("-c", probe)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["True", "True", "1e-06"]


def test_python_m_pdomd_runs_the_cli():
    proc = fresh_python("-W", "error::RuntimeWarning", "-m", "pdomd", "--help")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "{run,sweep,gen-trace,audit}" in proc.stdout


def test_python_m_pdomd_cli_runs_the_cli():
    # runpy warns, and runs nothing, when the module it runs as __main__ is
    # imported already, as it would be if the package's __init__ imported it
    proc = fresh_python("-W", "error::RuntimeWarning", "-m", "pdomd.cli", "--help")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "{run,sweep,gen-trace,audit}" in proc.stdout


def test_public_names_unchanged():
    names = [
        name for name in dir(pdomd)
        if not name.startswith("_") and not isinstance(getattr(pdomd, name), types.ModuleType)
    ]
    assert sorted(names) == sorted(PUBLIC_NAMES)


def imported_modules(path):
    """Every pdomd module a source file of the package imports, by full name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "pdomd" if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            found.add(module)
            # `from . import cli` and `from pdomd import cli` import a module too
            found |= {f"{module}.{alias.name}" for alias in node.names}
    return {name for name in found if name.split(".")[0] == "pdomd"}


@pytest.mark.parametrize(
    "module, above",
    [("config", {"pdomd.cli", "pdomd.experiment"}), ("experiment", {"pdomd.cli"})],
)
def test_layering(module, above):
    assert not imported_modules(PACKAGE / f"{module}.py") & above


def test_engine_names_no_closed_form():
    # the (geometry, set) -> closed-form table lives in geometry alone
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / "core.py").read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert not names & {"Box", "Simplex", "exponentiated_rows", "project_rows"}


def test_console_script_resolves_to_main(capsys):
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["pdomd"]
    module, _, attribute = target.partition(":")
    main = getattr(importlib.import_module(module), attribute)
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "{run,sweep,gen-trace,audit}" in capsys.readouterr().out
