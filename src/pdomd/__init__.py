"""Primal-dual online mirror descent under stochastic constraints."""

import importlib

from .errors import (
    ConfigError,
    GeometryError,
    InfeasibleProblemError,
    MultiplierDivergenceError,
    OracleError,
    PdomdError,
    ProblemError,
    ReplayMismatchError,
)
from .geometry import (
    Box,
    BregmanGeometry,
    DecisionSet,
    EuclideanGeometry,
    NegativeEntropyGeometry,
    PushbackResult,
    Simplex,
    mirror_step,
    mix_toward_uniform,
    pushback_check,
)
from .problems import (
    DatacenterConfig,
    LinearRows,
    MeanModel,
    ObservationBatch,
    PriceTrace,
    ProblemInstance,
    ServiceRows,
    SlotFunctions,
    build_datacenter_problem,
    build_synthetic_problem,
    make_linear_problem,
    reac_schedule,
    service_curve,
    service_curve_inverse,
)
from .telemetry import (
    MetricsSummary,
    RunRecord,
    compute_metrics,
    dpp_audit,
    export,
    import_record,
)
from .oracle import (
    DualPoint,
    dual_function,
    estimate_multipliers,
    hindsight_optimum,
    weak_ebc_probe,
)
from .core import (
    AlgorithmParams,
    DualState,
    SolverState,
    StepOutcome,
    assemble_dual_weighted_gradient,
    initial_state,
    iterate_run,
    parameter_schedule,
    run,
    step,
)
from .config import (
    ExperimentConfig,
    generate_price_trace,
    ingest_price_trace,
    parse_config,
    write_price_trace,
)
from .experiment import run_experiment, sweep_rates

__version__ = "0.1.0"


def __getattr__(name):
    # bench/run.py reads pdomd.cli after a bare `import pdomd`. Loading it
    # only then keeps `python -m pdomd.cli` from finding it imported already.
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
