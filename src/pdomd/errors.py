"""Exception types shared across the package."""


class PdomdError(Exception):
    """Base class for errors raised by this package."""


class GeometryError(PdomdError):
    """Invalid geometry/set combination or malformed geometric input."""


class ProblemError(PdomdError):
    """Malformed problem description or sampler input."""


class InfeasibleProblemError(PdomdError):
    """The static constrained program has an empty feasible set."""


class OracleError(PdomdError):
    """An offline solve finished without certifying its tolerances."""


class MultiplierDivergenceError(OracleError):
    """The window program is infeasible, so no bounded multipliers exist."""


class ReplayMismatchError(PdomdError):
    """A recorded run does not match its deterministic replay."""


class ConfigError(PdomdError):
    """Invalid experiment configuration or command-line input."""
