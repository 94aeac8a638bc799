"""Cubic trigonometric B-spline collocation solver for the 1D viscous
Burgers equation, with exact reference solutions and benchmark
reproduction tooling."""

from .basis import (
    SchemeCoefficients,
    UniformPartition,
    ctb_deriv,
    ctb_eval,
    knot_coefficients,
)
from .exact import (
    SeriesControl,
    SeriesConvergenceError,
    bessel_i,
    bessel_i_ratio,
    sine_wave_exact,
    traveling_wave_exact,
)
from .linalg import ZeroPivotError, banded_solve, thomas_sweep
from .metrics import ErrorReport, error_norms, table_report
from .problems import sine_problem, traveling_problem
from .scheme import (
    CoefficientVector,
    NodalState,
    ProblemSpec,
    advance,
    initialize_coefficients,
    nodal_values,
    solve_to_time,
)

__version__ = "0.1.0"

__all__ = [
    "UniformPartition",
    "SchemeCoefficients",
    "ctb_eval",
    "ctb_deriv",
    "knot_coefficients",
    "ProblemSpec",
    "CoefficientVector",
    "NodalState",
    "nodal_values",
    "initialize_coefficients",
    "advance",
    "solve_to_time",
    "ZeroPivotError",
    "thomas_sweep",
    "banded_solve",
    "SeriesControl",
    "SeriesConvergenceError",
    "bessel_i",
    "bessel_i_ratio",
    "sine_wave_exact",
    "traveling_wave_exact",
    "sine_problem",
    "traveling_problem",
    "ErrorReport",
    "error_norms",
    "table_report",
]
