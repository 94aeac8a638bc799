"""Factories for the two benchmark problems.

Each problem's ``initial_condition`` and ``exact`` take a float or a 1-D
array of points; an array gives the bits of the point-by-point calls.
"""

from __future__ import annotations

import math

import numpy as np

from .exact import (
    sine_wave_exact,
    traveling_wave_column,
    traveling_wave_exact,
    traveling_wave_slope,
)
from .scheme import ProblemSpec

__all__ = ["sine_problem", "traveling_problem"]

TRAVELING_ALPHA = 0.4
TRAVELING_MU = 0.6
TRAVELING_GAMMA = 0.125

# The traveling-wave benchmark clamps U(0,t)=1 and U(1,t)=0.2 although the
# exact profile at t=0 reaches only ~0.99465 at the left end; the mismatch
# is part of the published configuration, so compatibility is checked
# loosely for that problem.
TRAVELING_COMPAT_TOL = 1e-2


def _sine_pulse(x):
    """sin(pi x) for a float or a 1-D array of points.

    An array goes through ``math.sin`` point by point, because ``np.sin``
    can differ from it in the last bit and the fit would then move.
    """
    if np.ndim(x) == 0:
        return math.sin(math.pi * x)
    angles = (math.pi * np.asarray(x, dtype=float)).tolist()
    return np.fromiter(map(math.sin, angles), float, len(angles))


def sine_problem(lam: float, n_cells: int, dt: float, end_time: float = 0.0) -> ProblemSpec:
    """Decaying sine wave on [0, 1] with homogeneous Dirichlet boundaries."""
    return ProblemSpec(
        lam=lam,
        a=0.0,
        b=1.0,
        dt=dt,
        n_cells=n_cells,
        initial_condition=_sine_pulse,
        initial_derivative=lambda x: math.pi * math.cos(math.pi * x),
        boundary_left=0.0,
        boundary_right=0.0,
        end_time=end_time,
        exact=lambda x, t: sine_wave_exact(x, t, lam),
    )


def traveling_problem(
    lam: float,
    n_cells: int,
    dt: float,
    end_time: float = 0.0,
    alpha: float = TRAVELING_ALPHA,
    mu: float = TRAVELING_MU,
    gamma: float = TRAVELING_GAMMA,
) -> ProblemSpec:
    """Right-moving wave front on [0, 1] with Dirichlet boundaries.

    The boundary values are the far-field limits ``alpha + mu`` and
    ``mu - alpha`` of the exact front, as in the published benchmark.
    """

    def front(x, t):
        if np.ndim(x) == 0:
            return traveling_wave_exact(x, t, alpha, mu, gamma, lam)
        return traveling_wave_column(x, t, alpha, mu, gamma, lam)

    return ProblemSpec(
        lam=lam,
        a=0.0,
        b=1.0,
        dt=dt,
        n_cells=n_cells,
        initial_condition=lambda x: front(x, 0.0),
        initial_derivative=lambda x: traveling_wave_slope(x, 0.0, alpha, mu, gamma, lam),
        boundary_left=alpha + mu,
        boundary_right=mu - alpha,
        end_time=end_time,
        compat_tol=TRAVELING_COMPAT_TOL,
        exact=front,
    )

