"""Factories for the two benchmark problems.

A factory only binds parameters: each problem's ``initial_condition``
and ``exact`` are :mod:`ctburgers.exact` functions of a float or a 1-D
array of points, called with arrays only, with the problem's constants,
λ included, in a frozen dataclass: equal arguments give equal problems.
Each ``exact`` also has ``columns(xs, ts)``, the solution at the points
``xs`` at every time of ``ts`` in one pass, row k with the bits of
``exact(xs, ts[k])``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exact import (
    sine_pulse,
    sine_wave_columns,
    sine_wave_exact,
    traveling_wave_columns,
    traveling_wave_exact,
    traveling_wave_slope,
)
from .scheme import ProblemSpec

__all__ = ["sine_problem", "traveling_problem"]

# The traveling-wave benchmark clamps U(0,t)=1 and U(1,t)=0.2 although the
# exact profile at t=0 reaches only ~0.99465 at the left end; the mismatch
# is part of the published configuration, so compatibility is checked
# loosely for that problem.
TRAVELING_COMPAT_TOL = 1e-2


def _sine_slope(x: float) -> float:
    """pi cos(pi x), the space derivative of :func:`sine_pulse`."""
    return math.pi * math.cos(math.pi * x)


@dataclass(frozen=True)
class _SineWave:
    """:func:`sine_wave_exact` at viscosity ``lam``."""

    lam: float

    def __call__(self, x, t: float):
        return sine_wave_exact(x, t, self.lam)

    def columns(self, xs, ts):
        return sine_wave_columns(xs, ts, self.lam)


@dataclass(frozen=True)
class _Front:
    """:func:`traveling_wave_exact` with its constants bound; at the
    default ``t = 0.0`` it is the initial condition."""

    alpha: float
    mu: float
    gamma: float
    lam: float

    def __call__(self, x, t: float = 0.0):
        return traveling_wave_exact(x, t, self.alpha, self.mu, self.gamma, self.lam)

    def columns(self, xs, ts):
        return traveling_wave_columns(xs, ts, self.alpha, self.mu, self.gamma, self.lam)


@dataclass(frozen=True)
class _FrontSlope:
    """:func:`traveling_wave_slope` of the front at t = 0."""

    alpha: float
    mu: float
    gamma: float
    lam: float

    def __call__(self, x: float) -> float:
        return traveling_wave_slope(x, 0.0, self.alpha, self.mu, self.gamma, self.lam)


def sine_problem(lam: float, n_cells: int, dt: float) -> ProblemSpec:
    """Decaying sine wave on [0, 1] with homogeneous Dirichlet boundaries."""
    return ProblemSpec(
        lam=lam,
        a=0.0,
        b=1.0,
        dt=dt,
        n_cells=n_cells,
        initial_condition=sine_pulse,
        initial_derivative=_sine_slope,
        boundary_left=0.0,
        boundary_right=0.0,
        exact=_SineWave(lam),
    )


def traveling_problem(
    lam: float,
    n_cells: int,
    dt: float,
    alpha: float = 0.4,
    mu: float = 0.6,
    gamma: float = 0.125,
) -> ProblemSpec:
    """Right-moving wave front on [0, 1] with Dirichlet boundaries.

    The boundary values are the far-field limits ``alpha + mu`` and
    ``mu - alpha`` of the exact front, as in the published benchmark.
    The front sits at ``exact.mu * t + exact.gamma``.
    """
    front = _Front(alpha, mu, gamma, lam)
    return ProblemSpec(
        lam=lam,
        a=0.0,
        b=1.0,
        dt=dt,
        n_cells=n_cells,
        initial_condition=front,
        initial_derivative=_FrontSlope(alpha, mu, gamma, lam),
        boundary_left=alpha + mu,
        boundary_right=mu - alpha,
        compat_tol=TRAVELING_COMPAT_TOL,
        exact=front,
    )
