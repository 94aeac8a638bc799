"""Collocation scheme for the 1D viscous Burgers equation.

Space is discretized with the cubic trigonometric B-spline basis, time
with the trapezoidal (Crank-Nicolson) rule, and the advective product is
linearized in the Rubin-Graves fashion, so every step costs one
tridiagonal solve.  The two phantom spline parameters beyond each end of
the domain are removed with the Dirichlet boundary values before the
solve and reconstructed afterwards.

One step is one kernel: :func:`assemble_step` builds the bands with numpy
and folds the phantoms into the end rows on Python floats,
:func:`~ctburgers.linalg.thomas_sweep` solves on those lists, and
:func:`advance` restores the phantoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import SchemeCoefficients, UniformPartition, knot_coefficients
from .linalg import BandedSystem, banded_solve, thomas_sweep

__all__ = [
    "ProblemSpec",
    "CoefficientVector",
    "NodalState",
    "nodal_values",
    "initialize_coefficients",
    "assemble_step",
    "advance",
    "solve_to_time",
]

# sample times must sit on the step grid to within this fraction of dt
TIME_ALIGN_TOL = 1e-9


@dataclass(frozen=True)
class ProblemSpec:
    """One Burgers run: equation parameters, initial and boundary data.

    ``initial_derivative`` is the analytic space derivative of the initial
    condition; it supplies the two end conditions that close the initial
    coefficient fit.  ``compat_tol`` bounds how far the initial condition
    may sit from the (constant, Dirichlet) boundary values at the ends;
    the traveling-wave benchmark needs a loose bound because its published
    configuration clamps U(0,t)=1 while the exact profile starts at
    0.99465.
    """

    lam: float
    a: float
    b: float
    dt: float
    n_cells: int
    initial_condition: Callable[[float], float]
    initial_derivative: Callable[[float], float]
    boundary_left: float
    boundary_right: float
    end_time: float = 0.0
    compat_tol: float = 1e-10
    name: str = "custom"

    def validate(self) -> None:
        for field_name in ("lam", "dt", "end_time", "a", "b", "boundary_left", "boundary_right"):
            value = getattr(self, field_name)
            if not math.isfinite(value):
                raise ValueError(f"{field_name} must be finite, got {value}")
        if not self.lam > 0.0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.end_time < 0.0:
            raise ValueError(f"end_time must be >= 0, got {self.end_time}")
        if not self.b > self.a:
            raise ValueError(f"domain endpoints out of order: a={self.a}, b={self.b}")
        for where, x, bc in (
            ("left", self.a, self.boundary_left),
            ("right", self.b, self.boundary_right),
        ):
            gap = abs(self.initial_condition(x) - bc)
            if gap > self.compat_tol:
                raise ValueError(
                    f"initial_condition incompatible with boundary_{where}: "
                    f"|IC({x}) - {bc}| = {gap:.3e} > {self.compat_tol:.1e}"
                )

    def partition(self) -> UniformPartition:
        return UniformPartition(self.a, self.b, self.n_cells)


@dataclass
class CoefficientVector:
    """Spline parameters at one time level, indexed -1 .. n_cells+1.

    ``delta[j]`` holds the parameter of basis function j - 1.
    """

    delta: np.ndarray
    time: float

    @property
    def n_cells(self) -> int:
        return len(self.delta) - 3


@dataclass
class NodalState:
    """Solution value and first two space derivatives at the knots."""

    u: np.ndarray
    ux: np.ndarray
    uxx: np.ndarray


def _value_and_slope(d: np.ndarray, sc: SchemeCoefficients) -> tuple[np.ndarray, np.ndarray]:
    u = sc.alpha1 * d[:-2] + sc.alpha2 * d[1:-1] + sc.alpha1 * d[2:]
    ux = sc.beta1 * d[:-2] + sc.beta2 * d[2:]
    return u, ux


def nodal_values(c: CoefficientVector, sc: SchemeCoefficients) -> NodalState:
    """Evaluate U, U_x, U_xx at every knot from the spline parameters."""
    d = c.delta
    u, ux = _value_and_slope(d, sc)
    uxx = sc.gamma1 * d[:-2] + sc.gamma2 * d[1:-1] + sc.gamma1 * d[2:]
    return NodalState(u=u, ux=ux, uxx=uxx)


def initialize_coefficients(
    p: ProblemSpec, part: UniformPartition, sc: SchemeCoefficients
) -> CoefficientVector:
    """Fit the spline to the initial condition.

    The fit interpolates the initial condition at all n_cells+1 knots and
    matches its analytic derivative at both ends, which squares the
    system; the matrix has bandwidth two (the derivative rows skip a
    column) and is solved in-band.
    """
    n = part.n_cells + 3
    bands = np.zeros((n, 5))
    rhs = np.zeros(n)
    # derivative condition at the left end: row 0 couples unknowns 0 and 2
    bands[0, 2] = sc.beta1
    bands[0, 4] = sc.beta2
    rhs[0] = p.initial_derivative(part.a)
    bands[1:-1, 1] = sc.alpha1
    bands[1:-1, 2] = sc.alpha2
    bands[1:-1, 3] = sc.alpha1
    rhs[1:-1] = [p.initial_condition(x) for x in part.knots()]
    bands[n - 1, 0] = sc.beta1
    bands[n - 1, 2] = sc.beta2
    rhs[n - 1] = p.initial_derivative(part.b)
    delta = banded_solve(BandedSystem(n=n, bands=bands, rhs=rhs))
    return CoefficientVector(delta=delta, time=0.0)


def assemble_step(
    c: CoefficientVector, p: ProblemSpec, sc: SchemeCoefficients
) -> tuple[list[float], list[float], list[float], list[float]]:
    """The square (N+1) x (N+1) tridiagonal system of one step from ``c``.

    Collocating the trapezoidal-in-time, Rubin-Graves-linearized equation
    at knot m gives left-hand coefficients
    ``alpha_k + dt/2 (alpha_k U'_m + beta_k U_m - lam gamma_k)`` on the
    new-level parameters and ``(alpha_k + lam dt/2 gamma_k)`` on the old
    ones, with U_m, U'_m taken from ``c``.  Row m couples parameters
    m-1, m, m+1, so the N+1 rows have two unknowns too many; the Dirichlet
    values fix the phantoms ``delta_{-1}`` and ``delta_{N+1}`` in terms of
    their two interior neighbours, and substituting them into the first
    and last rows squares the system.

    Returns plain float lists ``(sub, diag, sup, rhs)`` in the layout of
    :func:`~ctburgers.linalg.thomas_sweep`.
    """
    d = c.delta
    u, ux = _value_and_slope(d, sc)
    a1, a2 = sc.alpha1, sc.alpha2
    if a1 == 0.0:
        raise ZeroDivisionError("alpha1 = 0: phantom parameters cannot be eliminated")
    half_dt = 0.5 * p.dt
    lam_g1 = p.lam * sc.gamma1
    lam_g2 = p.lam * sc.gamma2
    a1_ux = a1 * ux
    lower = (a1 + half_dt * (a1_ux + sc.beta1 * u - lam_g1)).tolist()
    diag = (a2 + half_dt * (a2 * ux - lam_g2)).tolist()
    upper = (a1 + half_dt * (a1_ux + sc.beta2 * u - lam_g1)).tolist()
    rhs = (
        (a1 + half_dt * lam_g1) * (d[:-2] + d[2:]) + (a2 + half_dt * lam_g2) * d[1:-1]
    ).tolist()
    # delta_{-1} = (U_a - alpha2 d0 - alpha1 d1)/alpha1
    first = lower[0]
    diag[0] -= first * a2 / a1
    upper[0] -= first
    rhs[0] -= first * p.boundary_left / a1
    # delta_{N+1} = (U_b - alpha1 d_{N-1} - alpha2 d_N)/alpha1
    last = upper.pop()
    diag[-1] -= last * a2 / a1
    lower[-1] -= last
    rhs[-1] -= last * p.boundary_right / a1
    del lower[0]
    return lower, diag, upper, rhs


def advance(
    c: CoefficientVector, p: ProblemSpec, sc: SchemeCoefficients
) -> CoefficientVector:
    """One time step: assemble the square system, solve it, restore the phantoms.

    Exactly one linear solve per step; the linearization uses the previous
    level only, with no inner iteration.
    """
    mid = thomas_sweep(*assemble_step(c, p, sc))
    a1, a2 = sc.alpha1, sc.alpha2
    mid.insert(0, (p.boundary_left - a2 * mid[0] - a1 * mid[1]) / a1)
    mid.append((p.boundary_right - a1 * mid[-2] - a2 * mid[-1]) / a1)
    return CoefficientVector(delta=np.array(mid), time=c.time + p.dt)


def _step_index(t: float, dt: float) -> int:
    if not math.isfinite(t):
        raise ValueError(f"time {t} must be finite")
    k = round(t / dt)
    if abs(t - k * dt) > TIME_ALIGN_TOL * dt:
        raise ValueError(
            f"sample time {t} is not a multiple of dt={dt} "
            f"(offset {abs(t - k * dt):.3e})"
        )
    return k


def solve_to_time(
    p: ProblemSpec,
    part: UniformPartition,
    t_end: float,
    sample_times: list[float] | None = None,
) -> dict[float, NodalState]:
    """March the scheme to ``t_end`` and record the requested snapshots.

    Every sample time (and ``t_end`` itself) must lie on the step grid.
    Returns a map from sample time to the nodal state at that time.
    """
    p.validate()
    if (part.a, part.b, part.n_cells) != (p.a, p.b, p.n_cells):
        raise ValueError("partition does not match the problem domain")
    if sample_times is None:
        sample_times = [t_end]
    n_steps = _step_index(t_end, p.dt)
    wanted: dict[int, float] = {}
    for t in sorted(sample_times):
        k = _step_index(t, p.dt)
        if k > n_steps:
            raise ValueError(f"sample time {t} beyond t_end={t_end}")
        if wanted.setdefault(k, t) != t:
            raise ValueError(
                f"sample times {wanted[k]} and {t} both fall on step {k} (dt={p.dt})"
            )
    sc = knot_coefficients(part.h)
    c = initialize_coefficients(p, part, sc)
    out: dict[float, NodalState] = {}
    if 0 in wanted:
        out[wanted[0]] = nodal_values(c, sc)
    for k in range(1, n_steps + 1):
        c = advance(c, p, sc)
        if k in wanted:
            out[wanted[k]] = nodal_values(c, sc)
    return out
