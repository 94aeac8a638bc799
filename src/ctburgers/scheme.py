"""Collocation scheme for the 1D viscous Burgers equation.

Space is discretized with the cubic trigonometric B-spline basis, time
with the trapezoidal (Crank-Nicolson) rule, and the advective product is
linearized in the Rubin-Graves fashion, so every step costs one
tridiagonal solve.  The two phantom spline parameters beyond each end of
the domain are removed with the Dirichlet boundary values before the
solve and reconstructed afterwards.

One kernel, built once per march with the step constants, takes the
steps.  Each step computes U, U_x and the four bands of the square
system from the current parameters, folds the phantoms into the end
rows, solves the tridiagonal system and writes the new parameters,
phantoms restored, back into the state buffer.

The steps and the fit run in the compiled ``march`` and ``fit`` of
:mod:`ctburgers._native` when its library passed its check, and on Python
floats otherwise, to the same bits; :func:`step_finisher` says which.
:func:`solve_to_time` marches on one kernel and copies the state out
only at sample times; :func:`advance` is a one-step wrapper over the
same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import _native
from .basis import SchemeCoefficients, UniformPartition, knot_coefficients
from .linalg import PIVOT_TOL, ZeroPivotError, banded_solve, thomas_sweep

__all__ = [
    "ProblemSpec",
    "CoefficientVector",
    "NodalState",
    "nodal_values",
    "initialize_coefficients",
    "advance",
    "solve_to_time",
    "step_finisher",
]

# sample times must sit on the step grid to within this fraction of dt
TIME_ALIGN_TOL = 1e-9

# the most cell-steps, (N+1) * steps, one run may take: at about 20 ns a
# cell-step, half an hour of marching; it also keeps every step count far
# inside the 64-bit count of the compiled march
MAX_CELL_STEPS = 10**11


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

    ``initial_condition(x)`` and ``exact(x, t)``, the exact solution if
    one is known, take a float or a 1-D array of points and give a float
    or an array; :func:`initialize_coefficients` calls
    ``initial_condition`` once, on the array of knots, and a scalar result
    stands for a constant.  ``initial_derivative`` takes a float.  A
    callable with a ``lam`` dataclass field, as the factories bind, is
    rebound to ``self.lam``, so ``dataclasses.replace(p, lam=...)``
    equals a fresh factory call; plain callables are kept as they are.
    """

    lam: float
    a: float
    b: float
    dt: float
    n_cells: int
    initial_condition: Callable
    initial_derivative: Callable[[float], float]
    boundary_left: float
    boundary_right: float
    compat_tol: float = 1e-10
    exact: Callable | None = None

    def __post_init__(self):
        for name in ("initial_condition", "initial_derivative", "exact"):
            f = getattr(self, name)
            # a plain callable has no lam, so a NaN self.lam leaves it alone
            lam = getattr(f, "lam", None)
            if lam is not None and lam != self.lam:
                object.__setattr__(self, name, replace(f, lam=self.lam))

    def validate(self) -> None:
        for field_name in ("lam", "dt", "a", "b", "boundary_left", "boundary_right"):
            value = getattr(self, field_name)
            if not math.isfinite(value):
                raise ValueError(f"{field_name} must be finite, got {value}")
        if not self.lam > 0.0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.b > self.a:
            raise ValueError(f"domain endpoints out of order: a={self.a}, b={self.b}")
        for where, x, bc in (
            ("left", self.a, self.boundary_left),
            ("right", self.b, self.boundary_right),
        ):
            gap = abs(self.initial_condition(x) - bc)
            if not gap <= self.compat_tol:  # a NaN gap fails too
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


@dataclass
class NodalState:
    """Solution value and first two space derivatives at the knots.

    A state from :func:`nodal_values` holds U and a copy of the spline
    parameters, and computes U_x and U_xx on their first read; it is a
    plain :class:`NodalState` in every other respect.

    In a marched state, ``ux`` and ``uxx`` at x = a and x = b carry no
    meaning: the end rows collocate the equation where the Dirichlet data
    fix U, and Crank-Nicolson solves that constraint with amplification
    -1, so their error changes sign on every step and never decays.
    ``uxx[0]`` of the sine problem at lam = 1, N = 10, dt = 1e-5 reads
    +4.48e-3, -4.48e-3, ... where the exact value is 0.  U is not affected.
    """

    u: np.ndarray
    ux: np.ndarray
    uxx: np.ndarray

    def __getattr__(self, name: str):
        # reached only for an attribute the instance lacks: U_x or U_xx not
        # read yet from the parameters nodal_values left in the state
        lazy = self.__dict__.get("_spline")
        if lazy is None or name not in ("ux", "uxx"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        d, sc = lazy
        if name == "ux":
            value = sc.beta1 * d[:-2] + sc.beta2 * d[2:]
        else:
            value = sc.gamma1 * d[:-2] + sc.gamma2 * d[1:-1] + sc.gamma1 * d[2:]
        setattr(self, name, value)
        return value


def nodal_values(c: CoefficientVector, sc: SchemeCoefficients) -> NodalState:
    """Evaluate U, U_x, U_xx at every knot from the spline parameters;
    U_x and U_xx are computed when first read, as most callers read U alone."""
    # a copy of the parameters, since a kernel steps its own in place
    d = np.array(c.delta, dtype=float)
    state = NodalState.__new__(NodalState)
    state.u = sc.alpha1 * d[:-2] + sc.alpha2 * d[1:-1] + sc.alpha1 * d[2:]
    state._spline = (d, sc)
    return state


def initialize_coefficients(
    p: ProblemSpec, part: UniformPartition, sc: SchemeCoefficients
) -> CoefficientVector:
    """Fit the spline to the initial condition.

    The fit interpolates the initial condition at all n_cells+1 knots and
    matches its analytic derivative at both ends, which squares the
    system; the matrix has bandwidth two (the derivative rows skip a
    column) and is solved in-band, by the compiled ``fit`` when the
    library passed its check and by
    :func:`~ctburgers.linalg.banded_solve` otherwise, to the same bits.
    The initial condition is evaluated in one call on the knot array.
    """
    n = part.n_cells + 3
    bands = _fit_bands(sc, n)
    rhs = np.empty(n)
    rhs[0] = p.initial_derivative(part.a)
    rhs[1:-1] = p.initial_condition(part.knot_array())
    rhs[n - 1] = p.initial_derivative(part.b)
    delta = _fit(_native.compiled().fit, bands, rhs)
    return CoefficientVector(delta=delta, time=0.0)


def _fit_bands(sc: SchemeCoefficients, n: int) -> np.ndarray:
    """The (n, 5) bands of the fit matrix, in the layout of
    :func:`~ctburgers.linalg.banded_solve`."""
    bands = np.zeros((n, 5))
    # derivative condition at the left end: row 0 couples unknowns 0 and 2
    bands[0, 2] = sc.beta1
    bands[0, 4] = sc.beta2
    bands[1:-1, 1] = sc.alpha1
    bands[1:-1, 2] = sc.alpha2
    bands[1:-1, 3] = sc.alpha1
    bands[n - 1, 0] = sc.beta1
    bands[n - 1, 2] = sc.beta2
    return bands


def _fit(native: Callable | None, bands: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """:func:`~ctburgers.linalg.banded_solve` of ``bands`` and ``rhs``, in
    the compiled ``fit`` when ``native`` is given.

    The compiled fit eliminates in place, so ``bands`` and ``rhs`` must be
    C-contiguous float arrays the caller does not need any more.
    """
    if native is None:
        return banded_solve(bands, rhs)
    x = np.empty(len(rhs))
    at = _native.address
    # bands, rhs and x stay bound to names here, so alive, for the whole call
    row = native(at(bands), at(rhs), at(x), len(rhs), PIVOT_TOL)
    if row >= 0:
        raise ZeroPivotError(row)
    return x


class _StepKernel:
    """Crank-Nicolson steps on one state buffer, built once per march.

    ``delta`` is the state buffer (N+3 parameters) the kernel steps in
    place.  ``native`` is the compiled march (see :func:`ctburgers._native.compiled`),
    which runs whole steps in C on ``delta`` and a band buffer allocated
    here, or None to take each step on Python floats.

    The Python step is :meth:`assemble` (one loop over the collocation
    rows, then the phantom fold), :func:`~ctburgers.linalg.thomas_sweep`
    and the phantom restore.  ``march`` in ``_finish.c`` assembles each
    row and eliminates it at once, but every value has the expression
    and operand order of the Python step, so both give the same bits.
    """

    def __init__(
        self, delta: np.ndarray, p: ProblemSpec, sc: SchemeCoefficients, native: Callable | None
    ):
        a1, a2 = sc.alpha1, sc.alpha2
        if a1 == 0.0:
            raise ZeroDivisionError("alpha1 = 0: phantom parameters cannot be eliminated")
        half_dt = 0.5 * p.dt
        lam_g1 = p.lam * sc.gamma1
        lam_g2 = p.lam * sc.gamma2
        self.delta = np.array(delta, dtype=float)
        rows = len(self.delta) - 2
        if rows < 2:
            raise ValueError(f"a step needs at least 4 spline parameters, got {len(self.delta)}")
        # a step unpacks this tuple instead of loading each value as an attribute
        self._constants = (
            a1, a2, sc.beta1, sc.beta2, half_dt, lam_g1, lam_g2,
            a1 + half_dt * lam_g1, a2 + half_dt * lam_g2,
            p.boundary_left, p.boundary_right,
        )
        self._native = native
        if native is not None:
            # the compiled march reads these; the kernel keeps every buffer alive
            self._bands = np.empty((3, rows))  # upper, diag, rhs after elimination
            self._native_constants = np.array([*self._constants, PIVOT_TOL])
            at = _native.address
            self._native_args = (
                at(self._bands), at(self.delta), at(self._native_constants), rows,
            )

    def assemble(self) -> tuple[list[float], list[float], list[float], list[float]]:
        """The square (N+1) x (N+1) tridiagonal system of one step from ``delta``.

        Collocating the trapezoidal-in-time, Rubin-Graves-linearized
        equation at knot m gives left-hand coefficients
        ``alpha_k + dt/2 (alpha_k U'_m + beta_k U_m - lam gamma_k)`` on the
        new-level parameters and ``(alpha_k + lam dt/2 gamma_k)`` on the
        old ones, with U_m, U'_m taken from ``delta``.  Row m couples
        parameters m-1, m, m+1, so the N+1 rows have two unknowns too
        many; the Dirichlet values fix the phantoms ``delta_{-1}`` and
        ``delta_{N+1}`` in terms of their two interior neighbours, and
        substituting them into the first and last rows squares the system.

        Returns plain float lists ``(sub, diag, sup, rhs)`` in the layout
        of :func:`~ctburgers.linalg.thomas_sweep`.
        """
        (a1, a2, b1, b2, half_dt, lam_g1, lam_g2, rhs_outer, rhs_centre,
         bc_left, bc_right) = self._constants
        lower, upper, diag, rhs = [], [], [], []
        d = self.delta.tolist()
        for d0, d1, d2 in zip(d, d[1:], d[2:]):
            # U = (a1 d0 + a2 d1) + a1 d2,  U_x = b1 d0 + b2 d2
            u = a1 * d0 + a2 * d1 + a1 * d2
            ux = b1 * d0 + b2 * d2
            # lower, upper = a1 + dt/2 ((a1 U_x + beta U) - lam g1)
            a1_ux = a1 * ux
            lower.append(a1 + half_dt * (a1_ux + b1 * u - lam_g1))
            upper.append(a1 + half_dt * (a1_ux + b2 * u - lam_g1))
            # diag = a2 + dt/2 (a2 U_x - lam g2)
            diag.append(a2 + half_dt * (a2 * ux - lam_g2))
            # rhs = (a1 + dt/2 lam g1)(d0 + d2) + (a2 + dt/2 lam g2) d1
            rhs.append(rhs_outer * (d0 + d2) + rhs_centre * d1)
        # delta_{-1} = (U_a - alpha2 d0 - alpha1 d1)/alpha1
        first = lower[0]
        diag[0] -= first * a2 / a1
        upper[0] -= first
        rhs[0] -= first * bc_left / a1
        # delta_{N+1} = (U_b - alpha1 d_{N-1} - alpha2 d_N)/alpha1
        last = upper.pop()
        diag[-1] -= last * a2 / a1
        lower[-1] -= last
        rhs[-1] -= last * bc_right / a1
        del lower[0]
        return lower, diag, upper, rhs

    def march(self, steps: int) -> None:
        """Advance ``delta`` in place by ``steps`` time steps.

        A zero pivot raises :class:`~ctburgers.linalg.ZeroPivotError` and
        leaves ``delta`` as it was after the last completed step.
        """
        if self._native is not None:
            row = self._native(*self._native_args, steps)
            if row >= 0:
                raise ZeroPivotError(row)
            return
        a1, a2 = self._constants[:2]
        bc_left, bc_right = self._constants[9:]
        for _ in range(steps):
            mid = thomas_sweep(*self.assemble())
            mid.insert(0, (bc_left - a2 * mid[0] - a1 * mid[1]) / a1)
            mid.append((bc_right - a1 * mid[-2] - a2 * mid[-1]) / a1)
            self.delta[:] = mid


def step_finisher() -> str:
    """``"native"`` when the march, the initial fit, the CSV rows, the
    traveling front's columns, the sine series, the snapshot rows and the
    sine problem's initial column run in the compiled library, the seven
    entry points of ``_finish.c``, ``"python"`` when all seven fall back.

    Builds and checks the library if this process has not tried yet.
    """
    return "python" if _native.compiled().march is None else "native"


def advance(
    c: CoefficientVector, p: ProblemSpec, sc: SchemeCoefficients
) -> CoefficientVector:
    """One time step: assemble the square system, solve it, restore the phantoms.

    Exactly one linear solve per step; the linearization uses the previous
    level only, with no inner iteration.
    """
    kernel = _StepKernel(c.delta, p, sc, _native.compiled().march)
    kernel.march(1)
    return CoefficientVector(delta=kernel.delta, time=c.time + p.dt)


def _step_index(t: float, dt: float) -> int:
    if not math.isfinite(t):
        raise ValueError(f"time {t} must be finite")
    if not math.isfinite(t / dt):
        raise ValueError(f"time {t} is out of range for dt={dt}: t/dt is not finite")
    k = round(t / dt)
    if abs(t - k * dt) > TIME_ALIGN_TOL * dt:
        raise ValueError(
            f"sample time {t} is not a multiple of dt={dt} "
            f"(offset {abs(t - k * dt):.3e})"
        )
    if k < 0:
        raise ValueError(f"time {t} is before the start at t=0")
    return k


def solve_to_time(
    p: ProblemSpec,
    part: UniformPartition,
    t_end: float,
    sample_times: list[float] | None = None,
) -> dict[float, NodalState]:
    """March the scheme to ``t_end`` and record the requested snapshots.

    Every sample time (and ``t_end`` itself) must lie on the step grid at
    or after t = 0, no two sample times may fall on one step, equal ones
    included, at least one must be given, and the run may take at most
    ``MAX_CELL_STEPS`` cell-steps, (N+1) * steps; all are checked before
    the fit, and each raises ``ValueError``.  ``sample_times`` None
    samples ``t_end`` alone.
    Returns a map from sample time to the nodal state at that time; a
    time of -0.0 is keyed as +0.0.  The first sample state whose U is not
    finite raises ``FloatingPointError``, and the march stops there.

    ``ux`` and ``uxx`` at the two end knots carry an error that changes
    sign on every step, and no meaning (see :class:`NodalState`); U is not
    affected.
    """
    p.validate()
    if (part.a, part.b, part.n_cells) != (p.a, p.b, p.n_cells):
        raise ValueError("partition does not match the problem domain")
    # -0.0 + 0.0 is +0.0, so no key, file name or table reads -0
    t_end += 0.0
    sample_times = [t_end] if sample_times is None else [t + 0.0 for t in sample_times]
    if not sample_times:
        raise ValueError("no sample time given")
    n_steps = _step_index(t_end, p.dt)
    if (part.n_cells + 1) * n_steps > MAX_CELL_STEPS:
        raise ValueError(
            f"{n_steps} steps of {part.n_cells + 1} knots exceed the cap of "
            f"{MAX_CELL_STEPS:.0e} cell-steps per run"
        )
    wanted: dict[int, float] = {}
    for t in sorted(sample_times):
        k = _step_index(t, p.dt)
        if k > n_steps:
            raise ValueError(f"sample time {t} beyond t_end={t_end}")
        if k in wanted:
            raise ValueError(
                f"sample times {wanted[k]} and {t} both fall on step {k} (dt={p.dt})"
            )
        wanted[k] = t
    sc = knot_coefficients(part.h)
    c = initialize_coefficients(p, part, sc)
    out: dict[float, NodalState] = {}
    kernel = _StepKernel(c.delta, p, sc, _native.compiled().march)
    done = 0
    # a march of no steps, to a sample time at step 0 or from the last
    # sample time to t_end, is not called
    for k, t in wanted.items():
        if k > done:
            kernel.march(k - done)
            done = k
        state = nodal_values(CoefficientVector(delta=kernel.delta, time=t), sc)
        if not np.isfinite(state.u).all():
            raise FloatingPointError(f"non-finite solution at t={t}")
        out[t] = state
    if n_steps > done:
        kernel.march(n_steps - done)
    return out
