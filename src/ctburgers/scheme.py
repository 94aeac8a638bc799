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

A small C library (``_finish.c``, built on the first fit or kernel of a
process and loaded with ctypes) has two entry points: ``march`` takes
every step between two sample times in one call, and ``fit`` solves the
bandwidth-2 system of the initial spline fit.  The library is used, both
entry points or neither, when it gives the bits of the Python path on a
fixed set of known-answer marches and fits.  Otherwise, and on machines
without a C compiler, each step runs on Python floats, one loop over the
rows and then :func:`~ctburgers.linalg.thomas_sweep`, and the fit in
:func:`~ctburgers.linalg.banded_solve`.  Both paths have the same
statements in the same order, so the results do not depend on which one
runs; :func:`step_finisher` says which does.  :func:`solve_to_time`
marches on one kernel and copies the state out only at sample times;
:func:`advance` is a one-step wrapper over the same kernel.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

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
    """Solution value and first two space derivatives at the knots."""

    u: np.ndarray
    ux: np.ndarray
    uxx: np.ndarray


def nodal_values(c: CoefficientVector, sc: SchemeCoefficients) -> NodalState:
    """Evaluate U, U_x, U_xx at every knot from the spline parameters."""
    d = c.delta
    u = sc.alpha1 * d[:-2] + sc.alpha2 * d[1:-1] + sc.alpha1 * d[2:]
    ux = sc.beta1 * d[:-2] + sc.beta2 * d[2:]
    uxx = sc.gamma1 * d[:-2] + sc.gamma2 * d[1:-1] + sc.gamma1 * d[2:]
    return NodalState(u=u, ux=ux, uxx=uxx)


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
    delta = _fit(_compiled().fit, bands, rhs)
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
    # bands, rhs and x stay bound to names here, so alive, for the whole call
    row = native(bands.ctypes.data, rhs.ctypes.data, x.ctypes.data, len(rhs), PIVOT_TOL)
    if row >= 0:
        raise ZeroPivotError(row)
    return x


class _StepKernel:
    """Crank-Nicolson steps on one state buffer, built once per march.

    ``delta`` is the state buffer (N+3 parameters) the kernel steps in
    place.  ``native`` is the compiled march (see :func:`_compiled`),
    which runs whole steps in C on ``delta`` and a band buffer allocated
    here, or None to take each step on Python floats.

    The Python step is :meth:`assemble` (one loop over the collocation
    rows, then the phantom fold), :func:`~ctburgers.linalg.thomas_sweep`
    and the phantom restore: the statements of ``march`` in
    ``_finish.c``, in the same order, so both give the same bits.
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
            self._bands = np.empty((4, rows))  # lower, upper, diag, rhs
            self._native_constants = np.array([*self._constants, PIVOT_TOL])
            self._native_args = (
                self._bands.ctypes.data, self.delta.ctypes.data,
                self._native_constants.ctypes.data, rows,
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


def _known_answer_cases():
    """Fixed marches for the finisher check: (delta, problem, coefficients, steps).

    They hold +-0.0 and subnormals in the state and the boundary values,
    the smallest mesh (N=3) and a larger one (N=64), non-zero boundary
    values at both ends of a non-trivial state, a zero pivot in the first
    row and in an interior one, and one in the second step.
    """
    smallest = 5e-324
    subnormal = -2.2250738585072014e-309
    specials = [0.0, -0.0, smallest, subnormal, -smallest, 3.0e-310]

    def spec(n_cells, lam, dt, left, right):
        return ProblemSpec(
            lam=lam, a=0.0, b=1.0, dt=dt, n_cells=n_cells,
            initial_condition=lambda x: 0.0, initial_derivative=lambda x: 0.0,
            boundary_left=left, boundary_right=right,
        )

    coarse = knot_coefficients(1.0 / 3)
    fine = knot_coefficients(1.0 / 64)
    wave = [1.5 * math.sin(0.7 * j) - 0.25 for j in range(67)]
    for j in range(0, 60, 11):
        wave[j:j + len(specials)] = specials
    # no advection, alpha1 = 1, alpha2 = 2, lam gamma2 dt/2 = 1: the fold
    # leaves pivots -1, 1, 0 in rows 0-2; alpha2 = 1, gamma2 = 0 makes
    # row 0 zero
    flat = SchemeCoefficients(
        alpha1=1.0, alpha2=2.0, beta1=0.0, beta2=0.0, gamma1=0.0, gamma2=1.0
    )
    # rhs weights alpha + dt/2 lam gamma = 0: the first step ends in a
    # state of +-0.0, whose folded row 0 is 4 - 2 * 2/1 = 0
    vanishing = SchemeCoefficients(
        alpha1=1.0, alpha2=2.0, beta1=-1.0, beta2=1.0, gamma1=-1.0, gamma2=-2.0
    )
    steep = [0.25, -0.0, 1.0, smallest, -1.0, 0.0]
    return [
        (np.array(specials), spec(3, 0.1, 1e-3, -0.0, smallest), coarse, 4),
        (np.array(steep), spec(3, 0.003, 1e-2, 1.0, 0.0), coarse, 4),
        (np.array(wave), spec(64, 0.005, 1e-2, subnormal, -0.0), fine, 4),
        (np.array(wave), spec(64, 1.0, 1e-4, 0.0, 0.0), fine, 4),
        (np.array(wave), spec(64, 0.005, 1e-2, 1.0, 0.2), fine, 4),
        (np.zeros(8), spec(5, 1.0, 2.0, 0.0, 0.0), flat, 3),
        (np.zeros(8), spec(5, 1.0, 1e-4, 0.0, 0.0), replace(flat, alpha2=1.0, gamma2=0.0), 3),
        (np.linspace(-1.0, 1.0, 8), spec(5, 1.0, 2.0, 0.0, 0.0), vanishing, 3),
    ]


def _known_answer_fits():
    """Fixed systems for the fit check: (bands, rhs) in the layout of
    :func:`~ctburgers.linalg.banded_solve`.

    They hold the fit matrices of N=3 and N=64, a full band, +-0.0 and
    subnormals in the rhs, a -0.0 below a pivot row holding inf (an
    elimination that is not skipped turns the row into NaN), zero pivots
    in column 0, in an interior column and in the last row, and the
    smallest systems, n = 1 and n = 2.  Every input is a literal or a
    short ``math`` loop, so the check allocates next to nothing.
    """
    smallest = 5e-324
    subnormal = -2.2250738585072014e-309
    coarse = knot_coefficients(1.0 / 3)
    wave = [1.5 * math.sin(0.7 * j) - 0.25 for j in range(67)]
    wave[5:11] = [0.0, -0.0, smallest, subnormal, -smallest, 3.0e-310]
    inf = math.inf
    return [
        (_fit_bands(coarse, 6), np.array([0.0, -0.0, smallest, subnormal, -smallest, 3.0e-310])),
        (_fit_bands(coarse, 6), np.array([-2.0, 0.25, 1.0, 0.75, -0.5, 3.0])),
        (_fit_bands(knot_coefficients(1.0 / 64), 67), np.array(wave)),
        # a full band: every back-substitution row subtracts two products;
        # in the fit matrix only row 0 does, and one of its products is zero
        (np.array([[0.5 * math.sin(1.3 * i + 0.7 * j) + 3.0 * (j == 2) if 0 <= i + j - 2 < 12
                    else 0.0 for j in range(5)] for i in range(12)]),
         np.array([math.cos(0.9 * i) for i in range(12)])),
        # the skipped eliminations below row 0 keep rows 1 and 2 finite
        (np.array([[0.0, 0.0, 1.0, inf, inf], [0.0, -0.0, 2.0, 1.0, 0.0],
                   [-0.0, 0.5, 1.0, 0.0, 0.0]]), np.array([1.0, 2.0, 1.0])),
        # beta1 = 0: the derivative row has no pivot
        (_fit_bands(replace(coarse, beta1=0.0), 6), np.array(wave[:6])),
        # unit tridiagonal: the second pivot is 1 - 1 * 1 = 0
        (np.array([[0.0, 0.0, 1.0, 1.0, 0.0]] + [[0.0, 1.0, 1.0, 1.0, 0.0]] * 3
                  + [[0.0, 1.0, 1.0, 0.0, 0.0]]), np.ones(5)),
        # the last pivot is 1 - 1 * 1 = 0
        (np.array([[0.0, 0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 2.0, 1.0, 0.0],
                   [0.0, 1.0, 1.0, 0.0, 0.0]]), np.array([1.0, smallest, -1.0])),
        # n = 1 and n = 2
        (np.array([[0.0, 0.0, 3.0, 0.0, 0.0]]), np.array([subnormal])),
        (np.array([[0.0, 0.0, 2.0, 0.5, 0.0], [0.0, -1.0, 4.0, 0.0, 0.0]]),
         np.array([1.0, -0.0])),
    ]


class _Compiled(NamedTuple):
    """The two entry points of ``_finish.c``, typed for ctypes, or two
    Nones when the march and the fit run in Python."""

    march: Callable | None
    fit: Callable | None


_PYTHON = _Compiled(None, None)


def _bind(lib: ctypes.CDLL) -> _Compiled:
    """``lib.march`` and ``lib.fit`` with the argument and result types of ``_finish.c``."""
    march, fit = lib.march, lib.fit
    march.argtypes = (
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_longlong,
    )
    march.restype = ctypes.c_long
    fit.argtypes = (
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_double,
    )
    fit.restype = ctypes.c_long
    return _Compiled(march, fit)


def _known_answer_outcomes(compiled: _Compiled):
    """The zero-pivot row, or None, and the result bits of every
    known-answer march and fit run by ``compiled``.

    Each march is one multi-step call, and its result is the state after
    the last completed step; a fit that meets a zero pivot has no result.
    """
    for delta, p, sc, steps in _known_answer_cases():
        kernel = _StepKernel(delta, p, sc, compiled.march)
        row = None
        try:
            kernel.march(steps)
        except ZeroPivotError as err:
            row = err.row
        yield row, kernel.delta.view(np.int64).tolist()
    for bands, rhs in _known_answer_fits():
        try:
            x = _fit(compiled.fit, bands.copy(), rhs.copy())
        except ZeroPivotError as err:
            yield err.row, None
        else:
            yield None, x.view(np.int64).tolist()


def _matches_python(compiled: _Compiled) -> bool:
    """Whether ``compiled`` ends every known-answer march and fit as the
    Python path does: on the same zero-pivot row, or none, with the same bits."""
    return list(_known_answer_outcomes(_PYTHON)) == list(_known_answer_outcomes(compiled))


@functools.cache
def _compiled() -> _Compiled:
    """The compiled march and fit, or ``_PYTHON`` when both run in Python.

    Built on the first call in a process and trusted only when it passes
    :func:`_matches_python`: one library, used whole or not at all.
    """
    lib = _native.load_library()
    if lib is not None:
        compiled = _bind(lib)
        if _matches_python(compiled):
            return compiled
    return _PYTHON


def step_finisher() -> str:
    """``"native"`` when the march and the initial fit run in the compiled
    library, ``"python"`` when both fall back.

    Builds and checks the library if this process has not tried yet.
    """
    return "python" if _compiled().march is None else "native"


def advance(
    c: CoefficientVector, p: ProblemSpec, sc: SchemeCoefficients
) -> CoefficientVector:
    """One time step: assemble the square system, solve it, restore the phantoms.

    Exactly one linear solve per step; the linearization uses the previous
    level only, with no inner iteration.
    """
    kernel = _StepKernel(c.delta, p, sc, _compiled().march)
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
    or after t = 0, and the run may take at most ``MAX_CELL_STEPS``
    cell-steps, (N+1) * steps; both are checked before the fit.
    Returns a map from sample time to the nodal state at that time.
    """
    p.validate()
    if (part.a, part.b, part.n_cells) != (p.a, p.b, p.n_cells):
        raise ValueError("partition does not match the problem domain")
    if sample_times is None:
        sample_times = [t_end]
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
        if wanted.setdefault(k, t) != t:
            raise ValueError(
                f"sample times {wanted[k]} and {t} both fall on step {k} (dt={p.dt})"
            )
    sc = knot_coefficients(part.h)
    c = initialize_coefficients(p, part, sc)
    out: dict[float, NodalState] = {}
    kernel = _StepKernel(c.delta, p, sc, _compiled().march)
    done = 0
    for k, t in wanted.items():
        kernel.march(k - done)
        done = k
        out[t] = nodal_values(CoefficientVector(delta=kernel.delta, time=t), sc)
    kernel.march(n_steps - done)
    return out
