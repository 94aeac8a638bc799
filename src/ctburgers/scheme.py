"""Collocation scheme for the 1D viscous Burgers equation.

Space is discretized with the cubic trigonometric B-spline basis, time
with the trapezoidal (Crank-Nicolson) rule, and the advective product is
linearized in the Rubin-Graves fashion, so every step costs one
tridiagonal solve.  The two phantom spline parameters beyond each end of
the domain are removed with the Dirichlet boundary values before the
solve and reconstructed afterwards.

One kernel, built once per march with the step constants and
preallocated buffers, takes the steps.  Each step computes U, U_x and
the four bands of the square system from the current parameters, folds
the phantoms into the end rows, solves the tridiagonal system and writes
the new parameters, phantoms restored, back into the state buffer.  The
whole step runs in a small C function (``_finish.c``, built on the first
kernel of a process and loaded with ctypes), which takes every step
between two sample times in one call, when it gives the bits of the
Python path on a fixed set of known-answer marches.  Otherwise, and on
machines without a C compiler, each step runs with ``out=`` ufuncs on a
sliding window of the state, then on Python floats with
:func:`~ctburgers.linalg.thomas_sweep`.  Both paths do the same IEEE
operations in the same order, so the results do not depend on which one
runs; :func:`step_finisher` says which does.  :func:`solve_to_time`
marches on one kernel and copies the state out only at sample times;
:func:`assemble_step` and :func:`advance` are one-step wrappers over the
same kernel.
"""

from __future__ import annotations

import ctypes
import functools
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
    "assemble_step",
    "advance",
    "solve_to_time",
    "step_finisher",
]

# sample times must sit on the step grid to within this fraction of dt
TIME_ALIGN_TOL = 1e-9

# the most steps one call into the compiled march takes: a C long has at
# least 32 bits, and ctypes would wrap a larger count without a word
MAX_NATIVE_STEPS = 2**31 - 1


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

    ``exact(x, t)`` is the exact solution, if one is known: x is a float
    or a 1-D array of points, and the result a float or an array.  The
    factories bind ``initial_condition`` and ``exact`` to their ``lam``,
    so ``dataclasses.replace(p, lam=...)`` needs a fresh factory call.
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
    exact: Callable | None = None

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

    @property
    def n_cells(self) -> int:
        return len(self.delta) - 3


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
    delta = banded_solve(bands, rhs)
    return CoefficientVector(delta=delta, time=0.0)


class _StepKernel:
    """Crank-Nicolson steps on preallocated buffers, built once per march.

    ``delta`` is the state buffer (N+3 parameters) the kernel steps in
    place.  ``native`` is the compiled march (see :func:`_native_finish`),
    which runs whole steps in C on ``delta`` and a band buffer allocated
    here, or None to take each step with numpy and Python floats.

    On the Python path a read-only (3, N+1) sliding window over ``delta``
    holds the parameters d_{m-1}, d_m, d_{m+1} of every collocation row m,
    so U and U_x take one broadcast multiply each; lower and upper, which
    differ only in beta, are computed as one (2, N+1) block.  Every ufunc
    writes into a buffer allocated on the first fill.  Each IEEE operation
    is the one of the band-by-band formulas (U, U_x, then each band and the
    rhs from them) with the same operands in the same order, so grouping
    rows into blocks changes no bit of the result.
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
        # lower and upper (one block), diag, rhs
        self._bands = np.empty((4, rows))
        # a step unpacks this tuple instead of loading each value as an attribute
        self._constants = (
            a1, a2, sc.beta1, sc.beta2, half_dt, lam_g1, lam_g2,
            a1 + half_dt * lam_g1, a2 + half_dt * lam_g2,
            p.boundary_left, p.boundary_right,
        )
        self._native = native
        if native is not None:
            # the compiled march reads these; the kernel keeps every buffer alive
            self._native_constants = np.array([*self._constants, PIVOT_TOL])
            self._native_args = (
                self._bands.ctypes.data, self.delta.ctypes.data,
                self._native_constants.ctypes.data, rows,
            )

    @functools.cached_property
    def _buffers(self) -> tuple:
        """The views and scratch arrays of :meth:`_fill_bands`, built on its first call."""
        a1, a2, b1, b2 = self._constants[:4]
        bands = self._bands
        rows = bands.shape[1]
        # the (3, rows) sliding window as a plain strided view: the same
        # array sliding_window_view gives, at a twentieth of its set-up cost
        step = self.delta.itemsize
        window = np.ndarray((3, rows), buffer=self.delta, strides=(step, step))
        window.flags.writeable = False
        terms = np.empty((3, rows))
        return (
            window, window[::2], window[0], window[1], window[2],
            np.array([[a1], [a2], [a1]]), np.array([[b1], [b2]]),
            terms, terms[0], terms[1], terms[2], terms[:2],
            np.empty(rows), np.empty(rows), np.empty(rows), bands, bands[:2], bands[2], bands[3],
        )

    def _fill_bands(self) -> None:
        """The four unfolded bands of the current state, into ``_bands``."""
        a1, a2, _, _, half_dt, lam_g1, lam_g2, rhs_outer, rhs_centre = self._constants[:9]
        (w, w02, d0, d1, d2, alphas, betas, t, t0, t1, t2, t01,
         u, ux, a1_ux, bands, lu, diag, rhs) = self._buffers
        mul, add, sub = np.multiply, np.add, np.subtract
        # U = (a1 d0 + a2 d1) + a1 d2,  U_x = b1 d0 + b2 d2
        mul(alphas, w, out=t)
        add(t0, t1, out=u)
        add(u, t2, out=u)
        mul(betas, w02, out=t01)
        add(t0, t1, out=ux)
        # lower, upper = a1 + dt/2 ((a1 U_x + beta U) - lam g1)
        mul(a1, ux, out=a1_ux)
        mul(betas, u, out=lu)
        add(a1_ux, lu, out=lu)
        sub(lu, lam_g1, out=lu)
        mul(half_dt, lu, out=lu)
        add(a1, lu, out=lu)
        # diag = a2 + dt/2 (a2 U_x - lam g2)
        mul(a2, ux, out=diag)
        sub(diag, lam_g2, out=diag)
        mul(half_dt, diag, out=diag)
        add(a2, diag, out=diag)
        # rhs = (a1 + dt/2 lam g1)(d0 + d2) + (a2 + dt/2 lam g2) d1
        add(d0, d2, out=rhs)
        mul(rhs_outer, rhs, out=rhs)
        mul(rhs_centre, d1, out=u)  # U is not needed any more
        add(rhs, u, out=rhs)

    def assemble(self) -> tuple[list[float], list[float], list[float], list[float]]:
        """The folded square system of the current state, as :func:`assemble_step`."""
        a1, a2 = self._constants[:2]
        bc_left, bc_right = self._constants[9:]
        self._fill_bands()
        lower, upper, diag, rhs = self._bands.tolist()
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

    def step(self) -> None:
        """Advance ``delta`` in place by one time step, as ``march(1)``."""
        self.march(1)

    def march(self, steps: int) -> None:
        """Advance ``delta`` in place by ``steps`` time steps.

        A zero pivot raises :class:`~ctburgers.linalg.ZeroPivotError` and
        leaves ``delta`` as it was after the last completed step.
        """
        if self._native is not None:
            while steps > 0:
                row = self._native(*self._native_args, min(steps, MAX_NATIVE_STEPS))
                if row >= 0:
                    raise ZeroPivotError(row)
                steps -= MAX_NATIVE_STEPS
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
    the smallest mesh (N=3) and a larger one (N=64), a zero pivot in the
    first row and in an interior one, and one in the second step.
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
        (np.zeros(8), spec(5, 1.0, 2.0, 0.0, 0.0), flat, 3),
        (np.zeros(8), spec(5, 1.0, 1e-4, 0.0, 0.0), replace(flat, alpha2=1.0, gamma2=0.0), 3),
        (np.linspace(-1.0, 1.0, 8), spec(5, 1.0, 2.0, 0.0, 0.0), vanishing, 3),
    ]


def _finishes_alike(native) -> bool:
    """Whether a march by ``native`` ends with the Python path's bits, or
    the same zero-pivot row, on every known-answer case, each run as one
    multi-step call."""
    for delta, p, sc, steps in _known_answer_cases():
        outcomes = []
        for finisher in (None, native):
            kernel = _StepKernel(delta, p, sc, finisher)
            try:
                kernel.march(steps)
                outcome = None
            except ZeroPivotError as err:
                outcome = err.row
            outcomes.append((outcome, kernel.delta.view(np.int64).tolist()))
        if outcomes[0] != outcomes[1]:
            return False
    return True


@functools.cache
def _native_finish():
    """The compiled step march, or None when steps run in numpy and Python.

    Built on the first call in a process and trusted only when it passes
    :func:`_finishes_alike`.
    """
    lib = _native.load_library()
    if lib is None:
        return None
    march = _bind_march(lib)
    return march if _finishes_alike(march) else None


def _bind_march(lib: ctypes.CDLL):
    """``lib.march`` with the argument and result types of ``_finish.c``."""
    march = lib.march
    march.argtypes = (
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_long,
    )
    march.restype = ctypes.c_long
    return march


def step_finisher() -> str:
    """``"native"`` when steps run in the compiled march, ``"python"`` when they fall back.

    Builds the compiled march if this process has not tried yet.
    """
    return "python" if _native_finish() is None else "native"


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
    return _StepKernel(c.delta, p, sc, None).assemble()


def advance(
    c: CoefficientVector, p: ProblemSpec, sc: SchemeCoefficients
) -> CoefficientVector:
    """One time step: assemble the square system, solve it, restore the phantoms.

    Exactly one linear solve per step; the linearization uses the previous
    level only, with no inner iteration.
    """
    kernel = _StepKernel(c.delta, p, sc, _native_finish())
    kernel.step()
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
    or after t = 0.
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
    kernel = _StepKernel(c.delta, p, sc, _native_finish())
    done = 0
    for k, t in wanted.items():
        if k > done:
            kernel.march(k - done)
            done = k
            out[t] = nodal_values(CoefficientVector(delta=kernel.delta.copy(), time=t), sc)
    kernel.march(n_steps - done)
    return out
