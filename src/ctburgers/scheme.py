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

A small C library (``_finish.c``, built on the first fit, kernel, exact
column or CSV file of a process and loaded with ctypes) has six entry
points: ``march`` takes every step between two sample times in one call,
``fit`` solves the bandwidth-2 system of the initial spline fit, ``rows``
writes the rows of a CSV file with the bytes of ``'%.12g' % v``,
``front`` evaluates :func:`~ctburgers.exact.traveling_wave_exact` on an
array of points, ``sine`` sums the series of
:func:`~ctburgers.exact.sine_wave_exact` on one and ``snapshot`` writes
the rows of a run snapshot around its knot texts, formatted once per run,
each file into one buffer the run's snapshots share.  ``rows`` and
``snapshot`` may write up to 24 bytes past the start of a value, so
every buffer they fill ends in ``_SPARE`` bytes more than its text can
take.  The library is used, all six entry points or none, when it gives the
bits and bytes of the Python path on a fixed set of known-answer marches,
fits, rows, front columns, sine columns and snapshot rows.  Otherwise,
and on machines without a C compiler, each step runs on Python floats,
one loop over the rows and then :func:`~ctburgers.linalg.thomas_sweep`,
the fit in :func:`~ctburgers.linalg.banded_solve`, the rows and the
snapshot rows in one %-template each, the front in numpy with
``math.exp`` point by point and the sine series in numpy one row of
terms at a time.  Every value of the step and the fit has the same
expression on both paths, and the templates and the numpy columns are
the references for the rows and the exact columns, so the results do not
depend on which path runs; :func:`step_finisher` says which does.
:func:`solve_to_time` marches on one kernel and copies the state out
only at sample times; :func:`advance` is a one-step wrapper over the
same kernel.
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
from .exact import RANGE_TOL, _front_column, _sine_column
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

# spare bytes at the end of every buffer the compiled rows and snapshot
# fill: the formatter writes up to 24 bytes past the start of a value, beyond
# its text (_finish.c, layout)
_SPARE = 32


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


def _csv_rows(native: Callable | None, columns, t_text: str):
    """The CSV rows ``c0,<t_text>,c1,...,c_{w-1}`` of ``columns``, w
    columns of n floats each, one line per row and every value written as
    ``'%.12g' % v``, by the compiled ``rows`` when ``native`` is given.

    Without it, one %-template is filled once for all rows: the reference
    the compiled rows are checked against.  Returns the ASCII bytes, or a
    uint8 array holding them.
    """
    values = np.ascontiguousarray(columns, dtype=float)
    width, n = values.shape
    if native is None:
        row = "%.12g," + t_text + ",%.12g" * (width - 1) + "\n"
        return ((row * n) % tuple(values.T.ravel().tolist())).encode("ascii")
    t = t_text.encode("ascii")
    # a value takes at most 19 bytes and one separator
    out = np.empty(n * (20 * width + len(t) + 1) + _SPARE, dtype=np.uint8)
    size = native(values.ctypes.data, width, n, t, out.ctypes.data)
    return out[:size]


def _knot_text(native: Callable | None, xs) -> tuple[bytes, np.ndarray]:
    """The ``'%.12g' % x`` text of every point of ``xs``, each followed by a
    comma, end to end, and the offset where each comma ends: a run formats
    its knot column once for all its snapshots.

    The texts are the one-column rows of :func:`_csv_rows` with an empty t
    text, ``x,`` and a newline each, by the compiled ``rows`` when
    ``native`` is given; the newlines are dropped.
    """
    rows = np.frombuffer(_csv_rows(native, [xs], ""), dtype=np.uint8)
    text = rows[rows != ord("\n")]
    return text.tobytes(), np.flatnonzero(text == ord(",")).astype(np.int64) + 1


def _snapshot_files(native: Callable | None, knots: tuple[bytes, np.ndarray], us, exact,
                    t_texts):
    """The CSV rows ``x,<t_text>,U,exact,|U - exact|`` of each snapshot of a
    run, one file's at a time, each value written as ``'%.12g' % v``, by
    the compiled ``snapshot`` when ``native`` is given.

    ``knots`` is :func:`_knot_text` of the points; ``us``, the rows of
    ``exact`` and ``t_texts`` hold each file's U, exact values and t text.
    |U - exact| is numpy's abs of the difference, or C's ``fabs``: the same
    operation, where an overflow to inf or inf - inf passes silently.
    Without ``native``, one %-template is filled once for each file around
    the knot texts: the reference the compiled rows are checked against,
    yielded as ASCII bytes.

    The compiled path fetches the pointers of the knot ends, the exact
    block and one output buffer, sized for the longest t text, once per
    run, and yields a view of that buffer, which the next file overwrites;
    each U is used in place when it is a C-contiguous float array.
    """
    text, ends = knots
    n = len(ends)
    exact = np.ascontiguousarray(exact, dtype=float)
    if native is None:
        cells = [None] * (4 * n)
        cells[0::4] = text.decode("ascii").split(",")[:-1]
    else:
        t_bytes = [t.encode("ascii") for t in t_texts]
        # each of the three values takes at most 19 bytes and one separator
        out = np.empty(len(text) + n * (max(map(len, t_bytes), default=0) + 61) + _SPARE,
                       dtype=np.uint8)
        view = memoryview(out)
        # ends, exact and out stay bound to names here, so alive, for every call
        ends_at, exact_at, out_at = ends.ctypes.data, exact.ctypes.data, out.ctypes.data
    for k, (u, ue, t_text) in enumerate(zip(us, exact, t_texts)):
        u = np.ascontiguousarray(u, dtype=float)
        if not len(u) == len(ue) == n:
            raise ValueError(f"{n} knots, but {len(u)} numerical and {len(ue)} exact values")
        if native is None:
            with np.errstate(over="ignore", invalid="ignore"):
                err = np.abs(np.subtract(u, ue))
            cells[1::4] = u.tolist()
            cells[2::4] = ue.tolist()
            cells[3::4] = err.tolist()
            row = "%s," + t_text + ",%.12g,%.12g,%.12g\n"
            yield ((row * n) % tuple(cells)).encode("ascii")
        else:
            ue_at = exact_at + k * exact.strides[0]
            yield view[:native(text, ends_at, u.ctypes.data, ue_at, n, t_bytes[k], out_at)]


def _snapshot_rows(native: Callable | None, knots: tuple[bytes, np.ndarray], u, ue,
                   t_text: str):
    """The rows of one snapshot: :func:`_snapshot_files` of one file."""
    return next(_snapshot_files(native, knots, [u], [ue], [t_text]))


class _StepKernel:
    """Crank-Nicolson steps on one state buffer, built once per march.

    ``delta`` is the state buffer (N+3 parameters) the kernel steps in
    place.  ``native`` is the compiled march (see :func:`_compiled`),
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


def _known_answer_rows():
    """Fixed (3, 33) columns and the t text for the rows check.

    They hold exact ties at the 13th digit (2^-18, 100000000000.5 and
    100000000001.5, which round to even), values on both sides of the %g
    switches at 10^-4 and 10^12, where the rounding moves the exponent,
    1e-05 and 1e12, +-0.0, the smallest subnormal and normal doubles, the
    largest double, +-inf, a NaN with its sign bit set, the widest text
    (-1.23456789012e-308), values that, scaled by factors of 10^22 to 12
    integer digits, lie within 2^-51 of a tie, and 21 values whose digit
    pairs take every pair from 00 to 99 in the last five places.

    1 and 12 significant digits of both signs sit at the decimal exponents
    -5, -4, 11 and 12, where the layout switches, and at three-digit ones.
    The doubles on both sides of 10^j for five j check the table of
    rounded-up powers of ten.  Products a 10^22 and quotients a / 10^22
    that round to n + 1/2, and their neighbours, take their side from the
    exact remainder: one lies above n + 1/2, one below.
    """
    tie_4, tie_12 = 9.999999999995e-05, 999999999999.5
    # a * 10^22 and a / 10^22 round to n + 1/2, a little below and above it
    tie_up, tie_down = 1.234567890125e-11, 1.234567890125e+33
    values = [
        2.0**-18, 100000000000.5, 100000000001.5,
        tie_4, math.nextafter(tie_4, 0.0), math.nextafter(tie_4, 1.0), 1e-05, 1e-04,
        tie_12, math.nextafter(tie_12, 0.0), math.nextafter(tie_12, math.inf), 1e12,
        0.0, -0.0, 5e-324, -3e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
        math.inf, -math.inf, math.copysign(math.nan, -1.0), math.nan,
        -1.23456789012e-308, 1e-320,
        0.1, -1.0 / 3.0, 123456.789, -7.0, 1e22, 1e23, 2.0**53, 1e-300,
        6.050602459065e-34, 1.616629688645e-19, 1.383957592355e-12,
        5.760931982955e+34, 1.565497303285e+56, 1.795097866425e+301,
    ]
    for digits in (1.0, 1.23456789012):
        for e in (-5, -4, 11, 12, -300, 250):
            values += [digits * 10.0**e, -digits * 10.0**e]
    for power in (1e-05, 1e1, 1e23, 1e-100, 1e308):
        values += [math.nextafter(power, 0.0), math.nextafter(power, math.inf)]
    for tie in (tie_up, tie_down):
        values += [tie, math.nextafter(tie, 0.0), math.nextafter(tie, math.inf)]
    # 12 digits: a leading pair 10 .. 90, then the pairs 5j .. 5j + 4 (mod 100)
    values += [
        float("%d%s" % (10 + 4 * j, "".join("%02d" % ((5 * j + i) % 100) for i in range(5))))
        * 10.0**(j - 15)
        for j in range(21)
    ]
    return np.array(values).reshape(3, -1), "%.12g" % 0.7


def _known_answer_snapshot():
    """Fixed knots, values and t text for the snapshot check: (knots, u,
    ue, t_text).

    The knots are distinct, so a row takes no other row's knot text.  The
    values hold +-0.0 and subnormals on both sides, differences of both
    signs, one that cancels to -0.0, a NaN in u and one in ue, inf - inf
    and a difference that overflows to inf.
    """
    smallest, subnormal = 5e-324, -2.2250738585072014e-309
    inf, nan, big = math.inf, math.nan, 1.7976931348623157e308
    pairs = [
        (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (smallest, subnormal), (subnormal, 3.0e-310),
        (0.25, 0.75), (0.75, 0.25), (1.0 / 3.0, 0.1), (nan, 0.5), (0.5, nan),
        (inf, inf), (-inf, -inf), (inf, -1.0), (big, -big), (-big, big), (1e-17, 1.0),
    ]
    knots = [0.0625 * j - 0.25 for j in range(len(pairs) - 2)] + [1e-05, 12345.678901234]
    u, ue = zip(*pairs)
    return np.array(knots), np.array(u), np.array(ue), "%.12g" % 0.7


def _known_answer_fronts():
    """Fixed columns for the front check: (points, t, alpha, mu, gamma, lam).

    They hold a point exactly at the front (eta = 0), +-0.0, +-inf and a
    NaN, eta beyond +-745, where the exponential underflows to zero, eta
    from -708.5 to -745, where it is subnormal, a lam so small that eta
    overflows to +-inf, and irregular points around two fronts, one with a
    negative alpha, whose positions mu t + gamma round, so that a regrouped
    eta or an exponential other than ``math.exp``'s moves last bits.
    """
    alpha, mu, gamma = 0.4, 0.6, 0.125
    lam = 1e-4
    # eta = alpha (x - gamma) / lam at t = 0
    edges = [gamma + eta * lam / alpha for eta in (-708.5, -720.0, -745.0, -745.5, 745.5, 1e4)]
    specials = [gamma, 0.0, -0.0, math.inf, -math.inf, math.nan, *edges]
    # around the front at 0.6 * 0.37 + 0.125 eta runs over +-1.2: most
    # exponentials are near 1, so a last bit of exp moves the value
    near = [0.347 + 0.3 * math.sin(0.37 * j + 0.1) for j in range(64)]
    # a front rising to the right, at 0.45 * 0.71 + 0.2; eta over +-12
    wide = [0.52 + 0.4 * math.sin(0.37 * j + 0.1) for j in range(48)]
    return [
        (np.array(specials), 0.0, alpha, mu, gamma, lam),
        (np.array(specials), 0.0, alpha, mu, gamma, 1e-310),
        (np.array(near), 0.37, alpha, mu, gamma, 0.1),
        (np.array(wide), 0.71, -0.3, 0.45, 0.2, 0.01),
    ]


def _known_answer_sines():
    """Fixed columns for the sine check: (points, s, c, factors, scale) as
    :func:`~ctburgers.exact._sine_column` takes them.

    One-term columns with factors 1, 0 and 1 and scale 1 give each point
    the value in s: values on and just past both ends of [-RANGE_TOL,
    1 + RANGE_TOL] and a NaN, at points 0 and 1, inside, outside [0, 1]
    and NaN, so that the first point out of range is point 0 in one
    column, a NaN value at x = 1 after values in range in another, and
    none where only the points outside [0, 1] stray.  Another holds +-0.0 and subnormals in s, c and
    the factors and a denominator that reaches +0.0, under a zero and a
    non-zero numerator.  The last sums 24 terms of both signs at 22
    points, five groups of the C loop's four and two left over, so that
    a regrouped product or another order of the sums moves last bits.
    """
    tol, inf, nan = RANGE_TOL, math.inf, math.nan
    low, high = -tol, 1.0 + tol
    below, above = math.nextafter(low, -inf), math.nextafter(high, inf)

    def values(xs, us):
        us = np.array([us])
        return np.array(xs), us, np.zeros_like(us), np.array([[1.0], [0.0], [1.0]]), 1.0

    smallest, subnormal = 5e-324, -2.2250738585072014e-309
    specials = [0.0, -0.0, smallest, subnormal, 0.5, -0.75]
    special_s = [specials + [0.0, 0.25, -0.25],
                 [3.0e-310, 0.25, -0.0, 0.0, -0.0, smallest, 0.0, 0.25, -0.0]]
    special_c = [specials + [-1.0, -1.0, -1.0], [0.125, -0.0, smallest] + specials]
    terms = np.arange(1.0, 25.0)[:, None]
    points = np.arange(22.0)
    return [
        # the first value out of range is the NaN at x = 1, then 3.0 and inf
        values([-0.25, 1.5, nan, -0.0, 0.0, 0.5, 0.25, 1.0, 0.75, 0.5],
               [-0.7, -1.0, 2.0, low, -0.0, high, 0.5, nan, 3.0, inf]),
        values([0.0, 1.0], [below, above]),
        # every stray value lies at a point outside [0, 1]
        values([-0.25, 1.5, nan, inf, -inf, 1.0], [-0.7, -0.7, nan, 5.0, -5.0, high]),
        # 1 + (2 * -1) * 0.5 = +0.0 at the last three points, the first of
        # them under a zero numerator
        (np.array([0.5, 0.0, 0.25, 1.0, 0.75, 0.125, 0.375, 0.625, 0.875]),
         np.array(special_s), np.array(special_c),
         np.array([[0.75, 1e300], [2.0, subnormal], [0.5, 3.0e-310]]), 0.125),
        (points / 21.0,
         np.sin(0.37 * terms * points + 0.1), np.cos(0.53 * terms * points - 0.2),
         np.vstack([terms.T * 0.93**terms.T, 2.0 * 0.93**terms.T, np.exp(-0.01 * terms.T**2)]),
         0.0125),
    ]


class _Compiled(NamedTuple):
    """The six entry points of ``_finish.c``, typed for ctypes, or six
    Nones when the march, the fit, the CSV rows, the front, the sine
    series and the snapshot rows run in Python."""

    march: Callable | None
    fit: Callable | None
    rows: Callable | None
    # defaults, so that a _Compiled built from fewer entry points keeps
    # the rest in Python
    front: Callable | None = None
    sine: Callable | None = None
    snapshot: Callable | None = None


_PYTHON = _Compiled(None, None, None, None, None, None)


def _bind(lib: ctypes.CDLL) -> _Compiled:
    """``lib.march``, ``lib.fit``, ``lib.rows``, ``lib.front``,
    ``lib.sine`` and ``lib.snapshot`` with the argument and result types
    of ``_finish.c``."""
    march, fit, rows, front, sine, snapshot = (getattr(lib, name) for name in _Compiled._fields)
    march.argtypes = (
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_longlong,
    )
    march.restype = ctypes.c_long
    fit.argtypes = (
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_double,
    )
    fit.restype = ctypes.c_long
    rows.argtypes = (
        ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_char_p, ctypes.c_void_p,
    )
    rows.restype = ctypes.c_long
    front.argtypes = (
        ctypes.c_void_p, ctypes.c_long, *[ctypes.c_double] * 5, ctypes.c_void_p,
    )
    front.restype = None
    sine.argtypes = (
        ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_long, ctypes.c_double, ctypes.c_double, ctypes.c_void_p,
    )
    sine.restype = ctypes.c_long
    snapshot.argtypes = (
        ctypes.c_char_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long,
        ctypes.c_char_p, ctypes.c_void_p,
    )
    snapshot.restype = ctypes.c_long
    return _Compiled(march, fit, rows, front, sine, snapshot)


def _known_answer_outcomes(compiled: _Compiled):
    """The zero-pivot row, or None, and the result bits of every
    known-answer march and fit run by ``compiled``, then the bytes of its
    known-answer rows, the bits of its known-answer front columns, the
    out-of-range point, or -1, and the bits of its known-answer sine
    columns, and the bytes of its known-answer snapshot rows.

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
    yield bytes(_csv_rows(compiled.rows, *_known_answer_rows()))
    for case in _known_answer_fronts():
        yield _front_column(compiled.front, *case).view(np.int64).tolist()
    for case in _known_answer_sines():
        u, k = _sine_column(compiled.sine, *case)
        yield k, u.view(np.int64).tolist()
    knots, u, ue, t_text = _known_answer_snapshot()
    knot_text = _knot_text(compiled.rows, knots)
    yield bytes(_snapshot_rows(compiled.snapshot, knot_text, u, ue, t_text))


def _matches_python(compiled: _Compiled) -> bool:
    """Whether ``compiled`` ends every known-answer march and fit as the
    Python path does, on the same zero-pivot row, or none, with the same
    bits, writes the known-answer rows with the same bytes, gives the
    known-answer front columns the same bits and the known-answer sine
    columns the same bits and the same first out-of-range point, and
    writes the known-answer snapshot rows with the same bytes."""
    return list(_known_answer_outcomes(_PYTHON)) == list(_known_answer_outcomes(compiled))


@functools.cache
def _compiled() -> _Compiled:
    """The compiled march, fit, rows, front, sine and snapshot, or ``_PYTHON`` when all six
    run in Python.

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
    """``"native"`` when the march, the initial fit, the CSV rows, the
    traveling front's columns, the sine series and the snapshot rows run
    in the compiled library, ``"python"`` when all six fall back.

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
