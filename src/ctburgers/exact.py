"""Reference solutions of the viscous Burgers equation.

Two benchmark solutions are provided: the Fourier series with modified
Bessel coefficients for the decaying sine wave on [0, 1] (homogeneous
boundaries), which starts from :func:`sine_pulse`, and the closed-form
traveling wave front.  This module alone evaluates solution values: each
solution is one function of a 1-D array of points, which the package
calls with arrays only, and a float is a one-point array through the same
code.  Each also has a ``*_columns`` form that evaluates an array of
points at many times in one pass, row by row with the bits of the calls
at each time.  An array of points on the front, the sum of the sine
wave's series over an array and the sine pulse are one call into the
compiled library of :mod:`ctburgers._native` per time when that passed
its check.  Either path only sums the sine wave's series:
:func:`sine_wave_columns` checks the values of all its times against
[0, 1] at once.  The modified Bessel functions are computed in-module:
:func:`bessel_i` is their ascending series, and the sine wave's series
is evaluated entirely through the ratios I_j(z)/I_0(z) of Miller's
backward recurrence, which stay O(1) even when the raw function values
overflow.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from . import _native

__all__ = [
    "SeriesControl",
    "SeriesConvergenceError",
    "bessel_i",
    "sine_pulse",
    "sine_wave_columns",
    "sine_wave_exact",
    "traveling_wave_columns",
    "traveling_wave_exact",
]

# highest start order of Miller's backward recurrence, which grows like sqrt(z)
MAX_START_ORDER = 100_000

# log of the largest double: a Bessel term above it overflows
_LOG_DBL_MAX = math.log(sys.float_info.max)

# how far a sine-wave value on [0, 1] may stray outside [0, 1], the bounds
# of its data, before it counts as a lost sum rather than rounding
RANGE_TOL = 1e-9


class SeriesConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the sine-wave series."""

    abs_tol: float = 1e-12
    max_terms: int = 500

    def __post_init__(self):
        if not self.abs_tol > 0.0:
            raise ValueError("abs_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


def _bessel_i_series(order: int, z: float) -> float:
    # ascending series (Abramowitz & Stegun 9.6.10): the sum over m of
    # t_m = (z/2)^(order+2m) / (m! (order+m)!), summed relative to its
    # largest term t_peak.  All terms are positive, so no cancellation;
    # t_m / t_{m-1} = (z/2)^2 / (m (m + order)) is at least 1 up to the peak
    # and below 1 after it, so the relative sum starts at 1 and adds terms
    # outward in both directions until they no longer count.  t_peak is
    # formed in log space, so neither it nor the sum overflows before the
    # value does, and a value beyond the largest double raises
    # ``OverflowError``.
    half = 0.5 * z
    zz4 = half * half
    # m (m + order) = (z/2)^2 at the peak; rounding may move it by one term,
    # which the sums outward from it do not need to know
    peak = int(0.5 * (math.hypot(order, z) - order))
    log_peak = (
        (order + 2 * peak) * math.log(half) - math.lgamma(peak + 1) - math.lgamma(order + peak + 1)
    )
    if log_peak > _LOG_DBL_MAX:
        raise OverflowError(f"I_{order}({z}) exceeds double-precision range")
    total = 1.0
    term = 1.0
    m = peak
    while m > 0 and term >= 1e-17 * total:
        term *= m * (m + order) / zz4
        total += term
        m -= 1
    term = 1.0
    m = peak + 1
    while term >= 1e-17 * total:
        term *= zz4 / (m * (m + order))
        total += term
        m += 1
    largest = math.exp(log_peak)
    if largest < sys.float_info.min:
        # a subnormal t_peak would keep only some of its digits
        return math.exp(log_peak + math.log(total))
    value = largest * total
    if value == math.inf:
        raise OverflowError(f"I_{order}({z}) exceeds double-precision range")
    return value


@functools.lru_cache(maxsize=16)
def _miller_backward(jmax: int, z: float) -> tuple[float, ...]:
    """The ratios I_j(z)/I_0(z), j = 0..jmax, from Miller's backward
    recurrence: the sine oracle's coefficients, cached because every
    (x, t) of one viscosity needs the same ones.

    Starts high enough above ``jmax`` that the downward recursion has
    converged to the minimal solution; the start order is raised until two
    successive answers agree on the ratios.  Raises
    :class:`SeriesConvergenceError` if the recurrence overflows, which the
    step (2k/z) b does once z is below about 1e-47, or if the start order
    passes ``MAX_START_ORDER``, which it does once z exceeds a few times 1e7.
    """
    # an infinite root, once the product overflows, starts above the cap too
    root = 2.0 * math.sqrt((jmax + 40.0) * max(z, 1.0))
    start = jmax + max(25, int(min(root, MAX_START_ORDER + 1)))
    prev = None
    while True:
        if start > MAX_START_ORDER:
            raise SeriesConvergenceError(
                f"Bessel backward recurrence would start above order {MAX_START_ORDER} at z={z}"
            )
        vals = [0.0] * (jmax + 1)
        b_hi, b = 0.0, 1e-280
        for k in range(start, 0, -1):
            b_lo = b_hi + (2.0 * k / z) * b
            b_hi, b = b, b_lo
            if not abs(b) <= 1e260:
                if not math.isfinite(b):
                    raise SeriesConvergenceError(
                        f"Bessel backward recurrence overflows at z={z}"
                    )
                scale = 1e-260
                b *= scale
                b_hi *= scale
                for j in range(jmax + 1):
                    vals[j] *= scale
            if k - 1 <= jmax:
                vals[k - 1] = b
        ratios = tuple(v / vals[0] for v in vals)
        if prev is not None and all(
            abs(r - q) <= 1e-15 * abs(r) + 1e-305 for r, q in zip(ratios, prev)
        ):
            return ratios
        prev = ratios
        start += 32


def bessel_i(order: int, z: float) -> float:
    """Modified Bessel function of the first kind, integer order, z >= 0.

    One algorithm: the ascending power series, summed relative to its
    largest term.  A value that a bound on the series puts below the
    smallest double is 0.0 at once, and any other gives the series' value,
    above z = 709 too (I_1000(710) = 2.16e34).

    Against 50-digit mpmath the relative error is within 1e-12 at orders
    up to 200 and 5e-12 up to order 1600, for z from 1e-320 to 708.9; a
    value in the subnormal range is within 1e-322.  The error grows with
    the order and z: the largest term is the exponential of a log of
    magnitude about (order + 2 m) log(z/2), m the index of that term, and
    the rounding of that log, about 1e-16 of its magnitude, is the
    value's relative error: 6.6e-11 at I_30000(20000).

    Raises
    ------
    ValueError
        If ``order`` is not an integer >= 0 or ``z`` is negative or NaN.
    OverflowError
        If the value exceeds the largest double, as I_0(z) does from
        z = 713.987 on, or (z/2)^2 does.
    """
    try:
        order = operator.index(order)
    except TypeError:
        raise ValueError(f"order must be an integer, got {order!r}") from None
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order!r}")
    if not z >= 0.0:
        raise ValueError(f"z must be >= 0, got {z!r}")
    if z == 0.0:
        return 1.0 if order == 0 else 0.0
    # I_n(z) <= (z/2)^n e^(z^2 / (4 (n + 1))) / n!; below e^-746, under half the
    # smallest double, the value rounds to 0.0
    if order * math.log(0.5 * z) + z * z / (4 * (order + 1)) - math.lgamma(order + 1) < -746.0:
        return 0.0
    if 0.25 * z * z == math.inf:
        # every term beyond the first has the factor (z/2)^2
        raise OverflowError(f"I_{order}({z}) exceeds double-precision range")
    return _bessel_i_series(order, z)


def _series_factors(
    t: float, lam: float, ctl: SeriesControl
) -> tuple[list[float], list[float], list[float]]:
    """x-independent factors ``j*r_j``, ``2*r_j`` and ``exp(-j^2 pi^2 lam t)``
    of the terms j = 1..J, r_j = I_j(z)/I_0(z).  J is the first j at which
    the bound on the next term of each sum falls below ``ctl.abs_tol``; the
    bound holds for every x, so one J serves a whole column of points."""
    z = 1.0 / (2.0 * math.pi * lam)
    decay = math.pi * math.pi * lam * t
    jr, r2, es = [], [], []
    ratios = _miller_backward(min(64, ctl.max_terms), z)
    for j in range(1, ctl.max_terms + 1):
        if j >= len(ratios):
            ratios = _miller_backward(2 * len(ratios), z)
        r = ratios[j]
        e = math.exp(-j * j * decay) if j * j * decay < 745.0 else 0.0
        jr.append(j * r)
        r2.append(2.0 * r)
        es.append(e)
        if j * r * e < ctl.abs_tol and 2.0 * r * e < ctl.abs_tol:
            return jr, r2, es
    raise SeriesConvergenceError(
        f"series not converged within {ctl.max_terms} terms (lam={lam}, t={t})"
    )


def _sincospi(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # sin(pi*y) and cos(pi*y) with the period reduction done on y itself,
    # so sin is exactly 0 and cos exactly +-1 at integer y (the series must
    # vanish identically at the domain ends, where the sum otherwise
    # cancels catastrophically)
    y = np.fmod(y, 2.0)
    s = np.sin(np.pi * y)
    s[y == np.floor(y)] = 0.0
    y = np.abs(y)
    c = np.cos(np.pi * y)
    c[y == 0.0] = 1.0
    c[y == 1.0] = -1.0
    return s, c


@functools.lru_cache(maxsize=4)
def _trig_table(x_bytes: bytes, terms: int) -> tuple[np.ndarray, np.ndarray]:
    # sin(pi j x) and cos(pi j x) for j = 1..terms do not depend on t: one
    # sine_wave_columns call takes one table for all of its times, and
    # later calls on the same points, such as sine_wave_exact at each t,
    # reuse it; read-only because every caller shares it
    xs = np.frombuffer(x_bytes)
    s, c = _sincospi(np.multiply.outer(np.arange(1, terms + 1), xs))
    s.flags.writeable = False
    c.flags.writeable = False
    return s, c


def sine_pulse(x):
    """sin(pi x), the sine problem's initial condition, for a float or a
    1-D array of points.

    A float is a one-point array: either is one call of :func:`_pulse`,
    the compiled ``pulse`` when the library passed its check, and
    ``math.sin`` point by point otherwise.  Both take libm's ``sin`` of
    the same angles, because ``np.sin`` can differ from it in the last bit
    and the fit would then move, and both raise ``math.sin``'s
    ``ValueError`` at an infinite angle.
    """
    u = _pulse(_native.compiled().pulse, _points(x))
    return float(u[0]) if np.ndim(x) == 0 else u


def _points(x) -> np.ndarray:
    """``x``, a float or a 1-D array, as a C-contiguous 1-D float array."""
    xs = np.ascontiguousarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError("x must be a float or a 1-D array")
    return xs


def _pulse(native, xs: np.ndarray) -> np.ndarray:
    """sin(pi x) at the points ``xs``, a C-contiguous 1-D float array.

    The compiled ``pulse``, when ``native`` is given, writes every value
    in one call and reports the first infinite angle, where this raises
    the error ``math.sin`` raises there.  Without it, ``math.sin`` point
    by point: the reference the compiled pulse is checked against.
    """
    n = len(xs)
    if native is None:
        # an angle that overflows is infinite, as in C, and math.sin raises there
        with np.errstate(over="ignore"):
            angles = (math.pi * xs).tolist()
        return np.fromiter(map(math.sin, angles), float, n)
    out = np.empty(n)
    first_inf = native(_native.address(xs), n, _native.address(out))
    if first_inf >= 0:
        math.sin(math.pi * float(xs[first_inf]))  # raises, in math.sin's own words
    return out


def sine_wave_exact(x, t: float, lam: float, ctl: SeriesControl = SeriesControl()):
    """Decaying sine-wave solution on [0, 1] with U(0,t) = U(1,t) = 0.

    ``x`` is a float or a 1-D array; a float gives a float, an array an
    array of the same length.  Evaluates the Fourier-Bessel quotient with
    both sums expressed through the ratios I_j(z)/I_0(z), z = 1/(2 pi lam).
    Truncation stops once the x-independent bound on the next term of each
    sum falls below ``ctl.abs_tol``, so every point of one call sums the
    same J terms, in ascending j; each value is bit-identical to a call
    with that point alone.  The t-independent table of sin(pi j x) and
    cos(pi j x) is cached per (points, J), so calls at many t on the same
    points build it once.  An array is the one row of
    :func:`sine_wave_columns` at t, summed by :func:`_sine_rows`.  At
    t = 0 the series does not decay and the value is :func:`sine_pulse`,
    the initial condition itself.

    Raises
    ------
    SeriesConvergenceError
        If the series does not converge within ``ctl.max_terms`` terms, or
        if a value at a point 0 <= x <= 1 lies outside [0, 1] by more than
        ``RANGE_TOL``: the maximum principle bounds the solution there, so
        such a value means the double-precision sum has lost its accuracy.
        Points outside [0, 1] follow the odd periodic extension and are
        not checked.
    """
    u = sine_wave_columns(x, (t,), lam, ctl)[0]
    return float(u[0]) if np.ndim(x) == 0 else u


def sine_wave_columns(x, ts, lam: float, ctl: SeriesControl = SeriesControl()) -> np.ndarray:
    """:func:`sine_wave_exact` at the points ``x`` at every time of ``ts``,
    in one pass: row k of the (len(ts), len(x)) result has the bits of
    ``sine_wave_exact(x, ts[k], lam, ctl)``.

    The factors of every time are found first, then one sin/cos table is
    taken for the largest J, and a time with fewer terms sums its first
    rows: each entry of the table is computed alone, so they have the bits
    of a smaller table's.  The rows are :func:`_sine_rows`, and the whole
    block is checked against [0, 1] at once; the first stray value in
    row-major order, that of the earliest time, is the one reported.
    Raises what the calls at ``ts`` in their order would raise first: a
    time whose factors fail raises after the values of the times before
    it have been checked.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError("lam must be positive and finite")
    xs = _points(x)
    # the factors j r_j, 2 r_j and e_j of each time, end to end, and J, 0 at t = 0
    flat, terms, failure = [], [], None
    for t in ts:
        try:
            if not t >= 0.0:  # a NaN t fails too
                raise ValueError("t must be >= 0")
            if t == 0.0:
                terms.append(0)
                continue
            jr, r2, es = _series_factors(t, lam, ctl)
        except (ValueError, SeriesConvergenceError) as err:
            failure = err
            break
        flat += jr + r2 + es
        terms.append(len(jr))
    factors = np.array(flat)
    s = c = None
    if flat:
        s, c = _trig_table(xs.tobytes(), max(terms))
    out = _sine_rows(_native.compiled(), xs, s, c, factors, terms, 4.0 * math.pi * lam)
    # a NaN value is outside too; a NaN point is not in [0, 1]
    stray = ~((out >= -RANGE_TOL) & (out <= 1.0 + RANGE_TOL)) & (xs >= 0.0) & (xs <= 1.0)
    if stray.any():
        k, i = divmod(int(np.argmax(stray)), len(xs))
        raise SeriesConvergenceError(
            f"series value {out[k, i]:.6g} at x={xs[i]:.6g} lies outside [0, 1]"
            f" (lam={lam}, t={ts[k]}): the sum has lost its accuracy"
        )
    if failure is not None:
        raise failure
    return out


def _sine_rows(compiled: _native._Compiled, xs: np.ndarray, s, c, factors: np.ndarray,
               terms, scale: float) -> np.ndarray:
    """The sine-wave series at the points ``xs``, one row for each J of
    ``terms``.

    ``s`` and ``c`` are the tables of sin(pi j x) and cos(pi j x) with at
    least max(terms) rows, ``factors`` the rows ``j*r_j``, ``2*r_j`` and
    ``e_j`` of :func:`_series_factors` of each J > 0, end to end, and
    ``scale`` is 4 pi lam; every array is C-contiguous.  A row with J = 0,
    the value at t = 0, is :func:`_pulse` of ``compiled.pulse``.  The
    compiled ``sine``, when ``compiled`` has one, is called once per row,
    into it, with the pointers fetched once.  Without it, numpy adds one
    row of terms at a time in ascending j, like the scalar sum: the
    reference the compiled sum is checked against.  Neither checks the
    values: an overflowing term or a zero denominator gives an inf or NaN
    value, which :func:`sine_wave_columns` flags.
    """
    n = len(xs)
    out = np.empty((len(terms), n))
    native = compiled.sine
    if native is not None and factors.size:
        # the cached tables are read-only, so they take ndarray.ctypes.data
        s_at, c_at, f_at, out_at = map(_native.address, (s, c, factors, out))
    start = 0
    for k, j in enumerate(terms):
        if j == 0:
            # at t = 0 the series does not decay: the initial condition itself
            out[k] = _pulse(compiled.pulse, xs)
            continue
        if native is not None:
            native(n, s_at, c_at, f_at + 8 * start, j, scale, out_at + 8 * k * n)
        else:
            jr, r2, e = factors[start:start + 3 * j].reshape(3, j, 1)
            num = np.zeros_like(xs)
            den = np.ones_like(xs)
            # in C the overflow and the division pass silently too
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                for num_j, den_j in zip(jr * s[:j] * e, r2 * c[:j] * e):
                    num += num_j
                    den += den_j
                out[k] = scale * num / den
        start += 3 * j
    return out


def traveling_wave_exact(x, t: float, alpha: float, mu: float, gamma: float, lam: float):
    """Closed-form wave front moving right at speed ``mu``.

    ``x`` is a float or a 1-D array; a float gives a float, an array an
    array of the same length.  The value falls from ``alpha + mu`` far
    left of the front to ``mu - alpha`` far right; ``lam`` controls the
    front width.  The positive-exponent side is rearranged so the
    exponential never overflows.  A float is a one-point array: either is
    the one row of :func:`traveling_wave_columns` at t, by
    :func:`_front_rows`, each value bit-identical to a call with that
    point alone.
    """
    u = traveling_wave_columns(x, (t,), alpha, mu, gamma, lam)[0]
    return float(u[0]) if np.ndim(x) == 0 else u


def traveling_wave_columns(x, ts, alpha: float, mu: float, gamma: float,
                           lam: float) -> np.ndarray:
    """:func:`traveling_wave_exact` at the points ``x`` at every time of
    ``ts``: row k of the (len(ts), len(x)) result has the bits of
    ``traveling_wave_exact(x, ts[k], alpha, mu, gamma, lam)``: the rows
    of :func:`_front_rows`.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError("lam must be positive and finite")
    return _front_rows(_native.compiled().front, _points(x), ts, alpha, mu, gamma, lam)


def _front_rows(native, xs: np.ndarray, ts, alpha: float, mu: float, gamma: float,
                lam: float) -> np.ndarray:
    """:func:`traveling_wave_exact` at the points ``xs``, a C-contiguous
    1-D float array, one row for each time of ``ts``.

    The compiled ``front``, when ``native`` is given, is called once per
    time, into its row, with the pointers fetched once.  Without it, numpy
    operations with the exponential on ``math.exp`` point by point,
    because ``np.exp`` differs from it in the last bit for some arguments:
    the reference the compiled front is checked against.
    """
    n = len(xs)
    out = np.empty((len(ts), n))
    if native is not None:
        x_at, out_at = _native.address(xs), _native.address(out)
        for k, t in enumerate(ts):
            native(x_at, n, alpha, mu, t, gamma, lam, out_at + 8 * k * n)
        return out
    far_left, far_right = alpha + mu, mu - alpha
    for k, t in enumerate(ts):
        # an eta beyond the double range is the far field: its exponential
        # is 0, as in C, where the overflow passes silently too
        with np.errstate(over="ignore"):
            eta = alpha * (xs - mu * t - gamma) / lam
        right = eta > 0.0
        e = np.fromiter(map(math.exp, np.where(right, -eta, eta).tolist()), float, n)
        out[k] = np.where(
            right, (far_left * e + far_right) / (e + 1.0), (far_left + far_right * e) / (1.0 + e)
        )
    return out


def traveling_wave_slope(
    x: float, t: float, alpha: float, mu: float, gamma: float, lam: float
) -> float:
    """Space derivative of :func:`traveling_wave_exact` (used for the
    derivative end conditions of the initial fit)."""
    eta = alpha * (x - mu * t - gamma) / lam
    # exp(eta)/(1+exp(eta))^2 == sech^2(eta/2)/4; the negative-exponent
    # form underflows to 0 instead of overflowing for steep fronts
    em = math.exp(-0.5 * abs(eta))
    sech = 2.0 * em / (1.0 + em * em)
    return -(alpha * alpha / lam) * 0.5 * sech * sech
