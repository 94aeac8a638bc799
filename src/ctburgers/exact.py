"""Reference solutions of the viscous Burgers equation.

Two benchmark solutions are provided: the Fourier series with modified
Bessel coefficients for the decaying sine wave on [0, 1] (homogeneous
boundaries), and the closed-form traveling wave front.  The modified
Bessel functions are computed in-module; for small viscosity the series
is evaluated entirely through the ratios I_j(z)/I_0(z), which stay O(1)
even when the raw function values overflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeriesControl",
    "SeriesConvergenceError",
    "bessel_i",
    "bessel_i_ratio",
    "sine_wave_exact",
    "traveling_wave_exact",
]

# switch point between the ascending power series and Miller's backward
# recurrence for I_n(z)
SERIES_Z_MAX = 15.0


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
    # ascending series: sum_m (z/2)^(order+2m) / (m! (order+m)!); all terms
    # positive, so no cancellation.  The leading term is formed in log
    # space to survive large orders.
    half = 0.5 * z
    log_lead = order * math.log(half) - math.lgamma(order + 1)
    if log_lead < -745.0:
        return 0.0  # underflows double precision
    term = math.exp(log_lead)
    total = term
    zz4 = half * half
    m = 1
    while True:
        term *= zz4 / (m * (m + order))
        total += term
        if term < 1e-17 * total:
            return total
        m += 1
        if m > 10_000:  # unreachable for finite z
            raise SeriesConvergenceError("ascending Bessel series stalled")


def _miller_backward(jmax: int, z: float) -> tuple[list[float], float]:
    """Backward-recurrence values b_j proportional to I_j(z), j = 0..jmax,
    plus the normalizer ``b_0 + 2*sum_{k>=1} b_k`` (proportional to exp(z)).

    Starts high enough above ``jmax`` that the downward recursion has
    converged to the minimal solution; the start order is raised until two
    successive answers agree on the scale-free ratios b_j/b_0.
    """
    start = jmax + max(25, int(2.0 * math.sqrt((jmax + 40.0) * max(z, 1.0))))
    prev = None
    while True:
        vals = [0.0] * (jmax + 1)
        b_hi, b = 0.0, 1e-280
        total = 0.0
        for k in range(start, 0, -1):
            b_lo = b_hi + (2.0 * k / z) * b
            b_hi, b = b, b_lo
            total += b if k == 1 else 2.0 * b
            if abs(b) > 1e260:
                scale = 1e-260
                b *= scale
                b_hi *= scale
                total *= scale
                for j in range(jmax + 1):
                    vals[j] *= scale
            if k - 1 <= jmax:
                vals[k - 1] = b
        ratios = [v / vals[0] for v in vals]
        if prev is not None and all(
            abs(r - q) <= 1e-15 * abs(r) + 1e-305 for r, q in zip(ratios, prev)
        ):
            return vals, total
        prev = ratios
        start += 32


def bessel_i(order: int, z: float) -> float:
    """Modified Bessel function of the first kind, integer order, z >= 0.

    Uses the ascending power series for small arguments and Miller's
    backward recurrence normalized by the identity
    ``exp(z) = I_0(z) + 2*sum_k I_k(z)`` for larger ones.

    Raises
    ------
    OverflowError
        If the (unscaled) result exceeds the double-precision range.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if z < 0.0:
        raise ValueError("z must be >= 0")
    if z == 0.0:
        return 1.0 if order == 0 else 0.0
    if z <= SERIES_Z_MAX:
        return _bessel_i_series(order, z)
    if z > 709.0:
        # I_0(z) ~ exp(z)/sqrt(2 pi z) already overflows
        raise OverflowError(f"I_{order}({z}) exceeds double-precision range")
    vals, norm = _miller_backward(order, z)
    return vals[order] / norm * math.exp(z)


def bessel_i_ratio(order: int, z: float) -> float:
    """I_order(z) / I_0(z) computed without forming either value."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if not z > 0.0:
        raise ValueError("z must be positive")
    vals, _ = _miller_backward(order, z)
    return vals[order] / vals[0]


@functools.lru_cache(maxsize=16)
def _bessel_ratios(jmax: int, z: float) -> tuple[float, ...]:
    # one backward recurrence yields every ratio up to jmax; cached because
    # every (x, t) of one viscosity needs the same ratios
    vals, _ = _miller_backward(jmax, z)
    b0 = vals[0]
    return tuple(v / b0 for v in vals)


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
    ratios = _bessel_ratios(min(64, ctl.max_terms), z)
    for j in range(1, ctl.max_terms + 1):
        if j >= len(ratios):
            ratios = _bessel_ratios(2 * len(ratios), z)
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


def sine_wave_exact(x, t: float, lam: float, ctl: SeriesControl = SeriesControl()):
    """Decaying sine-wave solution on [0, 1] with U(0,t) = U(1,t) = 0.

    ``x`` is a float or a 1-D array; a float gives a float, an array an
    array of the same length.  Evaluates the Fourier-Bessel quotient with
    both sums expressed through the ratios I_j(z)/I_0(z), z = 1/(2 pi lam).
    Truncation stops once the x-independent bound on the next term of each
    sum falls below ``ctl.abs_tol``, so every point of one call sums the
    same J terms, in ascending j; each value is bit-identical to a call
    with that point alone.  At t = 0 the series does not decay and the
    value is the initial condition sin(pi x) itself.
    """
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    if t < 0.0:
        raise ValueError("t must be >= 0")
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError("x must be a float or a 1-D array")
    xs = xs.reshape(-1)
    if t == 0.0:
        u = np.sin(np.pi * xs)
    else:
        jr, r2, e = (np.array(f)[:, None] for f in _series_factors(t, lam, ctl))
        s, c = _sincospi(np.multiply.outer(np.arange(1, len(e) + 1), xs))
        num = np.zeros_like(xs)
        den = np.ones_like(xs)
        # one row per term, added in ascending j like the scalar sum
        for num_j, den_j in zip(jr * s * e, r2 * c * e):
            num += num_j
            den += den_j
        u = 4.0 * math.pi * lam * num / den
    return float(u[0]) if np.ndim(x) == 0 else u


def traveling_wave_exact(
    x: float, t: float, alpha: float, mu: float, gamma: float, lam: float
) -> float:
    """Closed-form wave front moving right at speed ``mu``.

    The value falls from ``alpha + mu`` far left of the front to
    ``mu - alpha`` far right; ``lam`` controls the front width.  The
    positive-exponent side is rearranged so the exponential never
    overflows.
    """
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    eta = alpha * (x - mu * t - gamma) / lam
    if eta > 0.0:
        em = math.exp(-eta)
        return ((alpha + mu) * em + (mu - alpha)) / (em + 1.0)
    e = math.exp(eta)
    return (alpha + mu + (mu - alpha) * e) / (1.0 + e)


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
