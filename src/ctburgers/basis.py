"""Cubic trigonometric B-spline basis on a uniform knot grid.

The basis functions are built from half-angle sine factors, are C²
continuous, and each one is supported over four mesh cells.  Besides the
closed-form evaluator this module provides the six knot-value constants
that the collocation scheme is assembled from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UniformPartition",
    "SchemeCoefficients",
    "ctb_eval",
    "ctb_deriv",
    "knot_coefficients",
]

# Upper bound on the mesh spacing: theta = sin(h/2)sin(h)sin(3h/2) must
# stay away from zero, which holds for 0 < h < 2*pi/3.
H_MAX = 2.0 * math.pi / 3.0

# the most cells a partition may have: the initial fit of a mesh this fine
# already holds on the order of a gigabyte
MAX_CELLS = 10**7


@dataclass(frozen=True)
class UniformPartition:
    """Uniform grid of ``n_cells`` cells on [a, b], plus extension knots.

    ``knot(i)`` is defined for i in {-2, ..., n_cells + 3} so that every
    basis function overlapping [a, b] has its full support available.
    ``n_cells`` lies in [3, ``MAX_CELLS``].
    """

    a: float
    b: float
    n_cells: int
    h: float = field(init=False)

    def __post_init__(self):
        if self.n_cells < 3:
            raise ValueError(f"n_cells must be >= 3, got {self.n_cells}")
        if self.n_cells > MAX_CELLS:
            raise ValueError(f"n_cells must be <= {MAX_CELLS:.0e}, got {self.n_cells}")
        h = (self.b - self.a) / self.n_cells
        if not 0.0 < h < H_MAX:
            raise ValueError(
                f"mesh spacing h={h!r} outside (0, 2*pi/3); "
                "the basis normalizer sin(h/2)sin(h)sin(3h/2) would vanish"
            )
        object.__setattr__(self, "h", h)

    def knot(self, i: int) -> float:
        if not -2 <= i <= self.n_cells + 3:
            raise IndexError(f"knot index {i} outside [-2, {self.n_cells + 3}]")
        return self.a + i * self.h

    def knots(self) -> list[float]:
        """The n_cells + 1 knots inside [a, b]."""
        return self.knot_array().tolist()

    def knot_array(self) -> np.ndarray:
        """:meth:`knots` as an array: ``a + i * h``, the bits of :meth:`knot`."""
        return self.a + np.arange(self.n_cells + 1) * self.h

    @property
    def theta(self) -> float:
        h = self.h
        return math.sin(0.5 * h) * math.sin(h) * math.sin(1.5 * h)


@dataclass(frozen=True)
class SchemeCoefficients:
    """Knot values of the basis and its first two derivatives.

    ``alpha`` entries are basis values, ``beta`` first-derivative values and
    ``gamma`` second-derivative values at the center knot (index 2) and its
    immediate neighbours (index 1); all are functions of the spacing h only.
    """

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    gamma1: float
    gamma2: float


def knot_coefficients(h: float) -> SchemeCoefficients:
    """Compute the six collocation constants for mesh spacing ``h``.

    ``gamma2`` is not the second derivative of a single basis function at
    its center knot (that value is ``-3*cot^2(h/2)/(2+4*cos h)``, available
    through :func:`ctb_deriv`); it is snapped to ``-2*gamma1`` so that the
    discrete second derivative of any constant nodal state vanishes
    identically.  The two quantities agree to O(h^2) relative (9e-9 at
    h = 0.025); without the snap a constant state would drift by
    O(viscosity * dt * h^2) per time step.
    """
    if not 0.0 < h < H_MAX:
        raise ValueError(f"h={h!r} outside (0, 2*pi/3)")
    sh, s3h = math.sin(0.5 * h), math.sin(1.5 * h)
    alpha1 = sh * sh / (math.sin(h) * s3h)
    alpha2 = 2.0 / (1.0 + 2.0 * math.cos(h))
    beta2 = 0.75 / s3h
    gamma1 = (
        3.0
        * (1.0 + 3.0 * math.cos(h))
        / (sh * sh * 16.0 * (2.0 * math.cos(0.5 * h) + math.cos(1.5 * h)))
    )
    return SchemeCoefficients(
        alpha1=alpha1,
        alpha2=alpha2,
        beta1=-beta2,
        beta2=beta2,
        gamma1=gamma1,
        gamma2=-2.0 * gamma1,
    )


# ---------------------------------------------------------------------------
# Closed-form evaluation.
#
# Each piece is a polynomial in the factors sin((x - x_j)/2) and
# sin((x_j - x)/2).  We carry (value, d/dx, d2/dx2) triples through the
# products, which is exact symbolic differentiation via the Leibniz rule:
# every factor f satisfies f'' = -f/4, so no further terms appear.
# ---------------------------------------------------------------------------


def _omega(x: float, xj: float):
    # sin((x - xj)/2) and its two derivatives
    u = 0.5 * (x - xj)
    s, c = math.sin(u), math.cos(u)
    return (s, 0.5 * c, -0.25 * s)


def _phi(x: float, xj: float):
    # sin((xj - x)/2) and its two derivatives
    u = 0.5 * (xj - x)
    s, c = math.sin(u), math.cos(u)
    return (s, -0.5 * c, -0.25 * s)


def _mul(p, q):
    return (
        p[0] * q[0],
        p[1] * q[0] + p[0] * q[1],
        p[2] * q[0] + 2.0 * p[1] * q[1] + p[0] * q[2],
    )


def _add(p, q):
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2])


def _eval_with_derivatives(i: int, x: float, p: UniformPartition):
    """(value, first, second derivative) of basis ``i`` at ``x``."""
    theta = p.theta
    if theta == 0.0:
        raise ValueError("degenerate partition: basis normalizer is zero")
    h = p.h
    x_im2 = p.a + (i - 2) * h
    t = (x - x_im2) / h  # position inside the 4-cell support
    if t < 0.0 or t > 4.0:
        return (0.0, 0.0, 0.0)
    cell = min(int(t), 3)

    om2 = _omega(x, x_im2)
    if cell == 0:
        out = _mul(om2, _mul(om2, om2))
    elif cell == 1:
        om1 = _omega(x, x_im2 + h)
        p0 = _phi(x, x_im2 + 2 * h)
        p1 = _phi(x, x_im2 + 3 * h)
        p2 = _phi(x, x_im2 + 4 * h)
        out = _add(
            _mul(om2, _add(_mul(om2, p0), _mul(p1, om1))),
            _mul(p2, _mul(om1, om1)),
        )
    elif cell == 2:
        om1 = _omega(x, x_im2 + h)
        o0 = _omega(x, x_im2 + 2 * h)
        p1 = _phi(x, x_im2 + 3 * h)
        p2 = _phi(x, x_im2 + 4 * h)
        out = _add(
            _mul(om2, _mul(p1, p1)),
            _mul(p2, _add(_mul(om1, p1), _mul(p2, o0))),
        )
    else:
        p2 = _phi(x, x_im2 + 4 * h)
        out = _mul(p2, _mul(p2, p2))
    return (out[0] / theta, out[1] / theta, out[2] / theta)


def ctb_eval(i: int, x: float, p: UniformPartition) -> float:
    """Value of the i-th cubic trigonometric B-spline at ``x``.

    The function is supported on (knot(i-2), knot(i+2)); outside it the
    result is exactly 0.
    """
    return _eval_with_derivatives(i, x, p)[0]


def ctb_deriv(i: int, x: float, p: UniformPartition, order: int) -> float:
    """Analytic first or second derivative of the i-th basis at ``x``."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    return _eval_with_derivatives(i, x, p)[order]
