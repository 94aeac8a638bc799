"""Direct solvers for the small banded systems of the collocation method.

Both solvers run plain Gaussian elimination without pivoting.  Nothing
checks that a matrix is diagonally dominant, and the step matrices are
not for every accepted input; a pivot below ``PIVOT_TOL`` in magnitude
raises :class:`ZeroPivotError` instead of being repaired.

:func:`thomas_sweep` is the tridiagonal kernel of the Python step path,
and :func:`banded_solve` the solver of the initial spline fit.  The
compiled library (``_finish.c``, see :mod:`ctburgers.scheme`) repeats
each of them in C, ``march`` the sweep within whole steps and ``fit``
the band elimination, with the same operations in the same order and
the same ``PIVOT_TOL``, and is used only where it gives the same bits.
Both functions stay the fallback and the reference.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ZeroPivotError", "thomas_sweep", "banded_solve"]

PIVOT_TOL = 1e-300


class ZeroPivotError(ArithmeticError):
    """Raised when forward elimination meets a (numerically) zero pivot."""

    def __init__(self, row: int):
        super().__init__(f"zero pivot in row {row}")
        self.row = row


def thomas_sweep(
    sub: list[float], diag: list[float], sup: list[float], rhs: list[float]
) -> list[float]:
    """Thomas elimination on plain float lists; the one tridiagonal kernel.

    ``sub``/``sup`` have length n-1 (``sub[i-1]`` couples row i to unknown
    i-1, ``sup[i]`` row i to unknown i+1).  ``diag`` and ``rhs`` are
    overwritten with the eliminated pivots and the solution, which is
    returned (it is the ``rhs`` list itself).
    """
    n = len(diag)
    piv = diag[0]
    acc = rhs[0]
    for i in range(1, n):
        if abs(piv) < PIVOT_TOL:
            raise ZeroPivotError(i - 1)
        m = sub[i - 1] / piv
        piv = diag[i] - m * sup[i - 1]
        acc = rhs[i] - m * acc
        diag[i] = piv
        rhs[i] = acc
    if abs(piv) < PIVOT_TOL:
        raise ZeroPivotError(n - 1)
    x = acc / piv
    rhs[n - 1] = x
    for i in range(n - 2, -1, -1):
        x = (rhs[i] - sup[i] * x) / diag[i]
        rhs[i] = x
    return rhs


def banded_solve(bands: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a bandwidth-2 system by elimination restricted to the band.

    ``bands`` has shape (n, 5); column j holds the coefficient at offset
    j - 2 from the diagonal (entries that would fall outside the matrix
    must be zero).  Each pivot row eliminates the two rows below it,
    offset 1 then 0 in their band rows; an entry that is exactly zero is
    skipped.
    """
    n = len(rhs)
    if np.shape(bands) != (n, 5):
        raise ValueError(f"bands must have shape (n, 5) = ({n}, 5), got {np.shape(bands)}")
    band = np.asarray(bands, dtype=float).tolist()
    rhs = np.asarray(rhs, dtype=float).tolist()
    for col in range(n - 1):
        _, _, piv, p3, p4 = band[col]
        if abs(piv) < PIVOT_TOL:
            raise ZeroPivotError(col)
        b = rhs[col]
        row = band[col + 1]
        if row[1] != 0.0:
            m = row[1] / piv
            row[2] -= m * p3
            row[3] -= m * p4  # outside the matrix, and never read, in the last row
            rhs[col + 1] -= m * b
        if col + 2 < n:
            row = band[col + 2]
            if row[0] != 0.0:
                m = row[0] / piv
                row[1] -= m * p3
                # column col + 2 is inside the matrix whenever row col + 2 is
                row[2] -= m * p4
                rhs[col + 2] -= m * b
    if abs(band[n - 1][2]) < PIVOT_TOL:
        raise ZeroPivotError(n - 1)
    x = [0.0] * n
    x[n - 1] = rhs[n - 1] / band[n - 1][2]
    if n > 1:
        r = band[n - 2]
        x[n - 2] = (rhs[n - 2] - r[3] * x[n - 1]) / r[2]
    for i in range(n - 3, -1, -1):
        r = band[i]
        x[i] = ((rhs[i] - r[3] * x[i + 1]) - r[4] * x[i + 2]) / r[2]
    return np.array(x)
