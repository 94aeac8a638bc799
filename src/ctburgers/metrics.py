"""Error norms and table rendering for solver-versus-exact comparisons."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import UniformPartition
from .scheme import NodalState

__all__ = ["ErrorReport", "error_norms", "table_report"]

KNOT_MATCH_TOL = 1e-9


@dataclass
class ErrorReport:
    """Pointwise errors at the knots plus the two discrete norms.

    ``l2`` is the mesh-weighted root sum of squares sqrt(h * sum err^2);
    ``pointwise`` rows are (x, t, numerical, exact, abs_error).
    """

    l_inf: float
    l2: float
    pointwise: list[tuple[float, float, float, float, float]]


def error_norms(
    num: NodalState,
    exact_fn: Callable,
    t: float,
    part: UniformPartition,
) -> ErrorReport:
    """Compare a nodal state against an exact solution at time ``t``.

    ``exact_fn(xs, t)`` is called once with the array of knots and returns
    their exact values (or one value for all of them).
    """
    xs = part.knots()
    ue = np.broadcast_to(exact_fn(np.array(xs), t), len(xs))
    e = np.abs(num.u - ue)
    rows = list(zip(xs, [t] * len(xs), num.u.tolist(), ue.tolist(), e.tolist()))
    return ErrorReport(
        l_inf=float(np.max(e)),
        l2=float(math.sqrt(part.h * float(np.sum(e * e)))),
        pointwise=rows,
    )


def _knot_index(x: float, part: UniformPartition) -> int:
    q = (x - part.a) / part.h
    if math.isfinite(q):
        i = round(q)
        if 0 <= i <= part.n_cells and abs(part.knot(i) - x) <= KNOT_MATCH_TOL:
            return i
    raise ValueError(f"sample x={x} is not a knot of the partition (h={part.h})")


def table_report(
    states: dict[float, NodalState],
    sample_xs: list[float],
    exact_fn: Callable | None,
    part: UniformPartition,
    decimals: int = 5,
) -> str:
    """Render (x, t, numerical, exact) rows as fixed-decimal text.

    Rows are grouped by x (ascending) with times ascending inside each
    group, matching the layout of the published benchmark tables.  Sample
    points must coincide with knots.  The exact values of every time come
    from one call ``exact_fn.columns(xs, times)`` when ``exact_fn`` has
    it, as the exact solution of each problem factory does, whose row k
    has the bits of ``exact_fn(xs, times[k])``; any other callable is
    called once per time.  Either gets the array of sorted sample points.
    Each state's U at the sample knots is read in one ``tolist``.
    """
    width = max(decimals + 4, 9)
    header = (
        f"{'x':>8} {'t':>8} {'numerical':>{width}}"
        + (f" {'exact':>{width}}" if exact_fn is not None else "")
    )
    lines = [header]
    xs = sorted(sample_xs)
    indices = [_knot_index(x, part) for x in xs]
    times = sorted(states)
    numerical = [np.asarray(states[t].u)[indices].tolist() for t in times]
    if exact_fn is not None:
        points = np.array(xs)
        columns = getattr(exact_fn, "columns", None)
        if columns is not None:
            exact = columns(points, times).tolist()
        else:
            exact = [np.broadcast_to(exact_fn(points, t), len(xs)).tolist() for t in times]
    for k, x in enumerate(xs):
        for j, t in enumerate(times):
            row = f"{x:8.3f} {t:8.3f} {numerical[j][k]:{width}.{decimals}f}"
            if exact_fn is not None:
                row += f" {exact[j][k]:{width}.{decimals}f}"
            lines.append(row)
    return "\n".join(lines) + "\n"
