"""The bytes and files of the CSV output.

Every number is written as ``'%.12g' % v``: the bytes of a per-row
f-string writer, since ``"%.12g" % v`` and ``f"{v:.12g}"`` format a float
through the same routine.  The rows come from the compiled ``rows`` and
``snapshot`` of :mod:`ctburgers._native` when its library passed its
check, and from the one %-template of :func:`_csv_rows` otherwise, the
reference the compiled rows are checked against.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable

import numpy as np

from . import _native

# spare bytes at the end of every buffer the compiled rows and snapshot
# fill: the formatter writes up to 24 bytes past the start of a value, beyond
# its text (_finish.c, layout)
_SPARE = 32

# flags and mode of a new CSV file as open(path, "wb") makes it: the mode
# less the umask, and, as every os.open descriptor, not inherited by child
# processes
_CREATE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
_MODE = 0o666

_SNAPSHOT_HEADER = b"x,t,numerical,exact,abs_error\n"


def _fmt12(v: float) -> str:
    return f"{v:.12g}"


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
    size = native(_native.address(values), width, n, t, _native.address(out))
    return out[:size]


def _snapshot_files(compiled: _native._Compiled, xs, us, exact, t_texts):
    """The CSV rows ``x,<t_text>,U,exact,|U - exact|`` of each snapshot of a
    run, one file's at a time, each value written as ``'%.12g' % v``, by
    the compiled ``snapshot`` when ``compiled`` has one.

    ``xs`` holds the knots; ``us``, the rows of ``exact`` and ``t_texts``
    hold each file's U, exact values and t text.  |U - exact| is numpy's
    abs of the difference, or C's ``fabs``: the same operation, where an
    overflow to inf or inf - inf passes silently.  Without the compiled
    ``snapshot``, each file is :func:`_csv_rows` of the four columns, the
    reference the compiled rows are checked against, yielded as ASCII
    bytes.

    The compiled path formats the knot column once per run, as the rows
    ``x,`` of :func:`_csv_rows` with an empty t text, and fetches the
    pointers of those rows, the exact block and one output buffer, sized
    for the longest t text, once; it yields a view of that buffer, which
    the next file overwrites.  Each U is used in place when it is a
    C-contiguous float array.
    """
    n = len(xs)
    exact = np.ascontiguousarray(exact, dtype=float)
    native = compiled.snapshot
    if native is not None:
        knots = _csv_rows(compiled.rows, [xs], "")
        t_bytes = [t.encode("ascii") for t in t_texts]
        # each of the three values takes at most 19 bytes and one separator;
        # each knot row's newline makes room for the row's own
        out = np.empty(len(knots) + n * (max(map(len, t_bytes), default=0) + 60) + _SPARE,
                       dtype=np.uint8)
        view = memoryview(out)
        # knots, exact and out stay bound to names here, so alive, for every call
        at = _native.address
        knots_at, exact_at, out_at = at(knots), at(exact), at(out)
    for k, (u, ue, t_text) in enumerate(zip(us, exact, t_texts)):
        u = np.ascontiguousarray(u, dtype=float)
        if not len(u) == len(ue) == n:
            raise ValueError(f"{n} knots, but {len(u)} numerical and {len(ue)} exact values")
        if native is None:
            with np.errstate(over="ignore", invalid="ignore"):
                err = np.abs(np.subtract(u, ue))
            yield _csv_rows(None, [xs, u, ue, err], t_text)
        else:
            ue_at = exact_at + k * exact.strides[0]
            yield view[:native(knots_at, at(u), ue_at, n, t_bytes[k], out_at)]


def _unwritten(parts, written: int) -> list[memoryview]:
    """The bytes of ``parts`` after the first ``written``."""
    rest = []
    for part in map(memoryview, parts):
        if written >= len(part):
            written -= len(part)
        else:
            rest.append(part[written:])
            written = 0
    return rest


def _write_rows(path: Path, header: bytes, rows) -> None:
    """Write ``header`` and then ``rows``, bytes or a uint8 buffer, to a new
    file at ``path``: one ``os.open``, one ``os.writev`` (more only if the
    system writes part of the bytes) and one ``os.close``, which also runs
    when a write fails."""
    fd = os.open(path, _CREATE, _MODE)
    try:
        parts = [header, rows]
        left = len(header) + len(rows)
        while (written := os.writev(fd, parts)) < left:
            left -= written
            parts = _unwritten(parts, written)
    finally:
        os.close(fd)


def _write_csv(path: Path, header: str, t: float, columns) -> None:
    """Write ``header`` and the rows ``c0,t,c1,...`` of the float ``columns``,
    one line per element (:func:`_csv_rows`)."""
    rows = _csv_rows(_native.compiled().rows, columns, _fmt12(t))
    _write_rows(path, header.encode("ascii") + b"\n", rows)


def _write_snapshots(paths, xs, times, us, exact) -> None:
    """The snapshots of one run: at each of ``paths`` the knots ``xs``, t,
    U, exact and |U - exact| of one time, with the bytes of
    :func:`_write_csv` of those columns.

    ``us`` and the rows of ``exact`` hold U and the exact values at
    ``times``.  Each file's rows come from :func:`_snapshot_files`.
    """
    files = _snapshot_files(_native.compiled(), xs, us, exact, [_fmt12(t) for t in times])
    for path, rows in zip(paths, files):
        _write_rows(path, _SNAPSHOT_HEADER, rows)
