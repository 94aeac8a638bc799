"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the ctburgers modules from the
outside: every module attribute that holds one of the traced functions
(``ctburgers.scheme.thomas_solve``, ``ctburgers.cli.solve_to_time``, ...)
is replaced by a wrapper for the duration of :meth:`Tracer.installed`,
so the package's own lookups go through it.  Each call records one span
(name, parent span, start, end) in memory; per-layer figures are derived
from the spans afterwards, self time being a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute) of every traced function, in report order.
LAYERS = (
    ("scheme", "solve_to_time"),
    ("scheme", "initialize_coefficients"),
    ("scheme", "advance"),
    ("scheme", "assemble_step"),
    ("scheme", "nodal_values"),
    ("scheme", "eliminate_boundary"),
    ("linalg", "TridiagonalSystem"),
    ("linalg", "thomas_solve"),
    ("linalg", "banded_solve"),
    ("exact", "sine_wave_exact"),
    ("exact", "traveling_wave_exact"),
    ("basis", "knot_coefficients"),
    ("problems", "sine_problem"),
    ("problems", "traveling_problem"),
    ("problems", "exact_solution"),
    ("metrics", "table_report"),
    ("cli", "main"),
    ("cli", "run"),
    ("cli", "reproduce"),
)

LAYER_NAMES = tuple(f"{m}.{f}" for m, f in LAYERS)


class Tracer:
    """Records one span per call of a traced function."""

    def __init__(self):
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def _wrap(self, nid: int, fn):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every ctburgers module attribute bound to a traced function."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ctburgers" or n.startswith("ctburgers.")]
        patched = []
        for nid, (mod_name, attr) in enumerate(LAYERS):
            home = sys.modules.get(f"ctburgers.{mod_name}")
            fn = getattr(home, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(nid, fn)
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, fn))
        try:
            yield self
        finally:
            for mod, attr, fn in patched:
                setattr(mod, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def layer_totals(self) -> tuple[np.ndarray, np.ndarray]:
        """Calls and self time (ns) per entry of :data:`LAYERS`."""
        spans = self.arrays()
        dur = spans["end_ns"] - spans["start_ns"]
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = spans["parent"] >= 0
        np.add.at(child, spans["parent"][has_parent], dur[has_parent])
        ids = spans["name_id"]
        calls = np.bincount(ids, minlength=len(LAYERS))
        self_ns = np.bincount(ids, weights=dur - child, minlength=len(LAYERS))
        return calls, self_ns

    def write(self, path: Path) -> None:
        """Write every recorded span to ``path`` (NumPy ``.npz``)."""
        np.savez(path, names=np.array(LAYER_NAMES), **self.arrays())
