"""Workload definitions for the ctburgers benchmark.

A workload is a *pass*: a fixed list of CLI invocations whose amount of
work does not depend on the seed.  Every invocation is short (0.05-0.6 s
on the host this was built on), so that a run holds many samples of each.  The seed only chooses inputs that
leave the work unchanged (target order, a viscosity inside a narrow
band, sample times on the step grid).

Each invocation carries its work model: the cell-steps it marches,
sum of (N+1) * steps, and the number of CSV snapshots it must write.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

CSV_HEADER = "x,t,numerical,exact,abs_error"
FIG_HEADER = "x,t,abs_error"


@dataclass(frozen=True)
class Op:
    """One ``ctburgers`` CLI call; ``--output-dir`` is appended per pass."""

    kind: str  # "reproduce" or "run"
    argv: tuple[str, ...]
    cell_steps: int
    csv_files: int  # CSV files the call must write
    csv_rows: int  # data rows per CSV file
    table_rows: int = 0  # rows of the printed table, if it prints one

    @property
    def label(self) -> str:
        return self.argv[1] if self.kind == "reproduce" else self.kind


@dataclass(frozen=True)
class SetupConfig:
    """A problem the pass builds before its first step."""

    problem: str  # "sine" or "traveling"
    lam: float
    n_cells: int
    dt: float


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    setups: tuple[SetupConfig, ...]
    # loose gate on every CSV abs_error: it catches a wrong answer, not a
    # change in the last digits
    err_gate: float

    @property
    def cell_steps(self) -> int:
        return sum(op.cell_steps for op in self.ops)


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def _grid_times(rng: random.Random, dt: float, first: int, n_steps: int, count: int) -> list[float]:
    """``count - 1`` distinct step-grid times from steps [first, n_steps),
    plus t_end = n_steps * dt."""
    ks = sorted(rng.sample(range(first, n_steps), count - 1)) + [n_steps]
    return [k * dt for k in ks]


def _run_op(problem: str, lam: float, n: int, dt: float, times: list[float],
            table_xs: str = "") -> Op:
    """A ``run`` call that writes one CSV per sample time, or with
    ``table_xs`` prints a table at those points instead."""
    argv = (
        "run", "--problem", problem, "--lambda", _fmt(lam),
        "--n-cells", str(n), "--dt", _fmt(dt), "--t-end", _fmt(times[-1]),
        "--sample-times", ",".join(_fmt(t) for t in times),
    )
    if table_xs:
        argv += ("--outputs", "table", "--sample-xs", table_xs)
    else:
        argv += ("--outputs", "csv")
    return Op(
        kind="run",
        argv=argv,
        cell_steps=(n + 1) * round(times[-1] / dt),
        csv_files=0 if table_xs else len(times),
        csv_rows=n + 1,
        table_rows=len(table_xs.split(",")) * len(times) if table_xs else 0,
    )


# The short published reproduction targets: (problem, lam, N, dt, steps)
# per march, and the figure CSVs each one writes.  table2-table4 are left
# out: each is one 2-3 s call, too long to time steadily on a shared host.
_TARGETS = {
    "table5": ([("traveling", 0.01, 36, 1e-3, 500), ("traveling", 0.01, 36, 1e-2, 50)], 0),
    "fig7": ([("traveling", 0.01, 36, 1e-3, 400)], 1),
    "fig8": ([("traveling", 0.005, 36, 1e-3, 400)], 1),
}


def paper_short(rng: random.Random) -> Workload:
    """The short ``reproduce`` targets plus the first 0.1 time units of the
    table3 configuration (sine, lam=0.1, N=40, dt=1e-4) printed as a table
    at the published x; the seed only orders the calls."""
    ops = []
    setups = []
    for t, (marches, figs) in _TARGETS.items():
        ops.append(Op(
            kind="reproduce",
            argv=("reproduce", t),
            cell_steps=sum((n + 1) * steps for _, _, n, _, steps in marches),
            csv_files=figs,
            csv_rows=37,
        ))
        setups += [SetupConfig(prob, lam, n, dt) for prob, lam, n, dt, _ in marches]
    ops.append(_run_op("sine", 0.1, 40, 1e-4, [0.02, 0.04, 0.06, 0.08, 0.1],
                       table_xs="0.25,0.5,0.75"))
    setups.append(SetupConfig("sine", 0.1, 40, 1e-4))
    rng.shuffle(ops)
    return Workload("paper_short", tuple(ops), tuple(setups), err_gate=0.05)


def fine_mesh(rng: random.Random) -> Workload:
    """Traveling front on N=4000: the scalar Thomas sweep dominates.

    Three calls of 30 steps each, every one with its own lam and one
    snapshot time drawn from the step grid in [0.02, 0.03) besides t_end.
    The error first falls as the clamped boundary settles and then grows
    with t; from t = 0.02 on it stays below its value at t_end, so the
    largest error of a pass does not depend on the drawn times.
    """
    n, dt = 4000, 1e-3
    ops, setups = [], []
    for _ in range(3):
        lam = 0.005 * (1.0 + rng.uniform(-0.01, 0.01))
        ops.append(_run_op("traveling", lam, n, dt, _grid_times(rng, dt, 20, 30, 2)))
        setups.append(SetupConfig("traveling", lam, n, dt))
    return Workload("fine_mesh", tuple(ops), tuple(setups), err_gate=0.01)


def exact_snapshots(rng: random.Random) -> Workload:
    """Sine wave on N=400 with 20 CSV snapshots: the exact series dominates.

    Snapshots are t_end = 1 and 19 times drawn from the step grid in
    [0.7, 1).  Earlier, the number of series terms per evaluation and the
    error near the forming front both change quickly with t, so the work
    and the error of a pass would depend on the seed.  From t = 0.7 on the
    error falls steadily with t, so the largest error of a pass is that of
    its earliest snapshot.
    """
    lam, n, dt = 0.01, 400, 1e-2
    return Workload(
        "exact_snapshots",
        (_run_op("sine", lam, n, dt, _grid_times(rng, dt, 70, 100, 20)),),
        (SetupConfig("sine", lam, n, dt),),
        err_gate=0.1,
    )


WORKLOADS = {f.__name__: f for f in (paper_short, fine_mesh, exact_snapshots)}


@dataclass
class OpCheck:
    ok: bool
    reason: str
    digests: dict[str, str]
    max_abs_err: float
    exact_points: int


def _check_csv(path: Path, header: str, rows: int) -> tuple[float, int, str]:
    """Parse one output CSV; return (max abs_error, rows, problem or '')."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        return math.nan, 0, f"{path.name}: bad header"
    if len(lines) - 1 != rows:
        return math.nan, 0, f"{path.name}: {len(lines) - 1} rows, expected {rows}"
    width = header.count(",") + 1
    worst = 0.0
    for line in lines[1:]:
        fields = line.split(",")
        try:
            values = [float(v) for v in fields]
        except ValueError:
            return math.nan, 0, f"{path.name}: unparsable row {line!r}"
        if len(values) != width or not all(math.isfinite(v) for v in values):
            return math.nan, 0, f"{path.name}: bad row {line!r}"
        worst = max(worst, values[-1])
    return worst, rows, ""


def _check_table(stdout: str, rows: int) -> tuple[float, str]:
    """Parse a printed ``x t numerical exact`` table; return (max
    |numerical - exact|, problem or '')."""
    lines = stdout.splitlines()
    if len(lines) != rows + 1 or lines[0].split() != ["x", "t", "numerical", "exact"]:
        return math.nan, f"table: expected a header and {rows} rows"
    worst = 0.0
    for line in lines[1:]:
        try:
            values = [float(v) for v in line.split()]
        except ValueError:
            return math.nan, f"table: unparsable row {line!r}"
        if len(values) != 4 or not all(math.isfinite(v) for v in values):
            return math.nan, f"table: bad row {line!r}"
        worst = max(worst, abs(values[2] - values[3]))
    return worst, ""


def check_op(op: Op, rc: int, stdout: str, out_dir: Path, err_gate: float) -> OpCheck:
    """Check one call's exit code, printed verdict or table and the CSVs it
    wrote into its own ``out_dir``."""
    if rc != 0:
        return OpCheck(False, f"exit code {rc}", {}, math.nan, 0)
    worst, points = 0.0, 0
    if op.kind == "reproduce":
        verdict = f"{op.argv[1]}: PASS"
        if not stdout.rstrip().endswith(verdict):
            return OpCheck(False, f"missing {verdict!r}", {}, math.nan, 0)
    elif op.table_rows:
        worst, problem = _check_table(stdout, op.table_rows)
        if problem:
            return OpCheck(False, problem, {}, math.nan, 0)
        points = op.table_rows
    header = FIG_HEADER if op.kind == "reproduce" else CSV_HEADER
    files = sorted(out_dir.glob("*.csv"))
    if len(files) != op.csv_files:
        return OpCheck(False, f"{len(files)} CSV files, expected {op.csv_files}", {}, math.nan, 0)
    digests = {}
    for path in files:
        err, rows, problem = _check_csv(path, header, op.csv_rows)
        if problem:
            return OpCheck(False, problem, {}, math.nan, 0)
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        worst = max(worst, err)
        points += rows
    if worst > err_gate:
        return OpCheck(False, f"max abs_error {worst:.3e} above {err_gate}", digests, worst, points)
    return OpCheck(True, "", digests, worst, points)
