"""Command-line experiment runner.

Two modes:

``ctburgers run`` solves one configured problem and emits tables and/or
CSV snapshots.  ``ctburgers reproduce <target>`` re-runs a canonical
benchmark configuration and checks the result against the published
values cell by cell.

Exit codes: 0 success, 1 invalid configuration, 2 numerical failure,
3 reproduction outside tolerance.  :func:`main` is the one place that
maps errors to them.  1 is a bad flag, config-file value or input, an
unreadable config file or an unusable output directory (a
``ValueError`` or ``OSError``); 2 is a zero pivot, a non-finite
solution or an exact series that does not converge or has lost its
accuracy.  The library
functions :func:`run` and :func:`reproduce` raise these errors instead
of printing them, and return 0 or 3.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import reference as ref
from .exact import SeriesConvergenceError, sine_wave_exact
from .linalg import ZeroPivotError
from .metrics import _knot_index, table_report
from .problems import (
    TRAVELING_ALPHA,
    TRAVELING_GAMMA,
    TRAVELING_MU,
    sine_problem,
    traveling_problem,
)
from .scheme import NodalState, solve_to_time

__all__ = ["RunConfig", "ConfigError", "run", "reproduce", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_MISMATCH = 3

REPRODUCE_TARGETS = ("table2", "table3", "table4", "table5", "fig7", "fig8")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    problem: str = "sine"
    lam: float = 1.0
    n_cells: int = 40
    dt: float = 1e-4
    t_end: float = 0.0
    sample_times: list[float] | None = None
    sample_xs: list[float] | str = "all-knots"
    outputs: set[str] = field(default_factory=lambda: {"table"})
    output_dir: Path = Path(".")
    alpha: float = TRAVELING_ALPHA
    mu: float = TRAVELING_MU
    gamma: float = TRAVELING_GAMMA

    def build_problem(self):
        if self.problem == "sine":
            return sine_problem(self.lam, self.n_cells, self.dt)
        if self.problem == "traveling":
            return traveling_problem(
                self.lam, self.n_cells, self.dt, alpha=self.alpha, mu=self.mu, gamma=self.gamma
            )
        raise ConfigError(f"problem must be 'sine' or 'traveling', got {self.problem!r}")

    def validate(self):
        bad = self.outputs - {"table", "csv", "plotdata"}
        if bad:
            raise ConfigError(f"outputs: unknown kind(s) {sorted(bad)}")
        p = self.build_problem()
        p.validate()
        part = p.partition()
        if self.sample_xs != "all-knots":
            for x in self.sample_xs:
                _knot_index(x, part)
        return p


def _fmt12(v: float) -> str:
    return f"{v:.12g}"


def _write_csv(path: Path, header: str, row: str, columns) -> None:
    """Write ``header`` and one ``row`` line per element of ``columns``.

    ``row`` is a %-template ending in a newline, with one conversion per
    column; it is filled once for the whole file, which is written as
    ASCII bytes, skipping the text layer's encoder.  ``"%.12g" % v`` and
    ``f"{v:.12g}"`` format a float through the same routine, so the bytes
    are those of a per-row f-string writer.
    """
    width, n = len(columns), len(columns[0])
    flat = [None] * (width * n)
    for k, col in enumerate(columns):
        flat[k::width] = col
    path.write_bytes((header + "\n" + (row * n) % tuple(flat)).encode("ascii"))


def _write_snapshot(path: Path, x_text: list[str], t: float, u: np.ndarray, ue: np.ndarray):
    """One ``run`` snapshot: the knots (already formatted), t, U, exact and |error|."""
    row = "%s," + _fmt12(t).replace("%", "%%") + ",%.12g,%.12g,%.12g\n"
    err = np.abs(np.subtract(u, ue))
    _write_csv(
        path, "x,t,numerical,exact,abs_error", row, [x_text, u.tolist(), ue.tolist(), err.tolist()]
    )


def run(config: RunConfig) -> int:
    """Solve one configuration and write the requested outputs to stdout and files.

    Raises a ``ValueError`` or ``OSError`` for a configuration that cannot
    run, and ``ZeroPivotError``, ``FloatingPointError`` or
    ``SeriesConvergenceError`` for a numerical failure.
    """
    problem = config.validate()
    part = problem.partition()
    writes_files = bool(config.outputs & {"csv", "plotdata"})
    if writes_files:
        # an unusable directory fails here, not after the march
        config.output_dir.mkdir(parents=True, exist_ok=True)
    states = solve_to_time(problem, part, config.t_end, config.sample_times or [config.t_end])
    for t, state in states.items():
        if not np.all(np.isfinite(state.u)):
            raise FloatingPointError(f"non-finite solution at t={t}")

    if "table" in config.outputs:
        xs = part.knots() if config.sample_xs == "all-knots" else list(config.sample_xs)
        decimals = 3 if config.problem == "traveling" else 5
        sys.stdout.write(table_report(states, xs, problem.exact, part, decimals=decimals))
    if writes_files:
        knot_array = part.knot_array()
        # every exact column is evaluated before the first file is written,
        # so an oracle that fails at any snapshot leaves no CSV behind
        exact = {t: problem.exact(knot_array, t) for t in sorted(states)}
        # every snapshot of a run shares the knots: format them once
        x_text = ["%.12g" % x for x in knot_array.tolist()]
        for t, ue in exact.items():
            name = f"{config.problem}_lam{_fmt12(config.lam)}_t{_fmt12(t)}.csv"
            _write_snapshot(config.output_dir / name, x_text, t, states[t].u, ue)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduction targets
# ---------------------------------------------------------------------------


def _sine_states(lam: float) -> dict[float, NodalState]:
    problem = sine_problem(lam, 40, 1e-4)
    return solve_to_time(problem, problem.partition(), 3.0, list(ref.SINE_TIMES))


def _report_cells(rows, out):
    for x, t, ours, expected, dev, ok, note in rows:
        flag = "ok" if ok else "FAIL"
        extra = f"  [{note}]" if note else ""
        out.write(
            f"  x={x:5.3f} t={t:3.1f}  ours={ours:.5f}  published={expected:.5f}"
            f"  |dev|={dev:.2e}  {flag}{extra}\n"
        )


def _reproduce_sine_table(num: int, out) -> bool:
    lam = {2: 1.0, 3: 0.1, 4: 0.01}[num]
    present = getattr(ref, f"TABLE{num}_PRESENT")
    exact_printed = getattr(ref, f"TABLE{num}_EXACT")
    states = _sine_states(lam)
    out.write(f"table{num}: sine problem, lam={lam}, N=40, dt=0.0001\n")
    all_ok = True
    rows = []
    for (x, t), expected in sorted(present.items()):
        ours = float(states[t].u[round(x * 40)])
        dev = abs(ours - expected)
        ok = dev <= ref.SINE_TOL
        all_ok &= ok
        rows.append((x, t, ours, expected, dev, ok, ""))
    _report_cells(rows, out)
    out.write("  exact column check (series oracle vs printed):\n")
    # one series call per t on its sorted points; each value has the bits
    # of a call at that point alone
    oracle_at = {}
    for t in {t for _, t in exact_printed}:
        xs = sorted(x for x, s in exact_printed if s == t)
        column = sine_wave_exact(np.array(xs), t, lam).tolist()
        oracle_at.update(zip([(x, t) for x in xs], column))
    rows = []
    for (x, t), printed in sorted(exact_printed.items()):
        oracle = oracle_at[x, t]
        if num == 4 and (x, t) == ref.TABLE4_EXACT_MISPRINT:
            # known misprint: compare the method value against the oracle
            dev = abs(float(states[t].u[round(x * 40)]) - oracle)
            ok = dev <= ref.SINE_TOL
            note = f"printed {printed} excluded-by-config (misprint); oracle {oracle:.5f}"
            rows.append((x, t, oracle, oracle, dev, ok, note))
        else:
            dev = abs(oracle - printed)
            ok = dev <= ref.SINE_TOL
            rows.append((x, t, oracle, printed, dev, ok, ""))
        all_ok &= ok
    _report_cells(rows, out)
    return all_ok


def _reproduce_table5(out) -> bool:
    out.write("table5: traveling wave, lam=0.01, h=1/36, t=0.5\n")
    passing = []
    for dt in ref.TABLE5_DTS:
        problem = traveling_problem(0.01, ref.TABLE5_N_CELLS, dt)
        states = solve_to_time(
            problem, problem.partition(), ref.TABLE5_TIME, [ref.TABLE5_TIME]
        )
        u = states[ref.TABLE5_TIME].u
        devs = [
            abs(float(u[2 * i]) - ref.TABLE5_PRESENT[i]) for i in range(19)
        ]
        ok = max(devs) <= ref.TRAVELING_TOL
        out.write(
            f"  dt={dt}: max |ours - published| = {max(devs):.2e} over 19 cells"
            f" -> {'ok' if ok else 'FAIL'}\n"
        )
        if ok:
            passing.append(dt)
    if passing:
        out.write(f"  published header/text disagree on dt; matching dt: {passing}\n")
        return True
    return False


def _reproduce_fig(num: int, config_lam: float, out, output_dir: Path) -> bool:
    """Error-profile targets: traveling wave at t=0.4, h=1/36, dt=0.001."""
    t = 0.4
    problem = traveling_problem(config_lam, 36, 1e-3)
    part = problem.partition()
    output_dir.mkdir(parents=True, exist_ok=True)
    states = solve_to_time(problem, part, t, [t])
    u = states[t].u
    knots = part.knots()
    errs = np.abs(u - problem.exact(np.array(knots), t))
    path = output_dir / f"fig{num}_error_profile.csv"
    _write_csv(
        path, "x,t,abs_error", "%.12g," + _fmt12(t).replace("%", "%%") + ",%.12g\n",
        [knots, errs.tolist()],
    )
    front = TRAVELING_MU * t + TRAVELING_GAMMA
    peak_x = knots[int(np.argmax(errs))]
    ok = abs(peak_x - front) <= 3.0 / 36.0
    out.write(
        f"fig{num}: traveling wave lam={config_lam}, h=1/36, dt=0.001, t={t}\n"
        f"  error profile written to {path}\n"
        f"  peak |error| at x={peak_x:.3f}, front at x={front:.3f}"
        f" -> {'ok' if ok else 'FAIL'} (peak within 3 cells of front)\n"
    )
    return ok


def reproduce(target: str, output_dir: Path = Path(".")) -> int:
    """Run one canonical benchmark configuration and check it cell by cell.

    Returns 0 when every cell is within tolerance and 3 when one is not;
    raises as :func:`run` does.
    """
    if target not in REPRODUCE_TARGETS:
        raise ConfigError(f"target must be one of {REPRODUCE_TARGETS}")
    out = sys.stdout
    if target in ("table2", "table3", "table4"):
        ok = _reproduce_sine_table(int(target[-1]), out)
    elif target == "table5":
        ok = _reproduce_table5(out)
    else:
        lam = 0.01 if target == "fig7" else 0.005
        ok = _reproduce_fig(int(target[-1]), lam, out, output_dir)
    out.write(f"{target}: {'PASS' if ok else 'FAIL'}\n")
    return EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument and config-file handling
# ---------------------------------------------------------------------------


def _floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as e:
        msg = f"expected comma-separated numbers, got {text!r}"
        raise argparse.ArgumentTypeError(msg) from e


def _sample_xs(text: str) -> list[float] | str:
    return text if text == "all-knots" else _floats(text)


def _outputs(text: str) -> set[str]:
    return {s.strip() for s in text.split(",") if s.strip()}


def _read_config_file(path: Path) -> list[str]:
    """The ``key=value`` lines of ``path`` as ``--key=value`` flag tokens."""
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = line.split("=", 1)
        tokens.append(f"--{key.strip().replace('_', '-')}={val.strip()}")
    return tokens


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for numerical failures; flag errors are
    # configuration errors
    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps nothing between calls, each
    # one starts from a fresh namespace of the defaults
    parser = _Parser(
        prog="ctburgers",
        description="Trigonometric-spline collocation solver for the 1D "
        "viscous Burgers equation, with benchmark reproduction targets.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    # the dests are the RunConfig fields; a flag left out keeps its default
    runp = sub.add_parser("run", help="solve one configured problem")
    runp.add_argument("--config", type=Path, help="key=value config file")
    runp.add_argument("--problem", choices=("sine", "traveling"))
    runp.add_argument("--lambda", dest="lam", type=float, help="viscosity")
    runp.add_argument("--n-cells", type=int)
    runp.add_argument("--dt", type=float)
    runp.add_argument("--t-end", type=float)
    runp.add_argument("--sample-times", type=_floats, help="comma-separated times")
    runp.add_argument("--sample-xs", type=_sample_xs, help="comma-separated points or 'all-knots'")
    runp.add_argument("--outputs", type=_outputs, help="comma-separated: table,csv,plotdata")
    runp.add_argument("--output-dir", type=Path)
    runp.add_argument("--alpha", type=float, help="traveling-wave amplitude")
    runp.add_argument("--mu", type=float, help="traveling-wave speed")
    runp.add_argument("--gamma", type=float, help="traveling-wave offset")

    rep = sub.add_parser("reproduce", help="check a benchmark table or figure")
    rep.add_argument("target", choices=REPRODUCE_TARGETS)
    rep.add_argument("--output-dir", type=Path, default=Path("."))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        argv.insert(0, "run")  # bare flags imply the run command
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return EXIT_CONFIG
        if args.command == "reproduce":
            return reproduce(args.target, output_dir=args.output_dir)
        if args.config is not None:
            # the file's lines are flags that the command line follows, so
            # the command line wins
            tokens = _read_config_file(args.config)
            if parser.parse_args(["run", *tokens]).config is not None:
                raise ConfigError("config file: a config file cannot name another")
            args = parser.parse_args(["run", *tokens, *argv[1:]])
        given = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
        return run(RunConfig(**{k: v for k, v in given.items() if v is not None}))
    # ConfigError is a ValueError, and every ValueError the package raises
    # is an input check
    except (ValueError, OSError) as e:
        print(f"error: invalid config: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ZeroPivotError, FloatingPointError, SeriesConvergenceError) as e:
        print(f"error: numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
