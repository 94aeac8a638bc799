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
from typing import Callable, NamedTuple

import numpy as np

from . import reference as ref
from .csvtext import _fmt12, _write_csv, _write_snapshots
from .exact import SeriesConvergenceError
from .linalg import ZeroPivotError
from .metrics import _knot_index, table_report
from .problems import sine_problem, traveling_problem
from .scheme import solve_to_time

__all__ = ["RunConfig", "ConfigError", "run", "reproduce", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_MISMATCH = 3


class _Problem(NamedTuple):
    """A ``run`` problem: its factory and the decimals of its printed table."""

    factory: Callable
    decimals: int


PROBLEMS = {"sine": _Problem(sine_problem, 5), "traveling": _Problem(traveling_problem, 3)}


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
    alpha: float | None = None
    mu: float | None = None
    gamma: float | None = None

    def build_problem(self):
        if self.problem not in PROBLEMS:
            names = " or ".join(map(repr, PROBLEMS))
            raise ConfigError(f"problem must be {names}, got {self.problem!r}")
        # the front constants a run leaves unset keep the factory's defaults
        front = {k: v for k in ("alpha", "mu", "gamma") if (v := getattr(self, k)) is not None}
        if front and self.problem != "traveling":
            raise ConfigError(f"{', '.join(front)} set, but only the traveling problem takes them")
        return PROBLEMS[self.problem].factory(self.lam, self.n_cells, self.dt, **front)

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
        decimals = PROBLEMS[config.problem].decimals
        sys.stdout.write(table_report(states, xs, problem.exact, part, decimals=decimals))
    if writes_files:
        knot_array = part.knot_array()
        times = sorted(states)
        # every exact column is evaluated, in one pass, before the first file
        # is written, so an oracle that fails at any snapshot leaves no CSV
        # behind
        exact = problem.exact.columns(knot_array, times)
        stem = f"{config.problem}_lam{_fmt12(config.lam)}_t"
        paths = [config.output_dir / f"{stem}{_fmt12(t)}.csv" for t in times]
        _write_snapshots(paths, knot_array, times, [states[t].u for t in times], exact)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduction targets
# ---------------------------------------------------------------------------


def _report_cells(rows, out) -> bool:
    """Print one line per cell; whether every |dev| is within ``ref.SINE_TOL``."""
    all_ok = True
    for x, t, ours, expected, dev, note in rows:
        ok = dev <= ref.SINE_TOL
        all_ok &= ok
        extra = f"  [{note}]" if note else ""
        out.write(
            f"  x={x:5.3f} t={t:3.1f}  ours={ours:.5f}  published={expected:.5f}"
            f"  |dev|={dev:.2e}  {'ok' if ok else 'FAIL'}{extra}\n"
        )
    return all_ok


def _sine_table(lam, present, printed, name, out, output_dir, misprint=None) -> bool:
    """Tables 2-4: the method against ``present`` and the series oracle against
    the ``printed`` exact column, whose ``misprint`` cell is checked as method vs oracle."""
    problem = sine_problem(lam, 40, 1e-4)
    part = problem.partition()
    states = solve_to_time(problem, part, max(ref.SINE_TIMES), list(ref.SINE_TIMES))
    out.write(f"{name}: sine problem, lam={problem.lam}, N={part.n_cells}, dt={problem.dt}\n")

    def ours(x, t):
        return float(states[t].u[_knot_index(x, part)])

    rows = [
        (x, t, ours(x, t), expected, abs(ours(x, t) - expected), "")
        for (x, t), expected in sorted(present.items())
    ]
    all_ok = _report_cells(rows, out)
    out.write("  exact column check (series oracle vs printed):\n")
    # one series call per t; each value has the bits of a call at that point alone
    oracle_at = {}
    for t in {t for _, t in printed}:
        xs = sorted(x for x, s in printed if s == t)
        oracle_at.update(zip([(x, t) for x in xs], problem.exact(np.array(xs), t).tolist()))
    rows = []
    for (x, t), value in sorted(printed.items()):
        oracle = oracle_at[x, t]
        if (x, t) == misprint:
            note = f"printed {value} excluded-by-config (misprint); oracle {oracle:.5f}"
            rows.append((x, t, oracle, oracle, abs(ours(x, t) - oracle), note))
        else:
            rows.append((x, t, oracle, value, abs(oracle - value), ""))
    return _report_cells(rows, out) and all_ok


def _table5(name, out, output_dir) -> bool:
    """Table 5: the traveling front at every second knot; passes when one published dt does."""
    t, present = ref.TABLE5_TIME, ref.TABLE5_PRESENT
    problems = [traveling_problem(0.01, ref.TABLE5_N_CELLS, dt) for dt in ref.TABLE5_DTS]
    part = problems[0].partition()
    out.write(f"{name}: traveling wave, lam={problems[0].lam}, h=1/{part.n_cells}, t={t}\n")
    passing = []
    for problem in problems:
        u = solve_to_time(problem, part, t, [t])[t].u
        dev = float(np.max(np.abs(np.subtract(u[::2], present))))
        ok = dev <= ref.TRAVELING_TOL
        out.write(
            f"  dt={problem.dt}: max |ours - published| = {dev:.2e} over {len(present)} cells"
            f" -> {'ok' if ok else 'FAIL'}\n"
        )
        if ok:
            passing.append(problem.dt)
    if passing:
        out.write(f"  published header/text disagree on dt; matching dt: {passing}\n")
    return bool(passing)


def _error_profile(lam, name, out, output_dir: Path) -> bool:
    """Figs 7-8: the traveling front's |error| profile, whose peak must lie near the front."""
    t, cells = 0.4, 3
    problem = traveling_problem(lam, 36, 1e-3)
    part = problem.partition()
    output_dir.mkdir(parents=True, exist_ok=True)
    u = solve_to_time(problem, part, t, [t])[t].u
    knots = part.knots()
    errs = np.abs(u - problem.exact(np.array(knots), t))
    path = output_dir / f"{name}_error_profile.csv"
    _write_csv(path, "x,t,abs_error", t, [knots, errs])
    front = problem.exact.mu * t + problem.exact.gamma
    peak_x = knots[int(np.argmax(errs))]
    ok = abs(peak_x - front) <= cells * part.h
    out.write(
        f"{name}: traveling wave lam={problem.lam}, h=1/{part.n_cells}, dt={problem.dt}, t={t}\n"
        f"  error profile written to {path}\n"
        f"  peak |error| at x={peak_x:.3f}, front at x={front:.3f}"
        f" -> {'ok' if ok else 'FAIL'} (peak within {cells} cells of front)\n"
    )
    return ok


# each target's check(target, out, output_dir), bound to the reference module's own data
_REPRODUCERS = {
    "table2": functools.partial(_sine_table, 1.0, ref.TABLE2_PRESENT, ref.TABLE2_EXACT),
    "table3": functools.partial(_sine_table, 0.1, ref.TABLE3_PRESENT, ref.TABLE3_EXACT),
    "table4": functools.partial(
        _sine_table, 0.01, ref.TABLE4_PRESENT, ref.TABLE4_EXACT,
        misprint=ref.TABLE4_EXACT_MISPRINT,
    ),
    "table5": _table5,
    "fig7": functools.partial(_error_profile, 0.01),
    "fig8": functools.partial(_error_profile, 0.005),
}
REPRODUCE_TARGETS = tuple(_REPRODUCERS)


def reproduce(target: str, output_dir: Path = Path(".")) -> int:
    """Run one canonical benchmark configuration and check it cell by cell.

    Returns 0 when every cell is within tolerance and 3 when one is not;
    raises as :func:`run` does.
    """
    check = _REPRODUCERS.get(target)
    if check is None:
        raise ConfigError(f"target must be one of {REPRODUCE_TARGETS}")
    ok = check(target, sys.stdout, output_dir)
    sys.stdout.write(f"{target}: {'PASS' if ok else 'FAIL'}\n")
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
def _build_parser() -> _Parser:
    """The top-level parser, built once per process: ``parse_args`` keeps
    nothing between calls, each one starts from a fresh namespace of the
    defaults.  Its ``commands`` maps each command name to that command's
    own parser."""
    parser = _Parser(
        prog="ctburgers",
        description="Trigonometric-spline collocation solver for the 1D "
        "viscous Burgers equation, with benchmark reproduction targets.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    # the dests are the RunConfig fields; a flag left out keeps its default
    runp = sub.add_parser("run", help="solve one configured problem")
    runp.add_argument("--config", type=Path, help="key=value config file")
    runp.add_argument("--problem", choices=tuple(PROBLEMS))
    runp.add_argument("--lambda", dest="lam", type=float, help="viscosity")
    runp.add_argument("--n-cells", type=int)
    runp.add_argument("--dt", type=float)
    runp.add_argument("--t-end", type=float)
    runp.add_argument("--sample-times", type=_floats, help="comma-separated times")
    runp.add_argument("--sample-xs", type=_sample_xs, help="comma-separated points or 'all-knots'")
    runp.add_argument(
        "--outputs", type=_outputs,
        help="comma-separated: table,csv,plotdata (plotdata is an alias of csv: the same files)",
    )
    runp.add_argument("--output-dir", type=Path)
    runp.add_argument("--alpha", type=float, help="traveling-wave amplitude")
    runp.add_argument("--mu", type=float, help="traveling-wave speed")
    runp.add_argument("--gamma", type=float, help="traveling-wave offset")

    rep = sub.add_parser("reproduce", help="check a benchmark table or figure")
    rep.add_argument("target", choices=REPRODUCE_TARGETS)
    rep.add_argument("--output-dir", type=Path, default=Path("."))
    parser.commands = sub.choices
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command of ``argv``, by default ``sys.argv[1:]``, and return
    its exit code; an argv that starts with a flag other than ``-h`` or
    ``--help`` is a ``run``.

    An argv that starts with ``run`` or ``reproduce`` is parsed by that
    command's own parser alone, which gives every message, abbreviation
    and help text the top-level parser would give for it at less than
    half the cost.  The top-level parser parses only an argv with no
    command, where it prints its help and 1 is returned, ``-h`` and an
    unknown command.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        argv.insert(0, "run")  # bare flags imply the run command
    parser = _build_parser()
    try:
        if argv and argv[0] in parser.commands:
            command = argv[0]
            args = parser.commands[command].parse_args(argv[1:])
        else:
            args = parser.parse_args(argv)
            command = args.command
            if command is None:
                parser.print_help()
                return EXIT_CONFIG
        if command == "reproduce":
            return reproduce(args.target, output_dir=args.output_dir)
        if args.config is not None:
            # the file's lines are flags that the command line follows, so
            # the command line wins
            run_parser = parser.commands["run"]
            tokens = _read_config_file(args.config)
            if run_parser.parse_args(tokens).config is not None:
                raise ConfigError("config file: a config file cannot name another")
            args = run_parser.parse_args([*tokens, *argv[1:]])
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
