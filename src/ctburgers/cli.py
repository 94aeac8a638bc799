"""Command-line experiment runner.

Two modes:

``ctburgers run`` solves one configured problem and emits tables and/or
CSV snapshots.  ``ctburgers reproduce <target>`` re-runs a canonical
benchmark configuration and checks the result against the published
values cell by cell.

Exit codes: 0 success, 1 invalid configuration, 2 numerical failure,
3 reproduction outside tolerance.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import reference as ref
from .exact import SeriesConvergenceError, sine_wave_exact
from .linalg import ZeroPivotError
from .metrics import table_report
from .problems import exact_solution, sine_problem, traveling_problem
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
    alpha: float = 0.4
    mu: float = 0.6
    gamma: float = 0.125

    def build_problem(self):
        if self.problem == "sine":
            return sine_problem(self.lam, self.n_cells, self.dt, self.t_end)
        if self.problem == "traveling":
            return traveling_problem(
                self.lam, self.n_cells, self.dt, self.t_end,
                alpha=self.alpha, mu=self.mu, gamma=self.gamma,
            )
        raise ConfigError(f"problem must be 'sine' or 'traveling', got {self.problem!r}")

    def validate(self):
        bad = self.outputs - {"table", "csv", "plotdata"}
        if bad:
            raise ConfigError(f"outputs: unknown kind(s) {sorted(bad)}")
        try:
            p = self.build_problem()
            p.validate()
            p.partition()
        except ValueError as e:
            raise ConfigError(str(e)) from e
        return p


def _fmt12(v: float) -> str:
    return f"{v:.12g}"


def _write_csv(path: Path, t: float, xs, nums, exacts):
    lines = ["x,t,numerical,exact,abs_error"]
    for x, un, ue in zip(xs, nums, exacts):
        err = abs(un - ue) if ue is not None else ""
        lines.append(
            f"{_fmt12(x)},{_fmt12(t)},{_fmt12(un)},"
            f"{_fmt12(ue) if ue is not None else ''},"
            f"{_fmt12(err) if ue is not None else ''}"
        )
    path.write_text("\n".join(lines) + "\n")


def run(config: RunConfig, out=None) -> int:
    """Solve one configuration and write the requested outputs."""
    out = out if out is not None else sys.stdout
    try:
        problem = config.validate()
    except ConfigError as e:
        print(f"error: invalid config: {e}", file=sys.stderr)
        return EXIT_CONFIG
    part = problem.partition()
    sample_times = config.sample_times or [config.t_end]
    try:
        states = solve_to_time(problem, part, config.t_end, sample_times)
    except ValueError as e:
        print(f"error: invalid config: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ZeroPivotError, FloatingPointError) as e:
        print(f"error: numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    for t, state in states.items():
        if not np.all(np.isfinite(state.u)):
            print(
                f"error: numerical failure: non-finite solution at t={t}",
                file=sys.stderr,
            )
            return EXIT_NUMERICAL

    exact_fn = exact_solution(
        problem, alpha=config.alpha, mu=config.mu, gamma=config.gamma
    )
    if config.sample_xs == "all-knots":
        xs = part.knots()
    else:
        xs = list(config.sample_xs)

    try:
        if "table" in config.outputs:
            decimals = 3 if config.problem == "traveling" else 5
            out.write(table_report(states, xs, exact_fn, part, decimals=decimals))
        if config.outputs & {"csv", "plotdata"}:
            config.output_dir.mkdir(parents=True, exist_ok=True)
            knots = part.knots()
            for t, state in sorted(states.items()):
                exacts = exact_fn(np.array(knots), t).tolist() if exact_fn else [None] * len(knots)
                name = f"{config.problem}_lam{_fmt12(config.lam)}_t{_fmt12(t)}.csv"
                _write_csv(config.output_dir / name, t, knots, state.u.tolist(), exacts)
    except SeriesConvergenceError as e:
        print(f"error: exact series did not converge: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduction targets
# ---------------------------------------------------------------------------


def _sine_states(lam: float) -> dict[float, NodalState]:
    problem = sine_problem(lam, 40, 1e-4, end_time=3.0)
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
    rows = []
    for (x, t), printed in sorted(exact_printed.items()):
        oracle = sine_wave_exact(x, t, lam)
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
        problem = traveling_problem(0.01, ref.TABLE5_N_CELLS, dt, end_time=ref.TABLE5_TIME)
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
    problem = traveling_problem(config_lam, 36, 1e-3, end_time=t)
    part = problem.partition()
    states = solve_to_time(problem, part, t, [t])
    u = states[t].u
    exact_fn = exact_solution(problem)
    knots = part.knots()
    errs = np.abs(u - exact_fn(np.array(knots), t))
    output_dir.mkdir(parents=True, exist_ok=True)
    path = output_dir / f"fig{num}_error_profile.csv"
    lines = ["x,t,abs_error"]
    for x, e in zip(knots, errs.tolist()):
        lines.append(f"{_fmt12(x)},{_fmt12(t)},{_fmt12(e)}")
    path.write_text("\n".join(lines) + "\n")
    front = 0.6 * t + 0.125
    peak_x = knots[int(np.argmax(errs))]
    ok = abs(peak_x - front) <= 3.0 / 36.0
    out.write(
        f"fig{num}: traveling wave lam={config_lam}, h=1/36, dt=0.001, t={t}\n"
        f"  error profile written to {path}\n"
        f"  peak |error| at x={peak_x:.3f}, front at x={front:.3f}"
        f" -> {'ok' if ok else 'FAIL'} (peak within 3 cells of front)\n"
    )
    return ok


def reproduce(target: str, output_dir: Path = Path("."), out=None) -> int:
    """Run one canonical benchmark configuration and check it cell by cell."""
    out = out if out is not None else sys.stdout
    if target not in REPRODUCE_TARGETS:
        print(
            f"error: invalid config: target must be one of {REPRODUCE_TARGETS}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    try:
        if target in ("table2", "table3", "table4"):
            ok = _reproduce_sine_table(int(target[-1]), out)
        elif target == "table5":
            ok = _reproduce_table5(out)
        else:
            lam = 0.01 if target == "fig7" else 0.005
            ok = _reproduce_fig(int(target[-1]), lam, out, output_dir)
    except (ZeroPivotError, FloatingPointError, SeriesConvergenceError) as e:
        print(f"error: numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    out.write(f"{target}: {'PASS' if ok else 'FAIL'}\n")
    return EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument and config-file handling
# ---------------------------------------------------------------------------


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as e:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from e


def _read_config_file(path: Path) -> dict[str, str]:
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for numerical failures; flag errors are
    # configuration errors
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ctburgers",
        description="Trigonometric-spline collocation solver for the 1D "
        "viscous Burgers equation, with benchmark reproduction targets.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    runp = sub.add_parser("run", help="solve one configured problem")
    runp.add_argument("--config", type=Path, help="key=value config file")
    runp.add_argument("--problem", choices=("sine", "traveling"))
    runp.add_argument("--lambda", dest="lam", type=float, help="viscosity")
    runp.add_argument("--n-cells", type=int)
    runp.add_argument("--dt", type=float)
    runp.add_argument("--t-end", type=float)
    runp.add_argument("--sample-times", help="comma-separated times")
    runp.add_argument("--sample-xs", help="comma-separated points or 'all-knots'")
    runp.add_argument("--outputs", help="comma-separated: table,csv,plotdata")
    runp.add_argument("--output-dir", type=Path)
    runp.add_argument("--alpha", type=float, help="traveling-wave amplitude")
    runp.add_argument("--mu", type=float, help="traveling-wave speed")
    runp.add_argument("--gamma", type=float, help="traveling-wave offset")

    rep = sub.add_parser("reproduce", help="check a benchmark table or figure")
    rep.add_argument("target", choices=REPRODUCE_TARGETS)
    rep.add_argument("--output-dir", type=Path, default=Path("."))
    return parser


_RUN_KEYS = (
    "problem", "lam", "n_cells", "dt", "t_end", "sample_times",
    "sample_xs", "outputs", "output_dir", "alpha", "mu", "gamma",
)


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    file_values = _read_config_file(args.config) if args.config else {}
    file_values = {("lam" if k == "lambda" else k): v for k, v in file_values.items()}
    unknown = set(file_values) - set(_RUN_KEYS)
    if unknown:
        raise ConfigError(f"config file: unknown key(s) {sorted(unknown)}")

    def pick(key):
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            return cli_val
        return file_values.get(key)

    for key in ("problem",):
        if (v := pick(key)) is not None:
            cfg.problem = str(v)
    for key in ("lam", "dt", "t_end", "alpha", "mu", "gamma"):
        if (v := pick(key)) is not None:
            try:
                setattr(cfg, key, float(v))
            except ValueError as e:
                raise ConfigError(f"{key}: expected a number, got {v!r}") from e
    if (v := pick("n_cells")) is not None:
        try:
            cfg.n_cells = int(v)
        except ValueError as e:
            raise ConfigError(f"n_cells: expected an integer, got {v!r}") from e
    if (v := pick("sample_times")) is not None:
        cfg.sample_times = _parse_floats(v) if isinstance(v, str) else v
    if (v := pick("sample_xs")) is not None:
        cfg.sample_xs = v if v == "all-knots" else _parse_floats(v)
    if (v := pick("outputs")) is not None:
        cfg.outputs = {s.strip() for s in str(v).split(",") if s.strip()}
    if (v := pick("output_dir")) is not None:
        cfg.output_dir = Path(v)
    return cfg


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
        cfg = _config_from_args(args)
    except ConfigError as e:
        print(f"error: invalid config: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
