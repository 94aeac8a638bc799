"""ctburgers benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory.  The workload's passes call
``ctburgers.cli.main`` in-process, one pass after another, for about
``--seconds`` seconds; after each pass the exit codes, printed verdicts
and CSV outputs are checked outside the timed region.

``--trace 0`` reports the end-to-end metrics.  Pass times are reported
in units of a fixed reference kernel timed just before and after each
pass, so that the shared host's changing speed cancels out; raw seconds
are printed and written to the run report.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer calls, self time and
share from the traced ones, the tracing overhead, and the observed
convergence orders of the scheme (computed before any pass).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and a run
report are written under ``.perfbench_out/`` in the checkout.
"""

import os

# pin BLAS/OpenMP pools before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
from tracing import LAYER_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, check_op  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# set-up runs this many times before every pass; the median is reported
SETUP_REPS_PER_PASS = 3

# SHA-256 of the figure CSVs that `reproduce fig7|fig8` writes; the CSV
# output is meant to stay byte-identical, so a change here is reported.
FLOOR_DIGESTS = {
    "fig7_error_profile.csv": "f633ce4479a69a7d997ae85ad355b29ec4d29d9a264644e7f8574f2c1a5d4f2d",
    "fig8_error_profile.csv": "426ce6322edee0074ce2b8327234ea4a9969ae72de6e84937685c2fd83856dc7",
}


def _load_package():
    """Import ctburgers from this checkout's ``src/`` or exit with 2."""
    src = ROOT / "src"
    if not (src / "ctburgers" / "__init__.py").is_file():
        print(f"error: no ctburgers sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import ctburgers
    import ctburgers.cli

    if Path(ctburgers.__file__).resolve().parent != (src / "ctburgers").resolve():
        print(f"error: imported ctburgers from {ctburgers.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return ctburgers.cli


def setup_timer(workload):
    """A function that builds, validates and fits every problem of a pass
    and returns the seconds it took.

    This is the work before the first step: problem factory,
    ``validate``, ``partition``, ``knot_coefficients`` and
    ``initialize_coefficients``, timed through those public calls.
    """
    from ctburgers.basis import knot_coefficients
    from ctburgers.problems import sine_problem, traveling_problem
    from ctburgers.scheme import initialize_coefficients

    factories = {"sine": sine_problem, "traveling": traveling_problem}

    def timed_setup() -> float:
        t0 = time.perf_counter()
        for s in workload.setups:
            p = factories[s.problem](s.lam, s.n_cells, s.dt)
            p.validate()
            part = p.partition()
            initialize_coefficients(p, part, knot_coefficients(part.h))
        return time.perf_counter() - t0

    return timed_setup


def convergence_orders() -> tuple[float, float]:
    """Observed orders in h and dt against the exact series, sine lam=0.1.

    h: N = 20 -> 40 at dt = 1e-4, t = 0.1 (time error negligible).
    dt: dt = 0.04 -> 0.02 at N = 1000, t = 0.4 (space error negligible).
    """
    from ctburgers.exact import sine_wave_exact
    from ctburgers.problems import sine_problem
    from ctburgers.scheme import solve_to_time

    lam = 0.1

    def max_err(n, dt, t):
        p = sine_problem(lam, n, dt)
        part = p.partition()
        u = solve_to_time(p, part, t, [t])[t].u
        return max(abs(float(u[i]) - sine_wave_exact(x, t, lam))
                   for i, x in enumerate(part.knots()))

    order_h = math.log2(max_err(20, 1e-4, 0.1) / max_err(40, 1e-4, 0.1))
    order_dt = math.log2(max_err(1000, 0.04, 0.4) / max_err(1000, 0.02, 0.4))
    return order_h, order_dt


_REF_X = numpy.linspace(0.0, 1.0, 41)


def reference_seconds() -> float:
    """Wall seconds of a fixed kernel that mixes the kinds of work the
    package does: a pure-Python float recurrence (the Bessel and Thomas
    loops), small-array numpy arithmetic (step assembly) and float
    formatting (CSV output).  About 20 ms on the host this was built on.

    It does not touch ctburgers, so its time follows only the speed the
    host gives the process; a pass time divided by it stays put when
    that speed changes.
    """
    t0 = time.perf_counter()
    b_hi, b = 0.0, 1e-280
    for k in range(70000, 0, -1):
        b_hi, b = b, b_hi + (2.0 * k / 15.9) * b
        if b > 1e200:
            b_hi, b = b_hi * 1e-200, b * 1e-200
    x = _REF_X
    for _ in range(2000):
        x = 0.5 * (x + _REF_X[::-1]) - 0.01 * x[1:-1].sum() * _REF_X
    "\n".join(f"{v:.17g},{v * b:.17g}" for v in x.tolist() * 150)
    return time.perf_counter() - t0


@dataclass
class Pass:
    traced: bool
    walls: list  # seconds per op
    cpus: list
    checks: list
    ref: float = math.nan  # mean reference-kernel seconds before and after

    @property
    def wall_ref(self) -> float:
        return self.wall / self.ref

    @property
    def wall(self) -> float:
        return sum(self.walls)


def run_pass(cli, workload, tracer=None) -> Pass:
    """Run every op of the workload once; time the calls, then check them."""
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        dirs = [Path(tmp) / f"op{i}" for i in range(len(workload.ops))]
        for d in dirs:
            d.mkdir()
        results, walls, cpus = [], [], []
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            for op, d in zip(workload.ops, dirs):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    c0, t0 = time.process_time(), time.perf_counter()
                    try:
                        rc = cli.main([*op.argv, "--output-dir", str(d)])
                    except Exception:
                        traceback.print_exc()
                        rc = -1
                    walls.append(time.perf_counter() - t0)
                    cpus.append(time.process_time() - c0)
                results.append((rc, out.getvalue(), err.getvalue()))
        checks = []
        for op, d, (rc, out, err) in zip(workload.ops, dirs, results):
            check = check_op(op, rc, out, d, workload.err_gate)
            if not check.ok:
                print(f"FAILED {' '.join(op.argv)}: {check.reason}\n{err}", file=sys.stderr)
            checks.append(check)
    return Pass(traced=tracer is not None, walls=walls, cpus=cpus, checks=checks)


def measure(cli, workload, seconds: float, tracer=None, setup=None):
    """Run passes for about ``seconds``; return them and the set-up times.

    With a tracer, untraced and traced passes alternate and at least one
    of each runs.  With ``setup``, it runs SETUP_REPS_PER_PASS times
    before each pass, so its samples spread over the whole run.  The
    reference kernel runs between passes; each pass keeps the mean of the
    kernel times on either side of it.  A pass is not started when a
    typical pass of its kind would end past the deadline, so a run's
    length stays near ``seconds``.
    """
    kinds = (None,) if tracer is None else (None, tracer)
    passes, setups = [], []
    start = time.perf_counter()
    ref_before = reference_seconds()
    while True:
        if setup is not None:
            setups += [setup() for _ in range(SETUP_REPS_PER_PASS)]
        p = run_pass(cli, workload, kinds[len(passes) % len(kinds)])
        ref_after = reference_seconds()
        p.ref = 0.5 * (ref_before + ref_after)
        ref_before = ref_after
        passes.append(p)
        nxt = kinds[len(passes) % len(kinds)]
        same = [p.wall for p in passes if p.traced == (nxt is not None)]
        if len(passes) >= len(kinds):
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(same) > seconds:
                return passes, setups


def fastest(passes: list[Pass], attr: str) -> float:
    """Sum over the ops of each op's fastest time across ``passes``."""
    per_op = zip(*(getattr(p, attr) for p in passes))
    return sum(min(times) for times in per_op)


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "threads": threading.active_count(),
    }


def raw_times(passes: list[Pass]) -> dict:
    """Medians over the passes in plain seconds, for the record only."""
    return {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "cpu_s": (statistics.median(sum(p.cpus) for p in passes), "s"),
        "ref_s": (statistics.median(p.ref for p in passes), "s"),
    }


def end_to_end_metrics(workload, setups: list[float], passes: list[Pass]) -> dict:
    ok = [c for p in passes for c in p.checks if c.ok]
    attempted = sum(len(p.checks) for p in passes)
    points = max(sum(c.exact_points for c in p.checks) for p in passes)
    wall = statistics.median(p.wall_ref for p in passes)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_ref": (wall, "ref"),
        "setup_s": (statistics.median(setups), "s"),
        "cell_steps_per_ref": (workload.cell_steps / wall, "1/ref"),
        "exact_points_per_ref": (points / wall, "1/ref"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        "ok_ratio": (len(ok) / attempted, "1"),
        "max_abs_err": (max((c.max_abs_err for c in ok), default=0.0), "1"),
    }


def per_layer_metrics(passes: list[Pass], tracer, orders) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    calls, self_ns = tracer.layer_totals()
    traced_ns = sum(p.wall for p in traced) * 1e9
    metrics = {}
    for name, n, ns in zip(LAYER_NAMES, calls, self_ns):
        metrics[f"{name}.calls"] = (int(n) / len(traced), "count")
        metrics[f"{name}.self_us"] = (ns / n / 1e3 if n else 0.0, "us")
        metrics[f"{name}.share"] = (100.0 * ns / traced_ns, "%")
    overhead = fastest(traced, "walls") / fastest(plain, "walls") - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    metrics["scheme.order_h"] = (orders[0], "1")
    metrics["scheme.order_dt"] = (orders[1], "1")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _load_package()
    workload = WORKLOADS[args.workload](random.Random(args.seed))
    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    print("env:", json.dumps(env, sort_keys=True))

    if args.trace:
        orders = convergence_orders()
        tracer = Tracer()
        passes, _ = measure(cli, workload, args.seconds, tracer=tracer)
        metrics = per_layer_metrics(passes, tracer, orders)
        tracer.write(OUT_DIR / f"spans-{workload.name}.npz")
    else:
        setup = setup_timer(workload)
        setup()  # first-call costs are not what users pay per run
        passes, setups = measure(cli, workload, args.seconds, setup=setup)
        metrics = end_to_end_metrics(workload, setups, passes)

    attempted = sum(len(p.checks) for p in passes)
    failed = sum(not c.ok for p in passes for c in p.checks)
    digests = {}
    deterministic = True
    for p in passes:
        for i, (op, c) in enumerate(zip(workload.ops, p.checks)):
            if c.ok and c.digests:
                first = digests.setdefault(f"{i}:{op.label}", c.digests)
                deterministic &= first == c.digests
    if not deterministic:
        print("FAILED: outputs differ between passes of identical input", file=sys.stderr)
    floor = {k: v for d in digests.values() for k, v in d.items() if k in FLOOR_DIGESTS}
    changed = sorted(k for k, v in floor.items() if FLOOR_DIGESTS[k] != v)

    raw = raw_times(passes)
    for name, (value, unit) in {**metrics, **raw}.items():
        print(f"{name:<40} {value:>16.6g} {unit}")
    print("passes:", len(passes), "traced:", sum(p.traced for p in passes))
    print("digests:", json.dumps(digests, sort_keys=True))
    if floor:
        print("floor CSVs:", f"CHANGED {changed}" if changed else "byte-identical")

    report = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "env": env, "argv": [list(op.argv) for op in workload.ops],
        "op_wall_s": [p.walls for p in passes], "pass_traced": [p.traced for p in passes],
        "pass_ref_s": [p.ref for p in passes],
        "raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "digests": digests, "floor_changed": changed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"report-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
