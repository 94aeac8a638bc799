"""Command-line interface tests: flags, config files, outputs, exit codes."""

import errno
import hashlib
import math
import os
import re
import struct
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ctburgers import _native, cli, csvtext, exact, problems, scheme
from ctburgers.exact import SeriesConvergenceError
from ctburgers.linalg import ZeroPivotError


def run_main(args):
    return cli.main(args)


def blow_up_the_march(monkeypatch):
    """Make every march leave NaN in the state it stepped, on either path."""
    march = scheme._StepKernel.march

    def blown_up(kernel, steps):
        march(kernel, steps)
        kernel.delta[:] = np.nan

    monkeypatch.setattr(scheme._StepKernel, "march", blown_up)


# SHA-256 of each CSV of the exact_snapshots benchmark configuration at seed 1
EXACT_SNAPSHOTS_DIGESTS = {
    "sine_lam0.01_t0.7.csv":
        "08489aa10d7b5e85fcaa12de3dcffaf0db717f2b3cdab63e2c55f043c00f0db8",
    "sine_lam0.01_t0.72.csv":
        "6baa1850a54adf861fd98cb001ad4f5598e8b8af794a6d1d7afc93061f972b14",
    "sine_lam0.01_t0.73.csv":
        "148ed83bb95bd8721d22b28ac24e5c54e817eca19996c50bf82290e367817c71",
    "sine_lam0.01_t0.74.csv":
        "d6b86d73f87d1718f6f6e19514da100744d0b6bf2443a3e38fd7b024dc8db1bd",
    "sine_lam0.01_t0.76.csv":
        "51d828dc1ec45bb27f7aacfd92442dd53a99f9033ed1b86283e2c92361258f71",
    "sine_lam0.01_t0.78.csv":
        "4a05bb3ec8633970d88277b87b468d5fccc5987c0b6b74cfa3604de0a954bdcd",
    "sine_lam0.01_t0.82.csv":
        "6cb7ec036f67643e01f04f00db3265b135616c4bc52200ed4f182c2ca70edf65",
    "sine_lam0.01_t0.83.csv":
        "62921a45841bcde5a46c7f80abf400b4ab7a0e914fbb655890e30032b130057e",
    "sine_lam0.01_t0.84.csv":
        "11b2232bc2ad50e569277ea80c9bdff5d453934028420179b5b6c307376401ec",
    "sine_lam0.01_t0.85.csv":
        "fbb472237641c63e1c582bb83e68ee9041df613617accf42b973dc1aaa04eaa5",
    "sine_lam0.01_t0.87.csv":
        "b9d797e5e267af8cf29945e319320a4ef2664e70e0881568bdd1883ca2f21921",
    "sine_lam0.01_t0.88.csv":
        "e6c5515b839b86313e4b77f35da9ae69030a463d2c8c956dd48cbadf4df59ad9",
    "sine_lam0.01_t0.89.csv":
        "5df4f6361ce7514547464d05782ed2fe26e7d58a2617a046c07e5f93f67b44bb",
    "sine_lam0.01_t0.91.csv":
        "722d913f2cfb57d58877065e2279a210bf58b5ee7471adf5d4641f9caed721bb",
    "sine_lam0.01_t0.92.csv":
        "e5fbce0f3fb7c6501514dd2d4466c1169deb7d4ef3c2d684d9dc816483bef436",
    "sine_lam0.01_t0.94.csv":
        "b4ac09bb94a267e4a579dfcfd890485b2c2198f287c59ce08a16f8b13045c188",
    "sine_lam0.01_t0.95.csv":
        "e9bc8cb8d9b41b59dc12edcc297ef3ee5687f41177117be51c54c4227fcd3568",
    "sine_lam0.01_t0.97.csv":
        "5b5cd4e2bdc3177d87e82d81ac20b3399f8356a9bd737ebe9a3b4beec6fbf545",
    "sine_lam0.01_t0.98.csv":
        "1fc85874d7f8bce2cb96e9c4a01b7d0eff22ba944ab59037b87fd693b8a6dd44",
    "sine_lam0.01_t1.csv":
        "c0ff7875f3c48a512be524a8691e2b09e2c9f8bd07f9b83c331c8c49b8e4f9e8",
}


class TestRunCommand:
    def test_zero_horizon_prints_initial_table(self, capsys):
        code = run_main(
            [
                "run", "--problem", "sine", "--lambda", "1", "--n-cells", "40",
                "--dt", "0.0001", "--t-end", "0", "--sample-xs", "0.25,0.5,0.75",
                "--outputs", "table",
            ]
        )
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "0.70711" in out and "1.00000" in out

    def test_bare_flags_imply_run(self, capsys):
        code = run_main(["--problem", "sine", "--t-end", "0", "--sample-xs", "0.5"])
        assert code == cli.EXIT_OK
        assert "1.00000" in capsys.readouterr().out

    def test_traveling_published_cell(self, capsys):
        code = run_main(
            [
                "run", "--problem", "traveling", "--lambda", "0.01", "--n-cells", "36",
                "--dt", "0.01", "--t-end", "0.5", "--sample-xs", "0.5",
                "--outputs", "table",
            ]
        )
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "0.237" in out

    def test_csv_outputs_are_deterministic(self, tmp_path):
        args = [
            "run", "--problem", "sine", "--lambda", "0.5", "--n-cells", "10",
            "--dt", "0.001", "--t-end", "0.01", "--outputs", "csv",
        ]
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert run_main(args + ["--output-dir", str(first)]) == cli.EXIT_OK
        assert run_main(args + ["--output-dir", str(second)]) == cli.EXIT_OK
        fa = sorted(first.iterdir())
        fb = sorted(second.iterdir())
        assert [f.name for f in fa] == [f.name for f in fb] and fa
        for a, b in zip(fa, fb):
            assert a.read_bytes() == b.read_bytes()

    def test_csv_schema(self, tmp_path):
        assert (
            run_main(
                [
                    "run", "--problem", "sine", "--t-end", "0.001", "--dt", "0.001",
                    "--n-cells", "10", "--outputs", "plotdata",
                    "--output-dir", str(tmp_path),
                ]
            )
            == cli.EXIT_OK
        )
        (csv_file,) = sorted(tmp_path.iterdir())
        lines = csv_file.read_text().splitlines()
        assert lines[0] == "x,t,numerical,exact,abs_error"
        assert len(lines) == 12  # header + 11 knots
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_plotdata_is_an_alias_of_csv(self, tmp_path, capsys):
        args = ["run", "--problem", "sine", "--n-cells", "10", "--dt", "0.01",
                "--t-end", "0.02", "--sample-times", "0.01,0.02"]
        for kind in ("csv", "plotdata"):
            assert run_main([*args, "--outputs", kind, "--output-dir", str(tmp_path / kind)]) == 0
        files = {kind: {f.name: f.read_bytes() for f in (tmp_path / kind).iterdir()}
                 for kind in ("csv", "plotdata")}
        assert len(files["csv"]) == 2 and files["csv"] == files["plotdata"]
        with pytest.raises(SystemExit):
            run_main(["run", "--help"])
        # argparse wraps the help text at the terminal width
        assert "plotdata is an alias of csv" in " ".join(capsys.readouterr().out.split())

    def test_sine_csv_is_byte_identical(self, tmp_path):
        # the exact column of these CSVs is the Fourier-Bessel series at
        # lam = 0.01: any change in the series arithmetic or its truncation
        # shows here, as in the pinned figure profiles below
        args = [
            "run", "--problem", "sine", "--lambda", "0.01", "--n-cells", "400",
            "--dt", "0.01", "--t-end", "1", "--sample-times", "0.7,1",
            "--outputs", "csv", "--output-dir", str(tmp_path),
        ]
        assert run_main(args) == cli.EXIT_OK
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
        assert digests == {
            "sine_lam0.01_t0.7.csv":
                "08489aa10d7b5e85fcaa12de3dcffaf0db717f2b3cdab63e2c55f043c00f0db8",
            "sine_lam0.01_t1.csv":
                "c0ff7875f3c48a512be524a8691e2b09e2c9f8bd07f9b83c331c8c49b8e4f9e8",
        }

    def test_exact_snapshots_csvs_are_byte_identical(self, tmp_path):
        # the 20 snapshots of the exact_snapshots benchmark at seed 1: one
        # pass of exact columns over 18 to 24 terms, one knot column
        times = (
            "0.7,0.72,0.73,0.74,0.76,0.78,0.82,0.83,0.84,0.85,"
            "0.87,0.88,0.89,0.91,0.92,0.94,0.95,0.97,0.98,1"
        )
        args = [
            "run", "--problem", "sine", "--lambda", "0.01", "--n-cells", "400",
            "--dt", "0.01", "--t-end", "1", "--sample-times", times,
            "--outputs", "csv", "--output-dir", str(tmp_path),
        ]
        assert run_main(args) == cli.EXIT_OK
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
        assert digests == EXACT_SNAPSHOTS_DIGESTS

    def test_traveling_csv_is_byte_identical(self, tmp_path):
        args = [
            "run", "--problem", "traveling", "--lambda", "0.005", "--n-cells", "400",
            "--dt", "0.001", "--t-end", "0.03", "--sample-times", "0.02,0.03",
            "--outputs", "csv", "--output-dir", str(tmp_path),
        ]
        assert run_main(args) == cli.EXIT_OK
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
        assert digests == {
            "traveling_lam0.005_t0.02.csv":
                "8d525f8ac51d0e38784e3e9bc82e959b5995cbae6d10df57d7aa02eea3fb9abf",
            "traveling_lam0.005_t0.03.csv":
                "461637536334491510185b84870f9524a1aff8e0ff3e27f248c8409d6e38007e",
        }

    def test_steep_traveling_csv_is_byte_identical(self, tmp_path):
        # at lam = 0.001 about 80 % of the parameters repeat their neighbour
        # bit for bit, so the compiled march reuses work on most rows
        args = [
            "run", "--problem", "traveling", "--lambda", "0.001", "--n-cells", "4000",
            "--dt", "0.0001", "--t-end", "0.003", "--sample-times", "0.002,0.003",
            "--outputs", "csv", "--output-dir", str(tmp_path),
        ]
        assert run_main(args) == cli.EXIT_OK
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
        assert digests == {
            "traveling_lam0.001_t0.002.csv":
                "cf292075ff865b786b1cd1447f35a8809c8e26ce47788638405ff9a8bf4294a1",
            "traveling_lam0.001_t0.003.csv":
                "f09dabd619cccbcda8f025ccc6610985b0b1ff6915d2c9632dd36d76b5b5f050",
        }

    def test_negative_zero_sample_time_is_zero(self, tmp_path, capsys):
        outputs = []
        for times in ("-0.0,0.01", "0,0.01"):
            out_dir = tmp_path / times
            args = ["run", "--n-cells", "4", "--dt", "0.01", "--t-end", "0.01",
                    f"--sample-times={times}", "--outputs", "csv,table",
                    "--output-dir", str(out_dir)]
            assert run_main(args) == cli.EXIT_OK
            files = {f.name: f.read_bytes() for f in out_dir.iterdir()}
            outputs.append((capsys.readouterr().out, files))
        assert "sine_lam1_t0.csv" in outputs[1][1]
        assert outputs[0] == outputs[1]

    def test_invalid_viscosity_exits_config_error(self, capsys):
        code = run_main(["run", "--problem", "sine", "--lambda", "-2", "--t-end", "0.1"])
        assert code == cli.EXIT_CONFIG
        assert "lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--dt", "--lambda", "--t-end"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_parameter_exits_config_error(self, flag, value, capsys):
        # the repeated flag wins over the finite default before it
        code = run_main(
            ["run", "--problem", "sine", "--dt", "0.001", "--lambda", "1", "--t-end", "0",
             flag, value]
        )
        assert code == cli.EXIT_CONFIG
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--alpha", "5"), ("--mu", "0.3"), ("--gamma", "nan")])
    def test_front_constant_for_sine_exits_config_error(self, flag, value, capsys):
        code = run_main(
            ["run", "--problem", "sine", "--lambda", "0.1", "--n-cells", "10", "--dt", "0.01",
             "--t-end", "0.1", flag, value]
        )
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == (
            f"error: invalid config: {flag[2:]} set, but only the traveling problem takes them\n"
        )

    def test_front_constants_reach_the_factory(self):
        config = cli.RunConfig(problem="traveling", lam=0.01, n_cells=36, dt=1e-3, mu=0.5)
        assert config.build_problem() == problems.traveling_problem(0.01, 36, 1e-3, mu=0.5)
        config.mu = None
        assert config.build_problem() == problems.traveling_problem(0.01, 36, 1e-3)

    def test_unknown_flag_exits_config_error(self, capsys):
        assert run_main(["run", "--nope", "1"]) == cli.EXIT_CONFIG

    def test_unknown_output_kind_rejected(self, capsys):
        code = run_main(["run", "--outputs", "pdf", "--t-end", "0"])
        assert code == cli.EXIT_CONFIG
        assert "outputs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, name",
        [("--outputs", "outputs"), ("--sample-xs", "sample_xs"),
         ("--sample-times", "sample_times")],
    )
    def test_empty_list_rejected_before_the_march(self, flag, name, monkeypatch, capsys):
        # a run that would output nothing, a table of no rows or no times
        # exits 1; an empty list of times is not the flag left out
        def fail(*a, **k):
            raise AssertionError("marched with nothing to output")

        monkeypatch.setattr(cli, "solve_to_time", fail)
        code = run_main(["run", "--n-cells", "4", "--dt", "0.01", "--t-end", "0.01", flag, ","])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG
        assert f"error: invalid config: {name}: no " in captured.err
        assert captured.out == ""

    def test_equal_sample_times_rejected_before_the_fit(self, monkeypatch, capsys):
        # two equal times would print one row where two were asked for
        def fail(*a, **k):
            raise AssertionError("reached the fit")

        monkeypatch.setattr(scheme, "initialize_coefficients", fail)
        code = run_main(
            ["run", "--n-cells", "4", "--dt", "0.01", "--t-end", "0.02",
             "--sample-times", "0.01,0.01", "--sample-xs", "0.5"]
        )
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG
        assert ("error: invalid config: sample times 0.01 and 0.01 both fall on step 1"
                in captured.err)
        assert captured.out == ""

    def test_misaligned_sample_time_exits_config_error(self, capsys):
        code = run_main(
            ["run", "--problem", "sine", "--dt", "0.001", "--t-end", "0.01",
             "--sample-times", "0.0105"]
        )
        assert code == cli.EXIT_CONFIG

    def test_negative_sample_time_exits_config_error(self, capsys):
        code = run_main(
            ["run", "--problem", "sine", "--n-cells", "10", "--dt", "0.01", "--t-end", "0.02",
             "--sample-times=-0.01,0.02"]
        )
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG
        assert "error: invalid config: time -0.01 is before" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("x", ["0.33", "inf", "nan"])
    def test_non_knot_sample_x_rejected_before_the_march(self, x, monkeypatch, capsys):
        def fail(*a, **k):
            raise AssertionError("marched with an invalid sample x")

        monkeypatch.setattr(cli, "solve_to_time", fail)
        code = run_main(
            ["run", "--problem", "sine", "--lambda", "1", "--n-cells", "10", "--dt", "0.01",
             "--t-end", "0.02", "--sample-xs", x]
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert f"error: invalid config: sample x={x} is not a knot" in err
        assert "Traceback" not in err

    def test_nan_initial_condition_exits_config_error(self, monkeypatch, capsys):
        def fail(*a, **k):
            raise AssertionError("marched from a NaN initial condition")

        monkeypatch.setattr(cli, "solve_to_time", fail)
        code = run_main(
            ["run", "--problem", "traveling", "--lambda", "0.01", "--n-cells", "36",
             "--dt", "0.001", "--t-end", "0.01", "--gamma", "nan"]
        )
        assert code == cli.EXIT_CONFIG
        assert "error: invalid config: initial_condition incompatible" in capsys.readouterr().err

    def test_output_dir_that_is_a_file_exits_config_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = run_main(
            ["run", "--problem", "sine", "--n-cells", "10", "--dt", "0.01", "--t-end", "0",
             "--outputs", "csv", "--output-dir", str(taken)]
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "error: invalid config:" in err and "Traceback" not in err

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        def boom(*a, **k):
            raise ZeroPivotError(3)

        monkeypatch.setattr(cli, "solve_to_time", boom)
        code = run_main(["run", "--problem", "sine", "--t-end", "0.001", "--dt", "0.001"])
        assert code == cli.EXIT_NUMERICAL
        assert "numerical" in capsys.readouterr().err

    def test_output_dir_that_is_a_file_is_rejected_before_the_march(
        self, tmp_path, monkeypatch, capsys
    ):
        def fail(*a, **k):
            raise AssertionError("marched into an unusable output directory")

        monkeypatch.setattr(cli, "solve_to_time", fail)
        taken = tmp_path / "taken"
        taken.write_text("")
        code = run_main(
            ["run", "--problem", "sine", "--n-cells", "10", "--dt", "0.01", "--t-end", "1",
             "--outputs", "csv", "--output-dir", str(taken)]
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "error: invalid config:" in err and "Traceback" not in err

    def test_step_count_overflow_exits_config_error(self, capsys):
        code = run_main(["run", "--dt", "1e-10", "--t-end", "1e300"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "error: invalid config: time 1e+300" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # 10**19 steps: it used to march until it was killed
            (["--problem", "sine", "--lambda", "1", "--n-cells", "10", "--dt", "1",
              "--t-end", "1e19"], "exceed the cap of 1e+11 cell-steps"),
            # it used to end in an uncaught numpy memory error
            (["--problem", "sine", "--n-cells", "1000000000000", "--t-end", "0"],
             "n_cells must be <= 1e+07"),
        ],
        ids=["steps", "cells"],
    )
    def test_oversized_run_exits_config_error_at_once(self, argv, message, monkeypatch, capsys):
        def fail(*a, **k):
            raise AssertionError("reached the fit")

        monkeypatch.setattr(scheme, "initialize_coefficients", fail)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code = run_main(["run", *argv])
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "error: invalid config: " in err and message in err
        assert "Traceback" not in err
        assert elapsed < 1.0
        assert peak < 1 << 20  # nothing of the run's size was allocated

    def test_non_finite_solution_exits_numerical_failure(self, monkeypatch, capsys):
        blow_up_the_march(monkeypatch)
        code = run_main(["run", "--problem", "sine", "--t-end", "0.001", "--dt", "0.001"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_NUMERICAL
        assert "error: numerical failure: non-finite solution at t=0.001" in captured.err
        assert captured.out == ""

    def test_series_failure_while_writing_exits_numerical_failure(
        self, tmp_path, monkeypatch, capsys
    ):
        # the exact columns are evaluated only when the snapshots are
        # written; every sine evaluation finds its terms' factors here
        def stalled(*a, **k):
            raise SeriesConvergenceError("ascending Bessel series stalled")

        monkeypatch.setattr(exact, "_series_factors", stalled)
        code = run_main(
            ["run", "--problem", "sine", "--n-cells", "10", "--dt", "0.01", "--t-end", "0.01",
             "--outputs", "csv", "--output-dir", str(tmp_path)]
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_NUMERICAL
        assert "error: numerical failure: ascending Bessel series stalled" in err

    @pytest.mark.parametrize(
        "lam,t_end,sample_times",
        [("0.005", "0.01", []), ("0.01", "0.02", ["--sample-times", "0.005,0.02"])],
    )
    def test_exact_value_outside_unit_interval_exits_numerical_failure(
        self, lam, t_end, sample_times, tmp_path, capsys
    ):
        # the series gives 1.0008 at x = 0.485 for lam = 0.005, t = 0.01, and
        # -0.0036 at x = 0.9875 for lam = 0.01, t = 0.02 (t = 0.005 is in
        # range); no snapshot of such a run is written, nor exit 0 returned
        code = run_main(
            ["run", "--problem", "sine", "--lambda", lam, "--n-cells", "400",
             "--dt", "0.001", "--t-end", t_end, *sample_times, "--outputs", "csv",
             "--output-dir", str(tmp_path)]
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_NUMERICAL
        assert "error: numerical failure: series value" in err
        assert "outside [0, 1]" in err
        assert list(tmp_path.iterdir()) == []

    def test_failing_middle_time_raises_its_own_message_and_writes_nothing(
        self, tmp_path, capsys
    ):
        # t = 0.005 and t = 0.03 are in range, t = 0.02 is not: the run
        # reports what a call at t = 0.02 alone raises, and writes no file
        xs = problems.sine_problem(0.01, 400, 0.001).partition().knot_array()
        with pytest.raises(SeriesConvergenceError) as alone:
            problems.sine_problem(0.01, 400, 0.001).exact(xs, 0.02)
        code = run_main(
            ["run", "--problem", "sine", "--lambda", "0.01", "--n-cells", "400",
             "--dt", "0.001", "--t-end", "0.03", "--sample-times", "0.005,0.02,0.03",
             "--outputs", "csv", "--output-dir", str(tmp_path)]
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_NUMERICAL
        assert err == f"error: numerical failure: {alone.value}\n"
        assert list(tmp_path.iterdir()) == []


def reference_snapshot_text(t, xs, nums, exacts):
    """A snapshot CSV written row by row with f-strings."""
    lines = ["x,t,numerical,exact,abs_error"]
    for x, un, ue in zip(xs, nums, exacts):
        lines.append(f"{x:.12g},{t:.12g},{un:.12g},{ue:.12g},{abs(un - ue):.12g}")
    return "\n".join(lines) + "\n"


# the widest text of "%.12g"
WIDEST = -1.23456789012e-308

# finite floats of every magnitude, plus the forms whose text is easiest
# to get wrong: signed zeros, subnormals, 1e+-16 and integers stored as floats
csv_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, -1e-16, 1e-16]),
    st.integers(-(2**53), 2**53).map(float),
)


class TestCsvWriter:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        t=csv_floats,
        rows=st.lists(st.tuples(csv_floats, csv_floats, csv_floats), min_size=1, max_size=40),
    )
    # the widest knot text and the shortest
    @example(t=0.7, rows=[(WIDEST, 0.5, 0.25)])
    @example(t=0.7, rows=[(0.0, WIDEST, 1.0)])
    # one row after the widest knot, ending in the widest |error|, the
    # shortest and one of 12 integer digits after two values of 18 characters
    @example(t=0.7, rows=[(WIDEST, WIDEST, -WIDEST)])
    @example(t=0.7, rows=[(WIDEST, 0.0, 0.0)])
    @example(t=0.7, rows=[(WIDEST, -1.23456789012e15, -1.23456789012e15 - 123456789012.0)])
    def test_snapshot_matches_per_row_fstrings(self, t, rows, tmp_path, library):
        xs, nums, exacts = (list(col) for col in zip(*rows))
        path = tmp_path / "snapshot.csv"
        want = reference_snapshot_text(t, xs, nums, exacts)
        # the template and the compiled snapshot, if this machine has one,
        # in that order, so every example ends on the library it began with;
        # the difference of two huge finite floats is inf in both
        native = _native.compiled()
        for compiled in (_native._PYTHON, native):
            library(compiled)
            csvtext._write_snapshots(
                [path], np.array(xs), [t], [np.array(nums)], [np.array(exacts)]
            )
            assert path.read_text() == want


SNAPSHOT_RUN = ["run", "--problem", "sine", "--lambda", "0.01", "--n-cells", "40", "--dt", "0.01",
                "--t-end", "0.1", "--sample-times", "0.05,0.1", "--outputs", "csv"]


class TestRawWriter:
    """``csvtext._write_rows`` creates and writes a CSV file as ``open(path, "wb")`` would."""

    def test_short_writes_still_write_every_byte(self, tmp_path, monkeypatch, capsys):
        whole, short = tmp_path / "whole", tmp_path / "short"
        for argv in (SNAPSHOT_RUN, ["reproduce", "fig7"]):
            assert run_main([*argv, "--output-dir", str(whole)]) == cli.EXIT_OK
        writev, calls = os.writev, []

        def three_bytes(fd, buffers):
            # at most three bytes of the first buffer per call
            calls.append(len(buffers))
            return writev(fd, [bytes(memoryview(buffers[0])[:3])])

        monkeypatch.setattr(os, "writev", three_bytes)
        for argv in (SNAPSHOT_RUN, ["reproduce", "fig7"]):
            assert run_main([*argv, "--output-dir", str(short)]) == cli.EXIT_OK
        names = sorted(f.name for f in whole.iterdir())
        assert len(names) == 3 and names == sorted(f.name for f in short.iterdir())
        for name in names:
            assert (short / name).read_bytes() == (whole / name).read_bytes(), name
        assert len(calls) > 1000

    def test_new_file_has_the_mode_and_descriptor_of_open(self, tmp_path, monkeypatch):
        inheritable = []
        writev = os.writev
        monkeypatch.setattr(
            os, "writev", lambda fd, buffers: inheritable.append(os.get_inheritable(fd))
            or writev(fd, buffers)
        )
        for mask in (0o022, 0o077, 0o002):
            old = os.umask(mask)
            try:
                csvtext._write_rows(tmp_path / f"raw{mask}", b"x\n", b"1\n")
                with open(tmp_path / f"open{mask}", "wb") as f:
                    f.write(b"x\n1\n")
            finally:
                os.umask(old)
            raw, opened = (os.stat(tmp_path / f"{k}{mask}").st_mode for k in ("raw", "open"))
            assert raw == opened == 0o100666 & ~mask
        assert inheritable == [False, False, False]

    def test_existing_file_is_truncated(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(b"a much longer file than the one written over it\n")
        csvtext._write_rows(path, b"x\n", np.frombuffer(b"1\n", dtype=np.uint8))
        assert path.read_bytes() == b"x\n1\n"

    def test_failing_open_exits_one_naming_the_path(self, tmp_path, capsys):
        # a directory where the second snapshot file should be
        blocked = tmp_path / "sine_lam0.01_t0.1.csv"
        blocked.mkdir()
        fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        assert run_main([*SNAPSHOT_RUN, "--output-dir", str(tmp_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ") and str(blocked) in err
        if fds is not None:
            assert set(os.listdir("/proc/self/fd")) == fds

    def test_failing_write_closes_the_file(self, tmp_path, monkeypatch, capsys):
        opened, real_open = [], os.open

        def recording_open(*args, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        def full(fd, buffers):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "open", recording_open)
        monkeypatch.setattr(os, "writev", full)
        assert run_main([*SNAPSHOT_RUN, "--output-dir", str(tmp_path)]) == cli.EXIT_CONFIG
        assert "No space left on device" in capsys.readouterr().err
        assert len(opened) == 1
        with pytest.raises(OSError) as closed:
            os.fstat(opened[0])
        assert closed.value.errno == errno.EBADF


def compiled_rows():
    rows = _native.compiled().rows
    if rows is None:
        pytest.skip("no compiled library on this machine")
    return rows


def assert_rows_match(values):
    """The compiled rows of ``values`` have the bytes of ``"%.12g" % v``."""
    columns = np.asarray(values, dtype=float).reshape(1, -1)
    got = bytes(csvtext._csv_rows(compiled_rows(), columns, "0.5"))
    want = bytes(csvtext._csv_rows(None, columns, "0.5"))
    if got != want:
        pairs = zip(columns[0].tolist(), got.splitlines(), want.splitlines())
        wrong = [(v, g, w) for v, g, w in pairs if g != w]
        pytest.fail(f"{len(wrong)} values differ, first (value, compiled, Python): {wrong[:5]}")


# doubles that, scaled by factors of 10^22 to 12 integer digits, lie
# within 2^-51 of a tie, so the compiled rows take their digits from
# glibc's %.11e
HARDEST_TIES = [
    1.795097866425e+301, 2.991829777375e+301, 1.524398535095e+161, 3.600634578055e+161,
    1.565497303285e+56, 5.916766772085e+56, 5.742874964365e+41, 4.571395387415e+41,
    5.760931982955e+34, 3.050499789745e+34, 1.383957592355e-12, 5.262199099345e-12,
    1.616629688645e-19, 6.304542888995e-19, 6.050602459065e-34, 3.134661855525e-34,
    5.497361012675e-68, 1.470341743525e-68, 4.902447821655e-139, 2.792803962175e-139,
    2.889400732605e-289, 3.435598140815e-289,
]


def from_bits(sign, exponent, mantissa):
    """The double of the given sign bit, biased exponent and mantissa bits."""
    return struct.unpack("<d", struct.pack("<Q", sign << 63 | exponent << 52 | mantissa))[0]


def near_tie(n, s, step, negative):
    """The double nearest (n + 1/2) 10^-s, or ``step`` doubles on from it:
    scaled by 10^s to 12 integer digits, it rounds to n + 1/2 or near it."""
    v = float(Fraction(2 * n + 1, 2) / Fraction(10) ** s)
    for _ in range(abs(step)):
        v = math.nextafter(v, math.copysign(math.inf, step))
    return -v if negative else v


# every sign and biased exponent, the subnormals and zeros (0), inf and the
# NaNs (2047) among them, and the doubles nearest a rounding tie at every
# scaling by one exact power of ten, with both neighbours
any_bits = st.builds(
    from_bits, st.integers(0, 1), st.one_of(st.integers(0, 2047), st.sampled_from([0, 2047])),
    st.one_of(st.integers(0, 2**52 - 1), st.sampled_from([0, 1, 2**51, 2**52 - 1])),
)
ties = st.builds(
    near_tie, st.integers(10**11, 10**12 - 1), st.integers(-22, 22), st.integers(-1, 1),
    st.booleans(),
)


class TestCompiledRows:
    """The compiled rows write every double with the bytes of ``"%.12g" % v``."""

    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(st.one_of(any_bits, ties), min_size=1, max_size=30))
    # a buffer filled by the widest text that ends in the widest value, the
    # shortest and the one whose fixed-size digit copies reach farthest
    # past its text: the formatter writes into the spare bytes at its end
    @example(values=[WIDEST] * 40 + [WIDEST])
    @example(values=[WIDEST] * 40 + [0.0])
    @example(values=[WIDEST] * 40 + [-123456789012.0])
    # within 2^-27 of the largest double, where the scaling overflows
    @example(values=[1.7976931203573586e+308, -1.7976931325556788e+308])
    def test_bit_patterns_and_ties_on_both_paths(self, values):
        want = "".join("%.12g,0.5\n" % v for v in values).encode("ascii")
        for native in (_native.compiled().rows, None):
            assert bytes(csvtext._csv_rows(native, [values], "0.5")) == want

    def test_power_table_holds_the_exact_powers_of_ten(self):
        # entry j is 10^j, for j = 0 .. 22: the powers a double holds exactly
        source = _native.SOURCE.read_text()
        body = re.search(r"POW10\[\] = \{(.*?)\};", source, re.S).group(1)
        table = [float(v) for v in body.replace(",", " ").split()]
        assert len(table) == 23
        for j, power in enumerate(table):
            assert Fraction(power) == Fraction(10) ** j, j

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20141)
        values = rng.integers(0, 2**64, size=1_100_000, dtype=np.uint64, endpoint=False)
        values = values.view(np.float64)
        values = values[np.isfinite(values)]
        assert len(values) >= 10**6
        assert_rows_match(values)

    def test_near_ties(self):
        # the doubles nearest 12 digits and a 5, at every decimal exponent,
        # their neighbours, and exact ties N + 1/2 scaled by powers of two
        rng = np.random.default_rng(20142)
        digits = rng.integers(10**11, 10**12, size=50_000).tolist()
        exponents = rng.integers(-320, 297, size=50_000).tolist()
        near = np.array([float(f"{d}5e{e}") for d, e in zip(digits, exponents)])
        ties = rng.integers(10**11, 10**12, size=10_000) + 0.5
        scaled = ties * np.exp2(-rng.integers(0, 40, size=10_000).astype(float))
        assert_rows_match(np.concatenate([
            near, np.nextafter(near, np.inf), np.nextafter(near, -np.inf), ties, scaled,
            HARDEST_TIES,
        ]))

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(), min_size=1, max_size=30))
    def test_any_float(self, values):
        assert_rows_match(values)

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--problem", "sine", "--lambda", "0.01", "--n-cells", "400", "--dt", "0.01",
             "--t-end", "1", "--sample-times", "0.7,1", "--outputs", "csv"],
            ["run", "--problem", "traveling", "--lambda", "0.005", "--n-cells", "400",
             "--dt", "0.001", "--t-end", "0.03", "--sample-times", "0.02,0.03", "--outputs", "csv"],
            ["run", "--problem", "traveling", "--lambda", "0.005", "--n-cells", "4000",
             "--dt", "0.001", "--t-end", "0.03", "--outputs", "csv"],
            ["reproduce", "fig7"],
            ["reproduce", "fig8"],
        ],
        ids=["sine", "traveling", "traveling-4000", "fig7", "fig8"],
    )
    def test_files_match_the_python_writer(self, argv, tmp_path, library, capsys):
        compiled_rows()
        native, python = tmp_path / "native", tmp_path / "python"
        assert run_main([*argv, "--output-dir", str(native)]) == cli.EXIT_OK
        library(_native._PYTHON)
        assert run_main([*argv, "--output-dir", str(python)]) == cli.EXIT_OK
        names = sorted(f.name for f in native.iterdir())
        assert names and names == sorted(f.name for f in python.iterdir())
        for name in names:
            assert (native / name).read_bytes() == (python / name).read_bytes(), name


class EntryPointCalled(Exception):
    pass


LOOKUP_RUNS = {
    "sine": ["run", "--n-cells", "4", "--dt", "0.01", "--t-end", "0.01",
             "--outputs", "csv,table"],
    "traveling": ["run", "--problem", "traveling", "--lambda", "0.01", "--n-cells", "8",
                  "--dt", "0.01", "--t-end", "0.01", "--outputs", "csv"],
    "fig7": ["reproduce", "fig7"],
}


@pytest.mark.parametrize(
    "entries, runs, raised",
    [
        (_native._Compiled._fields, tuple(LOOKUP_RUNS), _native._Compiled._fields),
        (("march",), tuple(LOOKUP_RUNS), ("march",)),
        (("fit",), tuple(LOOKUP_RUNS), ("fit",)),
        # snapshot files reach the compiled rows only through a compiled
        # snapshot, which formats its knot rows with them before it runs;
        # the snapshot case runs the compiled rows for the same reason
        (("rows", "snapshot"), tuple(LOOKUP_RUNS), ("rows",)),
        (("front",), ("traveling", "fig7"), ("front",)),
        (("sine",), ("sine",), ("sine",)),
        (("snapshot",), ("sine", "traveling"), ("snapshot",)),
    ],
    ids=["all", "march", "fit", "rows", "front", "sine", "snapshot"],
)
def test_one_lookup_reaches_every_entry_point(entries, runs, raised, library, tmp_path):
    """With the library lookup patched to a stub whose ``entries`` raise,
    and whose other entry points run in Python, each run raises from one of
    the stub's ``raised``: no module keeps a reference of its own to the
    library."""

    def stub(entry):
        def raises(*args):
            raise EntryPointCalled(entry)

        return raises

    stubbed = _native._PYTHON._replace(**{entry: stub(entry) for entry in entries})
    if entries == ("snapshot",):
        stubbed = stubbed._replace(rows=compiled_rows())
    library(stubbed)
    for run in runs:
        with pytest.raises(EntryPointCalled) as called:
            run_main([*LOOKUP_RUNS[run], "--output-dir", str(tmp_path)])
        assert called.value.args[0] in raised, run


@pytest.mark.parametrize(
    "argv, calls",
    [
        # the pulse: the ends, checked before the output directory is made
        # and again before the march, the fit's initial column, then the
        # t = 0 rows of the table's exact column and of the CSV's; the
        # front of a run reads the ends twice too, that of fig7 once
        (["run", "--problem", "sine", "--lambda", "0.1", "--n-cells", "40", "--dt", "0.01",
          "--t-end", "0.02", "--sample-times", "0,0.02", "--outputs", "table,csv"],
         {"fit": 1, "march": 1, "pulse": 5, "rows": 1, "sine": 2, "snapshot": 2}),
        (LOOKUP_RUNS["traveling"],
         {"fit": 1, "front": 4, "march": 1, "rows": 1, "snapshot": 1}),
        (LOOKUP_RUNS["fig7"], {"fit": 1, "front": 3, "march": 1, "rows": 1}),
    ],
    ids=["sine-from-t0", "traveling", "fig7"],
)
def test_each_kernel_a_run_uses_is_reached_in_c(argv, calls, library, tmp_path, capsys):
    """Every entry point of the active library, counted: each kernel that
    a run uses is one compiled call per column, file or march, with no
    Python path beside it."""
    compiled = _native.compiled()
    if compiled.march is None:
        pytest.skip("no compiled library on this machine")
    counts = dict.fromkeys(compiled._fields, 0)

    def counted(entry):
        native = getattr(compiled, entry)

        def count(*args):
            counts[entry] += 1
            return native(*args)

        return count

    library(compiled._replace(**{entry: counted(entry) for entry in compiled._fields}))
    assert run_main([*argv, "--output-dir", str(tmp_path)]) == cli.EXIT_OK
    assert {entry: n for entry, n in counts.items() if n} == calls


class TestConfigFile:
    def test_file_values_and_cli_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# benchmark setup\n"
            "problem = sine\n"
            "lambda = 1.0\n"
            "n-cells = 10\n"
            "dt = 0.001\n"
            "t-end = 0.5   # overridden below\n"
            "sample-xs = 0.5\n"
        )
        code = run_main(["run", "--config", str(cfg), "--t-end", "0"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "1.00000" in out  # t=0 value, so the CLI override won

    def test_front_constant_for_sine_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = sine\nalpha = 0.3\nt-end = 0\n")
        assert run_main(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert "error: invalid config: alpha set" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wibble = 3\n")
        assert run_main(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert "wibble" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        assert run_main(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG

    def test_missing_file_rejected(self):
        assert run_main(["run", "--config", "/nonexistent.cfg"]) == cli.EXIT_CONFIG

    def test_directory_rejected(self, tmp_path, capsys):
        assert run_main(["run", "--config", str(tmp_path)]) == cli.EXIT_CONFIG
        assert "error: invalid config: cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line,flag",
        [
            ("n-cells = 2.5", "--n-cells"),
            ("problem = foo", "--problem"),
            ("sample-times = 0.1,x", "--sample-times"),
        ],
    )
    def test_bad_value_rejected_with_its_flag_message(self, line, flag, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert run_main(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert f"error: invalid config: argument {flag}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, name",
        [("outputs =", "outputs"), ("sample-xs =", "sample_xs"),
         ("sample_times=", "sample_times")],
    )
    def test_empty_list_rejected(self, line, name, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n-cells = 4\ndt = 0.01\nt-end = 0.01\n{line}\n")
        assert run_main(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"error: invalid config: {name}: no " in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("lam_key", ["lambda", "lam"])
    @pytest.mark.parametrize("cells_key", ["n-cells", "n_cells"])
    def test_key_spellings(self, lam_key, cells_key, tmp_path, capsys):
        # x = 1/3 is a knot at N = 3 but not at the default N = 40, and the
        # file's lambda is invalid, so each key shows whether it was read
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"{lam_key} = -1\n{cells_key} = 3\nt_end = 0\nsample-xs = {1 / 3!r}\n"
        )
        assert run_main(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert "lambda must be positive" in capsys.readouterr().err
        assert run_main(["run", "--config", str(cfg), "--lambda", "1"]) == cli.EXIT_OK
        assert "   0.333    0.000" in capsys.readouterr().out

    def test_command_line_overrides_every_kind_of_file_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "problem = traveling\nn-cells = 7\nsample-xs = 0.3\noutputs = pdf\nt-end = 0\n"
        )
        code = run_main(
            ["run", "--config", str(cfg), "--problem", "sine", "--n-cells", "4",
             "--sample-xs", "0.5", "--outputs", "table"]
        )
        assert code == cli.EXIT_OK
        assert "   0.500    0.000   1.00000   1.00000" in capsys.readouterr().out

    def test_calls_share_no_parser_state(self, tmp_path, monkeypatch):
        # the parser is built once per process; a flag or file value of one
        # call must not reach the next
        seen = []
        monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or cli.EXIT_OK)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n-cells = 12\ndt = 0.01\nsample-xs = 0.5\n")
        assert run_main(["run", "--config", str(cfg), "--lambda", "0.5"]) == cli.EXIT_OK
        assert run_main(["run"]) == cli.EXIT_OK
        assert run_main(["--problem", "traveling"]) == cli.EXIT_OK
        first, second, third = seen
        assert (first.lam, first.n_cells, first.dt, first.sample_xs) == (0.5, 12, 0.01, [0.5])
        assert second == cli.RunConfig()
        assert third == cli.RunConfig(problem="traveling")
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("key", ["config", "conf"])
    def test_config_key_rejected(self, key, tmp_path, capsys):
        other = tmp_path / "other.cfg"
        other.write_text("t-end = 0\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {other}\n")
        assert run_main(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert "config file" in capsys.readouterr().err


class TestReproduce:
    def test_table5_passes_and_reports_dt(self, capsys):
        code = run_main(["reproduce", "table5"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "table5: PASS" in out
        assert "matching dt" in out

    def test_fig7_writes_profile(self, tmp_path, capsys):
        code = run_main(["reproduce", "fig7", "--output-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "fig7: PASS" in out
        profile = tmp_path / "fig7_error_profile.csv"
        assert profile.exists()
        assert profile.read_text().splitlines()[0] == "x,t,abs_error"

    @pytest.mark.parametrize(
        "target,digest",
        [
            ("fig7", "f633ce4479a69a7d997ae85ad355b29ec4d29d9a264644e7f8574f2c1a5d4f2d"),
            ("fig8", "426ce6322edee0074ce2b8327234ea4a9969ae72de6e84937685c2fd83856dc7"),
        ],
    )
    def test_figure_csv_is_byte_identical(self, target, digest, tmp_path, capsys):
        # the published error profiles are a fixed floor: any change in the
        # arithmetic of the fit, the step or the exact solution shows here
        assert run_main(["reproduce", target, "--output-dir", str(tmp_path)]) == cli.EXIT_OK
        data = (tmp_path / f"{target}_error_profile.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize(
        "target,digest",
        [
            ("table2", "4b488e2cc748f6ced9763cd16346d32dc8a7f8fb9ea20d3597c984a1dc65fa32"),
            ("table3", "0cedf8cacf42e991daaaba29259880787fc96df99e745e683ce0e4c801a956cf"),
            ("table4", "1c750a745190c03e2080c02f249216efce21672bbd2000085be8f92e6a66021c"),
            ("table5", "03e8df7d6d2664ed986e286a1e57c792cd3e83ea4dec5ac46c6a773e4443e7bb"),
            ("fig7", "bfccd39f20275e6c18b84d3dde1b0378ebf413ca4ba8dabd0ef26c0b4e3a75a8"),
            ("fig8", "9fcce1df13aa3afc5278d98ba35bf91fb8f9dd405161f083f9138d661c9d8184"),
        ],
    )
    def test_stdout_is_byte_identical(self, target, digest, tmp_path, capsys):
        # the reproduce report is a fixed floor; the figure targets print
        # their output path, which is replaced by a fixed string
        assert run_main(["reproduce", target, "--output-dir", str(tmp_path)]) == cli.EXIT_OK
        out = capsys.readouterr().out.replace(str(tmp_path), "OUT")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_output_dir_that_is_a_file_exits_config_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_main(["reproduce", "fig7", "--output-dir", str(taken)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error: invalid config:" in err and "Traceback" not in err

    def test_output_dir_that_is_a_file_is_rejected_before_the_march(
        self, tmp_path, monkeypatch, capsys
    ):
        def fail(*a, **k):
            raise AssertionError("marched into an unusable output directory")

        monkeypatch.setattr(cli, "solve_to_time", fail)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_main(["reproduce", "fig8", "--output-dir", str(taken)]) == cli.EXIT_CONFIG
        assert "error: invalid config:" in capsys.readouterr().err

    def test_invalid_target_exits_config_error(self):
        assert run_main(["reproduce", "table9"]) == cli.EXIT_CONFIG

    def test_invalid_target_to_the_library_function_raises(self):
        with pytest.raises(cli.ConfigError, match="target must be one of"):
            cli.reproduce("table9")

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(*a, **k):
            raise ZeroPivotError(3)

        monkeypatch.setattr(cli, "solve_to_time", boom)
        code = run_main(["reproduce", "fig7", "--output-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_NUMERICAL
        assert "error: numerical failure: zero pivot in row 3" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("target", ["table3", "table5", "fig7"])
    def test_non_finite_solution_exits_numerical_failure(
        self, target, tmp_path, monkeypatch, capsys
    ):
        # a NaN state is a numerical failure, not a mismatch: no cell is
        # compared and no figure profile is written from it
        blow_up_the_march(monkeypatch)
        code = run_main(["reproduce", target, "--output-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_NUMERICAL
        assert "error: numerical failure: non-finite solution at t=" in captured.err
        assert "ok" not in captured.out and "FAIL" not in captured.out
        assert "PASS" not in captured.out
        assert list(tmp_path.iterdir()) == []

    def test_mismatch_exit_code(self, monkeypatch, capsys):
        # corrupt one published cell: the run must flag it and exit 3
        bad = list(cli.ref.TABLE5_PRESENT)
        bad[9] = 0.9
        monkeypatch.setattr(cli.ref, "TABLE5_PRESENT", tuple(bad))
        code = run_main(["reproduce", "table5"])
        assert code == cli.EXIT_MISMATCH
        assert "FAIL" in capsys.readouterr().out

    def test_sine_table_mismatch_exit_code(self, monkeypatch, capsys):
        # the published data are read when the target runs, not copied
        # when the target table is built
        monkeypatch.setitem(cli.ref.TABLE3_PRESENT, (0.5, 1.0), 0.9)
        assert run_main(["reproduce", "table3"]) == cli.EXIT_MISMATCH
        lines = capsys.readouterr().out.splitlines()
        (cell,) = [line for line in lines if "published=0.90000" in line]
        assert cell.startswith("  x=0.500 t=1.0") and cell.endswith("FAIL")
        assert lines[-1] == "table3: FAIL"

    def test_exact_column_mismatch_keeps_the_misprint_excluded(self, monkeypatch, capsys):
        monkeypatch.setitem(cli.ref.TABLE4_EXACT, (0.75, 1.0), 0.9)
        assert run_main(["reproduce", "table4"]) == cli.EXIT_MISMATCH
        out = capsys.readouterr().out
        method, exact = out.split("  exact column check (series oracle vs printed):\n")
        assert "FAIL" not in method
        (cell,) = [line for line in exact.splitlines() if "published=0.90000" in line]
        assert cell.startswith("  x=0.750 t=1.0") and cell.endswith("FAIL")
        (misprint,) = [line for line in exact.splitlines() if "misprint" in line]
        assert misprint.startswith("  x=0.250 t=0.6") and "excluded-by-config" in misprint


def test_no_arguments_prints_help(capsys):
    assert run_main([]) == cli.EXIT_CONFIG
    assert "usage" in capsys.readouterr().out.lower()


class TestParseDispatch:
    """A ``run`` or ``reproduce`` argv is parsed by its command's parser
    alone; every other argv, and every message, is the top-level parser's."""

    @pytest.fixture
    def top_level(self, monkeypatch):
        """The argvs the top-level parser is asked to parse."""
        parser = cli._build_parser()
        seen = []
        parse = parser.parse_known_args

        def spy(args=None, namespace=None):
            seen.append(list(args))
            return parse(args, namespace)

        monkeypatch.setattr(parser, "parse_known_args", spy)
        return seen

    @staticmethod
    def top_level_outcome(argv, capsys):
        """What the top-level parser alone gives for ``argv``: its error
        message, or its exit code and printed text."""
        parser = cli._build_parser()
        try:
            parser.parse_args(argv)
        except cli.ConfigError as e:
            return f"error: invalid config: {e}\n"
        except SystemExit as e:
            return e.code, capsys.readouterr().out
        pytest.fail(f"{argv} parsed")

    def test_commands_skip_the_top_level_parser(self, top_level, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = sine\nlam = 0.5\nt-end = 0\nsample-xs = 0.5\n")
        argvs = [
            ["run", "--problem", "sine", "--t-end", "0", "--sample-xs", "0.5"],
            ["--problem", "sine", "--t-end", "0", "--sample-xs", "0.5"],
            ["run", "--config", str(cfg)],
            ["reproduce", "fig7", "--output-dir", str(tmp_path)],
        ]
        for argv in argvs:
            assert run_main(argv) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.count("   0.500    0.000   1.00000   1.00000\n") == 3
        assert "fig7: PASS" in out
        assert top_level == []

    @pytest.mark.parametrize(
        "argv, parsed",
        [
            (["bogus"], ["bogus"]),
            (["run", "--nope", "1"], ["run", "--nope", "1"]),
            (["--nope"], ["run", "--nope"]),
            (["reproduce"], ["reproduce"]),
            (["reproduce", "fig9"], ["reproduce", "fig9"]),
            (["run", "--n-cells", "2.5"], ["run", "--n-cells", "2.5"]),
            (["run", "--lam", "x"], ["run", "--lam", "x"]),
        ],
        ids=["unknown-command", "unknown-flag", "bare-unknown-flag", "no-target",
             "unknown-target", "bad-value", "abbreviated-bad-value"],
    )
    def test_errors_keep_the_top_level_message(self, argv, parsed, top_level, capsys):
        # the top-level parser's message for the argv it used to parse
        expected = self.top_level_outcome(parsed, capsys)
        top_level.clear()
        assert run_main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == expected
        # only an unknown command reaches the top-level parser
        assert top_level == ([argv] if argv == ["bogus"] else [])

    @pytest.mark.parametrize(
        "argv, prog",
        [(["-h"], "ctburgers"), (["--help"], "ctburgers"), (["run", "--help"], "ctburgers run"),
         (["reproduce", "-h"], "ctburgers reproduce")],
        ids=["-h", "--help", "run-help", "reproduce-help"],
    )
    def test_help_keeps_the_top_level_text(self, argv, prog, top_level, capsys):
        code, text = self.top_level_outcome(argv, capsys)
        assert code == 0 and text.startswith(f"usage: {prog} [-h]")
        top_level.clear()
        with pytest.raises(SystemExit) as e:
            run_main(argv)
        assert (e.value.code, capsys.readouterr().out) == (code, text)
        assert top_level == ([argv] if prog == "ctburgers" else [])

    def test_no_command_prints_the_top_level_help(self, top_level, capsys):
        assert run_main([]) == cli.EXIT_CONFIG
        assert capsys.readouterr().out == cli._build_parser().format_help()
        assert top_level == [[]]


class TestProcessExitCodes:
    """The module run as a program: the exit status is what ``main`` returns."""

    @staticmethod
    def ctburgers(*args):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        return subprocess.run(
            [sys.executable, "-m", "ctburgers.cli", *args],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_success_exits_zero(self):
        proc = self.ctburgers("run", "--t-end", "0", "--sample-xs", "0.5")
        assert proc.returncode == cli.EXIT_OK
        assert "1.00000" in proc.stdout

    @pytest.mark.parametrize(
        "args",
        [
            ("--problem", "sine", "--lambda", "1", "--n-cells", "10", "--dt", "1",
             "--t-end", "1e19"),
            ("--problem", "sine", "--n-cells", "1000000000000", "--t-end", "0"),
        ],
        ids=["steps", "cells"],
    )
    def test_oversized_run_exits_one(self, args):
        proc = self.ctburgers("run", *args)
        assert proc.returncode == cli.EXIT_CONFIG
        assert "error: invalid config:" in proc.stderr and "Traceback" not in proc.stderr

    def test_huge_viscosity_exits_two(self):
        # z = 1/(2 pi lam) ~ 1.6e-51 overflows the Bessel recurrence, which
        # used to loop forever on NaN ratios
        proc = self.ctburgers(
            "run", "--problem", "sine", "--lambda", "1e50", "--n-cells", "4", "--dt", "0.001",
            "--t-end", "0.001", "--sample-xs", "0.5", "--outputs", "table",
        )
        assert proc.returncode == cli.EXIT_NUMERICAL
        assert "error: numerical failure:" in proc.stderr and "Traceback" not in proc.stderr

    def test_tiny_viscosity_exits_two(self):
        # z = 1/(2 pi lam) ~ 1.6e299 put the Bessel recurrence's start order
        # near 1e151, and the series never returned; at lam = 1e-310 z is
        # inf, and the start order's int() raised OverflowError
        for lam in ("1e-300", "1e-310"):
            proc = self.ctburgers(
                "run", "--problem", "sine", "--lambda", lam, "--n-cells", "10", "--dt", "0.1",
                "--t-end", "0.1", "--sample-xs", "0.5",
            )
            assert proc.returncode == cli.EXIT_NUMERICAL, lam
            assert "error: numerical failure:" in proc.stderr and "Traceback" not in proc.stderr

    def test_invalid_config_exits_one(self):
        proc = self.ctburgers("run", "--dt", "nan")
        assert proc.returncode == cli.EXIT_CONFIG
        assert "error: invalid config: dt must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr
