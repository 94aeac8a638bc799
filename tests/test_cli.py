"""Command-line interface tests: flags, config files, outputs, exit codes."""

import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctburgers import cli, problems, scheme
from ctburgers.exact import SeriesConvergenceError
from ctburgers.linalg import ZeroPivotError
from ctburgers.scheme import NodalState


def run_main(args):
    return cli.main(args)


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
        def blown_up(p, part, t_end, sample_times):
            u = np.full(p.n_cells + 1, np.nan)
            return {t_end: NodalState(u=u, ux=u, uxx=u)}

        monkeypatch.setattr(cli, "solve_to_time", blown_up)
        code = run_main(["run", "--problem", "sine", "--t-end", "0.001", "--dt", "0.001"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_NUMERICAL
        assert "error: numerical failure: non-finite solution at t=0.001" in captured.err
        assert captured.out == ""

    def test_series_failure_while_writing_exits_numerical_failure(
        self, tmp_path, monkeypatch, capsys
    ):
        # the exact column is evaluated only when the snapshots are written
        def stalled(*a, **k):
            raise SeriesConvergenceError("ascending Bessel series stalled")

        monkeypatch.setattr(problems, "sine_wave_exact", stalled)
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


def reference_snapshot_text(t, xs, nums, exacts):
    """A snapshot CSV written row by row with f-strings."""
    lines = ["x,t,numerical,exact,abs_error"]
    for x, un, ue in zip(xs, nums, exacts):
        lines.append(f"{x:.12g},{t:.12g},{un:.12g},{ue:.12g},{abs(un - ue):.12g}")
    return "\n".join(lines) + "\n"


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
    def test_snapshot_matches_per_row_fstrings(self, t, rows, tmp_path):
        xs, nums, exacts = (list(col) for col in zip(*rows))
        path = tmp_path / "snapshot.csv"
        # the difference of two huge finite floats is inf in both writers;
        # numpy would also warn about it
        with np.errstate(over="ignore"):
            cli._write_snapshot(
                path, ["%.12g" % x for x in xs], t, np.array(nums), np.array(exacts)
            )
        assert path.read_text() == reference_snapshot_text(t, xs, nums, exacts)


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

    def test_mismatch_exit_code(self, monkeypatch, capsys):
        # corrupt one published cell: the run must flag it and exit 3
        bad = list(cli.ref.TABLE5_PRESENT)
        bad[9] = 0.9
        monkeypatch.setattr(cli.ref, "TABLE5_PRESENT", tuple(bad))
        code = run_main(["reproduce", "table5"])
        assert code == cli.EXIT_MISMATCH
        assert "FAIL" in capsys.readouterr().out


def test_no_arguments_prints_help(capsys):
    assert run_main([]) == cli.EXIT_CONFIG
    assert "usage" in capsys.readouterr().out.lower()


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

    def test_invalid_config_exits_one(self):
        proc = self.ctburgers("run", "--dt", "nan")
        assert proc.returncode == cli.EXIT_CONFIG
        assert "error: invalid config: dt must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr
