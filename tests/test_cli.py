"""Command-line interface tests: flags, config files, outputs, exit codes."""

import hashlib

import pytest

from ctburgers import cli
from ctburgers.linalg import ZeroPivotError


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

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        def boom(*a, **k):
            raise ZeroPivotError(3)

        monkeypatch.setattr(cli, "solve_to_time", boom)
        code = run_main(["run", "--problem", "sine", "--t-end", "0.001", "--dt", "0.001"])
        assert code == cli.EXIT_NUMERICAL
        assert "numerical" in capsys.readouterr().err


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

    def test_invalid_target_exits_config_error(self):
        assert run_main(["reproduce", "table9"]) == cli.EXIT_CONFIG

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
