"""CLI contract: argument handling, output schema, determinism, exit codes."""

import csv
import errno
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from gapspec import cli
from gapspec.errors import PrecisionWarning
from gapspec.kernels import AIRY, SINE, Family, IntervalSpec
from gapspec.operator import build_discretization, compute_spectrum


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_csv_shape(self, capsys):
        code, out, err = run_cli(
            ["spectrum", "--kernel", "sine", "--s", "2.0", "--top", "5"], capsys
        )
        assert code == 0 and err == ""
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["index", "lambda", "one_minus_lambda", "mu"]
        assert len(rows) == 6
        lam = float(rows[1][1])
        assert 0.0 < lam < 1.0
        assert float(rows[1][2]) == pytest.approx(1.0 - lam, rel=1e-12)

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--kernel", "airy", "--s", "-3.0", "--format", "json", "--top", "3"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["config_echo"]["family"] == "airy"
        assert payload["config_echo"]["deterministic"] is True
        assert len(payload["rows"]) == 3

    def test_deterministic_output(self, capsys):
        argv = ["spectrum", "--kernel", "bessel", "--a", "0.5", "--s", "9.0"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_json_summary_reports_repairs_and_clamps(self, capsys):
        argv = ["spectrum", "--kernel", "sine", "--s", "2.0", "--top", "3"]
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0
        sp = compute_spectrum(build_discretization(SINE, IntervalSpec(Family.SINE, 2.0), 80))
        summary = json.loads(out)["summary"]
        for key in ("repaired_entries", "clamped_zero", "clamped_top", "unresolved_top"):
            assert summary[key] == sp.meta[key]
        assert summary["repaired_entries"] >= 80
        assert float(summary["floor"]) == sp.meta["floor"] == 80 * sys.float_info.epsilon

    def test_csv_holds_only_the_rows(self, capsys):
        # the summary stays out of the default CSV: a header and one line
        # per eigenvalue, formatted from the library's spectrum
        code, out, _ = run_cli(
            ["spectrum", "--kernel", "airy", "--s", "-3.0", "--top", "3"], capsys
        )
        assert code == 0
        sp = compute_spectrum(build_discretization(AIRY, IntervalSpec(Family.AIRY, -3.0), 80))
        lines = ["index,lambda,one_minus_lambda,mu"]
        for i, lam in enumerate(sp.eigenvalues[:3].tolist()):
            row = (i, lam, 1.0 - lam, lam / (1.0 - lam))
            lines.append(",".join(cli._fmt(x) for x in row))
        assert out == "\n".join(lines) + "\n"

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "spec.csv"
        code, out, _ = run_cli(
            ["spectrum", "--kernel", "sine", "--s", "2.0", "--output", str(path)], capsys
        )
        assert code == 0 and out == ""
        data = path.read_bytes()
        assert b"\r" not in data  # LF only
        assert data.decode("utf-8").startswith("index,")


class TestDet:
    def test_gamma_variants_agree(self, capsys):
        base = ["det", "--kernel", "sine", "--s", "2.0"]
        _, out_g, _ = run_cli(base + ["--gamma", "0.5"], capsys)
        _, out_v, _ = run_cli(base + ["--v", str(math.log(2.0))], capsys)
        lg_g = float(out_g.splitlines()[1].split(",")[0])
        lg_v = float(out_v.splitlines()[1].split(",")[0])
        assert lg_g == pytest.approx(lg_v, rel=1e-12)

    def test_conflicting_gamma_flags(self, capsys):
        code, _, err = run_cli(
            ["det", "--kernel", "sine", "--s", "2.0", "--gamma", "0.5", "--v", "1.0"],
            capsys,
        )
        assert code == 2
        assert "exactly one" in err

    # each exited 3 with "eigenvalues outside (-1e-10, 1+1e-10)", min -6.5e-9
    # and -7.2e-9, before the Bessel Taylor band was capped
    @pytest.mark.parametrize("a, s, n", [("300", "2.5e5", "300"), ("1000", "1.2e6", "200")])
    def test_large_order_bessel(self, capsys, a, s, n):
        argv = ["det", "--kernel", "bessel", "--a", a, "--s", s, "--n", n]
        # at gamma = 1 these are deep gaps: 1 - lambda_0 is clamped at 1e-16
        with pytest.warns(PrecisionWarning, match="resolvable floor"):
            code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        assert math.isfinite(float(out.splitlines()[1].split(",")[0]))

    def test_unresolved_factor_warns_and_keeps_stdout(self, capsys):
        # Airy s = -12, n = 160: 1 - lambda_0 = 4.4e-16 is below n eps
        argv = ["det", "--kernel", "airy", "--s", "-12", "--n", "160"]
        with pytest.warns(PrecisionWarning, match="resolvable floor"):
            code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out.startswith("log_det,det,n,truncation\n-144.578038331688")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv, capsys)
        assert code == 3 and out == ""
        assert err.startswith("gapspec: numerical failure: log_fredholm_det: ")

    def test_pole_exits_numerical(self, capsys):
        code, _, err = run_cli(
            ["det", "--kernel", "sine", "--s", "4.0", "--gamma", "1.5"], capsys
        )
        assert code == 3
        assert "numerical" in err


class TestAsymp:
    def test_gap_value_matches_library(self, capsys):
        from gapspec.asymptotics import gap

        code, out, _ = run_cli(
            ["asymp", "--formula", "airy-gap", "--s", "-4.0"], capsys
        )
        assert code == 0
        assert float(out.splitlines()[1]) == pytest.approx(gap(Family.AIRY, -4.0), rel=1e-15)

    def test_transition_row(self, capsys):
        code, out, _ = run_cli(
            ["asymp", "--formula", "airy-transition", "--s", "-4.0", "--chi", "0.0"],
            capsys,
        )
        assert code == 0
        header, row = out.splitlines()[:2]
        assert header == "log_prefactor,factors,p,error_exponent,log_value"
        fields = row.split(",")
        assert int(fields[2]) == 1
        assert float(fields[3]) == pytest.approx(0.5)

    def test_bessel_requires_order(self, capsys):
        code, _, err = run_cli(
            ["det", "--kernel", "bessel", "--s", "9.0"], capsys
        )
        assert code == 2
        assert "--a" in err

    @pytest.mark.parametrize(
        "formula, rest",
        [("bessel-gap", []), ("bessel-transition", ["--chi", "0.3"]),
         ("bessel-transition", ["--v", "2"])],
    )
    def test_bessel_formulas_require_order(self, capsys, formula, rest):
        # a missing --a is refused as det, spectrum and scan refuse it, not read as 0
        code, out, err = run_cli(["asymp", "--formula", formula, "--s", "144"] + rest, capsys)
        assert code == 2 and out == ""
        assert err == "gapspec: --a is required for the bessel kernel\n"
        code, out, _ = run_cli(
            ["asymp", "--formula", formula, "--s", "144", "--a", "0"] + rest, capsys
        )
        assert code == 0 and out

    def test_sine_sub_needs_v(self, capsys):
        code, _, _ = run_cli(["asymp", "--formula", "sine-sub", "--s", "4.0"], capsys)
        assert code == 2


class TestScan:
    def test_eig_scan_csv(self, capsys):
        code, out, _ = run_cli(
            [
                "scan", "--kind", "eig", "--kernel", "sine", "--grid", "2.5,3.5",
                "--index", "0", "--n", "80",
            ],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["t", "numeric", "predicted", "rel_error"]
        assert len(rows) == 3

    @pytest.mark.parametrize(
        "argv, hint",
        [
            (["--kind", "eig", "--kernel", "sine", "--index", "500", "--grid", "2.5,3"],
             "0 <= i < n = 80, got i = 500"),
            (["--kind", "stokes", "--kernel", "airy", "--q", "90", "--grid", "6,8"],
             "1 <= q <= n = 80, got q = 90"),
        ],
    )
    def test_index_outside_spectrum_exits_usage(self, capsys, argv, hint):
        code, out, err = run_cli(["scan"] + argv + ["--n", "80"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("gapspec: ") and hint in err

    @pytest.mark.parametrize(
        "argv",
        [["--kernel", "airy", "--grid", "0"], ["--kernel", "airy", "--grid", "-4"],
         ["--kernel", "bessel", "--a", "0", "--grid", "0"]],
    )
    def test_stokes_scan_refuses_t_at_most_one(self, capsys, argv):
        code, out, err = run_cli(["scan", "--kind", "stokes"] + argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("gapspec: ") and "stokes_v requires t > 1" in err

    def test_det_scan_needs_chi(self, capsys):
        code, _, err = run_cli(
            ["scan", "--kind", "det", "--kernel", "airy", "--grid", "6.0"], capsys
        )
        assert code == 2
        assert "--chi" in err


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"kernel": "sine", "s": 2.0, "n": 60}))
        code, out, _ = run_cli(["spectrum", "--config", str(cfg)], capsys)
        assert code == 0
        assert out.startswith("index,")

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"kernel": "sine", "s": 2.0, "format": "json"}))
        code, out, _ = run_cli(
            ["spectrum", "--config", str(cfg), "--format", "csv"], capsys
        )
        assert code == 0
        assert out.startswith("index,")  # csv won

    def test_bad_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        code, _, _ = run_cli(["spectrum", "--config", str(cfg)], capsys)
        assert code == 2


class TestUsageErrors:
    def test_missing_required(self, capsys):
        code, _, err = run_cli(["spectrum"], capsys)
        assert code == 2
        assert "kernel" in err

    def test_unknown_command(self, capsys):
        assert run_cli(["frobnicate"], capsys)[0] == 2

    def test_n_out_of_range(self, capsys):
        code, _, _ = run_cli(
            ["spectrum", "--kernel", "sine", "--s", "2.0", "--n", "5"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, hint",
        [
            # t = (-s)^{3/2} is undefined for s >= 0
            (["det", "--kernel", "airy", "--s", "1", "--chi", "0"], "s < 0"),
            (["asymp", "--formula", "airy-transition", "--s", "1", "--chi", "0"], "s < 0"),
            (["asymp", "--formula", "airy-transition", "--s", "0", "--chi", "0"], "s < 0"),
            # t = sqrt(s) is undefined for s <= 0
            (["det", "--kernel", "bessel", "--a", "0", "--s", "-1", "--chi", "0"], "s > 0"),
            (["asymp", "--formula", "bessel-transition", "--a", "0", "--s", "-1", "--chi", "0"], "s > 0"),
        ],
    )
    def test_chi_outside_domain(self, capsys, argv, hint):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("gapspec: ") and hint in err

    @pytest.mark.parametrize(
        "argv, hint",
        [
            (["det", "--kernel", "airy", "--s", "-45"], "needs -40 <= s <= 190, got s=-45.0"),
            (["det", "--kernel", "bessel", "--a", "0", "--s", "2e8"], "needs s <= 1e+08, got s=2"),
        ],
    )
    def test_interval_outside_special_function_domain(self, capsys, argv, hint):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("gapspec: ") and hint in err

    def test_airy_transition_below_grid_domain(self, capsys):
        # the closed forms need no grid, so s below the Airy grid's range works
        code, out, _ = run_cli(
            ["asymp", "--formula", "airy-transition", "--s", "-45", "--v", "1"], capsys
        )
        assert code == 0 and len(out.splitlines()) == 2

    @pytest.mark.parametrize(
        "argv, hint",
        [
            # a non-finite s is outside every interval's domain
            (["det", "--kernel", "sine", "--s", "inf"], "finite s"),
            (["det", "--kernel", "airy", "--s", "nan"], "finite s"),
            (["spectrum", "--kernel", "bessel", "--a", "0", "--s=-inf"], "finite s"),
            (["asymp", "--formula", "airy-gap", "--s", "nan"], "finite s"),
            (["asymp", "--formula", "bessel-gap", "--a", "0", "--s", "inf"], "finite s"),
            (["asymp", "--formula", "sine-crit", "--s", "inf"], "finite s"),
            (["asymp", "--formula", "sine-sub", "--s", "nan", "--v", "1"], "finite s"),
            (["asymp", "--formula", "sine-transition", "--s", "inf", "--v", "1"], "finite s"),
            # a non-finite order or thinning parameter is refused before any work
            (["det", "--kernel", "sine", "--s", "3", "--gamma", "nan"], "--gamma"),
            (["det", "--kernel", "sine", "--s", "3", "--gamma=-inf"], "--gamma"),
            (["det", "--kernel", "airy", "--s", "-3", "--v", "inf"], "--v"),
            (["asymp", "--formula", "sine-transition", "--s", "5", "--v", "nan"], "--v"),
            (["asymp", "--formula", "airy-transition", "--s", "-6", "--chi", "inf"], "--chi"),
            (["det", "--kernel", "bessel", "--a", "inf", "--s", "25"], "--a"),
            (["asymp", "--formula", "bessel-gap", "--a", "nan", "--s", "25"], "--a"),
        ],
    )
    def test_non_finite_input(self, capsys, argv, hint):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("gapspec: ") and hint in err

    @pytest.mark.parametrize(
        "config, hint",
        [
            ({"n": "x"}, "'n' must be an integer, got 'x'"),
            ({"kernel": "sine", "s": 2, "n": 60.5}, "'n' must be an integer"),
            ({"kernel": "sine", "s": "abc"}, "'s' must be a number, got 'abc'"),
            ({"kernel": "sine", "s": 2, "gamma": "0.5"}, "'gamma' must be a number, got '0.5'"),
            ({"kernel": "sine", "s": 2, "v": True}, "'v' must be a number, got True"),
            ({"kernel": 5, "s": 2}, "'kernel' must be a string"),
            ({"kernel": "sine", "s": 2, "output": 5}, "'output' must be a string"),
        ],
    )
    def test_config_value_of_the_wrong_type(self, capsys, tmp_path, config, hint):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(["det", "--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("gapspec: config key ") and hint in err

    @pytest.mark.parametrize(
        "argv, family",
        [
            (["spectrum", "--kernel", "sine", "--s", "2"], "sine"),
            (["det", "--kernel", "airy", "--s", "-4"], "airy"),
            (["asymp", "--formula", "airy-gap", "--s", "-6"], "airy"),
            (["asymp", "--formula", "sine-transition", "--s", "5", "--v", "1"], "sine"),
            (["scan", "--kind", "eig", "--kernel", "airy", "--grid", "6"], "airy"),
        ],
    )
    def test_order_refused_outside_bessel(self, capsys, tmp_path, argv, family):
        # only the Bessel kernel has an order; elsewhere a given --a would be ignored
        want = f"gapspec: --a is the order of the bessel kernel; the {family} kernel has none\n"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"a": 3}))
        for extra in (["--a", "3"], ["--config", str(cfg)]):
            assert run_cli(argv + extra, capsys) == (2, "", want)
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out

    def test_config_numbers_may_be_ints(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"kernel": "sine", "s": 2, "gamma": 1, "n": 60}))
        code, out, _ = run_cli(["det", "--config", str(cfg)], capsys)
        assert code == 0 and out.splitlines()[1].endswith(",60,2")

    @pytest.mark.parametrize("grid, item", [("2,,3", "''"), ("2,3,x", "'x'"), ("", "''")])
    def test_grid_item_not_a_number(self, capsys, grid, item):
        code, out, err = run_cli(["scan", "--kind", "eig", "--kernel", "sine", "--grid", grid], capsys)
        assert code == 2 and out == ""
        assert err == f"gapspec: --grid item {item} is not a number\n"

    def test_negative_top(self, capsys):
        code, out, err = run_cli(["spectrum", "--kernel", "sine", "--s", "2", "--top", "-3"], capsys)
        assert code == 2 and out == ""
        assert "--top must be >= 0, got -3" in err
        code, out, _ = run_cli(["spectrum", "--kernel", "sine", "--s", "2", "--top", "0"], capsys)
        assert code == 0 and out == "index,lambda,one_minus_lambda,mu\n"

    def test_chi_on_sine_uses_t_equal_s(self, capsys):
        code, out, _ = run_cli(
            ["det", "--kernel", "sine", "--s", "3", "--chi", "0.2", "--format", "json"], capsys
        )
        assert code == 0
        v = 2.0 * 3.0 - 0.2 * math.log(3.0)
        assert float(json.loads(out)["summary"]["gamma"]) == -math.expm1(-v)


def _readme_cli_lines():
    """The argv of every `gapspec ...` line in README's CLI code block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("gapspec ")
    ]


class TestSelectedOptions:
    # an option that only some asymp formulas or scan kinds read is refused
    # for the others, whether a flag or a --config key gives it
    @pytest.mark.parametrize(
        "argv, key, value, select",
        [
            (["asymp", "--formula", "airy-gap", "--s", "-6"], "v", 2, "--formula airy-gap"),
            (["asymp", "--formula", "airy-gap", "--s", "-6"], "chi", 0.3, "--formula airy-gap"),
            (["asymp", "--formula", "airy-gap", "--s", "-6"], "p", 4, "--formula airy-gap"),
            (["asymp", "--formula", "bessel-gap", "--a", "0", "--s", "16"], "chi", 0.3,
             "--formula bessel-gap"),
            (["asymp", "--formula", "sine-crit", "--s", "4"], "v", 1, "--formula sine-crit"),
            (["asymp", "--formula", "sine-sub", "--s", "4", "--v", "1"], "chi", 0.3,
             "--formula sine-sub"),
            (["asymp", "--formula", "sine-sub", "--s", "4", "--v", "1"], "p", 2,
             "--formula sine-sub"),
            (["scan", "--kind", "eig", "--kernel", "sine", "--grid", "3"], "q", 3, "--kind eig"),
            (["scan", "--kind", "eig", "--kernel", "sine", "--grid", "3"], "chi", 0.2, "--kind eig"),
            (["scan", "--kind", "stokes", "--kernel", "airy", "--grid", "8"], "index", 4,
             "--kind stokes"),
            (["scan", "--kind", "stokes", "--kernel", "airy", "--grid", "8"], "chi", 0.2,
             "--kind stokes"),
            (["scan", "--kind", "det", "--kernel", "sine", "--chi", "0", "--grid", "3"], "index", 0,
             "--kind det"),
            (["scan", "--kind", "det", "--kernel", "sine", "--chi", "0", "--grid", "3"], "q", 1,
             "--kind det"),
        ],
    )
    def test_option_the_selection_does_not_read(self, capsys, tmp_path, argv, key, value, select):
        want = f"gapspec: --{key} is not read by {select}\n"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        for extra in ([f"--{key}", str(value)], ["--config", str(cfg)]):
            assert run_cli(argv + extra, capsys) == (2, "", want)
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out

    @pytest.mark.parametrize("extra", [[], ["--v", "3", "--chi", "0.5"]])
    def test_transition_takes_exactly_one_of_v_and_chi(self, capsys, tmp_path, extra):
        argv = ["asymp", "--formula", "airy-transition", "--s", "-6"]
        want = "gapspec: transition formulas take exactly one of --v, --chi\n"
        assert run_cli(argv + extra, capsys) == (2, "", want)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"chi": 0.5}))
        assert run_cli(argv + ["--v", "3", "--config", str(cfg)], capsys) == (2, "", want)
        code, chi_out, _ = run_cli(argv + ["--chi", "0.5"], capsys)
        assert code == 0 and chi_out.splitlines()[1].split(",")[2:4] == ["2", "0.5"]
        code, v_out, _ = run_cli(argv + ["--v", "3"], capsys)
        assert code == 0 and v_out.splitlines()[1].split(",")[2:4] == ["1", "nan"]

    @pytest.mark.parametrize(
        "argv, key, default",
        [
            (["scan", "--kind", "eig", "--kernel", "sine", "--grid", "5"], "index", 0),
            (["scan", "--kind", "stokes", "--kernel", "airy", "--grid", "8"], "q", 1),
            (["asymp", "--formula", "sine-transition", "--s", "5", "--chi", "0.7"], "p", 2),
        ],
    )
    def test_unset_index_takes_its_default(self, capsys, tmp_path, argv, key, default):
        unset = run_cli(argv, capsys)
        assert unset[0] == 0 and unset == run_cli(argv + [f"--{key}", str(default)], capsys)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: default + 1}))
        assert run_cli(argv + ["--config", str(cfg)], capsys) == run_cli(
            argv + [f"--{key}", str(default + 1)], capsys)


class TestOptionTables:
    # each command registers only the options it reads
    OPTIONS = {
        "spectrum": "kernel a s n format output config top",
        "det": "kernel a s gamma v chi n format output config",
        "asymp": "a s v chi format output config formula p",
        "scan": "kernel a chi n format output config kind grid index q",
        "verify": "format output config",
    }
    VALID = {
        "spectrum": ["--kernel", "sine", "--s", "2", "--top", "1"],
        "asymp": ["--formula", "sine-crit", "--s", "4"],
        "scan": ["--kind", "eig", "--kernel", "sine", "--grid", "2.5"],
        "verify": [],
    }

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("spectrum", "--gamma", "0.5"), ("spectrum", "--v", "1"), ("spectrum", "--chi", "0"),
            ("asymp", "--kernel", "bessel"), ("asymp", "--gamma", "0.5"), ("asymp", "--n", "80"),
            ("scan", "--s", "99"), ("scan", "--gamma", "0.5"), ("scan", "--v", "1"),
            ("verify", "--a", "0"), ("verify", "--s", "2"), ("verify", "--gamma", "0.5"),
            ("verify", "--v", "1"), ("verify", "--chi", "0"), ("verify", "--n", "80"),
        ],
    )
    def test_option_the_command_does_not_read(self, capsys, command, flag, value):
        code, out, err = run_cli([command] + self.VALID[command] + [flag, value], capsys)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {flag} {value}" in err

    @pytest.mark.parametrize(
        "command, config, key",
        [
            ("det", {"kernel": "sine", "s": 3, "gama": 0.5}, "gama"),
            ("spectrum", {"kernel": "sine", "s": 2, "gamma": 0.5}, "gamma"),
            ("asymp", {"s": 4, "kernel": "sine"}, "kernel"),
            ("verify", {"n": 80}, "n"),
        ],
    )
    def test_config_key_outside_the_command(self, capsys, tmp_path, command, config, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli([command] + self.VALID.get(command, []) + ["--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"gapspec: config key {key!r} is not an option of {command}")

    # under -W error, as CI runs them: no example warns
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", _readme_cli_lines(), ids=" ".join)
    def test_readme_examples_run(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == "" and out

    def test_readme_shows_every_command(self):
        assert {argv[0] for argv in _readme_cli_lines()} == set(self.OPTIONS)

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_help_lists_exactly_the_command_options(self, capsys, command):
        code, out, _ = run_cli([command, "--help"], capsys)
        assert code == 0
        listed = set(re.findall(r"(?<![\w-])--([a-z]+)", out))
        assert listed == set(self.OPTIONS[command].split()) | {"help"}


class TestEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gapspec.cli", "asymp", "--formula", "sine-crit", "--s", "4.0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("log_value")

    def test_float_format_17g(self, capsys):
        _, out, _ = run_cli(
            ["asymp", "--formula", "sine-crit", "--s", "4.0"], capsys
        )
        value = out.splitlines()[1]
        # round-trips exactly through float
        assert format(float(value), ".17g") == value

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
    def test_script_target_is_run(self):
        import tomllib

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        assert target == {"gapspec": "gapspec.cli:run"}


def _child_env():
    """The environment with this gapspec first on PYTHONPATH and
    PYTHONUNBUFFERED unset, so a child's stdout to a pipe is buffered."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


# README's examples and one more call per command (verify takes no option
# but --format and --output), each reading options that README's lines do not
_CALLS = _readme_cli_lines() + [
    ["spectrum", "--kernel", "bessel", "--a", "2", "--s", "16", "--n", "60", "--top", "3"],
    ["det", "--kernel", "sine", "--s", "3", "--chi", "1", "--n", "40"],
    ["asymp", "--formula", "sine-transition", "--s", "5", "--v", "1", "--p", "3"],
    ["scan", "--kind", "stokes", "--kernel", "bessel", "--a", "1", "--grid", "8,10", "--q", "2",
     "--n", "60"],
]


def _with_config(argv, path):
    """argv with every option of _OPTIONS moved into a JSON config at path,
    each whole number written as a JSON int."""
    rest, config = argv[:1], {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        key = flag[2:]
        if key not in cli._OPTIONS:
            rest += [flag, value]
        elif cli._OPTIONS[key]["type"] is str:
            config[key] = value
        else:
            x = float(value)
            config[key] = int(x) if x.is_integer() else x
    path.write_text(json.dumps(config))
    return rest + ["--config", str(path)]


class TestConfigRoute:
    # a --config file prints the bytes its flags print, a JSON int given
    # for a float option included (read as a float, "3" not 3 in the echo)
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", _CALLS, ids=" ".join)
    def test_config_prints_the_bytes_of_its_flags(self, capsys, tmp_path, argv, fmt):
        if "--format" in argv:
            i = argv.index("--format")
            argv = argv[:i] + argv[i + 2:]
        argv = argv + ["--format", fmt]
        flags = run_cli(argv, capsys)
        assert flags[0] == 0 and flags[1] and flags[2] == ""
        assert run_cli(_with_config(argv, tmp_path / "run.json"), capsys) == flags


def _os_error(code, path):
    return f"gapspec: [Errno {code}] {os.strerror(code)}: {str(path)!r}\n"


class TestFileFailures:
    # a file that cannot be read or written exits 2 with a message naming
    # it, never a traceback; exit 1 is kept for a failed verification
    @pytest.mark.parametrize("missing", [False, True], ids=["directory", "missing-directory"])
    def test_output_that_cannot_be_written(self, capsys, tmp_path, missing):
        path = tmp_path / "missing" / "x.csv" if missing else tmp_path
        code = errno.ENOENT if missing else errno.EISDIR
        argv = ["det", "--kernel", "sine", "--s", "3", "--output", str(path)]
        assert run_cli(argv, capsys) == (2, "", _os_error(code, path))

    def test_verify_output_that_cannot_be_written(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x"
        assert run_cli(["verify", "--output", str(path)], capsys) == (
            2, "", _os_error(errno.ENOENT, path))

    def test_config_file_missing(self, capsys, tmp_path):
        path = tmp_path / "none.json"
        argv = ["det", "--kernel", "sine", "--s", "3", "--config", str(path)]
        assert run_cli(argv, capsys) == (2, "", _os_error(errno.ENOENT, path))

    def test_config_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_bytes(b'\xff{"s": 3}')
        want = (f"gapspec: config file {path}: 'utf-8' codec can't decode byte 0xff in "
                "position 0: invalid start byte\n")
        assert run_cli(["det", "--kernel", "sine", "--config", str(path)], capsys) == (2, "", want)

    def test_config_not_json(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"s": ')
        want = f"gapspec: config file {path}: Expecting value: line 1 column 7 (char 6)\n"
        assert run_cli(["det", "--kernel", "sine", "--config", str(path)], capsys) == (2, "", want)

    def test_config_key_given_twice(self, capsys, tmp_path):
        # the first value is not silently dropped
        path = tmp_path / "run.json"
        path.write_text('{"kernel": "sine", "s": 3, "s": 4}')
        want = f"gapspec: config file {path}: key 's' is given twice\n"
        assert run_cli(["det", "--config", str(path)], capsys) == (2, "", want)


class TestFastExit:
    """`python -m gapspec.cli` ends through run(): os._exit once stdout and
    stderr are flushed, or Python's own exit when a flush fails."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["det", "--kernel", "sine", "--s", "3.0"], 0),
            (["spectrum", "--kernel", "airy", "--s", "-2", "--format", "json", "--output", "FILE"],
             0),
            (["det", "--kernle", "sine", "--s", "3.0"], 2),
            (["det", "--kernel", "airy", "--s", "-30"], 3),
        ],
        ids=["det", "spectrum-json-output", "misspelt-flag", "numerical-failure"],
    )
    def test_process_matches_main(self, capsys, tmp_path, argv, code):
        def argv_for(name):  # FILE becomes tmp_path / name: a file per side
            return [str(tmp_path / name) if x == "FILE" else x for x in argv]

        want = cli.main(argv_for("main.json"))
        out, err = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "gapspec.cli", *argv_for("process.json")],
            capture_output=True,
            env=_child_env(),
        )
        assert want == proc.returncode == code
        assert proc.stdout == out.encode() and proc.stderr == err.encode()
        if "FILE" in argv:
            written = (tmp_path / "process.json").read_bytes()
            assert written and written == (tmp_path / "main.json").read_bytes()

    @staticmethod
    def _to_closed_pipe(argv):
        """Run argv with stdout the write end of a pipe whose read end is closed."""
        r, w = os.pipe()
        os.close(r)
        try:
            return subprocess.run(argv, stdout=w, stderr=subprocess.PIPE, env=_child_env())
        finally:
            os.close(w)

    def test_closed_stdout_pipe_exits_120(self):
        # a process that writes and exits as usual shows Python's report of
        # the failed flush at exit, which run() must keep
        plain = self._to_closed_pipe([sys.executable, "-c", "print('x')"])
        proc = self._to_closed_pipe(
            [sys.executable, "-m", "gapspec.cli", "det", "--kernel", "sine", "--s", "3.0"]
        )
        assert plain.returncode == proc.returncode == 120
        assert b"BrokenPipeError" in proc.stderr and b"Traceback" not in proc.stderr
        assert proc.stderr == plain.stderr

