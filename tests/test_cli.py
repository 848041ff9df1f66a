import json
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from degzeta import zetadeg
from degzeta.cli import main
from degzeta.verify import VerifyReport, format_float, run_suite


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_euler_json_golden(capsys):
    rc, out, _ = run_cli(capsys, "euler", "--n", "2", "--lambda", "1/2",
                         "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"n": 2, "lambda": "1/2",
                               "poly": ["1/4", "-3/2", "1"]}


def test_euler_evaluated_at_x(capsys):
    rc, out, _ = run_cli(capsys, "euler", "--n", "2", "--lambda", "0",
                         "--x", "1/2", "--format", "json")
    assert rc == 0
    assert json.loads(out)["value"] == "-1/4"


def test_gamma_value_and_fields(capsys):
    rc, out, _ = run_cli(capsys, "gamma", "--s", "1", "--lambda", "0.2",
                         "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert abs(float(payload["value"]) - 1.25) < 1e-9
    assert float(payload["abs_error_estimate"]) >= 0
    assert payload["subdivisions"] >= 0


def test_gamma_small_s(capsys):
    # Gamma(0.001|0.1) = 999.4746..., the head's 1/s taken out in closed form
    rc, out, _ = run_cli(capsys, "gamma", "--s", "0.001", "--lambda", "0.1",
                         "--format", "json")
    assert rc == 0
    assert float(json.loads(out)["value"]) == pytest.approx(999.47462954606, rel=1e-12)


def test_zeta_auto_dispatch_exact_negative(capsys):
    rc, out, _ = run_cli(capsys, "zeta", "--s", "-2", "--x", "1",
                         "--lambda", "1/4", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["method"] == "exact-neg"
    assert payload["value"] == "1/10"


def test_zeta_classical_exact_path(capsys):
    rc, out, _ = run_cli(capsys, "zeta", "--s", "-3", "--x", "1/2")
    assert rc == 0
    assert out.strip() == "0"


def test_zeta_mellin_method(capsys):
    rc, out, _ = run_cli(capsys, "zeta", "--s", "2", "--x", "1",
                         "--lambda", "0.1", "--method", "mellin",
                         "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert abs(float(payload["value"]) - 1.6958056754) < 1e-6
    assert "abs_error_estimate" in payload


@pytest.mark.parametrize("s, method, used, expected", [
    ("-1.5", "auto", "continued", "2.5576800537332495e-01"),
    # the id names the value's source, not its digits, so it stays stable
    pytest.param("2", "auto", "int", format_float(zetadeg.zeta_deg_int(2, 1.0, 0.1)),
                 id="2-auto-int-zeta_deg_int"),
    ("0.5", "continued", "continued",
     format_float(zetadeg.zeta_deg_continued(0.5, 1.0, 0.1))),
])
def test_zeta_routes(capsys, s, method, used, expected):
    rc, out, _ = run_cli(capsys, "zeta", "--s", s, "--x", "1", "--lambda", "0.1",
                         "--method", method, "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert (payload["method"], payload["value"]) == (used, expected)


@pytest.mark.parametrize("lam", ["0.85", "17/20"])
def test_zeta_continued_deep_kernel(capsys, lam):
    # lambda = 0.85 needs Taylor depth 401 for the numerator kernel
    rc, out, _ = run_cli(capsys, "zeta", "--s", "-1.5", "--x", "3", "--lambda", lam)
    assert rc == 0
    assert out == "3.4068525914626311e+00\n"


@pytest.mark.parametrize("tol", ["inf", "nan"])
@pytest.mark.parametrize("argv", [
    ["zeta", "--s", "2.5", "--x", "1", "--lambda", "0.1"],
    ["gamma", "--s", "1.5", "--lambda", "0.2"],
])
def test_non_finite_tol_is_usage_error(capsys, argv, tol):
    rc, out, err = run_cli(capsys, *argv, "--tol", tol)
    assert rc == 2
    assert out == ""
    assert "rel_tol must be positive and finite" in err


def test_zeta_neg_builds_euler_polynomial_once(capsys, monkeypatch):
    builds = []
    build = zetadeg.euler_poly_deg

    def counted(n, lam):
        builds.append((n, lam))
        return build(n, lam)

    monkeypatch.setattr(zetadeg, "euler_poly_deg", counted)
    rc, out, _ = run_cli(capsys, "zeta-neg", "--n", "8", "--x", "5/4",
                         "--lambda", "3/7")
    assert rc == 0
    assert builds == [(8, -Fraction(3, 7))]
    assert out.splitlines()[0].startswith("scaled = ")


def test_zeta_neg_reports_both_candidates(capsys):
    rc, out, _ = run_cli(capsys, "zeta-neg", "--n", "2", "--x", "1",
                         "--lambda", "1/4", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["value_scaled"] == "1/10"
    assert payload["value_plain"] == "1/8"


@pytest.mark.parametrize("argv, lines", [
    (("gamma", "--s", "1", "--lambda", "0.2"),
     ["s,lambda,value,abs_error_estimate,subdivisions",
      "1.0,0.2,1.2499999999999973e+00,2.0324649410803854e-11,2"]),
    (("zeta", "--s", "2.5", "--x", "1", "--lambda", "0.1"),
     ["s,x,lambda,method,value", "2.5,1,0.1,series,1.7905340298883134e+00"]),
    (("zeta-neg", "--n", "2", "--x", "1", "--lambda", "1/4"),
     ["n,x,lambda,value_scaled,value_plain", "2,1,1/4,1/10,1/8"]),
])
def test_single_value_csv_is_payload_header_and_row(capsys, argv, lines):
    rc, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert rc == 0
    assert out.splitlines() == lines


def test_table_gamma_csv(capsys):
    rc, out, _ = run_cli(capsys, "table", "--function", "gamma",
                         "--grid", "n=1:4:4;lambda=0.1", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,lambda,value,abs_error_estimate"
    assert len(lines) == 5
    # Gamma(1|0.1) = 1/0.9
    first = lines[1].split(",")
    assert abs(float(first[2]) - 1.0 / 0.9) < 1e-8


@pytest.mark.parametrize("method", ["auto", "mellin", "continued"])
def test_zeta_past_the_pole_is_a_domain_error(capsys, method):
    # s = 2 lies past the pole at s = x/lambda = 1/2, so every route refuses it
    rc, out, err = run_cli(capsys, "zeta", "--s", "2", "--x", "0.05",
                           "--lambda", "0.1", "--method", method)
    assert (rc, out) == (2, "")
    assert err.startswith("error: need ")


def test_zeta_series_at_x_below_lambda(capsys):
    rc, out, _ = run_cli(capsys, "zeta", "--s", "0.3", "--x", "0.05",
                         "--lambda", "0.1", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["method"] == "series"
    # mpmath's sum of the series: 9.017101526646048
    assert float(payload["value"]) == pytest.approx(9.017101526646048, rel=1e-12)


def test_table_out_of_domain_cell_is_explicit_na(capsys):
    rc, out, _ = run_cli(capsys, "table", "--function", "zeta",
                         "--grid", "s=2,12;x=1;lambda=0.1", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[2].split(",", 3)[3].startswith('"NA:')


def test_table_overflow_cell_is_explicit_na(capsys):
    rc, out, _ = run_cli(capsys, "table", "--function", "gamma",
                         "--grid", "s=2,500;lambda=0.001", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert float(lines[1].split(",")[2]) == pytest.approx(1.003007015031, rel=1e-9)
    assert lines[2].split(",", 2)[2] == (
        "NA: the quadrature of the Mellin integral at s=500.0 overflows the float range,")


def test_table_euler_integer_axis(capsys):
    rc, out, _ = run_cli(capsys, "table", "--function", "euler",
                         "--grid", "n=1:4:4;lambda=1/2", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[2] == "2.0,1/2,1/4 - 3/2*x + x^2,"


@pytest.mark.parametrize("function, grid, rows", [
    ("zeta-neg", "n=2,3;x=1;lambda=1/4", ["2,1,1/4,1/10,", "3,1,1/4,-1/10,"]),
    # E_2(x|l) = x^2 - (1+l)x + l/2 is -1/4 at x = 1/2, l = 1/3
    ("euler", "n=2;x=1/2;lambda=1/3", ["2,1/2,1/3,-1/4,"]),
])
def test_table_exact_values(capsys, function, grid, rows):
    rc, out, _ = run_cli(capsys, "table", "--function", function,
                         "--grid", grid, "--format", "csv")
    assert rc == 0
    assert out.splitlines() == ["n,x,lambda,value,abs_error_estimate", *rows]


def test_table_bad_integer_cell_is_explicit_na(capsys):
    rc, out, _ = run_cli(capsys, "table", "--function", "euler",
                         "--grid", "n=2,2.0,2.5;lambda=1/2", "--format", "csv")
    assert rc == 0
    rows = out.splitlines()[1:]
    assert rows[0].split(",", 1)[1] == rows[1].split(",", 1)[1]
    assert rows[2].split(",", 2)[2].startswith('"NA:')


def test_table_json_and_text_layout(capsys):
    grid = ("table", "--function", "gamma", "--grid", "n=1:3:3;lambda=0.1")
    rc, out, _ = run_cli(capsys, *grid, "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["function"] == "gamma"
    assert payload["columns"] == ["n", "lambda", "value", "abs_error_estimate"]
    assert [row[:2] for row in payload["rows"]] == [
        ["1.0", "0.1"], ["2.0", "0.1"], ["3.0", "0.1"]]
    rc, out, _ = run_cli(capsys, *grid)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n  lambda  value  abs_error_estimate"
    assert lines[1:] == ["  ".join(row) for row in payload["rows"]]


def test_table_repeated_variable_is_usage_error(capsys):
    rc, out, err = run_cli(capsys, "table", "--function", "zeta",
                           "--grid", "s=0.5;lambda=0.1;s=1;x=1")
    assert rc == 2
    assert out == ""
    assert "grid variable 's' given twice" in err


def test_table_single_point_range(capsys):
    rc, out, _ = run_cli(capsys, "table", "--function", "gamma",
                         "--grid", "s=1:2:1;lambda=0.1", "--format", "csv")
    assert rc == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 1
    assert rows[0].startswith("1.0,0.1,")


@pytest.mark.parametrize("grid, message", [
    ("q=1", "unknown grid variable 'q'"),
    ("s=1:2:0;lambda=0.1", "range count must be >= 1"),
    ("s=", "no values for grid variable 's'"),
    ("s=,", "no values for grid variable 's'"),
    (";", "empty grid"),
])
def test_table_bad_grid_is_usage_error(capsys, grid, message):
    rc, out, err = run_cli(capsys, "table", "--function", "gamma", "--grid", grid)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_table_missing_variable_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, "table", "--function", "zeta",
                         "--grid", "s=1,2")
    assert rc == 2
    assert "must include" in err


def test_table_gamma_needs_s_or_n(capsys):
    rc, out, err = run_cli(capsys, "table", "--function", "gamma", "--grid", "lambda=0.1")
    assert (rc, out) == (2, "")
    assert err == "error: grid for 'gamma' must include one of ['n', 's']\n"


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        run_suite("nope")


@pytest.mark.parametrize("s", ["inf", "-inf", "nan"])
def test_non_finite_s_is_usage_error(capsys, s):
    with pytest.raises(SystemExit) as exc:
        main(["zeta", f"--s={s}", "--x", "1"])
    assert exc.value.code == 2
    assert f"argument --s: not a finite number: '{s}'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["gamma", "--s", "inf", "--lambda", "0.1"], "argument --s: not a finite number: 'inf'"),
    (["gamma", "--s", "1", "--lambda", "nan"],
     "argument --lambda: not a finite number: 'nan'"),
    (["gamma", "--s", "1/0", "--lambda", "0.1"], "argument --s: invalid float value: '1/0'"),
    (["zeta", "--s", "1" + "0" * 400 + "/3", "--x", "1"], "argument --s: not a finite number"),
    (["euler", "--n", "2", "--lambda", "abc"], "argument --lambda: not a rational: 'abc'"),
], ids=["gamma-s-inf", "gamma-lambda-nan", "gamma-s-1/0", "zeta-s-past-float-range",
        "euler-lambda-abc"])
def test_bad_number_is_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, pq_argv", [
    (["gamma", "--s", "0.5", "--lambda", "0.2"], ["gamma", "--s", "1/2", "--lambda", "1/5"]),
    (["zeta", "--s", "2.5", "--x", "1", "--lambda", "0.1"],
     ["zeta", "--s", "5/2", "--x", "1", "--lambda", "1/10"]),
    (["zeta", "--s", "-1.5", "--x", "1", "--lambda", "0.1", "--format", "json"],
     ["zeta", "--s=-3/2", "--x", "1", "--lambda", "0.1", "--format", "json"]),
], ids=["gamma", "zeta-series", "zeta-continued"])
def test_s_and_lambda_read_p_over_q(capsys, argv, pq_argv):
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert run_cli(capsys, *pq_argv) == (0, out, "")


def test_bad_s_keeps_the_float_usage_message(capsys):
    with pytest.raises(SystemExit):
        main(["zeta", "--s", "abc", "--x", "1"])
    assert "argument --s: invalid float value: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["series", "int", "exact-neg"])
def test_zeta_method_names_only_the_independent_routes(capsys, method):
    # auto already takes the series, integer and exact forms where they apply
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--s", "2", "--x", "1", "--lambda", "0.1", "--method", method])
    assert exc.value.code == 2
    assert f"argument --method: invalid choice: '{method}'" in capsys.readouterr().err


def test_classical_zeta_above_the_float_range(capsys):
    rc, out, err = run_cli(capsys, "zeta", "--s", "1100", "--x", "0.5")
    assert rc == 2
    assert out == ""
    assert err == "error: zeta at s=1100.0 exceeds the float range\n"


def test_classical_zeta_negative_non_integer(capsys):
    rc, out, _ = run_cli(capsys, "zeta", "--s", "-1.5", "--x", "1")
    assert rc == 0
    assert out == "2.3736174143966041e-01\n"


def test_classical_zeta_term_overflow_is_nonconvergent(capsys):
    rc, out, err = run_cli(capsys, "zeta", "--s", "-1100.5", "--x", "1")
    assert rc == 2
    assert out == ""
    assert err == "error: term 1 of the series at s=-1100.5 overflows the float range\n"


def test_domain_error_exit_code(capsys):
    rc, _, err = run_cli(capsys, "gamma", "--s", "12", "--lambda", "0.1")
    assert rc == 2
    assert err.startswith("error:")


def test_overflow_is_domain_error_exit_code(capsys):
    # Gamma(200) is beyond the float range
    rc, out, err = run_cli(capsys, "zeta", "--s", "200", "--x", "1",
                           "--lambda", "0", "--method", "mellin")
    assert rc == 2
    assert out == ""
    assert err == "error: Gamma(200.0) overflows the float range\n"


def test_verify_exactcore_passes(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--suite", "exactcore")
    assert rc == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert "failed=0" in lines[-1]


def test_verify_csv_and_json_stdout(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--suite", "exactcore",
                         "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "status,check_id,residual,tolerance,anchor"
    rows = lines[1:]
    assert rows and all(row.startswith("PASS,") for row in rows)
    rc, out, _ = run_cli(capsys, "verify", "--suite", "exactcore",
                         "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert "wall_time_s" not in payload  # stdout stays byte-deterministic
    assert (payload["suite"], payload["failed"]) == ("exactcore", 0)
    assert [c["check_id"] for c in payload["checks"]] == [
        row.split(",")[1] for row in rows]


def test_verify_report_round_trips(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc, _, _ = run_cli(capsys, "verify", "--suite", "discrepancy",
                       "--report", str(path))
    assert rc == 0
    data = json.loads(path.read_text())
    report = VerifyReport.from_dict(data)
    assert report.to_dict() == data
    assert report.all_passed
    assert report.suite == "discrepancy"


def test_verify_unwritable_report_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    rc, out, err = run_cli(capsys, "verify", "--suite", "exactcore",
                           "--report", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and str(path) in err
    assert not path.parent.exists()


def test_byte_identical_output_for_identical_argv(capsys):
    argv = ["zeta", "--s", "2.5", "--x", "1", "--lambda", "0.1",
            "--format", "json"]
    rc1, out1, _ = run_cli(capsys, *argv)
    rc2, out2, _ = run_cli(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_console_entry_point_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "degzeta.cli", "gamma"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def _readme_cli_lines() -> list:
    """(argv, shown) per `degzeta` line of README's CLI block.

    shown is the output the README prints in a comment line right below
    the command, with its newline, or None where it prints none.
    """
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines() + [""]
    return [(shlex.split(line)[1:], nxt[2:] + "\n" if nxt.startswith("# ") else None)
            for line, nxt in zip(lines, lines[1:]) if line.startswith("degzeta ")]


_README_CLI = _readme_cli_lines()


def test_readme_cli_block_is_read():
    assert len(_README_CLI) >= 7
    assert sum(shown is not None for _, shown in _README_CLI) >= 2


@pytest.mark.parametrize("argv, shown", _README_CLI,
                         ids=[" ".join(argv) for argv, _ in _README_CLI])
def test_readme_cli_example(capsys, tmp_path, argv, shown):
    argv = list(argv)
    if "--report" in argv:
        argv[argv.index("--report") + 1] = str(tmp_path / "report.json")
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    if shown is not None:
        assert out == shown
