import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sl2cohom import cli
from sl2cohom.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_command_reports_each_method(tmp_path, capsys):
    code, out, _ = run_cli([
        "dim", "--n", "2", "--lambdas", "0,0", "--mu", "1",
        "--methods", "system,closed,oracle"], capsys)
    assert code == 0
    results = json.loads(out)
    by_method = {r["method"]: r for r in results}
    assert by_method["system"]["dim"] == 4
    assert by_method["closed"]["dim"] == 4
    # the brute-force complex disagrees with the formula methods here; the
    # tool reports both rather than harmonising them
    assert by_method["oracle"]["dim"] == 1
    assert by_method["oracle"]["stable"] is True


def test_dim_command_vanishing_shift(capsys):
    code, out, _ = run_cli(["dim", "--n", "1", "--lambdas", "1/3", "--mu", "0"],
                           capsys)
    assert code == 0
    results = json.loads(out)
    assert all(r["dim"] == 0 for r in results)


def test_dim_command_nonresonant_three_arguments(capsys):
    code, out, _ = run_cli([
        "dim", "--n", "3", "--lambdas", "1,1,1", "--mu", "5",
        "--methods", "system"], capsys)
    assert code == 0
    assert json.loads(out)[0]["dim"] == 3


def test_malformed_rational_is_usage_error(capsys):
    code, _, err = run_cli(["dim", "--n", "1", "--lambdas", "0.5x", "--mu", "0"],
                           capsys)
    assert code == 2
    assert "malformed rational" in err


def test_underscore_in_a_rational_is_usage_error(capsys):
    # Fraction("1_0") is 10; the command line refuses digit-group underscores
    for argv in (["dim", "--lambdas", "0", "--mu", "1_0", "--methods", "system"],
                 ["dim", "--lambdas", "0,1_0", "--mu", "1", "--methods", "system"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == "", argv
        assert "malformed rational" in err and "underscore" in err, argv


def test_an_oracle_cap_below_k_is_reported_not_stable(capsys):
    # at cap 1 every row with k >= 2 loses the levels k - 1 and k; t = (2, 3)
    # at k = 5 has ell = 1 but gives 0 at cap 1, and is not certified
    code, out, _ = run_cli(["table", "--n", "2", "--k-max", "5", "--alpha-max", "1",
                            "--oracle", "on", "--methods", "system,oracle"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {(int(row["k"]) <= 1, row["stable"]) for row in rows} == \
        {(True, "true"), (False, "false")}
    row = next(row for row in rows if row["k"] == "5" and row["t"] == "[2,3]")
    assert (row["dim_oracle"], row["stable"], row["agree"]) == ("0", "false", "")
    # verify leaves those rows out of its gate: (4 + 1) + (9 + 1) at k = 2, 3
    code, out, _ = run_cli(["verify", "--n", "2", "--k-max", "3", "--alpha-max", "1",
                            "--oracle", "on"], capsys)
    assert "unstable oracle rows (excluded from gate): 15" in out
    code, out, _ = run_cli(["dim", "--lambdas=-1,-3/2", "--mu", "5/2", "--methods",
                            "oracle", "--alpha-max", "1"], capsys)
    assert code == 0
    assert {key: json.loads(out)[0][key] for key in ("dim", "stable", "alpha_max")} == \
        {"dim": 0, "stable": False, "alpha_max": 1}
    code, out, _ = run_cli(["dim", "--lambdas=-1,-3/2", "--mu", "5/2", "--methods",
                            "oracle"], capsys)
    assert {key: json.loads(out)[0][key] for key in ("dim", "stable", "alpha_max")} == \
        {"dim": 1, "stable": True, "alpha_max": 5}


def test_out_of_range_count_or_cap_is_usage_error(capsys):
    # exit 1 is reserved for a verify disagreement
    for argv in (
        ["verify", "--n", "2", "--k-max", "1", "--alpha-max", "0"],
        ["table", "--n", "2", "--k-max", "1", "--oracle", "off", "--alpha-max", "-1"],
        ["dim", "--n", "1", "--lambdas", "0", "--mu", "1", "--alpha-max", "0"],
        ["table", "--n", "0", "--k-max", "1"],
        ["verify", "--n", "-1", "--k-max", "1"],
    ):
        code, _, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert "must be at least 1" in err, argv
    for argv in (
        ["verify", "--n", "2", "--k-max", "-3"],
        ["table", "--n", "2", "--k-max", "-1"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert "must be at least 0" in err, argv
        assert "verdict" not in out, argv


def test_input_too_large_is_usage_error(capsys):
    # 10^400 overflows an index-sized integer in the polynomial layer
    code, _, err = run_cli(["dim", "--n", "1", "--lambdas", "1e400", "--mu", "0"],
                           capsys)
    assert code == 2
    assert "too large" in err


def test_input_with_more_digits_than_python_prints_is_usage_error(capsys):
    # 10^5000 used to pass parsing and die printing the weights, with exit 1
    for argv in (["dim", "--n", "1", "--lambdas", "1e5000", "--mu", "0"],
                 ["dim", "--n", "1", "--lambdas", "0", "--mu", "1e5000"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == "", argv
        assert "too large" in err, argv


def test_oversized_dim_is_refused_within_seconds():
    # both used to run without end: k = 10^400 enumerated before any check
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for argv, what in (
        (["dim", "--n", "1", "--lambdas", "0", "--mu", "1e400", "--methods", "oracle"],
         "candidate cochains"),
        (["dim", "--n", "2", "--lambdas", "0,0", "--mu", "1e400", "--methods", "system"],
         "equations"),
        # n = 1 has one equation, but the system's frame holds k factors per
        # slot: these two used to exit 0 after allocating 120+ MiB
        (["dim", "--n", "1", "--lambdas", "0", "--mu", "2000000", "--methods", "system"],
         "2000000 lowering factors per slot"),
        (["basis", "--n", "1", "--lambdas", "0", "--mu", "1000000"],
         "1000000 lowering factors per slot"),
    ):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "sl2cohom"] + argv, env=env,
                              capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 10, argv
        assert proc.returncode == 2, argv
        assert proc.stdout == "", argv
        assert what in proc.stderr and "above the ceiling" in proc.stderr, argv


def test_oversized_sweep_is_refused_within_seconds():
    # n = 1 has one equation per row, so only the row count stops this sweep
    # of about 5 * 10^15 rows; it used to run with no output
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    argv = ["table", "--n", "1", "--k-max", "100000000", "--oracle", "off"]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "sl2cohom"] + argv, env=env,
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "rows" in proc.stderr and "above the ceiling" in proc.stderr


def test_instances_above_a_ceiling_are_usage_errors(capsys):
    for argv, what in (
        (["dim", "--n", "2", "--lambdas", "0,0", "--mu", "1", "--methods", "oracle",
          "--alpha-max", "300"], "candidate cochains"),
        (["table", "--n", "2", "--k-max", "100000", "--oracle", "off"], "equations"),
        (["verify", "--n", "4", "--k-max", "20", "--oracle", "on"], "candidate cochains"),
        (["table", "--n", "3", "--k-max", "3", "--alpha-max", "60", "--oracle", "on"],
         "candidate cochains"),
        (["basis", "--n", "2", "--lambdas", "0,0", "--mu", "2000"], "cells"),
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == "", argv
        assert what in err and "above the ceiling" in err, argv
    # the oracle ceiling only applies where blocks can be nonempty or the
    # oracle runs: a non-integral shift, and auto beyond n <= 2
    code, out, _ = run_cli(["dim", "--n", "1", "--lambdas", "1/3", "--mu", "0",
                            "--methods", "oracle", "--alpha-max", "300"], capsys)
    assert code == 0 and json.loads(out)[0]["dim"] == 0
    cli._check_sweep_size(3, 9, cli.ALL_METHODS, "auto", 300)
    # the system's ceiling on k binds where the system runs, and is checked
    # without building anything
    code, out, _ = run_cli(["dim", "--n", "1", "--lambdas", "0", "--mu", "8332",
                            "--methods", "oracle"], capsys)
    assert code == 0 and json.loads(out)[0]["dim"] == 0
    with pytest.raises(cli.UsageError, match="100000000 lowering factors per slot"):
        cli._check_system_size(1, 10 ** 8)


def test_ceilings_accept_every_documented_instance():
    # the largest table, verify and benchmark sweeps of README, the tests
    # and the benchmark, with and without the oracle
    for n, k_max, policy in ((5, 5, "auto"), (5, 5, "on"), (4, 6, "off"),
                             (4, 5, "off"), (4, 4, "on"), (3, 5, "on"), (2, 8, "on"),
                             (1, 197, "off")):
        cli._check_sweep_size(n, k_max, cli.ALL_METHODS, policy, None)


def test_basis_is_bounded_by_the_dense_kernel_it_returns(capsys):
    # k = 1 has one equation and n unknowns, but n - 1 kernel vectors of n
    # entries: 1,001 arguments used to pass with 1,001 cells
    zeros = ",".join(["0"] * 1001)
    code, out, err = run_cli(["basis", "--mu", "1", "--lambdas", zeros], capsys)
    assert code == 2
    assert out == ""
    assert "1002001 cells" in err and "above the ceiling" in err
    # accepted: exactly 10^6 cells at n = 2, k = 999 and n = 1000, k = 1;
    # 627,264 at n = 6, k = 7
    cli._check_basis_size(2, 999)
    cli._check_basis_size(1000, 1)
    cli._check_basis_size(6, 7)


def test_a_thousand_arguments_run_without_recursion():
    # the enumerations used to recurse once per slot: RecursionError, exit 1
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    zeros = ",".join(["0"] * 1000)
    outputs = []
    for argv in (["dim", "--methods", "system", "--mu", "1", "--lambdas", zeros],
                 ["table", "--n", "1000", "--k-max", "1", "--oracle", "off"]):
        proc = subprocess.run([sys.executable, "-m", "sl2cohom"] + argv, env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, (argv[0], proc.stderr[-300:])
        outputs.append(proc.stdout)
    # k = 1, lambda = 0: one equation whose entries all vanish, so ell = 1
    assert json.loads(outputs[0])[0]["dim"] == 999 + 3
    assert outputs[1].splitlines()[2] == "1000,1,,,,,999,999,,,,"


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli([], capsys)[0] == 2


def test_mismatched_arity_is_usage_error(capsys):
    code, _, err = run_cli(["dim", "--n", "3", "--lambdas", "0,0", "--mu", "1"],
                           capsys)
    assert code == 2


def test_table_csv_output_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for path in (out1, out2):
        code, _, _ = run_cli([
            "table", "--n", "2", "--k-max", "2", "--oracle", "off",
            "--format", "csv", "--out", str(path)], capsys)
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0].startswith("n,k,t,sigma")
    assert len(lines) == 1 + (0 + 1 + 4) + 3


def test_table_unwritable_path_is_io_error(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.csv"
    code, _, err = run_cli([
        "table", "--n", "2", "--k-max", "1", "--oracle", "off",
        "--out", str(target)], capsys)
    assert code == 3
    assert "io error" in err


def test_basis_command(tmp_path, capsys):
    code, out, _ = run_cli([
        "basis", "--n", "2", "--lambdas", "0,0", "--mu", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data) == 4
    for item in data:
        assert item["n"] == 2
        assert set(item) >= {"A", "B", "C", "lambdas", "mu"}


def test_basis_command_empty_for_nonnatural_shift(capsys):
    code, out, _ = run_cli(["basis", "--n", "1", "--lambdas", "1/2", "--mu", "0"],
                           capsys)
    assert code == 0
    assert "H^2 = 0, empty basis" in out
    assert json.loads(out.splitlines()[-1]) == []


def test_verify_exit_codes(tmp_path, capsys):
    # without oracle rows the gate has nothing to compare: exit 0
    code, out, _ = run_cli(["verify", "--n", "2", "--k-max", "1",
                            "--oracle", "off"], capsys)
    assert code == 0
    assert "verdict: PASS" in out
    # with the oracle on, formula-vs-complex disagreement trips the gate
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(["verify", "--n", "2", "--k-max", "1",
                            "--oracle", "on", "--out", str(report_path)], capsys)
    assert code == 1
    assert "verdict: FAIL" in out
    report = json.loads(report_path.read_text())
    assert report["passed"] is False
    assert report["gate_failures"]
    # discrepancies carry both values
    row = report["gate_failures"][0]
    assert "dim_system" in row and "dim_oracle" in row


def test_verify_negative_control_perturbation(capsys):
    code, _, _ = run_cli(["verify", "--n", "2", "--k-max", "2",
                          "--oracle", "auto", "--self-test-perturb"], capsys)
    assert code != 0
