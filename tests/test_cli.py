import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sl2cohom import cli, reduced
from sl2cohom.cli import main
from sl2cohom.multiindices import multiset_coeff
from sl2cohom.polynomials import parse_rational
from sl2cohom.weights import Weights

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
    # the oracle's cap is max(k, 1), here k = 5, and its value ell = 1
    code, out, _ = run_cli(["dim", "--lambdas=-1,-3/2", "--mu", "5/2", "--methods",
                            "oracle"], capsys)
    assert code == 0
    assert {key: json.loads(out)[0][key] for key in ("dim", "stable", "alpha_max")} == \
        {"dim": 1, "stable": True, "alpha_max": 5}


def test_dim_writes_one_record_per_method(capsys):
    weights = {"lambdas": ["-3/2", "-1", "-1/2"], "mu": "5", "n": 3}
    case = "singular(k=8, t=(3, 2, 1), sigma=6)"
    code, out, _ = run_cli(["dim", "--lambdas=-3/2,-1,-1/2", "--mu", "5",
                            "--methods", "system,closed,summary,oracle"], capsys)
    assert code == 0
    assert json.loads(out) == [
        {"dim": dim, "method": method, "alpha_max": alpha_max, "stable": True,
         "weights": weights, "case": case}
        for dim, method, alpha_max in ((9, "system", None), (9, "closed", None),
                                       ("18", "summary", None), (0, "oracle", 8))]
    # the summary table covers only singular rows
    weights = {"lambdas": ["1/3", "2/3"], "mu": "4", "n": 2}
    code, out, _ = run_cli(["dim", "--lambdas", "1/3,2/3", "--mu", "4",
                            "--methods", "summary,closed"], capsys)
    assert code == 0
    assert json.loads(out) == [
        {"dim": dim, "method": method, "alpha_max": None, "stable": True,
         "weights": weights, "case": "non-resonant(k=3)"}
        for dim, method in ((None, "summary"), (1, "closed"))]


def test_dim_reports_the_exact_count_where_table_refuses_it(capsys):
    # exact is ell itself, the oracle's value: 0 at t = (3, 2, 1), k = 8,
    # where T = 6 < k - 1 leaves h_(k-1) = h_k = 0, 1 at t = (1, 1), k = 3,
    # and 0 off the singular case
    for lambdas, mu, ell in (("-3/2,-1,-1/2", "5", 0), ("-1/2,-1/2", "2", 1),
                             ("1/3,2/3", "4", 0), ("0,0", "1/2", 0)):
        code, out, _ = run_cli(["dim", f"--lambdas={lambdas}", "--mu", mu,
                                "--methods", "exact,oracle"], capsys)
        assert code == 0
        exact, oracle = json.loads(out)
        assert (exact["method"], exact["alpha_max"], exact["stable"]) == ("exact", None, True)
        assert exact["dim"] == oracle["dim"] == ell, lambdas
        assert exact["case"] == oracle["case"]
    # the Hilbert pass has n' (min(k, sigma) + 1) terms; one above the
    # ceiling is refused before it runs, with nothing on stdout
    code, out, err = run_cli(["dim", "--lambdas=-500000,-500000", "--mu", "500001",
                              "--methods", "exact"], capsys)
    assert (code, out) == (2, "")
    assert "3000004 terms" in err and "above the ceiling" in err
    # a sweep does not run it
    code, out, err = run_cli(["table", "--n", "2", "--k-max", "2", "--methods",
                              "system,exact"], capsys)
    assert (code, out) == (2, "") and "'exact'" in err


@pytest.mark.parametrize("argv, twice", [
    (["dim", "--lambdas", "0,0", "--mu", "1", "--methods", "system,system"], "system"),
    (["dim", "--lambdas", "0,0", "--mu", "1", "--methods", "oracle,closed, oracle"], "oracle"),
    (["table", "--n", "2", "--k-max", "2", "--methods", "closed,system,closed"], "closed"),
])
def test_a_method_listed_twice_is_a_usage_error(argv, twice, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert f"method {twice!r} is listed twice" in err


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


def test_out_of_range_count_or_cap_is_usage_error(capsys):
    # exit 1 is reserved for a verify disagreement; the oracle's cap is
    # max(k, 1) and the output of dim and basis is JSON, so neither is an
    # option any more
    for argv in (
        ["verify", "--n", "2", "--k-max", "1", "--alpha-max", "5"],
        ["table", "--n", "2", "--k-max", "1", "--oracle", "off", "--alpha-max", "5"],
        ["dim", "--n", "1", "--lambdas", "0", "--mu", "1", "--alpha-max", "5"],
        ["dim", "--n", "1", "--lambdas", "0", "--mu", "1", "--format", "json"],
        ["basis", "--n", "1", "--lambdas", "0", "--mu", "1", "--format", "json"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == "", argv
        assert "unrecognized arguments" in err, argv
    for argv in (
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
    big = "9" * 4300  # the most digits Python prints by default
    for argv in (["dim", "--n", "1", "--lambdas", "1e5000", "--mu", "0"],
                 ["dim", "--n", "1", "--lambdas", "0", "--mu", "1e5000"],
                 # each weight prints, but these used to die printing the
                 # shift k = 2 big, C(k + 2, k) and the summary value
                 ["dim", f"--lambdas=-{big}", "--mu", big, "--methods", "closed"],
                 ["dim", f"--lambdas=-{big},0,0,0", "--mu", "0", "--methods", "closed"],
                 ["dim", "--lambdas", "0,0,0,0", "--mu", big, "--methods", "summary"],
                 # sigma = 2 k - 2 > 10^4300 in the case, for k = big
                 ["dim", f"--lambdas=-{big[:-1]}8/2,-{big[:-1]}8/2", "--mu", "1",
                  "--methods", "closed"],
                 # the system value base + 3 ell has the closed form's base,
                 # C(k + 2, 2) > 10^4300 here, and no system ceiling refuses
                 # this non-resonant row first
                 ["dim", "--lambdas=1,1,1,1", f"--mu={2 * 10 ** 2150 + 4}", "--methods",
                  "system"],
                 ["basis", f"--lambdas=-{big}", "--mu", big]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == "", argv
        assert "too large" in err, argv


def test_the_digit_bound_is_built_once_per_command(capsys):
    # the digit bound, itself a 4,300-digit integer, used to be rebuilt for
    # each weight: 1.5 s before the frame-entry refusal this row once met;
    # its box has no nonzero slot, so it now runs
    zeros = ",".join(["0"] * 30000)
    start = time.perf_counter()
    code = main(["dim", "--methods", "system", "--mu", "1", "--lambdas", zeros])
    assert time.perf_counter() - start < 0.75
    assert code == 0
    assert json.loads(capsys.readouterr().out)[0]["dim"] == 29999 + 3


def test_oversized_dim_is_refused_within_seconds():
    # the first two used to run without end: k = 10^400 enumerated before
    # any check
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for argv, what in (
        (["dim", "--n", "1", "--lambdas", "0", "--mu", "1e400", "--methods", "oracle"],
         "candidate cochains"),
        # t = (1, 1): zero weights build no box, and now run
        (["dim", "--n", "2", "--lambdas=-1/2,-1/2", "--mu", "1e400", "--methods", "system"],
         "equations"),
        # n = 1 has one equation and one unknown; with no table of k factors
        # per slot these two run: dim 0 and an empty basis
        (["dim", "--n", "1", "--lambdas", "0", "--mu", "2000000", "--methods", "system"],
         None),
        (["basis", "--n", "1", "--lambdas", "0", "--mu", "1000000"], None),
    ):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "sl2cohom"] + argv, env=env,
                              capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 10, argv
        if what is None:
            assert proc.returncode == 0, argv
            assert [r["dim"] for r in json.loads(proc.stdout)] in ([0], []), argv
            continue
        assert proc.returncode == 2, argv
        assert proc.stdout == "", argv
        assert what in proc.stderr and "above the ceiling" in proc.stderr, argv


def test_large_arity_at_small_k_is_refused_within_seconds():
    # one equation at k = 1, but a frame of n^2 index entries: n = 8,000
    # took 9 s and 509 MiB, so these used to run out of memory instead.  A
    # sweep keeps the check at its full arity and at k >= 1, so k_max = 0
    # is refused too (n = 10^6 there took 3.5 s and 116 MiB), and so is the
    # self-test, which builds the whole system on every row; the dim row
    # has no nonzero t_i, builds no frame and runs
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    zeros = ",".join(["0"] * 30000)
    for argv, entries in (
            (["table", "--n", "30000", "--k-max", "1", "--oracle", "off"], 900030000),
            (["verify", "--n", "30000", "--k-max", "1"], 900030000),
            (["verify", "--n", "30000", "--k-max", "1", "--self-test-perturb"], 900030000),
            (["table", "--n", "10000000", "--k-max", "0"], 100000010000000),
            (["dim", "--methods", "system", "--mu", "1", "--lambdas", zeros], None)):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "sl2cohom"] + argv, env=env,
                              capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 10, argv
        if argv[0] == "dim":
            assert proc.returncode == 0
            assert json.loads(proc.stdout)[0]["dim"] == 29999 + 3  # ell = 1 at t = 0, k = 1
            continue
        assert proc.returncode == 2, argv
        assert proc.stdout == "", argv
        assert f"{entries} index entries" in proc.stderr, argv
        assert "above the ceiling" in proc.stderr, argv


def test_rows_with_a_small_box_run_within_seconds(capsys):
    # each used to be refused, or to take 2 s and 133 MiB at n = 85 for a
    # 3 x 2 box: the ceilings now read the frame of the nonzero t_i, and a
    # non-resonant row builds none.  Every value is the base C(n + k - 2, k)
    # plus 3 ell, with ell = 1 for the box of t = (2, 2) at k = 3
    cases = [(["dim", "--lambdas=" + ",".join(["0"] * (n - 2) + ["-1", "-1"]), "--mu", "1",
               "--methods", "system,closed"], [multiset_coeff(n - 1, 3) + 3] * 2)
             for n in (85, 200)]
    cases += [(["dim", "--lambdas", "0", "--mu", "10000000", "--methods", "system,closed"],
               [0, 0]),
              (["basis", "--lambdas", "0", "--mu", "10000000"], []),
              (["dim", "--lambdas", "1,1,1", "--mu", "10003", "--methods", "system,closed"],
               [multiset_coeff(2, 10000)] * 2)]
    for argv, dims in cases:
        start = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 5, argv
        assert code == 0 and err == "", argv
        assert [r["dim"] for r in json.loads(out)] == dims, argv


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
        # k = 300: 3 C(302, 2) = 136,353 at the oracle's cap
        (["dim", "--n", "2", "--lambdas", "0,0", "--mu", "300", "--methods", "oracle"],
         "candidate cochains"),
        (["table", "--n", "2", "--k-max", "100000", "--oracle", "off"], "equations"),
        (["verify", "--n", "4", "--k-max", "20", "--oracle", "on"], "candidate cochains"),
        (["table", "--n", "3", "--k-max", "40", "--oracle", "on"], "candidate cochains"),
        (["basis", "--n", "2", "--lambdas", "0,0", "--mu", "2000"], "cells"),
        # sizes too long to print used to die in their own message, exit 1
        (["dim", "--lambdas=-1,-1,-1", "--mu", "1e3000", "--methods", "system"],
         "over 10^4300 equations"),
        (["dim", "--lambdas", "0", "--mu", "9" * 4300, "--methods", "oracle"],
         "over 10^4300 candidate cochains"),
        (["basis", "--lambdas", "0,0", "--mu", "1e3000"], "over 10^4300 cells"),
        (["table", "--n", "1", "--k-max", "1" + "0" * 4000], "over 10^4300 rows"),
        # C(k + 998, k) at k = 10^4000 has about 4 * 10^6 digits: math.comb
        # formed it for 7.4 s before the value was refused
        (["dim", "--lambdas", ",".join(["0"] * 1000), "--mu", "1e4000", "--methods",
          "closed,summary"], "C(n + k - 2, k) at n = 1000 is too large"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 2, argv
        assert code == 2, argv
        assert out == "", argv
        assert what in err and "above the ceiling" in err, argv
    # the oracle ceiling only applies where blocks can be nonempty or the
    # oracle runs: a non-integral shift (3 (8,333 + 1) cochains at cap 1),
    # and auto beyond n <= 2, which reaches the row ceiling instead
    thirds = ",".join(["1/3"] * 8333)
    code, out, _ = run_cli(["dim", "--lambdas", thirds, "--mu", "0", "--methods", "oracle"],
                           capsys)
    assert code == 0 and json.loads(out)[0]["dim"] == 0
    with pytest.raises(cli.UsageError, match="candidate cochains"):
        cli._check_sweep_size(3, 40, cli.ALL_METHODS, "on")
    with pytest.raises(cli.UsageError, match="rows"):
        cli._check_sweep_size(3, 40, cli.ALL_METHODS, "auto")
    # the oracle's documented edge, 24,999 candidates at n = 1, k = 8332
    code, out, _ = run_cli(["dim", "--n", "1", "--lambdas", "0", "--mu", "8332",
                            "--methods", "oracle"], capsys)
    assert code == 0 and json.loads(out)[0]["dim"] == 0


def test_ceilings_accept_every_documented_instance():
    # the largest table, verify and benchmark sweeps of README, the tests
    # and the benchmark, with and without the oracle
    for n, k_max, policy in ((5, 5, "auto"), (5, 5, "on"), (4, 6, "off"),
                             (4, 5, "off"), (4, 4, "on"), (3, 5, "on"), (2, 8, "on"),
                             (1, 197, "off")):
        cli._check_sweep_size(n, k_max, cli.ALL_METHODS, policy)
    # the frame of a thousand arguments at k = 1: 1,001,000 index entries
    cli._check_system_equations(1000, 1)


def test_the_orbit_record_holds_every_orbit_of_one_k_the_ceilings_admit():
    # a sweep meets an orbit (k, sorted t) again only within one k, so the
    # record ranks each orbit once if it holds the C(k + n - 1, n) multisets
    # t of the largest k of every admitted sweep; raising a ceiling without
    # the bound fails here
    largest, n = 0, 1
    while True:
        k_max = 0
        try:
            while True:
                cli._check_sweep_size(n, k_max + 1, ("system",), "off")
                k_max += 1
        except cli.UsageError:
            pass
        if k_max < 2:  # k = 1 has the one orbit t = 0, and so has every larger n
            break
        largest = max(largest, multiset_coeff(k_max, n))
        n += 1
    assert largest == 816  # n = 3, k = 16
    # one sweep asks the record with or without the oracle at one k, and
    # the record also holds the key of the non-resonant row of that k
    assert reduced.orbit_record.cache_info().maxsize == reduced.ORBIT_CACHE_SIZE >= largest + 1


def test_basis_is_bounded_by_the_square_of_its_unknowns(capsys):
    # k = 1 has one equation and n unknowns, but about n elements that each
    # print the n weights: 1,001 arguments used to pass with 1,001 cells
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


def test_oracle_and_basis_ceilings_are_refused_before_the_binomial_is_formed(
        monkeypatch, capsys):
    # 3 C(n + cap, n) and C(n + k - 1, k)^2 at n = 60,000, k = 10^30 took
    # 2.9 s and 3.4 s of CPU to form before their refusal; both are now
    # refused from a bound on the bits of the binomial, which no call forms
    def formed(*args):
        raise AssertionError(f"multiset_coeff{args} formed")
    monkeypatch.setattr(cli, "multiset_coeff", formed)
    for check, unit in ((cli._check_oracle_size, "candidate cochains"),
                        (cli._check_basis_size, "cells")):
        with pytest.raises(cli.UsageError, match=f"over 10\\^4300 {unit}, above the ceiling"):
            check(60000, 10 ** 30)
    zeros = ",".join(["0"] * 60000)
    for argv, unit in ((["basis", "--mu", "1e30", "--lambdas", zeros], "cells"),
                       (["dim", "--methods", "oracle", "--mu", "1e30", "--lambdas", zeros],
                        "candidate cochains")):
        start = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 2, argv[0]
        assert code == 2 and out == "", argv[0]
        assert f"over 10^4300 {unit}, above the ceiling" in err, argv[0]


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
    code, out, err = run_cli(["basis", "--n", "1", "--lambdas", "1/2", "--mu", "0"],
                             capsys)
    assert code == 0
    assert json.loads(out) == []
    assert "H^2 = 0, empty basis" in err


@pytest.mark.parametrize("lambdas,mu", [
    ("-1/2,-1,-3/2", "1"),  # k = 4, t = (1, 2, 3): kernel entries such as 4/3
    ("1/2", "7/2"),  # natural shift k = 3 with an empty basis
    ("1/3", "1/2"),  # non-natural shift
], ids=["fraction-entries", "empty", "nonnatural"])
def test_basis_streams_the_bytes_of_one_json_dump(lambdas, mu, tmp_path, capsys):
    w = Weights(map(parse_rational, lambdas.split(",")), parse_rational(mu))
    basis = reduced.cocycle_basis(w) if w.natural_delta() is not None else []
    expected = json.dumps([f.to_json_dict() for f in basis], indent=2, sort_keys=True) + "\n"
    argv = ["basis", f"--lambdas={lambdas}", "--mu", mu]
    assert run_cli(argv, capsys)[:2] == (0, expected)
    target = tmp_path / "basis.json"
    assert run_cli(argv + ["--out", str(target)], capsys)[:2] == (0, "")
    assert target.read_bytes() == expected.encode()
    code, _, err = run_cli(argv + ["--out", str(tmp_path / "missing" / "basis.json")], capsys)
    assert code == 3
    assert "io error" in err


@pytest.mark.parametrize("argv", [
    ["--lambdas=-1/2,-1/2", "--mu", "2"],  # natural shift k = 3
    ["--lambdas", "0", "--mu", "0"],  # k = 0
    ["--lambdas", "0", "--mu", "3"],  # n = 1
    ["--lambdas", "1/3", "--mu", "1/2"],  # non-natural shift
], ids=["natural", "k0", "n1", "nonnatural"])
@pytest.mark.parametrize("command", ["dim", "basis"])
def test_dim_and_basis_stdout_is_pure_json(command, argv, capsys):
    code, out, _ = run_cli([command] + argv, capsys)
    assert code == 0
    assert isinstance(json.loads(out), list)


#: Weight strings for the exit-code property test: valid rationals, and
#: strings that are malformed, exact but written as a decimal or exponent,
#: digit-grouped or empty.
VALID_WEIGHTS = ("0", "1", "-1", "1/2", "-1/2", "-3/2", "1/3", "2/5", "5/2", "7")
ODD_WEIGHTS = ("3/0", "1.5", "1e3", "1_0", "", "x", "1/", "-")


def test_dim_and_basis_exit_only_with_0_or_2(capsys):
    # exit 1 is verify's disagreement code: dim and basis succeed or refuse
    rng = random.Random(7)

    def weight():
        return rng.choice(VALID_WEIGHTS if rng.random() < 0.85 else ODD_WEIGHTS)
    codes = []
    for _ in range(400):
        n = rng.randint(1, 4)
        argv = [rng.choice(["dim", "basis"]),
                "--lambdas=" + ",".join(weight() for _ in range(n)), "--mu=" + weight()]
        if rng.random() < 0.5:
            argv.append(f"--n={rng.choice([n, n, rng.randint(-1, 5)])}")
        if argv[0] == "dim" and rng.random() < 0.9:
            methods = rng.sample(cli.ALL_METHODS, rng.randint(1, len(cli.ALL_METHODS)))
            argv.append("--methods=" + ",".join(methods + rng.choice([[], [], ["bogus"]])))
        code, _, _ = run_cli(argv, capsys)
        assert code in (0, 2), argv
        codes.append(code)
    # both outcomes are well represented
    assert min(codes.count(0), codes.count(2)) > 100
    # and so does table, on grids of at most 40 rows or on sizes refused
    # before anything is enumerated; a refusal writes nothing to stdout
    rng = random.Random(8)
    # (good values, bad or oversized ones) per option
    options = {"--n": (("1", "2", "3"), ("0", "-1", "x", "", "10000000")),
               "--k-max": (("0", "1", "2", "3"), ("-1", "1.5", "", "100000")),
               "--oracle": (("auto", "on", "off"), ("never",)),
               "--format": (("csv", "json"), ("xml",))}
    codes = []
    for _ in range(200):
        argv = ["table"]
        for option, (good, bad) in options.items():
            if rng.random() < 0.95:
                argv.append(f"{option}={rng.choice(good if rng.random() < 0.9 else bad)}")
        if rng.random() < 0.7:
            methods = rng.sample(cli.ALL_METHODS, rng.randint(0, len(cli.ALL_METHODS)))
            argv.append("--methods=" + ",".join(methods + rng.choice([[], [], ["bogus"]])))
        code, out, _ = run_cli(argv, capsys)
        assert code in (0, 2), argv
        assert code == 0 or out == "", argv
        codes.append(code)
    assert min(codes.count(0), codes.count(2)) > 40


def test_verify_exits_only_with_0_1_or_2(tmp_path, capsys):
    # 1 is verify's disagreement code; a refusal writes nothing to stdout,
    # and no run ends in a traceback.  The first argv used to run for
    # minutes: its system count C(n + k - 2, n - 1) was formed in full
    # before the ceiling refused it
    big = "1" + "0" * 30
    rng = random.Random(9)
    # (good values, bad or oversized ones) per option
    options = {"--n": (("1", "2", "3"), ("0", "-1", "x", "", "1.5", "30000", "1000000", big)),
               "--k-max": (("0", "1", "2", "3"), ("-1", "1.5", "", "100000", big)),
               "--oracle": (("auto", "on", "off"), ("never",))}
    runs = [["verify", "--n=1000000", f"--k-max={big}"]]
    for _ in range(200):
        argv = ["verify"]
        for option, (good, bad) in options.items():
            if rng.random() < 0.95:
                argv.append(f"{option}={rng.choice(good if rng.random() < 0.8 else bad)}")
        if rng.random() < 0.5:
            argv.append(rng.choice(["--self-test-perturb"] * 4 + ["--self-test-perturb=yes"]))
        if rng.random() < 0.5:
            argv.append(f"--out={tmp_path / f'report{len(runs)}.json'}")
        runs.append(argv)
    codes = []
    for argv in runs:
        start = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 5, argv
        assert code in (0, 1, 2), argv
        assert code != 2 or out == "", argv
        assert "Traceback" not in out + err, argv
        codes.append(code)
    assert codes[0] == 2
    assert min(codes.count(0), codes.count(1), codes.count(2)) > 20


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


def test_a_self_test_that_no_oracle_row_checks_is_refused(capsys):
    # the gate compares the system with the oracle only, so a perturbed
    # sweep with no oracle row at k >= 1 could not fail: --oracle auto runs
    # the oracle only at n <= 2, --oracle off nowhere, and at k = 0 the
    # system has no entry to perturb
    for argv in (["--n", "3", "--k-max", "3"],
                 ["--n", "2", "--k-max", "3", "--oracle", "off"],
                 ["--n", "2", "--k-max", "0"]):
        code, out, err = run_cli(["verify", "--self-test-perturb"] + argv, capsys)
        assert (code, out) == (2, ""), argv
        assert "usage error" in err and "runs the oracle" in err, argv
    # unperturbed, the first two run and have nothing to compare
    for argv in (["--n", "3", "--k-max", "3"], ["--n", "2", "--k-max", "3", "--oracle", "off"]):
        code, out, _ = run_cli(["verify"] + argv, capsys)
        assert code == 0 and "verdict: PASS" in out, argv
