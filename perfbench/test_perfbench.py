"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench -q``."""

import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sl2cohom import linalg, sweep  # noqa: E402
from sl2cohom.polynomials import Polynomial  # noqa: E402
from sl2cohom.weights import Weights  # noqa: E402


def _traced_pass(workload):
    tracer = tracing.Tracer()
    with tracer.installed():
        loop = run.run_loop(workload, workloads.Checks(), 0, 0, tracer)
    return tracer, loop


def test_traced_counts_equal_the_work_the_program_must_do():
    configs = sweep.sweep_configurations(2, 2)
    # A half-integral shift: no constraint system, so no rank call.
    configs.append((Weights((Fraction(1), Fraction(1)), Fraction(5, 2)), 1, None))
    workload = workloads.sweep_workload("tiny-oracle", configs, workloads.ORACLE_METHODS, "on")
    tracer, loop = _traced_pass(workload)
    names = ["sweep.evaluate_row.calls", "linalg.rank.calls",
             "cecomplex.brute_force_h2.calls", "cecomplex.block_matrix.calls",
             "cecomplex.block_matrix.unique_column_ratio"]
    got = tracer.layer_metrics(names)
    natural = sum(1 for w, _, _ in configs if w.natural_delta() is not None)
    assert natural == len(configs) - 1
    assert got["sweep.evaluate_row.calls"] == len(configs)
    assert got["linalg.rank.calls"] == natural
    assert got["cecomplex.brute_force_h2.calls"] == len(configs)
    # Two degrees times three caps per oracle call.
    assert got["cecomplex.block_matrix.calls"] == 6 * len(configs)
    assert 0 < got["cecomplex.block_matrix.unique_column_ratio"] < 1
    assert {span[5] for span in tracer.spans} == set(range(len(configs)))
    assert loop.attempted == len(configs)


def test_tracing_keeps_outputs_and_restores_the_program():
    original_rank = linalg.rank
    original_mul = Polynomial.__mul__
    tiny = [
        workloads.sweep_workload("tiny-sweep", sweep.sweep_configurations(3, 3),
                                 workloads.SWEEP_METHODS, "off"),
        workloads.certify_workload(workloads.certify_configs()[:40]),
    ]
    for workload in tiny:
        untraced = run.run_loop(workload, workloads.Checks(), 0, 0)
        tracer, traced = _traced_pass(workload)
        assert untraced.failed == traced.failed == 0
        assert untraced.digest == traced.digest
        assert tracer.spans
    assert linalg.rank is original_rank
    assert sweep.linalg.rank is original_rank
    assert Polynomial.__mul__ is original_mul


def test_wrong_expected_invariant_is_counted_as_failed(monkeypatch):
    configs = sweep.sweep_configurations(2, 3)
    workload = workloads.sweep_workload("tiny-sweep", configs, workloads.SWEEP_METHODS, "off")
    assert run.run_loop(workload, workloads.Checks(), 0, 0).failed == 0
    monkeypatch.setattr(workloads, "expected_two_argument", lambda k, sigma: 1)
    checks = workloads.Checks()
    loop = run.run_loop(workload, checks, 0, 0)
    wrong = sum(1 for _, k, t in configs if t is not None and sum(t) >= k - 1)
    assert wrong > 0
    assert loop.failed == wrong
    assert checks.tally["two_argument_dim"][1] == wrong


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert not line.startswith("{"), line
