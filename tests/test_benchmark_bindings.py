"""The program names the benchmark binds must keep existing.

``perfbench/tracing.py`` rebinds functions of ``sl2cohom`` by name and its
hooks read some of their arguments and results; a refactor that renames
one of them would break ``python3 perfbench/run.py --trace 1``.
``perfbench/workloads.py`` evaluates and checks every configuration
through the public functions and result fields of ``sl2cohom``; a refactor
that drops one of them would crash every benchmark run.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from fractions import Fraction
from pathlib import Path

from sl2cohom import reduced, sweep
from sl2cohom.closedform import CaseKind, classify
from sl2cohom.multiindices import multiset_coeff
from support import empty_caches, system_of

ROOT = Path(__file__).resolve().parents[1]


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_every_workload_evaluates_and_checks_its_first_configs():
    workloads = _perfbench("workloads")
    for name in workloads.NAMES:
        workload = workloads.build(name, 1)
        checks = workloads.Checks()
        for cfg in workload.configs[:20]:
            assert workload.check(checks, cfg, workload.evaluate(cfg)), (name, cfg)
        assert checks.tally and all(failed == 0 for _, failed in checks.tally.values()), name


#: The seed-1 digest of one full pass of each workload: every workload's
#: results, byte for byte, as ``perfbench/run.py`` prints them.
SEED_1_DIGESTS = {
    "sweep-system": "efa8459dbbe763276c6a2c9b096960456d184647f593ea5a6e2f39a2bb093819",
    "oracle": "c68f0548e479be2d6c0ca1b20033233c07d342808b50c94acb7b92dfcf44843c",
    "certify": "136f121be747bf309527d8128d92e7930e75935a0df4de9bdd456523bd05c10a",
}


def test_every_workload_keeps_its_seed_1_digest():
    workloads = _perfbench("workloads")
    assert set(workloads.NAMES) == set(SEED_1_DIGESTS)
    for name in workloads.NAMES:
        workload = workloads.build(name, 1)
        done = [(cfg, workload.evaluate(cfg)) for cfg in workload.configs]
        assert workload.digest(done) == SEED_1_DIGESTS[name], name


def test_every_traced_name_resolves():
    tracing = _perfbench("tracing")
    for modname, attr in tracing.SPAN_TARGETS:
        assert callable(getattr(importlib.import_module(f"sl2cohom.{modname}"), attr))
    for modname, clsname, attr in tracing.COUNTED_METHODS:
        cls = getattr(importlib.import_module(f"sl2cohom.{modname}"), clsname)
        assert attr in cls.__dict__
    # argument names the hooks read
    for modname, attr, params in (("linalg", "rank", {"matrix"}),
                                  ("linalg", "sparse_rank", {"vectors"}),
                                  ("cecomplex", "block_matrix", {"p", "tr", "w", "source"})):
        fn = getattr(importlib.import_module(f"sl2cohom.{modname}"), attr)
        assert params <= set(inspect.signature(fn).parameters), (modname, attr)


def test_build_system_matrix_keeps_the_fields_the_hook_reads():
    system = system_of(3, 3, (Fraction(0), Fraction(-1, 2), Fraction(-1)))
    matrix = system.matrix
    assert (matrix.rows, matrix.cols) == (len(system.row_index), len(system.col_index))
    assert sum(1 for row in matrix.entries for v in row if v) == \
        sum(len(equation) for equation in system.equations)


def test_a_traced_pass_yields_every_per_layer_metric():
    tracing = _perfbench("tracing")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    configs = sweep.sweep_configurations(2, 2)
    # the orbit record and the box memo outlive a pass: start them empty,
    # so the counts below do not depend on the tests that ran before
    empty_caches()
    tracer = tracing.Tracer()
    with tracer.installed():
        for index, (w, k, t) in enumerate(configs):
            tracer.set_config(index)
            sweep.evaluate_row(w, k, t, ("system", "closed", "summary", "oracle"), "on")
            for f in reduced.cocycle_basis(w) if w.natural_delta() is not None else []:
                reduced.solve_coboundary(f)
    metrics = tracer.layer_metrics([name for name in names if not name.startswith("trace.")])
    assert metrics["sweep.evaluate_row.calls"] == len(configs)
    # The oracle runs once per orbit of rows under slot permutations, on
    # the miss of the orbit record.  It reads H^2 off the block's X1-free
    # d1 columns and never builds a full block matrix, so the block_matrix
    # span stays empty.
    oracle_orbits = {(w.delta(), tuple(sorted(w.twice_lambdas))) for w, _, _ in configs}
    assert metrics["cecomplex.brute_force_h2.calls"] == len(oracle_orbits)
    assert metrics["cecomplex.block_matrix.calls"] == 0
    assert metrics["reduced.build_system.nnz"] > 0
    assert metrics["cecomplex.block_matrix.columns"] == 0
    # One echelon per orbit of rows under slot permutations for the oracle
    # (its d1 columns, once per (delta, sorted 2 lambda)) and one per orbit
    # of singular rows for the system rank (it echelonises only the box
    # a <= t, which off the singular case is empty, once per (k, sorted t)):
    # both are booked under linalg.sparse_rank.
    tags = [classify(w) for w, _, _ in configs]
    singular = [tag for tag in tags if tag.kind is CaseKind.SINGULAR]
    box_orbits = {(tag.k, tuple(sorted(tag.t))) for tag in singular}
    assert (len(configs), len(oracle_orbits), len(singular), len(box_orbits)) == (8, 7, 5, 4)
    assert metrics["linalg.sparse_rank.calls"] == len(oracle_orbits) + len(box_orbits)
    # Each basis reads its kernel and column space off one factorization,
    # and only its ell bottom-family elements need a solve, which fails.
    natural = [w for w, _, _ in configs if w.natural_delta() is not None]
    # ell read off dim_h2_via_system = base + 3 ell
    ells = [(reduced.dim_h2_via_system(w).dim - multiset_coeff(w.n - 1, w.natural_delta())) // 3
            for w in natural]
    assert (len(natural), sum(ells)) == (8, 4)
    assert metrics["reduced.cocycle_basis.calls"] == len(natural)
    assert metrics["linalg.kernel_basis.calls"] == len(natural)
    assert tracer.stats["linalg.column_space_echelon"]["calls"] == len(natural)
    assert metrics["linalg.solve.calls"] == sum(ells)
    assert metrics["reduced.solve_coboundary.infeasible"] == sum(ells)
    assert metrics["reduced.solve_coboundary.calls"] == sum(
        multiset_coeff(w.n - 1, w.natural_delta()) + 3 * ell for w, ell in zip(natural, ells))
    # one recomputed coboundary per solve that returns a witness: the top
    # and middle families, not the ell infeasible bottom ones
    assert metrics["reduced.coboundary_reduced.calls"] == sum(
        multiset_coeff(w.n - 1, w.natural_delta()) + 2 * ell for w, ell in zip(natural, ells))
