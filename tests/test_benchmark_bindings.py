"""The program names the benchmark's tracer binds must keep existing.

``perfbench/tracing.py`` rebinds functions of ``sl2cohom`` by name and its
hooks read some of their arguments and results; a refactor that renames
one of them would break ``python3 perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
import inspect
import json
from fractions import Fraction
from pathlib import Path

from sl2cohom import cecomplex, reduced, sweep
from sl2cohom.closedform import CaseKind, classify
from sl2cohom.multiindices import multiset_coeff

ROOT = Path(__file__).resolve().parents[1]


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
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
    system = reduced.build_system(3, 3, (Fraction(0), Fraction(-1, 2), Fraction(-1)))
    matrix = system.matrix
    assert (matrix.rows, matrix.cols) == (len(system.row_index), len(system.col_index))
    assert sum(1 for row in matrix.entries for v in row if v) == \
        sum(len(equation) for equation in system.equations)


def test_a_traced_pass_yields_every_per_layer_metric():
    tracing = _tracing()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    configs = sweep.sweep_configurations(2, 2)
    # the box and oracle memos outlive a pass: start them empty, so the
    # count below does not depend on the tests that ran before
    reduced._box_deficiency.cache_clear()
    cecomplex._orbit_h2.cache_clear()
    tracer = tracing.Tracer()
    with tracer.installed():
        for index, (w, k, t) in enumerate(configs):
            tracer.set_config(index)
            sweep.evaluate_row(w, k, t, ("system", "closed", "summary", "oracle"), "on")
            for f in reduced.cocycle_basis(w) if w.natural_delta() is not None else []:
                reduced.solve_coboundary(f)
    metrics = tracer.layer_metrics([name for name in names if not name.startswith("trace.")])
    assert metrics["sweep.evaluate_row.calls"] == len(configs)
    # Every oracle row goes through the traced entry point.  It reads H^2
    # off the block's X1-free d1 columns and never builds a full block
    # matrix, so the block_matrix span stays empty.
    assert metrics["cecomplex.brute_force_h2.calls"] == len(configs)
    assert metrics["cecomplex.block_matrix.calls"] == 0
    assert metrics["reduced.build_system.nnz"] > 0
    assert metrics["cecomplex.block_matrix.columns"] == 0
    # One echelon per orbit of rows under slot permutations for the oracle
    # (its d1 columns, once per (delta, sorted 2 lambda)) and one per orbit
    # of singular rows for the system rank (it echelonises only the box
    # a <= t, which off the singular case is empty, once per (k, sorted t)):
    # both are booked under linalg.sparse_rank.
    oracle_orbits = {(w.delta(), tuple(sorted(w.twice_lambdas))) for w, _, _ in configs}
    tags = [classify(w) for w, _, _ in configs]
    singular = [tag for tag in tags if tag.kind is CaseKind.SINGULAR]
    box_orbits = {(tag.k, tuple(sorted(tag.t))) for tag in singular}
    assert (len(configs), len(oracle_orbits), len(singular), len(box_orbits)) == (8, 7, 5, 4)
    assert metrics["linalg.sparse_rank.calls"] == len(oracle_orbits) + len(box_orbits)
    # Each basis reads its kernel and column space off one factorization,
    # and only its ell bottom-family elements need a solve, which fails.
    natural = [w for w, _, _ in configs if w.natural_delta() is not None]
    ells = [reduced.rank_data(w)[2] for w in natural]
    assert (len(natural), sum(ells)) == (8, 4)
    assert metrics["reduced.cocycle_basis.calls"] == len(natural)
    assert metrics["linalg.kernel_basis.calls"] == len(natural)
    assert tracer.stats["linalg.column_space_echelon"]["calls"] == len(natural)
    assert metrics["linalg.solve.calls"] == sum(ells)
    assert metrics["reduced.solve_coboundary.infeasible"] == sum(ells)
    assert metrics["reduced.solve_coboundary.calls"] == sum(
        multiset_coeff(w.n - 1, w.natural_delta()) + 3 * ell for w, ell in zip(natural, ells))
