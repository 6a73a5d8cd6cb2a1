import hashlib
import json
from fractions import Fraction

import pytest

from sl2cohom import linalg, reduced, sweep
from sl2cohom.cecomplex import brute_force_h2
from sl2cohom.closedform import (
    CaseKind,
    classify,
    dim_h2_closed_form,
    dim_h2_summary_table,
)
from sl2cohom.linalg import RationalMatrix
from sl2cohom.multiindices import format_multiindex, multiset_coeff
from sl2cohom.reduced import build_system, dim_h2_via_system
from sl2cohom.sweep import (
    CSV_COLUMNS,
    evaluate_row,
    json_array,
    nonresonant_weights,
    rows_to_csv,
    rows_to_json,
    run_sweep,
    sweep_configurations,
    verify_rows,
    weights_for_tvector,
)
from sl2cohom.weights import Weights
from support import empty_caches


def test_weights_for_tvector():
    w = weights_for_tvector(2, 1, (0, 0))
    assert w.lambdas == (Fraction(0), Fraction(0)) and w.mu == 1
    assert w.delta() == 1 and classify(w).t == (0, 0)
    w2 = weights_for_tvector(3, 4, (1, 2, 3))
    assert w2.delta() == 4 and (classify(w2).t, classify(w2).sigma) == ((1, 2, 3), 6)
    for w, k, t in sweep_configurations(3, 4):
        assert w.mu == k + sum(w.lambdas), (k, t)


def test_sweep_rows_build_the_weights_of_weights_for_tvector():
    # the per-k tables of sweep_configurations against the one-row builder
    # and against -lambda_i = t_i / 2, mu = k - sigma / 2 built from scratch
    def fields(w):
        values = (w.lambdas, w.mu, w.twice_lambdas, w.delta())
        return values, [type(v) for v in (*w.lambdas, w.mu, *w.twice_lambdas, w.delta())]

    rows = 0
    for n, k_max in ((1, 6), (2, 6), (3, 5), (4, 4), (6, 3)):
        for w, k, t in sweep_configurations(n, k_max):
            if t is None:
                continue
            scratch = Weights(tuple(Fraction(-v, 2) for v in t), Fraction(2 * k - sum(t), 2))
            assert fields(w) == fields(weights_for_tvector(n, k, t)) == fields(scratch), (k, t)
            rows += 1
    assert rows == 21 + 91 + 225 + 354 + 794


def test_nonresonant_weights_classify_nonresonant():
    for n in (1, 2, 3):
        for k in range(5):
            assert classify(nonresonant_weights(n, k)).kind is CaseKind.NON_RESONANT


def test_sweep_row_counts():
    configs = sweep_configurations(2, 3)
    # singular grids of sizes 0, 1, 4, 9 plus one non-resonant row per k
    assert len(configs) == (0 + 1 + 4 + 9) + 4
    singular = [c for c in configs if c[2] is not None]
    assert len(singular) == 14


def test_sweep_csv_deterministic_and_complete():
    rows = run_sweep(2, 2, ("system", "closed", "summary"), oracle_policy="off")
    text1 = rows_to_csv(rows)
    text2 = rows_to_csv(run_sweep(2, 2, ("system", "closed", "summary"),
                                  oracle_policy="off"))
    assert text1 == text2
    lines = text1.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(sweep_configurations(2, 2))
    json_text = "".join(rows_to_json(rows))
    assert json_text == "".join(rows_to_json(rows))
    # written row by row, with the bytes of one json.dumps of the whole list
    records = [row.to_json_dict() for row in rows]
    assert json_text == json.dumps(records, indent=2, sort_keys=True) + "\n"
    assert "".join(json_array([])) == json.dumps([], indent=2, sort_keys=True) + "\n"


def test_oracle_policy_limits():
    rows = run_sweep(2, 2, ("system", "oracle"), oracle_policy="auto")
    assert all(r.dim_oracle is not None for r in rows)
    rows_off = run_sweep(2, 2, ("system", "oracle"), oracle_policy="off")
    assert all(r.dim_oracle is None for r in rows_off)


def test_verify_report_gate_and_mismatch_lists():
    rows = run_sweep(2, 1, ("system", "closed", "summary", "oracle"), "auto")
    report = verify_rows(rows)
    # every evaluated row is carried in the report, nothing suppressed
    assert len(report.rows) == len(rows)
    for row in report.rows:
        if row.dim_closed is not None and row.dim_closed != row.dim_system:
            assert row in report.closed_mismatches
    # the singular benchmark row disagrees between formula and oracle:
    # the gate reports it and the verdict is a failure, by design
    bench = [r for r in rows if r.t == (0, 0) and r.k == 1][0]
    assert bench.dim_system == 4 and bench.dim_oracle == 1 and bench.stable
    assert bench in report.gate_failures
    assert not report.passed
    assert any("FAIL" in line for line in report.summary_lines())


def test_verify_gate_passes_without_oracle_rows():
    rows = run_sweep(2, 1, ("system", "closed"), "off")
    report = verify_rows(rows)
    assert report.passed  # nothing to gate on
    assert report.closed_mismatches == []


def test_the_sparse_negative_control_equals_the_dense_one():
    # verify --self-test-perturb raises cell (0, 0) of the constraint system
    # by 1; the reference does so on the dense matrix and ranks every row
    for n, k_max in ((2, 4), (3, 3)):
        for row in run_sweep(n, k_max, ("system",), "off", perturb=True):
            w, k = row.weights, row.k
            cells = [list(cells) for cells in build_system(w).matrix.entries]
            if cells:
                cells[0][0] += 1
            n_rows = multiset_coeff(n, k - 1)
            expected = multiset_coeff(n - 1, k) + \
                3 * (n_rows - linalg.rank(RationalMatrix(cells, cols=multiset_coeff(n, k))))
            assert row.dim_system == expected, (n, k, row.t)


def test_a_perturbed_rank_belongs_to_its_row_not_its_orbit():
    # t = (0, 1) and (1, 0) share one orbit and dim 4; entry (0, 0), which
    # the self-test perturbs, moves with a slot permutation, so perturbed
    # the system of (0, 1) has full rank, dim 1, and that of (1, 0) keeps 4
    empty_caches()
    rows = {row.t: row for row in run_sweep(2, 2, ("system",), "off", perturb=True)}
    assert (rows[(0, 1)].dim_system, rows[(1, 0)].dim_system) == (1, 4)
    assert [dim_h2_via_system(rows[t].weights).dim for t in ((0, 1), (1, 0))] == [4, 4]
    # no record holds a perturbed rank: a later unperturbed row reads 4
    # from the record, as a hit
    before = reduced.orbit_record.cache_info()
    w = weights_for_tvector(2, 2, (0, 1))
    assert evaluate_row(w, 2, (0, 1), ("system",), "off").dim_system == 4
    after = reduced.orbit_record.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


ALL_METHODS = ("system", "closed", "summary", "oracle")


def test_a_sweep_has_fixed_output_bytes():
    # sha256 of both reports of one small sweep with every method, so a
    # change of representation cannot shift a byte unseen
    rows = run_sweep(3, 3, ALL_METHODS, "on")
    assert len(rows) == 40
    assert hashlib.sha256(rows_to_csv(rows).encode()).hexdigest() == \
        "8c4e8899e5be4ef24cd103de538bed903c5f2b4f2d5eddfd8698cebe71824ac0"
    assert hashlib.sha256("".join(rows_to_json(rows)).encode()).hexdigest() == \
        "406e66f22dcf9944e1a2c0952b6c6f06c392403f49101dfae6a8664949362328"


def test_a_csv_record_holds_the_cells_of_the_row_json():
    # the CSV record reads the unpacked row; the JSON record reads the
    # row's properties and singular_counts: they agree cell for cell, on
    # rows with and without the oracle and on every counting branch
    rows = run_sweep(2, 4, ALL_METHODS, "auto") + run_sweep(4, 3, ALL_METHODS, "off")
    assert {len(row.counts()) - row.counts().count(None) for row in rows} == {0, 1, 2}
    for row in rows:
        data = row.to_json_dict()
        cells = ["" if data[c] is None else str(data[c]).lower() if type(data[c]) is bool
                 else format_multiindex(data[c]) if c == "t" else str(data[c])
                 for c in CSV_COLUMNS]
        assert row.to_csv_record() == cells, data


def test_a_row_holds_what_each_method_gives_on_its_own():
    # a row's tag is its orbit's, one object for every row of the orbit:
    # the kind, k, sigma and multiset t of the row's own tag, with t in the
    # representative's order; the report formats the row's own case
    reordered = 0
    for n, k_max in ((2, 4), (3, 3)):
        orbit_tags = {}
        for w, k, t in sweep_configurations(n, k_max):
            row = evaluate_row(w, k, t, ALL_METHODS, "on")
            tag = classify(w)
            oracle = brute_force_h2(w)
            assert (row.weights, row.k, row.t) == (w, k, t)
            assert (row.tag.kind, row.tag.k, row.tag.sigma) == (tag.kind, tag.k, tag.sigma)
            assert (row.tag.t is None) == (tag.t is None)
            assert tag.t is None or sorted(row.tag.t) == sorted(tag.t)
            reordered += row.tag.t != tag.t
            orbit = (w.delta(), tuple(sorted(w.twice_lambdas)))
            assert orbit_tags.setdefault(orbit, row.tag) is row.tag, (k, t)
            assert row.to_json_dict()["case"] == tag.describe()
            assert (row.dim_system, row.dim_closed, row.dim_summary,
                    row.dim_oracle, row.stable) == \
                (dim_h2_via_system(w).dim, dim_h2_closed_form(tag, n),
                 dim_h2_summary_table(tag, n), oracle.dim, oracle.stable), (k, t)
    assert reordered  # some row's own t is not its representative's


def test_the_result_json_formats_the_case_of_its_tag():
    for w, _, _ in sweep_configurations(2, 3):
        for result in (dim_h2_via_system(w), brute_force_h2(w)):
            assert result.tag == classify(w)
            assert result.to_json_dict()["case"] == classify(w).describe()


def test_tags_results_and_rows_refuse_assignment():
    w = weights_for_tvector(2, 2, (1, 1))
    row = evaluate_row(w, 2, (1, 1), ALL_METHODS, "on")
    for obj, field in ((row.tag, "k"), (dim_h2_via_system(w), "dim"),
                       (brute_force_h2(w), "stable"), (row, "dim_system")):
        for name in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)


def test_a_row_calls_each_entry_point_once_per_requested_method(monkeypatch):
    # classify, the box rank, both predictors and the oracle are what a row
    # runs.  A row classifies nothing itself: on an emptied record the
    # record classifies each orbit's representative once, ranks its box once
    # when it is singular and runs both predictors once, whether the row
    # asked for them or not, and the oracle once only when the row asks for it
    configs = sweep_configurations(2, 3)
    orbits = {(w.delta(), tuple(sorted(w.twice_lambdas))) for w, _, _ in configs}
    singular = {(w.delta(), tuple(sorted(w.twice_lambdas))) for w, _, _ in configs
                if classify(w).kind is CaseKind.SINGULAR}
    assert (len(configs), len(orbits), len(singular)) == (18, 14, 10)
    calls = {}
    for module, name in ((sweep, "classify"), (reduced, "classify"),
                         (reduced, "_box_deficiency"), (reduced, "dim_h2_closed_form"),
                         (reduced, "dim_h2_summary_table"), (reduced, "brute_force_h2")):
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    for methods in (ALL_METHODS, ("system",), ("system", "summary", "oracle")):
        for policy in ("on", "off"):
            empty_caches()
            calls.clear()
            rows = [evaluate_row(w, k, t, methods, policy) for w, k, t in configs]
            wanted = sum(sweep._oracle_wanted(policy, 2, k) for _, k, _ in configs)
            expected = {"classify": len(orbits),
                        "_box_deficiency": len(singular),
                        "dim_h2_closed_form": len(orbits),
                        "dim_h2_summary_table": len(orbits)}
            if "oracle" in methods and wanted:
                expected["brute_force_h2"] = len(orbits)
            assert calls == expected, (methods, policy)
            assert wanted == (len(configs) if policy == "on" else 0)
            # a column the row did not ask for is None
            unasked = {"closed", "summary", "oracle"} - set(methods) | \
                ({"oracle"} if not wanted else set())
            for row in rows:
                values = {"closed": row.dim_closed, "summary": row.dim_summary,
                          "oracle": row.dim_oracle}
                assert {values[m] for m in unasked} <= {None}, (methods, policy)
                assert (row.stable is None) == ("oracle" in unasked), (methods, policy)
            # a second pass reads the case and every dimension from the
            # record, and runs nothing
            calls.clear()
            for w, k, t in configs:
                evaluate_row(w, k, t, methods, policy)
            assert calls == {}, (methods, policy)


def test_a_perturbed_sweep_changes_only_the_system_column():
    # the perturbed sweep runs first on an emptied record: its ranks stay
    # with its rows, and the unperturbed sweep after it reads none of them
    empty_caches()
    perturbed = run_sweep(2, 4, ALL_METHODS, "on", perturb=True)
    plain = run_sweep(2, 4, ALL_METHODS, "on")
    assert [row.dim_system for row in plain] == \
        [dim_h2_via_system(row.weights).dim for row in plain]
    assert [row[:4] + row[5:] for row in perturbed] == [row[:4] + row[5:] for row in plain]
    assert any(p.dim_system != q.dim_system for p, q in zip(perturbed, plain))
