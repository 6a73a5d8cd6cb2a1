from fractions import Fraction

from sl2cohom import linalg
from sl2cohom.closedform import CaseKind, classify
from sl2cohom.linalg import RationalMatrix
from sl2cohom.multiindices import multiset_coeff
from sl2cohom.reduced import build_system
from sl2cohom.sweep import (
    CSV_COLUMNS,
    evaluate_row,
    nonresonant_weights,
    rows_to_csv,
    rows_to_json,
    run_sweep,
    sweep_configurations,
    verify_rows,
    weights_for_tvector,
)


def test_weights_for_tvector():
    w = weights_for_tvector(2, 1, (0, 0))
    assert w.lambdas == (Fraction(0), Fraction(0)) and w.mu == 1
    assert w.delta() == 1 and classify(w).t == (0, 0)
    w2 = weights_for_tvector(3, 4, (1, 2, 3))
    assert w2.delta() == 4 and (classify(w2).t, classify(w2).sigma) == ((1, 2, 3), 6)


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
    json_text = rows_to_json(rows)
    assert json_text == rows_to_json(rows)


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
        for w, k, t in sweep_configurations(n, k_max):
            cells = [list(row) for row in build_system(n, k, w.lambdas).matrix.entries]
            if cells:
                cells[0][0] += 1
            n_rows = multiset_coeff(n, k - 1)
            expected = multiset_coeff(n - 1, k) + \
                3 * (n_rows - linalg.rank(RationalMatrix(cells, cols=multiset_coeff(n, k))))
            row = evaluate_row(w, k, t, ("system",), "off", perturb=True)
            assert row.dim_system == expected, (n, k, t)
