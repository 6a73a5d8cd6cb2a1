import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2cohom.linalg import (
    RationalMatrix,
    column_space_echelon,
    kernel_basis,
    rank,
    solve,
    sparse_echelon,
    sparse_in_span,
    sparse_prefix_ranks,
    sparse_rank,
)

entries = st.fractions(min_value=-8, max_value=8, max_denominator=4)


def matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(st.lists(entries, min_size=c, max_size=c),
                               min_size=r, max_size=r).map(RationalMatrix)))


def test_rank_examples():
    assert rank(RationalMatrix.zeros(3, 4)) == 0
    assert rank(RationalMatrix.identity(4)) == 4
    assert rank(RationalMatrix([[0, 0]])) == 0
    assert rank(RationalMatrix([[1, 2], [2, 4]])) == 1
    assert rank(RationalMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])) == 2


def test_kernel_examples():
    assert kernel_basis(RationalMatrix.identity(3)) == []
    vecs = kernel_basis(RationalMatrix([[0, 0]]))
    assert len(vecs) == 2
    m = RationalMatrix([[1, 2, 3], [0, 1, 1]])
    for v in kernel_basis(m):
        assert m.mat_vec(v) == [0, 0]


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_equals_transpose_rank(m):
    assert rank(m) == rank(m.transpose())


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_plus_kernel_dim_is_cols(m):
    kern = kernel_basis(m)
    assert rank(m) + len(kern) == m.cols
    for v in kern:
        assert all(x == 0 for x in m.mat_vec(v))


@given(matrices(), st.integers(0, 4), st.fractions(min_value=-5, max_value=5, max_denominator=3))
@settings(max_examples=60, deadline=None)
def test_rank_invariant_under_row_ops(m, row, c):
    row = row % m.rows
    if c != 0:
        assert rank(m.scale_row(row, c)) == rank(m)
    # swap two rows
    order = list(range(m.rows))
    order[0], order[row] = order[row], order[0]
    swapped = RationalMatrix([m.row(i) for i in order], cols=m.cols)
    assert rank(swapped) == rank(m)


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_sparse_rank_agrees_with_dense(m):
    cols = []
    for j in range(m.cols):
        col = {i: m[i, j] for i in range(m.rows) if m[i, j] != 0}
        cols.append(col)
    assert sparse_rank(cols) == rank(m)
    # every leading-column prefix, cuts given out of order
    cuts = list(range(m.cols, -1, -1))
    leading = [rank(RationalMatrix([row[:j] for row in m.entries], cols=j)) for j in cuts]
    assert sparse_prefix_ranks(cols, cuts) == leading


def test_sparse_prefix_ranks_rejects_negative_cut():
    with pytest.raises(ValueError):
        sparse_prefix_ranks([{0: Fraction(1)}], [1, -1])


def test_solve_feasible_and_infeasible():
    m = RationalMatrix([[1, 0], [0, 0]])
    assert solve(m, [3, 0]) == [Fraction(3), Fraction(0)]
    assert solve(m, [3, 1]) is None
    wide = RationalMatrix([[1, 1, 0]])
    x = wide.mat_vec(solve(wide, [Fraction(5, 2)]))
    assert x == [Fraction(5, 2)]


def test_column_space_membership():
    m = RationalMatrix([[1, 2], [0, 0], [1, 2]])
    ech = column_space_echelon(m)
    assert len(ech) == 1
    assert sparse_in_span({0: Fraction(2), 2: Fraction(2)}, ech)
    assert not sparse_in_span({1: Fraction(1)}, ech)


def test_sparse_echelon_leads_are_distinct():
    rng = random.Random(2)
    vecs = []
    for _ in range(12):
        vecs.append({rng.randint(0, 5): Fraction(rng.randint(-3, 3))
                     for _ in range(3)})
    vecs = [{k: v for k, v in d.items() if v != 0} for d in vecs]
    ech = sparse_echelon(vecs)
    leads = [min(r) for r in ech]
    assert len(set(leads)) == len(leads)
    for r in ech:
        assert r[min(r)] == 1


def test_csv_roundtrip():
    m = RationalMatrix([[Fraction(1, 2), -2], [0, 3]])
    text = m.to_csv(row_labels=["[0]", "[1]"], col_labels=["[0,1]", "[1,0]"])
    assert text.splitlines()[0] == ",[0,1],[1,0]"
    assert RationalMatrix.from_csv(text, labeled=True) == m


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [1]])
