import copy
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2cohom import linalg
from sl2cohom.linalg import (
    Factorization,
    RationalMatrix,
    column_space_echelon,
    kernel_basis,
    rank,
    solve,
    sparse_rank,
)
from support import dense, dense_kernel, system_of

entries = st.fractions(min_value=-8, max_value=8, max_denominator=4)
# about half zeros, so rank deficiency and infeasible systems are common
sparse_entries = st.one_of(st.just(Fraction(0)), entries)


def matrices(max_dim=5, cells=entries):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(st.lists(cells, min_size=c, max_size=c),
                               min_size=r, max_size=r).map(RationalMatrix)))


def leibniz_det(square):
    """Determinant as the signed sum over permutations (Leibniz formula)."""
    n = len(square)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = Fraction(-1) if inversions % 2 else Fraction(1)
        for i, j in enumerate(perm):
            term *= square[i][j]
        total += term
    return total


def reference_rank(rows, ncols):
    """Size of the largest nonzero minor; independent of the elimination engine."""
    for size in range(min(len(rows), ncols), 0, -1):
        for rs in combinations(range(len(rows)), size):
            for cs in combinations(range(ncols), size):
                if leibniz_det([[rows[i][j] for j in cs] for i in rs]):
                    return size
    return 0


def leading_columns(m, j):
    return [row[:j] for row in m.entries]


def sparse(m):
    """The rows of a dense matrix as sparse vectors of their nonzero entries."""
    return [{j: v for j, v in enumerate(row) if v} for row in m.entries]


def kernel(rows, cols):
    return dense_kernel(Factorization(rows, cols))


def column_leads(rows, cols):
    return column_space_echelon(Factorization(rows, cols))


def int_when_integral(values):
    return all(type(v) is (int if Fraction(v).denominator == 1 else Fraction) for v in values)


def identity(n):
    return RationalMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def test_rank_examples():
    assert rank(RationalMatrix([[0] * 4 for _ in range(3)])) == 0
    assert rank(identity(4)) == 4
    assert rank(RationalMatrix([[0, 0]])) == 0
    assert rank(RationalMatrix([[1, 2], [2, 4]])) == 1
    assert rank(RationalMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])) == 2


def test_kernel_examples():
    assert kernel(sparse(identity(3)), 3) == []
    vecs = kernel([{}], 2)
    assert len(vecs) == 2
    m = RationalMatrix([[1, 2, 3], [0, 1, 1]])
    for v in kernel(sparse(m), m.cols):
        assert m.mat_vec(v) == [0, 0]


def test_kernel_basis_is_read_off_the_reduced_echelon_form():
    # third row = first + second; pivots in columns 0 and 2
    m = RationalMatrix([[2, 4, 0, -1, 3], [0, 0, 3, 2, -1], [2, 4, 3, 1, 2]])
    F = Fraction
    kern = kernel(sparse(m), m.cols)
    assert kern == [
        [F(-2), F(1), F(0), F(0), F(0)],
        [F(1, 2), F(0), F(-2, 3), F(1), F(0)],
        [F(-3, 2), F(0), F(1, 3), F(0), F(1)],
    ]
    assert all(int_when_integral(vec) for vec in kern)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_equals_transpose_rank(m):
    assert rank(m) == rank(RationalMatrix([list(col) for col in zip(*m.entries)]))


@given(matrices(cells=sparse_entries))
@settings(max_examples=60, deadline=None)
def test_rank_plus_kernel_dim_is_cols(m):
    kern = kernel(sparse(m), m.cols)
    assert rank(m) + len(kern) == m.cols
    for v in kern:
        assert int_when_integral(v)
        assert all(x == 0 for x in m.mat_vec(v))


@given(matrices(), st.integers(0, 4), st.fractions(min_value=-5, max_value=5, max_denominator=3))
@settings(max_examples=60, deadline=None)
def test_rank_invariant_under_row_ops(m, row, c):
    row = row % m.rows
    if c != 0:
        scaled = RationalMatrix([[c * v for v in r] if i == row else r
                                 for i, r in enumerate(m.entries)], cols=m.cols)
        assert rank(scaled) == rank(m)
    # swap two rows
    order = list(range(m.rows))
    order[0], order[row] = order[row], order[0]
    swapped = RationalMatrix([m.entries[i] for i in order], cols=m.cols)
    assert rank(swapped) == rank(m)


@given(matrices(cells=sparse_entries))
@settings(max_examples=60, deadline=None)
def test_sparse_rank_agrees_with_dense(m):
    expected = reference_rank(m.entries, m.cols)
    assert rank(m) == expected
    rows = [{j: v for j, v in enumerate(row) if v} for row in m.entries]
    assert sparse_rank(rows) == expected
    cols = []
    for j in range(m.cols):
        col = {i: m.entries[i][j] for i in range(m.rows) if m.entries[i][j] != 0}
        cols.append(col)
    assert sparse_rank(cols) == expected
    # every leading-column prefix
    for j in range(m.cols + 1):
        assert sparse_rank(cols[:j]) == reference_rank(leading_columns(m, j), j)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_solve_matches_reference_feasibility(data):
    m = data.draw(matrices(cells=sparse_entries))
    cells = st.lists(sparse_entries, min_size=m.cols, max_size=m.cols)
    if data.draw(st.booleans()):
        rhs = m.mat_vec(data.draw(cells))
    else:
        rhs = data.draw(st.lists(st.integers(-3, 3), min_size=m.rows, max_size=m.rows))
    augmented = [row + [Fraction(v)] for row, v in zip(m.entries, rhs)]
    feasible = reference_rank(augmented, m.cols + 1) == reference_rank(m.entries, m.cols)
    x = solve(sparse(m), m.cols, rhs)
    if not feasible:
        assert x is None
        return
    assert x is not None
    assert int_when_integral(x)
    assert m.mat_vec(x) == [Fraction(v) for v in rhs]
    # a column that adds no rank to the ones before it is free, and set to 0
    for j in range(m.cols):
        if reference_rank(leading_columns(m, j + 1), j + 1) == \
                reference_rank(leading_columns(m, j), j):
            assert x[j] == 0


def test_solve_feasible_and_infeasible(monkeypatch):
    rows = [{0: 1}, {}]
    assert solve(rows, 2, [3, 0]) == [Fraction(3), Fraction(0)]
    assert solve(rows, 2, [3, 1]) is None
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve(rows, 2, [3])
    wide = RationalMatrix([[1, 1, 0]])
    x = wide.mat_vec(solve(sparse(wide), wide.cols, [Fraction(5, 2)]))
    assert x == [Fraction(5, 2)]
    # the first row that leads at the appended column decides the answer,
    # so the rows after it are never inserted
    inserted = []
    insert = linalg._insert
    monkeypatch.setattr(linalg, "_insert", lambda v, *args: inserted.append(v) or insert(v, *args))
    assert solve([{0: 1}, {0: 1}, {1: 1}, {1: 2}], 2, [1, 2, 0, 0]) is None
    assert len(inserted) == 2


def test_column_space_membership():
    # columns (1, 0, 1) and (2, 0, 2): row 2 repeats row 0, row 1 is zero
    rows = [{0: 1, 1: 2}, {}, {0: 1, 1: 2}]
    assert column_leads(rows, 2) == [0]
    # a vector lies in the column space exactly when M x = y is solvable
    assert solve(rows, 2, [Fraction(2), 0, Fraction(2)]) is not None
    assert solve(rows, 2, [0, Fraction(1), 0]) is None


def with_columns(vectors, nrows):
    """Sparse rows of the nrows-row matrix whose columns are the vectors."""
    return [{j: vec[i] for j, vec in enumerate(vectors) if i in vec} for i in range(nrows)]


def is_primitive_int_row(row):
    return bool(row) and all(type(c) is int and c for c in row.values()) \
        and gcd(*row.values()) == 1


def test_column_space_echelon_leads_are_distinct():
    rng = random.Random(2)
    vecs = []
    for _ in range(12):
        vecs.append({rng.randint(0, 5): Fraction(rng.randint(-3, 3))
                     for _ in range(3)})
    vecs = [{k: v for k, v in d.items() if v != 0} for d in vecs]
    leads = column_leads(with_columns(vecs, 6), len(vecs))
    assert leads == sorted(set(leads))
    assert len(leads) == sparse_rank(vecs)
    # the pivots of the columns themselves, echelonised by Gauss-Jordan
    assert leads == gauss_jordan(dense(vecs, 6), 6)[1]


@pytest.mark.parametrize("call", [
    lambda: RationalMatrix([[1, 2]]).mat_vec([0.5, 1]),
    # used to return 3602879701896397/36028797018963968
    lambda: solve([{0: 1}], 1, [0.1]),
    # a zero float is as inexact an input as any other
    lambda: solve([{0: 1}], 1, [0.0]),
    lambda: sparse_rank([{0: 1, 1: 0.5}]),
    lambda: column_leads([{0: 0.0}], 1),
], ids=["mat_vec", "solve_rhs", "solve_zero_rhs", "sparse_rank", "column_space_echelon"])
def test_float_is_refused_at_every_arithmetic_entry_point(call):
    with pytest.raises(TypeError, match="float"):
        call()


def _snapshot(rows):
    return [[(i, type(c), c) for i, c in row.items()] for row in rows]


def test_the_engine_never_changes_the_rows_it_is_given():
    # Primitive integer rows without zero entries enter the echelon as they
    # are; rows 0/1 and 2/3 meet with a = 1, the case reduced in place, and
    # the factorization back-substitutes the rows stored at leads 1 and 2.
    rows = [{0: 1, 2: -1}, {0: 1, 1: 3}, {1: 1, 2: 1}, {2: 1, 3: 1}, {1: 2, 3: 0, 4: 6},
            {3: Fraction(1, 2), 4: 1}, {}, {0: 1, 2: -1}]
    system = system_of(3, 3, (Fraction(0), Fraction(-1, 2), Fraction(-1)))
    for matrix, cols in ((rows, 5), (system.equations, len(system.col_index))):
        rhs = [1] + [0] * (len(matrix) - 1)
        transposed = with_columns(matrix, cols)
        calls = (lambda: sparse_rank(matrix),
                 lambda: kernel(matrix, cols),
                 lambda: solve(matrix, cols, rhs),
                 lambda: column_leads(matrix, cols),
                 lambda: column_leads(transposed, len(matrix)))
        before = copy.deepcopy((matrix, transposed))
        for call in calls:
            call()
            assert _snapshot(matrix) == _snapshot(before[0])
            assert _snapshot(transposed) == _snapshot(before[1])
    with pytest.raises(TypeError, match="float"):
        sparse_rank([{0: 1, 1: 1.0}])


def gauss_jordan(rows, ncols):
    """Textbook Gauss-Jordan on dense Fraction rows: (reduced rows, pivot columns)."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def reference_factorization(rows):
    """(leads, reduced) of a forward pass that inserts the rows one at a
    time, then a back-substitution that clears each row at the other
    leads and divides every row by its content, touched or not."""
    echelon = {}
    leads = []
    for vec in rows:
        v = linalg._intake(vec)
        leads.append(linalg._insert(v, v is not vec, echelon))
    for lead in sorted(echelon, reverse=True):
        row = dict(echelon[lead])
        for pivot in [i for i in row if i != lead and i in echelon]:
            row = linalg._eliminate(row, pivot, echelon[pivot])
        g = gcd(*row.values())
        echelon[lead] = {i: c // g for i, c in row.items()}
    return leads, echelon


def _typed_rows(echelon):
    return [(lead, [(i, type(c), c) for i, c in row.items()]) for lead, row in echelon.items()]


# mixed denominators; about a third zeros so zero vectors and deficiency are common
mixed_entries = st.one_of(
    st.just(0), st.just(0),
    st.sampled_from([Fraction(1, 3), Fraction(-5, 2), Fraction(7, 4), 2, -1, 3]),
    st.fractions(min_value=-6, max_value=6, max_denominator=6))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_engine_agrees_with_textbook_gauss_jordan(data):
    ncols = data.draw(st.integers(1, 6))
    vectors = data.draw(st.lists(
        st.dictionaries(st.integers(0, ncols - 1), mixed_entries, max_size=ncols)
        .map(lambda d: {i: v for i, v in d.items() if v}),
        max_size=7))
    m = RationalMatrix(dense(vectors, ncols), cols=ncols)
    reduced, pivots = gauss_jordan(m.entries, ncols)

    assert rank(m) == sparse_rank(vectors) == len(pivots)
    cuts = data.draw(st.lists(st.integers(0, len(vectors)), max_size=6))
    assert [sparse_rank(vectors[:cut]) for cut in cuts] == [
        len(gauss_jordan(dense(vectors[:cut], ncols), ncols)[1]) for cut in cuts]
    assert column_leads(with_columns(vectors, ncols), len(vectors)) == pivots

    # One factorization of the vectors serves the column complement and the
    # kernel; each solve below reduces the vectors with its rhs appended.
    factorization = Factorization(vectors, ncols)
    assert all(is_primitive_int_row(row) for row in factorization.reduced.values())
    # the back-substitution divides only the rows it changed by their
    # content, and stores what dividing every row would
    leads, echelon = reference_factorization(vectors)
    assert factorization.leads == leads
    assert _typed_rows(factorization.reduced) == _typed_rows(echelon)
    # each row enters as the one positive multiple of it that is a
    # primitive integer vector
    for vec in vectors:
        v = linalg._intake(vec)
        assert v.keys() == vec.keys()
        if vec:
            assert is_primitive_int_row(v)
            i = next(iter(vec))
            assert all(Fraction(c) / vec[j] == Fraction(v[i]) / vec[i] > 0
                       for j, c in v.items())
    leads = column_space_echelon(factorization)
    assert leads == gauss_jordan(dense(with_columns(vectors, ncols), len(vectors)),
                                 len(vectors))[1]
    # the complement: the vectors that add no rank to the ones before them
    prefix_ranks = [len(gauss_jordan(dense(vectors[:cut], ncols), ncols)[1])
                    for cut in range(len(vectors) + 1)]
    assert [i for i in range(len(vectors)) if i not in leads] == \
        [i for i in range(len(vectors)) if prefix_ranks[i + 1] == prefix_ranks[i]]

    expected_kernel = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, lead in zip(reduced, pivots):
            vec[lead] = -row[free]
        expected_kernel.append(vec)
    kern = kernel_basis(factorization)
    # sparse, with no zero entry, in ascending free-column order
    assert all(all(vec.values()) for vec in kern)
    assert dense(kern, ncols) == expected_kernel
    assert all(int_when_integral(vec.values()) for vec in kern)

    # some right-hand sides in the column space, so feasible solves are common
    rhss = data.draw(st.lists(st.one_of(
        st.lists(mixed_entries, min_size=m.rows, max_size=m.rows),
        st.lists(mixed_entries, min_size=ncols, max_size=ncols).map(m.mat_vec)),
        min_size=1, max_size=4))
    for rhs in rhss:
        augmented = [row + [Fraction(v)] for row, v in zip(m.entries, rhs)]
        reduced, pivots = gauss_jordan(augmented, ncols + 1)
        x = solve(vectors, ncols, rhs)
        if ncols in pivots:
            assert x is None
        else:
            expected = [Fraction(0)] * ncols
            for row, lead in zip(reduced, pivots):
                expected[lead] = row[ncols]
            assert x == expected
            assert int_when_integral(x)


def test_float_entries_are_refused():
    with pytest.raises(TypeError, match="float"):
        RationalMatrix([[1, 0.5], [0, 1]])
    assert RationalMatrix([[1, "1/2"]]).entries[0][1] == Fraction(1, 2)


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [1]])
