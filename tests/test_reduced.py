import itertools
import random
from fractions import Fraction

import pytest

from sl2cohom import linalg, reduced
from sl2cohom.cecomplex import coboundary
from sl2cohom.closedform import CaseKind, classify
from sl2cohom.multiindices import add_unit, enumerate_multiindices, index_weight, multiset_coeff
from sl2cohom.operators import DiffOperator
from sl2cohom.polynomials import Polynomial
from sl2cohom.reduced import (
    LinearSystem,
    ReducedOneCochain,
    ReducedTwoCochain,
    build_system,
    coboundary_reduced,
    cocycle_basis,
    cocycle_residual,
    dim_h2_via_system,
    rank_data,
    solve_coboundary,
)
from sl2cohom.sweep import nonresonant_weights, sweep_configurations, weights_for_tvector
from sl2cohom.weights import GENERATORS, Weights

X1, XX, XX2 = GENERATORS


def rand_family(rng, n, max_level=3, max_deg=2, count=3):
    """Coefficients p/q with q in {1, 2, 3}, so the lowering kernel clears
    denominators as well as summing integers."""
    fam = {}
    for _ in range(count):
        alpha = tuple(rng.randint(0, max_level) for _ in range(n))
        fam[alpha] = Polynomial([Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                                 for _ in range(max_deg + 1)])
    return fam


def rand_one_cochain(rng, w, **kw):
    return ReducedOneCochain(w, rand_family(rng, w.n, **kw),
                             rand_family(rng, w.n, **kw),
                             rand_family(rng, w.n, **kw))


def rand_two_cochain(rng, w, **kw):
    return ReducedTwoCochain(w, rand_family(rng, w.n, **kw),
                             rand_family(rng, w.n, **kw),
                             rand_family(rng, w.n, **kw))


def full_rank(system):
    """The reference rank: one echelon of every row of the system."""
    return linalg.sparse_rank(list(system.equations))


# -- residuals ---------------------------------------------------------


def test_residual_of_zero():
    w = Weights((Fraction(0), Fraction(0)), Fraction(1))
    assert cocycle_residual(ReducedTwoCochain(w, {}, {}, {})) == {}


def test_residual_of_kernel_family_vanishes():
    # constant top-order family solving the coefficient system
    w = Weights((Fraction(0), Fraction(0)), Fraction(1))
    system = build_system(2, 1, w.lambdas)
    for vec in linalg.kernel_basis(system.factorization):
        fam = {alpha: Polynomial.constant(c)
               for alpha, c in zip(system.col_index, vec) if c != 0}
        assert cocycle_residual(ReducedTwoCochain(w, fam, {}, {})) == {}


def test_residual_single_term_example():
    # top-order family that does not solve the system: residual -1/2 at (0)
    w = Weights((Fraction(1, 2),), Fraction(3, 2))
    assert w.delta() == 1
    f = ReducedTwoCochain(w, {(1,): Polynomial.one()}, {}, {})
    res = cocycle_residual(f)
    assert res == {(0,): Polynomial.constant(Fraction(-1, 2))}


def test_residual_matches_generic_coboundary_on_top_tuple():
    """Twice the residual family equals the full-complex differential of the
    converted cochain, evaluated on (X1, Xx, Xx2)."""
    rng = random.Random(21)
    for w in [Weights((Fraction(0),), Fraction(1)),
              Weights((Fraction(0), Fraction(-1, 2)), Fraction(2)),
              Weights((Fraction(1, 3), Fraction(1)), Fraction(1, 2)),
              # 2 lambda = (2/3, 4/5): two slots with different denominators
              Weights((Fraction(1, 3), Fraction(2, 5)), Fraction(3))]:
        for _ in range(5):
            f = rand_two_cochain(rng, w)
            res = cocycle_residual(f)
            top = coboundary(f.to_cochain()).component((X1, XX, XX2))
            assert top == DiffOperator(w, {a: p.scale(2) for a, p in res.items()})


def test_residual_of_reduced_coboundary_vanishes():
    rng = random.Random(22)
    for w in [Weights((Fraction(0),), Fraction(2)),
              Weights((Fraction(0), Fraction(0)), Fraction(1)),
              Weights((Fraction(1, 5), Fraction(-1, 2)), Fraction(3))]:
        for _ in range(6):
            b = rand_one_cochain(rng, w, max_level=4, max_deg=3)
            assert cocycle_residual(coboundary_reduced(b)) == {}


# -- reduced coboundary vs the generic complex -------------------------


def test_coboundary_reduced_of_zero():
    w = Weights((Fraction(0),), Fraction(1))
    assert coboundary_reduced(ReducedOneCochain(w, {}, {}, {})).is_zero()


def test_coboundary_reduced_agrees_with_generic():
    rng = random.Random(23)
    weights = [Weights((Fraction(0),), Fraction(1)),
               Weights((Fraction(0), Fraction(0)), Fraction(1)),
               Weights((Fraction(-1, 2), Fraction(1, 3)), Fraction(2)),
               Weights((Fraction(1, 3), Fraction(2, 5)), Fraction(3))]
    checked = 0
    for w in weights:
        for _ in range(9):
            b = rand_one_cochain(rng, w)
            assert coboundary_reduced(b).to_cochain() == coboundary(b.to_cochain())
            checked += 1
    assert checked >= 34


def two_cochain_from_cochain(f):
    """Invert ReducedTwoCochain.to_cochain; the conversion is triangular."""
    x = Polynomial.x()
    g12 = f.component((X1, XX))
    g13 = f.component((X1, XX2))
    g23 = f.component((XX, XX2))
    a_fam, b_fam, c_fam = dict(g12.terms), {}, {}
    for alpha in set(g12.terms) | set(g13.terms) | set(g23.terms):
        a = g12.coefficient(alpha)
        b = (g13.coefficient(alpha) - (2 * x) * a).scale(Fraction(1, 2))
        c = (g23.coefficient(alpha) - (x * x) * a - (2 * x) * b).scale(Fraction(1, 2))
        b_fam[alpha] = b
        c_fam[alpha] = c
    return ReducedTwoCochain(f.weights, a_fam, b_fam, c_fam)


def test_reduced_coordinates_roundtrip():
    rng = random.Random(24)
    w = Weights((Fraction(0), Fraction(-1, 2)), Fraction(2))
    for _ in range(5):
        f = rand_two_cochain(rng, w)
        assert two_cochain_from_cochain(f.to_cochain()) == f


def test_nonnatural_shift_makes_every_cocycle_exact():
    """With a non-natural shift, solve_coboundary kills any cocycle using
    only the U and W slots (no V), reproducing the vanishing argument."""
    rng = random.Random(25)
    w = Weights((Fraction(1, 3),), Fraction(0))  # delta = -1/3
    for _ in range(5):
        b0 = rand_one_cochain(rng, w)
        f = coboundary_reduced(b0)
        witness = solve_coboundary(f)
        assert witness is not None
        assert not witness.V
        assert coboundary_reduced(witness) == f


# -- the coefficient system --------------------------------------------


def test_build_system_examples():
    s1 = build_system(1, 1, (Fraction(1, 2),))
    assert s1.matrix.entries == [[Fraction(1)]]
    s2 = build_system(2, 1, (Fraction(0), Fraction(0)))
    assert s2.matrix.entries == [[Fraction(0), Fraction(0)]]
    s0 = build_system(3, 0, (Fraction(1), Fraction(1), Fraction(1)))
    assert s0.matrix.rows == 0 and full_rank(s0) == 0
    assert s0.matrix.cols == 1  # single weight-0 unknown


def test_build_system_shape_and_entries():
    lambdas = (Fraction(1), Fraction(1), Fraction(1))
    system = build_system(3, 2, lambdas)
    assert len(system.row_index) == multiset_coeff(3, 1) == 3
    assert len(system.col_index) == multiset_coeff(3, 2) == 6
    # row for (0,0,1): entries 2, 2, 6 in the columns of (1,0,1), (0,1,1), (0,0,2)
    row = system.matrix.entries[system.row_index.index((0, 0, 1))]
    cols = {c: v for c, v in zip(system.col_index, row) if v != 0}
    assert cols == {(1, 0, 1): 2, (0, 1, 1): 2, (0, 0, 2): 6}
    assert full_rank(system) == 3


def test_build_system_rows_are_sparse_and_exact():
    # the dense matrix is derived from the sparse rows; entries are int
    # when 2 lambda_i is an integer, a Fraction otherwise, never a float
    system = build_system(2, 2, (Fraction(-1, 2), Fraction(0)))
    for equation, dense_row in zip(system.equations, system.matrix.entries):
        assert equation == {j: v for j, v in enumerate(dense_row) if v}
        assert all(type(v) is int for v in equation.values())
    assert build_system(1, 2, (Fraction(1, 3),)).equations == ({0: Fraction(10, 3)},)
    with pytest.raises(TypeError, match="float"):
        build_system(1, 2, (0.1,))


def test_system_frames_carry_no_lambda():
    # lambda sharing (n, k) = (3, 3), evaluated back to back on one cached
    # frame: the first has no zero factor, the resonant ones vanish at
    # a_i = -2 lambda_i, and 1/3, -1/5, 2/7 give Fraction entries
    n, k = 3, 3
    lambda_sets = [
        (Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(-1), Fraction(-1, 2)),
        (Fraction(1, 3), Fraction(-1, 2), Fraction(0)),
        (Fraction(-1, 5), Fraction(2, 7), Fraction(-1)),
    ]
    rows = enumerate_multiindices(n, k - 1)
    cols = enumerate_multiindices(n, k)
    for lambdas in lambda_sets:
        system = build_system(n, k, lambdas)
        assert system.row_index == tuple(rows) and system.col_index == tuple(cols)
        expected = []
        for alpha in rows:
            equation = {}
            for i, a in enumerate(alpha):
                twice = 2 * lambdas[i]
                factor = (a + 1) * (a + (int(twice) if twice.denominator == 1 else twice))
                if factor:
                    equation[cols.index(add_unit(alpha, i))] = factor
            expected.append(equation)
        assert list(system.equations) == expected, lambdas
        # int exactly where 2 lambda_i is an integer
        assert [{j: type(v) for j, v in eq.items()} for eq in system.equations] == \
            [{j: type(v) for j, v in eq.items()} for eq in expected]
    assert sum(1 for eq in build_system(n, k, lambda_sets[1]).equations for _ in eq) < \
        sum(1 for eq in build_system(n, k, lambda_sets[0]).equations for _ in eq)


def test_kernel_dimension_identity():
    system = build_system(2, 2, (Fraction(-1, 2), Fraction(0)))
    rho = full_rank(system)
    kern = linalg.kernel_basis(system.factorization)
    assert len(kern) == system.matrix.cols - rho
    ell = multiset_coeff(2, 1) - rho
    assert len(kern) == multiset_coeff(1, 2) + ell
    for v in kern:
        assert all(x == 0 for x in system.matrix.mat_vec(v))


# -- dimensions ---------------------------------------------------------


def test_dim_via_system_nonnatural_shift():
    w = Weights((Fraction(0),), Fraction(3, 2))
    result = dim_h2_via_system(w)
    assert result.dim == 0 and result.method == "system"


def test_dim_via_system_singular_benchmark():
    w = Weights((Fraction(0), Fraction(0)), Fraction(1))
    assert dim_h2_via_system(w).dim == 4
    assert rank_data(w) == (1, 0, 1)


def test_dim_via_system_nonresonant():
    w = Weights((Fraction(1), Fraction(1), Fraction(1)), Fraction(5))
    assert dim_h2_via_system(w).dim == 3
    assert rank_data(w) == (2, 3, 0)


def test_dim_via_system_degenerate_k0():
    w = Weights((Fraction(1), Fraction(1)), Fraction(2))
    assert w.delta() == 0
    assert dim_h2_via_system(w).dim == 1


def test_nonresonant_systems_have_maximal_rank():
    for n in (1, 2, 3):
        for k in range(6):
            lambdas = (Fraction(1),) * n
            system = build_system(n, k, lambdas)
            assert full_rank(system) == multiset_coeff(n, k - 1)


def _assert_rank_data_is_the_full_rank(w):
    k = w.natural_delta()
    system = build_system(w.n, k, w.lambdas)
    rho = full_rank(system)
    assert rank_data(w) == (k, rho, len(system.row_index) - rho), w


def test_rank_data_equals_the_full_echelon_on_sweep_rows():
    # rank_data echelonises only the box a <= t; the reference ranks every row
    count = 0
    for n, k_max in ((1, 9), (2, 8), (3, 6), (4, 5)):
        for w, _, _ in sweep_configurations(n, k_max):
            _assert_rank_data_is_the_full_rank(w)
            count += 1
    assert count == 55 + 213 + 448 + 985


def _seeded_lambda(rng, k):
    kind = rng.choice(("box", "half", "third", "positive", "beyond"))
    if kind == "box" and k > 0:  # t_i in {0, ..., k - 1}: a resonant slot
        return Fraction(-rng.randrange(k), 2)
    if kind == "half":
        return Fraction(2 * rng.randint(-k - 2, k + 2) + 1, 2)
    if kind == "third":
        return Fraction(rng.choice((1, 2, 4, 5)) + 3 * rng.randint(-k - 1, 1), 3)
    if kind == "positive":
        return Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return Fraction(-rng.randint(k, 2 * k + 3), 2)  # t_i >= k


def test_rank_data_equals_the_full_echelon_on_seeded_lambdas():
    rng = random.Random(1301)
    kinds = set()
    for _ in range(400):
        n, k = rng.randint(1, 4), rng.randint(0, 6)
        if rng.random() < 0.25 and k > 0:  # every slot resonant: the box is there
            lambdas = tuple(Fraction(-rng.randrange(k), 2) for _ in range(n))
        else:
            lambdas = tuple(_seeded_lambda(rng, k) for _ in range(n))
        w = Weights(lambdas, k + sum(lambdas))
        kinds.add(classify(w).kind)
        _assert_rank_data_is_the_full_rank(w)
    assert kinds == {CaseKind.SINGULAR, CaseKind.NON_RESONANT}


def _hilbert_function(t):
    """Coefficients h_j of prod_i (1 + q + ... + q^(t_i)), the Hilbert
    function of Q[x_1..x_n]/(x_i^(t_i + 1))."""
    h = [1]
    for t_i in t:
        h = [sum(h[max(0, j - t_i):j + 1]) for j in range(len(h) + t_i)]
    return h


def test_ell_is_the_lefschetz_count_on_singular_rows():
    # ell = max(0, h_(k-1) - h_k): multiplication by x_1 + ... + x_n on
    # the box ring has maximal rank (strong Lefschetz property)
    assert _hilbert_function((1, 2)) == [1, 2, 2, 1]
    count = 0
    for n, k_max in ((1, 9), (2, 8), (3, 6), (4, 5)):
        for w, k, t in sweep_configurations(n, k_max):
            if classify(w).kind is not CaseKind.SINGULAR:
                continue
            h = _hilbert_function(t) + [0] * k  # h_j = 0 beyond sum(t)
            assert rank_data(w)[2] == max(0, h[k - 1] - h[k]), (n, k, t)
            count += 1
    assert count == 45 + 204 + 441 + 979


# -- the box memo, one echelon per slot-permutation orbit ----------------


def test_the_box_is_ranked_once_per_orbit(monkeypatch):
    reduced._box_deficiency.cache_clear()
    calls = []
    real = linalg.sparse_rank
    monkeypatch.setattr(linalg, "sparse_rank", lambda vectors: calls.append(1) or real(vectors))
    configs = sweep_configurations(4, 5)
    tags = [classify(w) for w, _, _ in configs]
    orbits = {(tag.k, tuple(sorted(tag.t))) for tag in tags if tag.kind is CaseKind.SINGULAR}
    assert len(orbits) == 126  # C(k + 3, 4) multisets t per k, summed over k <= 5
    for w, _, _ in configs:
        rank_data(w)
    assert len(calls) == 126
    for w, _, _ in configs:
        rank_data(w)
    assert len(calls) == 126  # the second pass ranks nothing


def test_a_warm_memo_equals_a_cold_one():
    configs = sweep_configurations(3, 6)
    random.Random(18).shuffle(configs)
    cold = []
    for w, _, _ in configs:
        reduced._box_deficiency.cache_clear()
        cold.append(rank_data(w))
    reduced._box_deficiency.cache_clear()
    assert [rank_data(w) for w, _, _ in configs] == cold
    # 441 singular rows in sum_(k <= 6) C(k + 2, 3) = 126 orbits
    assert reduced._box_deficiency.cache_info().hits == 441 - 126


def test_memo_keys_separate_the_shift_and_the_arity():
    # each pair shares its sorted t up to k, or its entries up to their
    # multiplicity; every row must read its own orbit's deficiency
    reduced._box_deficiency.cache_clear()
    pairs = (((2, 2, (0, 1)), (2, 3, (1, 0))),       # ell 1 at k = 2, 0 at k = 3
             ((2, 3, (0, 1)), (2, 2, (1, 0))),
             ((2, 3, (1, 1)), (1, 3, (1,))),         # ell 1 and 0: one set {1}
             # a slot with t_i = 0 pins a_i = 0 in the box, so these two
             # share ell = 1, but not the key
             ((2, 2, (0, 1)), (3, 2, (0, 0, 1))),
             ((3, 2, (1, 0, 0)), (2, 2, (1, 0))))
    for (n1, k1, t1), (n2, k2, t2) in pairs:
        first, second = weights_for_tvector(n1, k1, t1), weights_for_tvector(n2, k2, t2)
        assert rank_data(first) != rank_data(second)
        _assert_rank_data_is_the_full_rank(first)
        _assert_rank_data_is_the_full_rank(second)
    assert reduced._box_deficiency.cache_info().currsize == 5  # one per orbit named


# -- normal form and gauge reduction ------------------------------------


def test_normalization_to_critical_levels():
    """Any cocycle is a coboundary away from the two critical levels: after
    subtracting the witness of its off-level part, the top family lives at
    level k and the other two at level k - 1."""
    rng = random.Random(41)
    for w in [Weights((Fraction(0),), Fraction(2)),
              Weights((Fraction(0), Fraction(0)), Fraction(2))]:
        k = w.natural_delta()
        for _ in range(6):
            b = rand_one_cochain(rng, w, max_level=k + 2, max_deg=2)
            f = coboundary_reduced(b)  # a guaranteed cocycle
            witness = solve_coboundary(f)
            assert witness is not None
            # rebuild the normal form subtraction used inside the solver
            u_fam = {a: p.scale(Fraction(1) / (index_weight(a) - k))
                     for a, p in f.A.items() if index_weight(a) != k}
            w_fam = {a: p.scale(Fraction(1) / (k - index_weight(a) - 1))
                     for a, p in f.C.items() if index_weight(a) != k - 1}
            partial = ReducedOneCochain(w, u_fam, {}, w_fam)
            normal = f - coboundary_reduced(partial)
            assert all(index_weight(a) == k for a in normal.A)
            assert all(index_weight(a) == k - 1 for a in normal.B)
            assert all(index_weight(a) == k - 1 for a in normal.C)


def test_solve_coboundary_decides_exactly():
    rng = random.Random(42)
    w = Weights((Fraction(0), Fraction(0)), Fraction(1))
    # positives: every reduced coboundary is recognised with a verified witness
    for _ in range(6):
        b = rand_one_cochain(rng, w, max_level=2, max_deg=2)
        f = coboundary_reduced(b)
        witness = solve_coboundary(f)
        assert witness is not None and coboundary_reduced(witness) == f
    # negative: non-cocycles are never coboundaries (middle family away from
    # the critical level has residual (|a| + 1 - k) * B != 0)
    f_bad = ReducedTwoCochain(w, {}, {(1, 0): Polynomial.x()}, {})
    assert cocycle_residual(f_bad) != {}
    assert solve_coboundary(f_bad) is None


# -- cocycle bases -------------------------------------------------------


def test_cocycle_basis_counts_and_residuals():
    # non-resonant: a single top-order representative
    w = Weights((Fraction(1), Fraction(1)), Fraction(3))
    basis = cocycle_basis(w)
    assert len(basis) == 1 == dim_h2_via_system(w).dim
    assert basis[0].A and not basis[0].B and not basis[0].C
    assert all(index_weight(a) == 1 for a in basis[0].A)

    # singular benchmark: 2 kernel vectors + 1 middle + 1 bottom
    w2 = Weights((Fraction(0), Fraction(0)), Fraction(1))
    basis2 = cocycle_basis(w2)
    assert len(basis2) == 4 == dim_h2_via_system(w2).dim
    assert sum(1 for f in basis2 if f.A) == 2
    assert sum(1 for f in basis2 if f.B) == 1
    assert sum(1 for f in basis2 if f.C) == 1
    for f in basis2:
        assert cocycle_residual(f) == {}


def test_cocycle_basis_pure_top_for_nonresonant_k2():
    w = Weights((Fraction(1), Fraction(1)), Fraction(4))
    basis = cocycle_basis(w)
    assert len(basis) == 1
    f = basis[0]
    assert not f.B and not f.C
    assert all(index_weight(a) == 2 for a in f.A)
    assert all(p.degree() == 0 for p in f.A.values())


def test_cocycle_basis_requires_natural_shift():
    with pytest.raises(ValueError):
        cocycle_basis(Weights((Fraction(0),), Fraction(1, 2)))


def test_public_constructors_check_multi_indices_and_strip_zeros():
    w = Weights((Fraction(0), Fraction(0)), Fraction(1))
    one = Polynomial.one()
    for bad in ((1,), (1, 0, 0), (-1, 2)):
        with pytest.raises(ValueError, match="bad multi-index"):
            ReducedTwoCochain(w, {}, {bad: one}, {})
        with pytest.raises(ValueError, match="bad multi-index"):
            ReducedOneCochain(w, {}, {}, {bad: one})
    f = ReducedTwoCochain(w, {(1, 0): Polynomial.zero(), (0, 1): one}, {(1, 1): one}, {})
    assert f.A == {(0, 1): one} and f.B == {(1, 1): one}
    # the internal constructors skip the check but still strip zeros:
    # (|a| - delta) U_a vanishes at |a| = delta = 1
    b = ReducedOneCochain(w, {(1, 0): one, (2, 0): one}, {}, {})
    assert coboundary_reduced(b).A == {(2, 0): one}
    assert (f - f).is_zero() and (f - f).A == {}


def test_a_basis_and_its_solves_share_one_factorization(monkeypatch):
    made, solves = [], []

    class Counted(linalg.Factorization):
        __slots__ = ()

        def __init__(self, rows, cols):
            made.append(cols)
            super().__init__(rows, cols)

    def counted_solve(factorization, rhs):
        solves.append(factorization)
        return solve(factorization, rhs)

    solve = linalg.solve
    monkeypatch.setattr(linalg, "Factorization", Counted)
    monkeypatch.setattr(linalg, "solve", counted_solve)
    reduced._system.cache_clear()
    weights = [weights_for_tvector(3, 4, t) for t in itertools.product(range(4), repeat=3)]
    weights = [w for w in weights if classify(w).kind is CaseKind.SINGULAR]
    assert len(weights) == 64
    ells = []
    for w in weights:
        before = len(made), len(solves)
        witnesses = [solve_coboundary(f) for f in cocycle_basis(w)]
        ells.append(rank_data(w)[2])
        # one echelon per weights; one solve per bottom-family element, all infeasible
        assert len(made) - before[0] == 1
        assert len(solves) - before[1] == witnesses.count(None) == ells[-1]
        assert all(f is build_system(3, 4, w.lambdas).factorization for f in solves[before[1]:])
    assert sum(ells) > 0


def test_the_row_log_grows_linearly_along_the_two_slot_chain():
    # n = 2: row (a1, a2) meets columns (a1 + 1, a2) and (a1, a2 + 1), a
    # bidiagonal chain of 999 rows on 1,000 columns.  Column combinations
    # would fill in along it; the row log holds one step per row at most.
    for lambdas in ((0, 0), (Fraction(-3, 2), Fraction(-500)), (Fraction(1, 3), Fraction(2, 5))):
        system = build_system(2, 999, lambdas)
        factorization = system.factorization
        rows = len(system.row_index)
        steps = sum(len(record[2]) for record in factorization.inserts) + \
            sum(len(record[1]) for record in factorization.substitutions)
        assert rows == 999 and len(factorization.inserts) == rows
        assert steps <= rows
        assert sum(len(row) for row in factorization.reduced.values()) <= 2 * rows


def test_exactness_split_of_basis_elements():
    """Verified behaviour baked in as a regression: top-family and
    middle-family representatives are exact (explicit witnesses exist);
    bottom-family representatives are not exact, and their count is the
    rank deficiency, matching the brute-force block dimension."""
    from sl2cohom.cecomplex import brute_force_h2

    for w in [Weights((Fraction(0), Fraction(0)), Fraction(1)),
              Weights((Fraction(-1, 2),), Fraction(3, 2)),
              Weights((Fraction(1), Fraction(1)), Fraction(3))]:
        survivors = 0
        for f in cocycle_basis(w):
            witness = solve_coboundary(f)
            if f.A or f.B:
                assert witness is not None
                assert coboundary_reduced(witness) == f
            else:
                assert witness is None
                survivors += 1
        ell = rank_data(w)[2]
        assert survivors == ell
        oracle = brute_force_h2(w)
        assert oracle.stable and oracle.dim == ell


def _certify(w):
    """(representative, witness) for every element of the cocycle basis."""
    return [(f, solve_coboundary(f)) for f in cocycle_basis(w)]


def test_certify_path_never_derives_the_dense_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("the dense constraint matrix was derived")

    monkeypatch.setattr(LinearSystem, "matrix", property(refuse))
    weights = [weights_for_tvector(n, k, t)
               for n, k_max in ((2, 4), (3, 3)) for k in range(1, k_max + 1)
               for t in itertools.product(range(k), repeat=n)]
    weights += [nonresonant_weights(n, k) for n in range(1, 5) for k in range(6)]
    for w in weights:
        pairs = _certify(w)
        assert len(pairs) == dim_h2_via_system(w).dim
        assert sum(witness is None for _, witness in pairs) == rank_data(w)[2]
    with pytest.raises(AssertionError, match="dense"):
        build_system(2, 1, (Fraction(0), Fraction(0))).matrix


@pytest.mark.parametrize("lambdas, mu", [
    ((Fraction(1, 3), Fraction(-1, 3)), Fraction(4)),
    ((Fraction(-1, 2), Fraction(-1), Fraction(1, 3)), Fraction(11, 6)),
    ((Fraction(2, 5), Fraction(-3, 5), Fraction(-1, 2)), Fraction(13, 10)),
    ((Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 3)), Fraction(7, 3)),
])
def test_certify_path_with_fraction_pair_factors(lambdas, mu):
    # 2 lambda_i is not an integer in some slot, so the pair factors
    # (a_i + 1)(a_i + 2 lambda_i) there are Fractions; the shift is natural
    w = Weights(lambdas, mu)
    assert w.natural_delta() is not None
    assert any(type(v) is Fraction for v in w.twice_lambdas)
    bottom = 0
    for f, witness in _certify(w):
        assert cocycle_residual(f) == {}
        if f.A or f.B:
            assert witness is not None
            assert coboundary(witness.to_cochain()) == f.to_cochain()
        else:
            assert witness is None
            bottom += 1
    assert bottom == rank_data(w)[2]
