import fractions
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2cohom import linalg, reduced
from sl2cohom.cecomplex import coboundary
from sl2cohom.closedform import CaseKind, classify
from sl2cohom.linalg import RationalMatrix
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
    solve_coboundary,
)
from sl2cohom.sweep import nonresonant_weights, sweep_configurations, weights_for_tvector
from sl2cohom.weights import GENERATORS, Weights
from support import dense_kernel, empty_caches, factorize, system_of

X1, XX, XX2 = GENERATORS


def rand_family(rng, n, max_level=3, max_deg=2, count=3):
    """Coefficients p/q with q in {1, 2, 3}, so the lowering kernel clears
    denominators as well as summing integers.  A zero polynomial is not
    kept: no cochain family holds one."""
    fam = {}
    for _ in range(count):
        alpha = tuple(rng.randint(0, max_level) for _ in range(n))
        if poly := Polynomial([Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                               for _ in range(max_deg + 1)]):
            fam[alpha] = poly
    return fam


def rand_one_cochain(rng, w, **kw):
    return ReducedOneCochain(w, rand_family(rng, w.n, **kw),
                             rand_family(rng, w.n, **kw),
                             rand_family(rng, w.n, **kw))


def rand_two_cochain(rng, w, **kw):
    return ReducedTwoCochain(w, rand_family(rng, w.n, **kw),
                             rand_family(rng, w.n, **kw),
                             rand_family(rng, w.n, **kw))


def system_rank_data(w):
    """(k, rank, ell) of the constraint system for a natural shift, None
    otherwise: ell read off dim_h2_via_system = base + 3 ell, and the rank
    the N_(k-1) rows less ell."""
    k = w.natural_delta()
    if k is None:
        return None
    ell, rest = divmod(dim_h2_via_system(w).dim - multiset_coeff(w.n - 1, k), 3)
    assert rest == 0, w
    return (k, multiset_coeff(w.n, k - 1) - ell, ell)


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
    system = build_system(w)
    for vec in dense_kernel(factorize(system)):
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


# -- the lowering kernel ------------------------------------------------


def _rationals(denominators):
    return st.builds(Fraction, st.integers(-6, 6), st.sampled_from(denominators))


@st.composite
def lowering_cases(draw):
    """Weights with 2 lambda_i of denominator 1, 2 or 3, and a family whose
    indices lie on several levels and whose nonzero polynomials have degree
    0 to 3 and ``int`` or ``Fraction`` coefficients.  Half the time one
    index b + e_j is set to cancel another, b + e_i, at their common target
    b, so that a target can sum to zero."""
    n = draw(st.integers(1, 4))
    lambdas = draw(st.lists(_rationals((1, 2, 3)), min_size=n, max_size=n))
    coeffs = st.one_of(st.integers(-4, 4), _rationals((2, 3)))
    polys = st.lists(coeffs, min_size=1, max_size=4).map(Polynomial).filter(bool)
    family = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), polys, max_size=6))
    if n > 1 and family and draw(st.booleans()):
        beta = draw(st.sampled_from(sorted(family)))
        i, j = draw(st.permutations(range(n)))[:2]
        b = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
        f_i, f_j = ((b[s] + 1) * (b[s] + 2 * lambdas[s]) for s in (i, j))
        if beta[i] and f_i and f_j:
            family[b[:j] + (b[j] + 1,) + b[j + 1:]] = family[beta].scale(-f_i / f_j)
    return Weights(tuple(lambdas), Fraction(0)), family


@given(lowering_cases())
@settings(max_examples=150, deadline=None)
def test_lower_is_the_lowering_formula(case):
    # Lambda(F)_a = 1/2 sum_i (a_i + 1)(a_i + 2 lambda_i) F_(a + e_i), summed
    # in Fraction here, one coefficient at a time
    w, family = case
    sums = {}
    for beta, poly in family.items():
        for i, b_i in enumerate(beta):
            if b_i:
                a = beta[:i] + (b_i - 1,) + beta[i + 1:]
                factor = Fraction((a[i] + 1) * (a[i] + 2 * w.lambdas[i]), 2)
                acc = sums.setdefault(a, [])
                acc += [Fraction(0)] * (len(poly.coeffs) - len(acc))
                for j, c in enumerate(poly.coeffs):
                    acc[j] += factor * c
    expected = {}
    for a, acc in sums.items():
        while acc and acc[-1] == 0:
            acc.pop()
        if acc:
            expected[a] = tuple(acc)
    lowered = reduced._lower(w, family)
    assert all(lowered.values())
    assert {a: p.coeffs for a, p in lowered.items()} == expected


def test_an_int_top_family_creates_no_fraction(monkeypatch):
    # the top family of t = (0, 0, 2) at k = 4 has int coefficients and a
    # vanishing lowering, so every sum in _lower is 0 and nothing is divided
    w = weights_for_tvector(3, 4, (0, 0, 2))
    tops = [f for f in cocycle_basis(w) if f.A]
    assert len(tops) == 5
    assert all(type(c) is int for f in tops for p in f.A.values() for c in p.coeffs)
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counted)
    for f in tops:
        assert cocycle_residual(f) == {}
        assert solve_coboundary(f) is not None
    monkeypatch.undo()
    assert made == []


def test_a_fraction_top_family_does_no_fraction_arithmetic(monkeypatch):
    # the top family of t = (1, 2, 3) at k = 4 holds kernel entries such as
    # 4/3 and -1/3; each is kept as held through Int, d/dx and the witness
    # check, and _lower reads it by numerator and denominator only
    w = weights_for_tvector(3, 4, (1, 2, 3))
    tops = [f for f in cocycle_basis(w) if f.A]
    assert len(tops) == 6
    assert any(type(c) is Fraction for f in tops for p in f.A.values() for c in p.coeffs)
    calls = []
    for name in ("__mul__", "__rmul__", "__eq__"):
        def counted(self, other, _name=name, _method=getattr(Fraction, name)):
            calls.append(_name)
            return _method(self, other)
        monkeypatch.setattr(fractions.Fraction, name, counted)
    for f in tops:
        assert cocycle_residual(f) == {}
        assert solve_coboundary(f) is not None
    monkeypatch.undo()
    assert calls == []


def _assert_compares_by_families(cochain):
    """A copy on fresh dicts equals the cochain; one with a polynomial doubled does not."""
    cls, families = type(cochain), cochain[1:]
    copy = cls(cochain.weights, *map(dict, families))
    assert copy == cochain
    assert all(a is not b for a, b in zip(copy[1:], families))
    i = next(i for i, family in enumerate(families) if family)
    alpha, p = next(iter(families[i].items()))
    changed = [dict(family) for family in families]
    changed[i][alpha] = p.scale(2)
    assert cls(cochain.weights, *changed) != cochain


def test_cochains_compare_by_families_and_refuse_assignment():
    w = weights_for_tvector(3, 3, (0, 1, 1))
    witnesses = 0
    for f in cocycle_basis(w):
        _assert_compares_by_families(f)
        b = solve_coboundary(f)
        if b is not None:
            _assert_compares_by_families(b)
            witnesses += 1
            with pytest.raises(AttributeError):
                b.U = {}
        with pytest.raises(AttributeError):
            f.A = {}
    assert witnesses > 0


# -- reduced coboundary vs the generic complex -------------------------


def test_coboundary_reduced_of_zero():
    w = Weights((Fraction(0),), Fraction(1))
    assert coboundary_reduced(ReducedOneCochain(w, {}, {}, {})) == ReducedTwoCochain(w, {}, {}, {})


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
        if b:
            b_fam[alpha] = b
        if c:
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
    s1 = system_of(1, 1, (Fraction(1, 2),))
    assert s1.matrix.entries == [[Fraction(1)]]
    s2 = system_of(2, 1, (Fraction(0), Fraction(0)))
    assert s2.matrix.entries == [[Fraction(0), Fraction(0)]]
    s0 = system_of(3, 0, (Fraction(1), Fraction(1), Fraction(1)))
    assert s0.matrix.rows == 0 and full_rank(s0) == 0
    assert s0.matrix.cols == 1  # single weight-0 unknown


def test_build_system_shape_and_entries():
    lambdas = (Fraction(1), Fraction(1), Fraction(1))
    system = system_of(3, 2, lambdas)
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
    system = system_of(2, 2, (Fraction(-1, 2), Fraction(0)))
    for equation, dense_row in zip(system.equations, system.matrix.entries):
        assert equation == {j: v for j, v in enumerate(dense_row) if v}
        assert all(type(v) is int for v in equation.values())
    assert system_of(1, 2, (Fraction(1, 3),)).equations == ({0: Fraction(10, 3)},)
    # a float is refused where the weights are built, before any system
    with pytest.raises(TypeError, match="float"):
        Weights((0.1,), Fraction(21, 10))


def test_build_system_is_keyed_by_the_shift_and_the_doubled_weights():
    # the rows depend on the weights only through (k, twice_lambdas), which
    # is int-first: equal weights given as Fractions, ints or strings build
    # equal rows, each call a fresh system of its own
    w = Weights((Fraction(-1, 2), Fraction(0)), Fraction(3, 2))
    assert w.twice_lambdas == (-1, 0) and all(type(v) is int for v in w.twice_lambdas)
    same = build_system(Weights(("-1/2", 0), "3/2"))
    assert same is not build_system(w) and same.equations == build_system(w).equations
    assert [{j: type(v) for j, v in eq.items()} for eq in same.equations] == \
        [{j: type(v) for j, v in eq.items()} for eq in build_system(w).equations]
    assert build_system(Weights(w.lambdas, w.mu + 1)).col_index != build_system(w).col_index
    # only a natural shift has a system
    for mu in (w.mu + Fraction(1, 2), w.mu - 3):
        with pytest.raises(ValueError, match="natural shift"):
            build_system(Weights(w.lambdas, mu))


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
        system = system_of(n, k, lambdas)
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
    assert sum(1 for eq in system_of(n, k, lambda_sets[1]).equations for _ in eq) < \
        sum(1 for eq in system_of(n, k, lambda_sets[0]).equations for _ in eq)


def test_kernel_dimension_identity():
    system = system_of(2, 2, (Fraction(-1, 2), Fraction(0)))
    rho = full_rank(system)
    kern = dense_kernel(factorize(system))
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
    assert system_rank_data(w) == (1, 0, 1)


def test_dim_via_system_nonresonant():
    w = Weights((Fraction(1), Fraction(1), Fraction(1)), Fraction(5))
    assert dim_h2_via_system(w).dim == 3
    assert system_rank_data(w) == (2, 3, 0)


def test_dim_via_system_degenerate_k0():
    w = Weights((Fraction(1), Fraction(1)), Fraction(2))
    assert w.delta() == 0
    assert dim_h2_via_system(w).dim == 1


def test_nonresonant_systems_have_maximal_rank():
    for n in (1, 2, 3):
        for k in range(6):
            lambdas = (Fraction(1),) * n
            system = system_of(n, k, lambdas)
            assert full_rank(system) == multiset_coeff(n, k - 1)


def _assert_the_system_rank_is_the_full_rank(w):
    k = w.natural_delta()
    system = build_system(w)
    rho = full_rank(system)
    assert system_rank_data(w) == (k, rho, len(system.row_index) - rho), w


def test_the_system_rank_equals_the_full_echelon_on_sweep_rows():
    # dim_h2_via_system echelonises only the box a <= t; the reference
    # ranks every row
    count = 0
    for n, k_max in ((1, 9), (2, 8), (3, 6), (4, 5), (5, 4), (6, 3)):
        for w, _, _ in sweep_configurations(n, k_max):
            _assert_the_system_rank_is_the_full_rank(w)
            count += 1
    assert count == 55 + 213 + 448 + 985 + 1305 + 798


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


def test_the_system_rank_equals_the_full_echelon_on_seeded_lambdas():
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
        _assert_the_system_rank_is_the_full_rank(w)
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
            assert system_rank_data(w)[2] == max(0, h[k - 1] - h[k]), (n, k, t)
            count += 1
    assert count == 45 + 204 + 441 + 979


def _clebsch_gordan(t):
    """{d: multiplicity of V_d in V_(t_1) (x) ... (x) V_(t_n)}, one slot at a
    time by V_a (x) V_b = V_(a+b) + V_(a+b-2) + ... + V_|a-b|."""
    mult = {0: 1}
    for t_i in t:
        product = {}
        for d, m in mult.items():
            for e in range(abs(d - t_i), d + t_i + 1, 2):
                product[e] = product.get(e, 0) + m
        mult = product
    return mult


def test_the_exact_count_is_the_box_deficiency_and_a_clebsch_gordan_multiplicity():
    # every sorted t of each grid: ell_count against the echelon of the
    # box and against the multiplicity of V_(2k-2-T), 0 when 2k - 2 < T
    assert _clebsch_gordan((1, 1)) == {0: 1, 2: 1}
    orbits = 0
    for n, k_max in ((1, 12), (2, 11), (3, 8), (4, 6), (5, 5)):
        for k in range(1, k_max + 1):
            for t in itertools.combinations_with_replacement(range(k), n):
                ell = reduced.ell_count(weights_for_tvector(n, k, t))
                assert ell == reduced._box_deficiency(k, t), (k, t)
                assert ell == _clebsch_gordan(t).get(2 * k - 2 - sum(t), 0), (k, t)
                orbits += 1
    assert orbits == 78 + 286 + 330 + 252 + 210


def test_the_exact_count_is_zero_off_the_singular_case():
    # a free slot, a fractional or negative shift, or k = 0: no box, ell = 0
    rng = random.Random(3801)
    kinds = set()
    for _ in range(300):
        n, k = rng.randint(1, 4), rng.randint(0, 6)
        lambdas = tuple(_seeded_lambda(rng, k) for _ in range(n))
        for shift in (k, k + Fraction(1, 2), -k - 1):
            w = Weights(lambdas, shift + sum(lambdas))
            kinds.add(kind := classify(w).kind)
            if kind is CaseKind.SINGULAR:
                continue
            assert reduced.ell_count(w) == 0, w
            assert system_rank_data(w) in (None, (k, multiset_coeff(n, k - 1), 0)), w
    assert kinds == set(CaseKind)


# -- the box memo, one echelon per slot-permutation orbit ----------------


def test_the_box_is_ranked_once_per_orbit(monkeypatch):
    empty_caches()
    calls = []
    real = linalg.sparse_rank
    monkeypatch.setattr(linalg, "sparse_rank", lambda vectors: calls.append(1) or real(vectors))
    configs = sweep_configurations(4, 5)
    tags = [classify(w) for w, _, _ in configs]
    orbits = {(tag.k, tuple(sorted(tag.t))) for tag in tags if tag.kind is CaseKind.SINGULAR}
    assert len(orbits) == 126  # C(k + 3, 4) multisets t per k, summed over k <= 5
    for w, _, _ in configs:
        system_rank_data(w)
    assert len(calls) == 126
    for w, _, _ in configs:
        system_rank_data(w)
    assert len(calls) == 126  # the second pass ranks nothing


def test_a_warm_memo_equals_a_cold_one():
    configs = sweep_configurations(3, 6)
    random.Random(18).shuffle(configs)
    cold = []
    for w, _, _ in configs:
        empty_caches()
        cold.append(system_rank_data(w))
    empty_caches()
    assert [system_rank_data(w) for w, _, _ in configs] == cold
    # 441 singular rows in sum_(k <= 6) C(k + 2, 3) = 126 orbits
    assert reduced._box_deficiency.cache_info().hits == 441 - 126


def test_memo_keys_separate_the_shift_and_the_arity():
    # each pair shares its sorted t up to k, or its entries up to their
    # multiplicity; every row must read its own orbit's deficiency
    empty_caches()
    pairs = (((2, 2, (0, 1)), (2, 3, (1, 0))),       # ell 1 at k = 2, 0 at k = 3
             ((2, 3, (0, 1)), (2, 2, (1, 0))),
             ((2, 3, (1, 1)), (1, 3, (1,))),         # ell 1 and 0: one set {1}
             # a slot with t_i = 0 pins a_i = 0 in the box, so these two
             # share ell = 1, but not the key
             ((2, 2, (0, 1)), (3, 2, (0, 0, 1))),
             ((3, 2, (1, 0, 0)), (2, 2, (1, 0))))
    for (n1, k1, t1), (n2, k2, t2) in pairs:
        first, second = weights_for_tvector(n1, k1, t1), weights_for_tvector(n2, k2, t2)
        assert system_rank_data(first) != system_rank_data(second)
        _assert_the_system_rank_is_the_full_rank(first)
        _assert_the_system_rank_is_the_full_rank(second)
    assert reduced._box_deficiency.cache_info().currsize == 5  # one per orbit named


def _frame_box_deficiency(k, t):
    """|B| - rank(B), B the rows a <= t of the whole system of t, all n slots."""
    system = system_of(len(t), k, tuple(Fraction(-v, 2) for v in t))
    box = [eq for alpha, eq in zip(system.row_index, system.equations)
           if all(a <= v for a, v in zip(alpha, t))]
    return len(box) - linalg.sparse_rank(box)


def test_the_box_of_t_ranks_as_the_box_of_its_nonzero_part():
    # a slot with t_i = 0 carries no box entry, so the memo ranks the box of
    # the nonzero t_i; the reference filters the whole system at full arity
    orbits = 0
    for n, k_max in ((1, 7), (2, 7), (3, 7), (4, 7), (5, 4), (6, 4)):
        for k in range(1, k_max + 1):
            for t in itertools.combinations_with_replacement(range(k), n):
                nonzero = tuple(v for v in t if v)
                # with no nonzero slot, the box is the row () at k = 1, with no entry
                part = _frame_box_deficiency(k, nonzero) if nonzero else int(k == 1)
                assert reduced._box_deficiency(k, t) == _frame_box_deficiency(k, t) == part, \
                    (k, t)
                orbits += 1
    assert orbits == 988
    # many zeros at large n: a 3 x 2 box with ell = 1 behind 83 or 198 zeros
    for n in (85, 200):
        assert reduced._box_deficiency(3, (0,) * (n - 2) + (2, 2)) == 1 == \
            _frame_box_deficiency(3, (2, 2))


# -- normal form and gauge reduction ------------------------------------


def family_differences(f, g):
    """The families of f - g, (A, B, C), on their nonzero entries."""
    zero = Polynomial.zero()
    return tuple({a: d for a in fam_f.keys() | fam_g.keys()
                  if (d := fam_f.get(a, zero) - fam_g.get(a, zero))}
                 for fam_f, fam_g in ((f.A, g.A), (f.B, g.B), (f.C, g.C)))


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
            normal_a, normal_b, normal_c = family_differences(f, coboundary_reduced(partial))
            assert all(index_weight(a) == k for a in normal_a)
            assert all(index_weight(a) == k - 1 for a in normal_b)
            assert all(index_weight(a) == k - 1 for a in normal_c)


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


#: Natural shifts where some 2 lambda_i is not an integer, so every
#: lowering in a solve clears a denominator of the pair factors.
FRACTION_PAIR_WEIGHTS = [Weights((Fraction(1, 3), Fraction(2, 3)), Fraction(2)),
                         Weights((Fraction(-1, 2), Fraction(1, 5)), Fraction(27, 10))]


@pytest.mark.parametrize("w", FRACTION_PAIR_WEIGHTS)
def test_solve_coboundary_with_fraction_pair_factors_at_a_natural_shift(w):
    rng = random.Random(44)
    k = w.natural_delta()
    assert k is not None and any(type(v) is Fraction for v in w.twice_lambdas)
    off_level = obstructed = 0
    for _ in range(5):
        # Fraction coefficients, and parts on levels other than k and k - 1;
        # a constant V at level k puts a constant C at level k - 1, which
        # only the solve on the constraint system removes
        b = rand_one_cochain(rng, w, max_level=k + 2)
        top = rng.choice(enumerate_multiindices(w.n, k))
        b = ReducedOneCochain(w, b.U, {**b.V, top: Polynomial([Fraction(rng.randint(1, 3), 2)])},
                              b.W)
        f = coboundary_reduced(b)
        off_level += any(index_weight(a) not in (k, k - 1) for fam in (f.A, f.B, f.C) for a in fam)
        obstructed += any(index_weight(a) == k - 1 and p.coefficient(0) for a, p in f.C.items())
        witness = solve_coboundary(f)
        assert witness is not None
        assert coboundary(witness.to_cochain()) == f.to_cochain()
    assert off_level == 5 and obstructed > 0
    for _ in range(5):
        f_bad = rand_two_cochain(rng, w, max_level=k + 1)
        assert cocycle_residual(f_bad) != {}
        assert solve_coboundary(f_bad) is None


def _record_lowerings(monkeypatch):
    """Wrap ``reduced._lower``; the returned list collects every nonempty family it lowers."""
    lowered = []
    lower = reduced._lower

    def recorded(weights, family):
        if family:
            lowered.append(family)
        return lower(weights, family)

    monkeypatch.setattr(reduced, "_lower", recorded)
    return lowered


def test_a_basis_solve_lowers_only_the_witness_v(monkeypatch):
    lowered = _record_lowerings(monkeypatch)
    seen = {"A": 0, "B": 0, "C": 0}
    for t in itertools.product(range(4), repeat=3):
        for f in cocycle_basis(weights_for_tvector(3, 4, t)):
            seen["A" if f.A else "B" if f.B else "C"] += 1
            lowered.clear()
            witness = solve_coboundary(f)
            # the witness's V in its verification, which settles f; an
            # infeasible obstruction lowers nothing
            expected = [] if witness is None else [witness.V]
            assert list(map(id, lowered)) == [id(fam) for fam in expected if fam]
    assert min(seen.values()) > 0


def test_a_solve_with_off_level_gauges_lowers_the_witness_u_and_v(monkeypatch):
    rng = random.Random(45)
    lowered = _record_lowerings(monkeypatch)
    for w in [Weights((Fraction(0), Fraction(0)), Fraction(1)),
              weights_for_tvector(3, 2, (0, 1, 1))] + FRACTION_PAIR_WEIGHTS:
        k = w.natural_delta()
        for _ in range(4):
            f = coboundary_reduced(rand_one_cochain(rng, w, max_level=k + 2))
            assert any(index_weight(a) != k for a in f.A)
            lowered.clear()
            witness = solve_coboundary(f)
            assert witness is not None and witness.U
            # the witness's U and V in its verification, and f.A never
            assert list(map(id, lowered)) == [id(fam) for fam in (witness.U, witness.V) if fam]


def test_a_basis_solve_recomputes_one_coboundary_its_witness(monkeypatch):
    real = reduced.coboundary_reduced
    calls = []

    def recorded(b):
        calls.append(b)
        return real(b)

    monkeypatch.setattr(reduced, "coboundary_reduced", recorded)
    seen = {"A": 0, "B": 0, "C": 0}
    for w in (weights_for_tvector(3, 2, (0, 1, 1)), weights_for_tvector(2, 3, (1, 1))):
        for f in cocycle_basis(w):
            seen["A" if f.A else "B" if f.B else "C"] += 1
            calls.clear()
            witness = solve_coboundary(f)
            # the verification of the witness, and nothing else; an
            # infeasible obstruction builds no witness to verify
            assert list(map(id, calls)) == ([] if witness is None else [id(witness)])
    assert min(seen.values()) > 0


@pytest.mark.parametrize("w", [Weights((Fraction(0), Fraction(0)), Fraction(1)),
                               FRACTION_PAIR_WEIGHTS[1],
                               Weights((Fraction(1, 3), Fraction(0)), Fraction(1, 2))])
def test_a_non_cocycle_is_refused_after_its_witness_fails(monkeypatch, w):
    rng = random.Random(46)
    lowered = _record_lowerings(monkeypatch)
    after_witness = 0
    for _ in range(6):
        f = rand_two_cochain(rng, w, max_level=3)
        lowered.clear()
        assert solve_coboundary(f) is None
        # an infeasible obstruction returns before any lowering; otherwise
        # the witness's U and V are lowered, then f.A once, last
        if lowered:
            assert [fam is f.A for fam in lowered] == [False] * (len(lowered) - 1) + [True]
            after_witness += len(lowered) > 1
        assert cocycle_residual(f) != {}
    assert after_witness > 0


def test_a_cocycle_whose_witness_fails_raises(monkeypatch):
    w = weights_for_tvector(3, 2, (0, 1, 1))
    cocycles = [coboundary_reduced(rand_one_cochain(random.Random(47), w, max_level=3))]
    cocycles += [f for f in cocycle_basis(w) if solve_coboundary(f) is not None]
    real = reduced.coboundary_reduced

    def perturbed(b):
        # the construction computes no coboundary, so only the verification sees this
        out = real(b)
        b_fam = dict(out.B)
        b_fam[(0, 0, 0)] = b_fam.get((0, 0, 0), Polynomial.zero()) + Polynomial.one()
        return ReducedTwoCochain(w, out.A, b_fam, out.C)

    monkeypatch.setattr(reduced, "coboundary_reduced", perturbed)
    for f in cocycles:
        assert cocycle_residual(f) == {}
        with pytest.raises(AssertionError, match="failed verification"):
            solve_coboundary(f)


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


def test_coboundary_reduced_adds_no_zero_entry():
    """A scaling by zero adds no entry; the constructors check nothing, and
    ``test_outputs_keep_the_cochain_invariant`` checks every producer."""
    w = Weights((Fraction(0), Fraction(0)), Fraction(1))
    one = Polynomial.one()
    # (|a| - delta) U_a vanishes at |a| = delta = 1
    b = ReducedOneCochain(w, {(1, 0): one, (2, 0): one}, {}, {})
    assert coboundary_reduced(b).A == {(2, 0): one}


def assert_cochain_invariant(n, *families):
    """Every key a length-n tuple of nonnegative ints, no value a zero polynomial."""
    for family in families:
        for alpha, poly in family.items():
            assert type(alpha) is tuple and len(alpha) == n, alpha
            assert all(type(a) is int and a >= 0 for a in alpha), alpha
            assert poly, alpha


#: n = 1..4 at the natural shift 2, with int pair factors (singular, so
#: the basis has bottom-family elements) and with Fraction pair factors.
INVARIANT_WEIGHTS = [w for n in (1, 2, 3, 4) for w in (
    weights_for_tvector(n, 2, tuple(i % 2 for i in range(n))),
    Weights((Fraction(1, 3),) * n, Fraction(n, 3) + 2))]


@pytest.mark.parametrize("w", INVARIANT_WEIGHTS, ids=str)
def test_outputs_keep_the_cochain_invariant(w):
    rng = random.Random(49)
    twos = cocycle_basis(w)
    for _ in range(4):
        twos.append(coboundary_reduced(rand_one_cochain(rng, w)))
        twos.append(rand_two_cochain(rng, w))
    witnesses = 0
    for f in twos:
        assert_cochain_invariant(w.n, f.A, f.B, f.C, cocycle_residual(f))
        if (b := solve_coboundary(f)) is not None:
            assert_cochain_invariant(w.n, b.U, b.V, b.W)
            witnesses += 1
    assert witnesses >= 4


def test_the_reduced_rows_stay_sparse_along_the_two_slot_chain():
    # n = 2: row (a1, a2) meets columns (a1 + 1, a2) and (a1, a2 + 1), a
    # bidiagonal chain of 999 rows on 1,000 columns.  Column combinations
    # would fill in along it; the reduced rows keep two entries a row at most.
    for lambdas in ((0, 0), (Fraction(-3, 2), Fraction(-500)), (Fraction(1, 3), Fraction(2, 5))):
        system = system_of(2, 999, lambdas)
        rows, cols = len(system.row_index), len(system.col_index)
        factorization = factorize(system)
        assert rows == 999 and len(factorization.leads) == rows
        assert sum(len(row) for row in factorization.reduced.values()) <= 2 * rows
        # full row rank: every right-hand side is feasible, one with
        # denominators too
        assert len(factorization.reduced) == rows
        rhs = [Fraction(i % 7 - 3, 2) for i in range(rows)]
        x = linalg.solve(system.equations, cols, rhs)
        # each row through mat_vec on its own support: the dense 999 x 1,000
        # matrix would cost seconds a lambda
        for equation, y in zip(system.equations, rhs):
            row = RationalMatrix([list(equation.values())])
            assert row.mat_vec([x[j] for j in equation]) == [y]
        # so the infeasible solve repeats the last row with another value
        repeated = system.equations + system.equations[-1:]
        assert linalg.solve(repeated, cols, rhs + [rhs[-1] + 1]) is None


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
        ell = system_rank_data(w)[2]
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
        assert sum(witness is None for _, witness in pairs) == system_rank_data(w)[2]
    with pytest.raises(AssertionError, match="dense"):
        system_of(2, 1, (Fraction(0), Fraction(0))).matrix


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
    assert bottom == system_rank_data(w)[2]
