import itertools
import random
from fractions import Fraction

import pytest

from sl2cohom.multiindices import enumerate_up_to
from sl2cohom.operators import (
    DiffOperator,
    act_on_operator,
    act_via_conjugation,
)
from sl2cohom.polynomials import Polynomial
from sl2cohom.weights import GENERATORS, Weights, bracket

X1, XX, XX2 = GENERATORS


def w2(l1="0", l2="0", mu="1"):
    return Weights((Fraction(l1), Fraction(l2)), Fraction(mu))


def test_apply_examples():
    w = w2()
    # identity-product operator
    op = DiffOperator.elementary(w, (0, 0))
    f1, f2 = Polynomial((0, 0, 1)), Polynomial((0, 1))
    assert op.apply((f1, f2)) == f1 * f2
    # differentiate the first slot once
    op = DiffOperator.elementary(w, (1, 0))
    assert op.apply((f1, f2)) == Polynomial((0, 0, 2))
    # polynomial coefficient times derivative of the second slot
    op = DiffOperator.elementary(w, (0, 1), Polynomial.x())
    assert op.apply((Polynomial.one(), Polynomial((0, 0, 0, 1)))) == \
        Polynomial((0, 0, 0, 3))


def test_apply_is_multilinear():
    w = w2("1/2", "-1/2", "2")
    op = DiffOperator(w, {(1, 0): Polynomial.x(), (0, 2): Polynomial.one()})
    rng = random.Random(11)
    for _ in range(10):
        f = Polynomial([rng.randint(-3, 3) for _ in range(4)])
        g = Polynomial([rng.randint(-3, 3) for _ in range(4)])
        h = Polynomial([rng.randint(-3, 3) for _ in range(4)])
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        lhs = op.apply((f + g.scale(c), h))
        assert lhs == op.apply((f, h)) + op.apply((g, h)).scale(c)


def test_apply_checks_arity():
    op = DiffOperator.elementary(w2(), (0, 0))
    with pytest.raises(ValueError):
        op.apply((Polynomial.one(),))


def test_elementary_operators_are_xx_eigenvectors():
    w = w2("0", "-1/2", "3")
    delta = w.delta()
    for alpha in [(0, 0), (1, 0), (2, 1)]:
        op = DiffOperator.elementary(w, alpha)
        acted = act_on_operator(XX, op)
        assert acted == op.scale(delta - sum(alpha))


def test_monomial_coefficient_eigenvalue():
    w = w2("1/2", "0", "1")
    delta = w.delta()
    for alpha in [(0, 0), (1, 1)]:
        for m in range(4):
            op = DiffOperator.elementary(w, alpha, Polynomial.monomial(m))
            acted = act_on_operator(XX, op)
            assert acted == op.scale(m + delta - sum(alpha))


def test_constant_coefficient_killed_by_x1():
    w = w2("1/3", "1/5", "7")
    op = DiffOperator.elementary(w, (2, 3), Polynomial.constant(Fraction(5, 2)))
    assert act_on_operator(X1, op).is_zero()


def test_action_on_first_order_unary_operator():
    # field x^2 d/dx on the single-derivative unary operator:
    # 2(delta - 1) x Omega^(1) - 2 lambda Omega^(0)
    for lam, mu in [(Fraction(0), Fraction(1)), (Fraction(-1, 2), Fraction(2)),
                    (Fraction(1, 3), Fraction(0))]:
        w = Weights((lam,), mu)
        delta = w.delta()
        op = DiffOperator.elementary(w, (1,))
        acted = act_on_operator(XX2, op)
        expected = DiffOperator(w, {
            (1,): Polynomial((0, 2 * (delta - 1))),
            (0,): Polynomial.constant(-2 * lam),
        })
        assert acted == expected
        # cross-check against the defining conjugation on monomial densities
        for d in range(7):
            dens = [Polynomial.monomial(d)]
            assert acted.apply(dens) == act_via_conjugation(XX2, op, dens)


def test_no_negative_index_terms():
    w = w2()
    acted = act_on_operator(XX2, DiffOperator.elementary(w, (0, 0), Polynomial.x()))
    assert all(all(a >= 0 for a in alpha) for alpha in acted.terms)


def test_action_consistency_grid():
    """Closed-form action vs the defining conjugation, on a dense grid."""
    rng = random.Random(5)
    for w in [Weights((Fraction(1, 3),), Fraction(2)),
              Weights((Fraction(0), Fraction(-1, 2)), Fraction(1))]:
        n = w.n
        for alpha in enumerate_up_to(n, 4):
            for deg in range(4):
                op = DiffOperator.elementary(w, alpha, Polynomial.monomial(deg))
                for g in GENERATORS:
                    acted = act_on_operator(g, op)
                    for tup in itertools.product(range(0, 7, 2), repeat=n):
                        dens = [Polynomial.monomial(d) for d in tup]
                        assert acted.apply(dens) == act_via_conjugation(g, op, dens)


def test_action_is_a_lie_algebra_homomorphism():
    w = Weights((Fraction(0), Fraction(-1, 2), Fraction(1)), Fraction(2))
    rng = random.Random(9)
    for _ in range(6):
        alpha = tuple(rng.randint(0, 2) for _ in range(3))
        op = DiffOperator.elementary(w, alpha, Polynomial([rng.randint(-2, 2) for _ in range(3)]))
        for g1, g2 in itertools.combinations(GENERATORS, 2):
            lhs = act_on_operator(g1, act_on_operator(g2, op)) - \
                act_on_operator(g2, act_on_operator(g1, op))
            coeff, gen = bracket(g1, g2)
            assert lhs == act_on_operator(gen, op).scale(coeff)


def test_zero_terms_never_stored():
    w = w2()
    op = DiffOperator(w, {(0, 0): Polynomial.zero(), (1, 0): Polynomial.one()})
    assert list(op.terms) == [(1, 0)]
    diff = op - op
    assert diff.is_zero() and not diff.terms


def test_float_scale_is_refused():
    w = Weights((Fraction(0),), Fraction(1))
    op = DiffOperator.elementary(w, (1,), Polynomial([1, 1]))
    with pytest.raises(TypeError, match="float"):
        op.scale(0.1)
    with pytest.raises(TypeError, match="float"):
        0.5 * op
    assert op.scale(Fraction(1, 2)) == DiffOperator.elementary(
        w, (1,), Polynomial([Fraction(1, 2), Fraction(1, 2)]))
