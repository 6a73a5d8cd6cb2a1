import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2cohom.polynomials import Polynomial, parse_rational
from sl2cohom.weights import (
    GENERATORS,
    Weights,
    bracket,
    lie_derivative_density,
)

X1, XX, XX2 = GENERATORS


def test_bracket_table():
    assert bracket(X1, XX) == (Fraction(1), X1)
    assert bracket(X1, XX2) == (Fraction(2), XX)
    assert bracket(XX, XX2) == (Fraction(1), XX2)
    assert bracket(XX, X1) == (Fraction(-1), X1)
    assert bracket(XX2, X1) == (Fraction(-2), XX)
    assert bracket(XX2, XX) == (Fraction(-1), XX2)
    for g in GENERATORS:
        assert bracket(g, g) is None


def test_brackets_match_vector_field_commutator():
    # [X_f, X_g] = X_{f g' - f' g} on the three basis fields
    for a in GENERATORS:
        for b in GENERATORS:
            h = a.h * b.h.derivative() - a.h.derivative() * b.h
            br = bracket(a, b)
            if br is None:
                assert h.is_zero()
            else:
                coeff, gen = br
                assert h == gen.h.scale(coeff)


def test_lie_derivative_examples():
    for mu in (Fraction(0), Fraction(2), Fraction(-1, 2)):
        # field x d/dx on the density x dx^mu: x + mu*x
        assert lie_derivative_density(XX, Polynomial.x(), mu) == \
            Polynomial((0, 1 + mu))
        # constant density along d/dx
        assert lie_derivative_density(X1, Polynomial.constant(5), mu) == \
            Polynomial.zero()
        # field x^2 d/dx on the density 1 dx^mu
        assert lie_derivative_density(XX2, Polynomial.one(), mu) == \
            Polynomial((0, 2 * mu))


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@given(st.lists(rationals, min_size=1, max_size=5), rationals)
@settings(max_examples=100, deadline=None)
def test_shift_and_twice_lambdas_computed_at_construction(lambdas, mu):
    w = Weights(tuple(lambdas), mu)
    d = mu - sum(lambdas)
    assert type(w.delta()) is (int if d.denominator == 1 else Fraction)
    assert w.delta() == d
    assert w.natural_delta() == (int(d) if d.denominator == 1 and d >= 0 else None)
    assert type(w.natural_delta()) in (int, type(None))
    assert w.twice_lambdas == tuple(2 * v for v in lambdas)
    for v, twice in zip(lambdas, w.twice_lambdas):
        assert type(twice) is (int if (2 * v).denominator == 1 else Fraction)
    # neither value takes part in equality, the hash or the text forms
    assert w == Weights(lambdas=iter(lambdas), mu=mu)
    assert hash(w) == hash((w.lambdas, w.mu))
    assert repr(w) == f"Weights(lambdas={w.lambdas!r}, mu={w.mu!r})"
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.mu = mu


def test_weights_delta_and_t_vector():
    w = Weights((Fraction(0), Fraction(-1, 2)), Fraction(2))
    assert w.delta() == Fraction(5, 2)
    assert w.natural_delta() is None

    w2 = Weights((Fraction(1, 3),), Fraction(0))
    assert w2.delta() == Fraction(-1, 3)

    w3 = Weights((Fraction(1),), Fraction(-2))
    assert w3.delta() == Fraction(-3)
    assert w3.natural_delta() is None  # negative integers are not natural


def test_weights_json_roundtrip():
    w = Weights((Fraction(0), Fraction(-1, 2)), Fraction(1))
    data = w.to_json_dict()
    assert data == {"n": 2, "lambdas": ["0", "-1/2"], "mu": "1"}


def test_weights_requires_an_argument():
    with pytest.raises(ValueError):
        Weights((), Fraction(0))


def test_float_weights_are_refused():
    # 0.1 + 0.2 - 0.3 is not 0 in binary floating point: the shift would be
    # -1/36028797018963968 and natural_delta() None, a different module.
    with pytest.raises(TypeError, match="float"):
        Weights((0.1, 0.2), 0.3)
    with pytest.raises(TypeError, match="float"):
        Weights((Fraction(0),), 1.0)
    # the decimal strings the command line passes stay exact
    w = Weights(tuple(parse_rational(v) for v in ("0.1", "0.2")), parse_rational("0.3"))
    assert w.lambdas == (Fraction(1, 10), Fraction(1, 5))
    assert w.natural_delta() == 0
