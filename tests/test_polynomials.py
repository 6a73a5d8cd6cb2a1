from fractions import Fraction
from math import perm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl2cohom.polynomials import (
    Polynomial,
    divide,
    format_rational,
    parse_rational,
    scalar,
)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=6)
polys = st.lists(rationals, max_size=6).map(Polynomial)


def lagrange_derivative(p: Polynomial, at: Fraction) -> Fraction:
    """Derivative value recovered purely from point evaluations.

    Interpolates p on deg(p) + 1 rational nodes and differentiates the
    Lagrange form; uses only Polynomial.__call__, so it is independent of
    the power-rule implementation under test.
    """
    d = max(p.degree(), 0)
    nodes = [Fraction(j) for j in range(d + 1)]
    values = [p(x) for x in nodes]
    total = Fraction(0)
    for j, xj in enumerate(nodes):
        # derivative of the j-th Lagrange basis at `at`
        basis_deriv = Fraction(0)
        for m, xm in enumerate(nodes):
            if m == j:
                continue
            term = Fraction(1)
            for l, xl in enumerate(nodes):
                if l in (j, m):
                    continue
                term *= (at - xl) / (xj - xl)
            basis_deriv += term / (xj - xm)
        total += values[j] * basis_deriv
    return total


def test_derivative_examples():
    assert Polynomial.monomial(2).derivative() == Polynomial((0, 2))
    assert Polynomial.zero().derivative() == Polynomial.zero()
    p = Polynomial((3, 0, 0, 5))  # 3 + 5x^3
    dp = p.derivative()
    assert dp == Polynomial((0, 0, 15))
    for point in (Fraction(3), Fraction(-1), Fraction(1, 2)):
        assert dp(point) == lagrange_derivative(p, point)


def test_constant_derivative_is_zero():
    assert Polynomial.constant(Fraction(7, 3)).derivative() == Polynomial.zero()


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError, match="float"):
        Polynomial([0.1])
    with pytest.raises(TypeError, match="float"):
        Polynomial((1, 0.5))
    for call in (lambda: scalar(0.5), lambda: divide(0.5, 2), lambda: divide(1, 2.0),
                 lambda: divide(Fraction(1, 2), 0.5)):
        with pytest.raises(TypeError, match="float"):
            call()
    assert Polynomial(["1/10", 2]).coeffs == (Fraction(1, 10), Fraction(2))


def test_float_scale_is_refused():
    # 0.1 used to become 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="float"):
        Polynomial([1]).scale(0.1)
    with pytest.raises(TypeError, match="float"):
        0.5 * Polynomial([1, 2])
    with pytest.raises(TypeError, match="float"):
        Polynomial([1, 2]) * 0.5
    assert Polynomial([1]).scale(Fraction(1, 10)).coeffs == (Fraction(1, 10),)


def test_trailing_zeros_are_stripped():
    assert Polynomial((1, 0, 0)).coeffs == (Fraction(1),)
    assert Polynomial((0, 0)).is_zero()
    assert Polynomial((0, 1)).degree() == 1


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_sum_rule(p, q):
    assert (p + q).derivative() == p.derivative() + q.derivative()


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_product_rule(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_degree_of_product(p, q):
    if not p.is_zero() and not q.is_zero():
        assert (p * q).degree() == p.degree() + q.degree()


def assert_stored(p, coeffs):
    """p is the public Polynomial(coeffs), holds no trailing zero and refuses
    attribute assignment."""
    assert p == Polynomial(coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0
    with pytest.raises(AttributeError):
        p.coeffs = ()


def assert_types(p, coeffs):
    """p holds coefficients of the types of coeffs, an integral Fraction included."""
    assert [type(c) for c in p.coeffs] == [type(c) for c in coeffs]


# integral Fractions too, as sums of Fraction coefficients leave them
raw_coeffs = st.lists(st.one_of(st.integers(-30, 30), rationals), max_size=6)


@given(raw_coeffs)
@example([])
@example([0, 0])
@example([Fraction(7, 3)])
@example([Fraction(4, 2), 0, Fraction(3, 1), 0])
@example([3, Fraction(0)])
@example([Fraction(1, 2), Fraction(-2, 3), 0, Fraction(0)])
@settings(max_examples=80, deadline=None)
def test_antiderivative_inverts_derivative(cs):
    p = Polynomial._raw(list(cs))
    assert_stored(p, cs)
    assert_types(p, cs[:len(p.coeffs)])
    d = p.derivative()
    products = [i * c for i, c in enumerate(p.coeffs[1:], 1)]
    assert_stored(d, products)
    assert_types(d, products)
    if p.degree() >= 1:
        # a coefficient already held is kept, not recomputed as 1 * c_1
        assert d.coeffs[0] is p.coeffs[1]
    assert p.nth_derivative(1) == d
    assert_types(p.nth_derivative(1), products)
    assert_types(p.nth_derivative(2), [perm(i, 2) * c for i, c in enumerate(p.coeffs[2:], 2)])
    assert p.scale(1) is p
    a = p.antiderivative()
    assert_stored(a, [0] + [Fraction(c) / i for i, c in enumerate(cs, 1)])
    assert all(type(c) is int for c in a.coeffs if Fraction(c).denominator == 1)
    assert a.derivative() == p


def test_json_roundtrip():
    p = Polynomial((Fraction(1, 2), 0, Fraction(-3)))
    assert p.to_json() == ["1/2", "0", "-3"]
    assert Polynomial.zero().to_json() == []


def test_rational_text_format():
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(4, 2)) == "2"
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    with pytest.raises(ValueError):
        parse_rational("1.5x")
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


@given(st.one_of(st.integers(-10**30, 10**30),
                 st.fractions(max_denominator=10**6),
                 st.integers(-50, 50).map(Fraction)))
@example(0)
@example(Fraction(-6, 3))
@example(Fraction(-7, 4))
def test_rational_text_is_the_fraction_text(value):
    # ints, Fractions, negative and integral ones: no conversion changes the text
    assert format_rational(value) == str(Fraction(value))


def test_evaluation_and_str():
    p = Polynomial((1, 2, 1))
    assert p(Fraction(1, 2)) == Fraction(9, 4)
    assert str(Polynomial((0, -1, 0, Fraction(1, 3)))) == "-x + 1/3*x^3"
