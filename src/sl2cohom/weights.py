"""Weighted density modules and the sl(2) generators acting on them.

A density of weight mu is a formal expression f(x) dx^mu with f a
polynomial; the vector field h(x) d/dx acts by the Lie derivative

    h f' + mu h' f.

sl(2) is realised as the span of the three polynomial vector fields with
h = 1, x, x^2.  A tuple of argument weights (lambda_1, ..., lambda_n)
together with a target weight mu pins down the module of n-ary operators
studied by the rest of the package; the shift delta = mu - sum(lambda_i)
controls everything.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional

from .polynomials import (
    ONE,
    Polynomial,
    Scalar,
    X,
    exact,
    format_rational,
)


class SL2Generator(enum.IntEnum):
    """The three basis vector fields, ordered X1 < Xx < Xx2."""

    X1 = 0
    XX = 1
    XX2 = 2

    @property
    def h(self) -> Polynomial:
        return _H_POLYS[self]

    @property
    def weight_contribution(self) -> int:
        """Contribution of this generator, used as a cochain argument, to the
        diagonal eigenvalue of the x d/dx action: +1 for X1, 0 for Xx, -1
        for Xx2."""
        return _WEIGHT_CONTRIB[self]

    def __str__(self) -> str:
        return _NAMES[self]


_H_POLYS = {
    SL2Generator.X1: ONE,
    SL2Generator.XX: X,
    SL2Generator.XX2: Polynomial.monomial(2),
}
_WEIGHT_CONTRIB = {
    SL2Generator.X1: 1,
    SL2Generator.XX: 0,
    SL2Generator.XX2: -1,
}
_NAMES = {
    SL2Generator.X1: "X1",
    SL2Generator.XX: "Xx",
    SL2Generator.XX2: "Xx2",
}

GENERATORS: tuple[SL2Generator, ...] = (
    SL2Generator.X1,
    SL2Generator.XX,
    SL2Generator.XX2,
)

# [X_f, X_g] = X_{f g' - f' g}; on the basis, every bracket is a rational
# multiple of a single basis element.
_BRACKET: dict[tuple[SL2Generator, SL2Generator], tuple[Fraction, SL2Generator]] = {
    (SL2Generator.X1, SL2Generator.XX): (Fraction(1), SL2Generator.X1),
    (SL2Generator.X1, SL2Generator.XX2): (Fraction(2), SL2Generator.XX),
    (SL2Generator.XX, SL2Generator.XX2): (Fraction(1), SL2Generator.XX2),
}


def bracket(a: SL2Generator, b: SL2Generator) -> Optional[tuple[Fraction, SL2Generator]]:
    """The Lie bracket [a, b] as (coefficient, basis generator); None if zero."""
    if a == b:
        return None
    if (a, b) in _BRACKET:
        return _BRACKET[(a, b)]
    coeff, gen = _BRACKET[(b, a)]
    return (-coeff, gen)


def lie_derivative_density(g: SL2Generator, f: Polynomial, mu: Fraction) -> Polynomial:
    """Lie derivative of the density f dx^mu along the generator g."""
    h = g.h
    return h * f.derivative() + mu * (h.derivative() * f)


@dataclass(frozen=True, slots=True, init=False)
class Weights:
    """Argument weights (lambda_1, ..., lambda_n) and target weight mu.

    The shift (an ``int`` when it is integral, else a ``Fraction``) and
    ``twice_lambdas`` (each 2 lambda_i, an ``int`` when it is integral)
    are computed once, at construction.  The constructor stores each field
    through its slot descriptor (the frozen dataclass's ``__setattr__``
    refuses every later assignment) and reads each weight's numerator and
    denominator once: a sweep builds a ``Weights`` per row.  Every weight
    passes through :func:`~sl2cohom.polynomials.exact` here, which refuses
    a float, so code that reads these fields checks no value again: the
    constraint system of ``reduced.build_system`` is cached under
    (k, ``twice_lambdas``), whose entries are in lowest terms and an
    ``int`` wherever they are integral, so equal weights give equal keys.
    """

    lambdas: tuple[Fraction, ...]
    mu: Fraction
    twice_lambdas: tuple[Scalar, ...] = field(repr=False, compare=False)
    _delta: Scalar = field(repr=False, compare=False)

    def __init__(self, lambdas: Iterable[Scalar], mu: Scalar) -> None:
        lambdas = tuple(map(exact, lambdas))
        mu = exact(mu)
        if not lambdas:
            raise ValueError("at least one argument weight is required")
        # delta = num / den, with den the lcm of the denominators so far
        num, den = mu.as_integer_ratio()
        twice = []
        for v in lambdas:
            p, q = v.as_integer_ratio()
            if den % q:
                m = lcm(den, q)
                num *= m // den
                den = m
            num -= p * (den // q)
            twice.append(2 * p if q == 1 else p if q == 2 else 2 * v)
        Weights.lambdas.__set__(self, lambdas)
        Weights.mu.__set__(self, mu)
        Weights.twice_lambdas.__set__(self, tuple(twice))
        whole, rest = divmod(num, den)
        Weights._delta.__set__(self, Fraction(num, den) if rest else whole)

    @property
    def n(self) -> int:
        return len(self.lambdas)

    def delta(self) -> Scalar:
        """The shift mu - sum(lambda_i): an ``int`` when it is integral, else
        a ``Fraction``, as each entry of ``twice_lambdas``."""
        return self._delta

    def natural_delta(self) -> Optional[int]:
        """delta as a nonnegative integer, or None when delta is not one."""
        d = self._delta
        return d if type(d) is int and d >= 0 else None

    # -- serialisation ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "lambdas": [format_rational(v) for v in self.lambdas],
            "mu": format_rational(self.mu),
        }

    def __str__(self) -> str:
        lams = ",".join(format_rational(v) for v in self.lambdas)
        return f"lambda=({lams}), mu={format_rational(self.mu)}"

