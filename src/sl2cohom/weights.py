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
from typing import Mapping, Optional

from .polynomials import (
    ONE,
    Polynomial,
    Scalar,
    X,
    exact,
    format_rational,
    parse_rational,
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


@dataclass(frozen=True, slots=True)
class Weights:
    """Argument weights (lambda_1, ..., lambda_n) and target weight mu.

    The shift and ``twice_lambdas`` (each 2 lambda_i, an ``int`` when it is
    integral) are computed once, at construction.
    """

    lambdas: tuple[Fraction, ...]
    mu: Fraction
    twice_lambdas: tuple[Scalar, ...] = field(init=False, repr=False, compare=False)
    _delta: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambdas", tuple(exact(v) for v in self.lambdas))
        object.__setattr__(self, "mu", exact(self.mu))
        if not self.lambdas:
            raise ValueError("at least one argument weight is required")
        # Integer arithmetic on numerators and denominators: a sweep builds
        # thousands of weights, and Fraction operators cost microseconds each.
        object.__setattr__(self, "twice_lambdas", tuple(
            2 * v.numerator if v.denominator == 1 else
            v.numerator if v.denominator == 2 else 2 * v for v in self.lambdas))
        mu = self.mu
        den = lcm(mu.denominator, *(v.denominator for v in self.lambdas))
        num = mu.numerator * (den // mu.denominator) - sum(
            v.numerator * (den // v.denominator) for v in self.lambdas)
        object.__setattr__(self, "_delta", Fraction(num, den))

    @property
    def n(self) -> int:
        return len(self.lambdas)

    def delta(self) -> Fraction:
        """The shift mu - sum(lambda_i)."""
        return self._delta

    def natural_delta(self) -> Optional[int]:
        """delta as a nonnegative integer, or None when delta is not one."""
        d = self.delta()
        if d.denominator == 1 and d >= 0:
            return int(d)
        return None

    # -- serialisation ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "lambdas": [format_rational(v) for v in self.lambdas],
            "mu": format_rational(self.mu),
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "Weights":
        lambdas = tuple(parse_rational(str(v)) for v in data["lambdas"])
        w = Weights(lambdas, parse_rational(str(data["mu"])))
        if "n" in data and int(data["n"]) != w.n:
            raise ValueError("inconsistent arity in weights")
        return w

    def __str__(self) -> str:
        lams = ",".join(format_rational(v) for v in self.lambdas)
        return f"lambda=({lams}), mu={format_rational(self.mu)}"
