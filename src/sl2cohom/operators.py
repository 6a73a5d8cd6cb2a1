"""n-ary differential operators between density modules.

The elementary operator attached to a multi-index alpha differentiates the
i-th density argument alpha_i times and multiplies the results:

    (f_1 dx^l1 (x) ... (x) f_n dx^ln)  |->  f_1^(a_1) ... f_n^(a_n) dx^mu.

A general operator is a finite sum of elementary operators with polynomial
coefficients, stored as a map multi-index -> coefficient.  sl(2) acts on
operators by conjugation: the generator action is the Lie derivative on
the target minus the operator applied after the (Leibniz-rule) derivative
of the arguments.  On a single coefficient term A * Omega^alpha the action
of the field h d/dx collapses to the closed form

    A' h Omega^alpha + (delta - |alpha|) A h' Omega^alpha
      - 1/2 sum_i a_i (a_i + 2 lambda_i - 1) A h'' Omega^(alpha - e_i),

which is what :func:`act_on_operator` implements; the defining conjugation
formula is kept alongside as an independent evaluation oracle.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .multiindices import (
    MultiIndex,
    format_multiindex,
    graded_lex_key,
    index_weight,
    parse_multiindex,
    sub_unit,
)
from .polynomials import Polynomial, Scalar, divide, scalar
from .weights import SL2Generator, Weights, lie_derivative_density


class DiffOperator:
    """Finite sum of polynomial-coefficient elementary operators."""

    __slots__ = ("weights", "terms")

    def __init__(self, weights: Weights, terms: Mapping[MultiIndex, Polynomial] = ()):
        cleaned: dict[MultiIndex, Polynomial] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for alpha, poly in items:
            alpha = tuple(alpha)
            if len(alpha) != weights.n:
                raise ValueError(
                    f"multi-index {alpha} has length {len(alpha)}, expected {weights.n}")
            if any(a < 0 for a in alpha):
                raise ValueError(f"negative entry in multi-index {alpha}")
            if poly.is_zero():
                continue
            if alpha in cleaned:
                merged = cleaned[alpha] + poly
                if merged.is_zero():
                    del cleaned[alpha]
                else:
                    cleaned[alpha] = merged
            else:
                cleaned[alpha] = poly
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("DiffOperator is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(weights: Weights) -> "DiffOperator":
        return DiffOperator(weights, {})

    @staticmethod
    def elementary(weights: Weights, alpha: MultiIndex,
                   coeff: Polynomial | Scalar = 1) -> "DiffOperator":
        poly = coeff if isinstance(coeff, Polynomial) else Polynomial.constant(coeff)
        return DiffOperator(weights, {tuple(alpha): poly})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.weights == other.weights and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.weights, tuple(sorted(self.terms.items(),
                                                key=lambda kv: graded_lex_key(kv[0])))))

    def coefficient(self, alpha: MultiIndex) -> Polynomial:
        return self.terms.get(tuple(alpha), Polynomial.zero())

    def sorted_terms(self) -> list[tuple[MultiIndex, Polynomial]]:
        return sorted(self.terms.items(), key=lambda kv: graded_lex_key(kv[0]))

    # -- linear algebra -----------------------------------------------

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        if other.weights != self.weights:
            raise ValueError("operators live over different weights")
        out = dict(self.terms)
        for alpha, poly in other.terms.items():
            out[alpha] = out.get(alpha, Polynomial.zero()) + poly
        return DiffOperator(self.weights, out)

    def __neg__(self) -> "DiffOperator":
        return self.scale(-1)

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return self + (-other)

    def scale(self, c: Scalar) -> "DiffOperator":
        c = scalar(c)
        return DiffOperator(self.weights,
                            {a: p.scale(c) for a, p in self.terms.items()})

    def __rmul__(self, c: Scalar) -> "DiffOperator":
        return self.scale(c)

    # -- the module structure ------------------------------------------

    def apply(self, densities: Sequence[Polynomial]) -> Polynomial:
        """Evaluate on an n-tuple of densities; multilinear in the arguments."""
        if len(densities) != self.weights.n:
            raise ValueError(
                f"expected {self.weights.n} densities, got {len(densities)}")
        total = Polynomial.zero()
        for alpha, coeff in self.terms.items():
            prod = None
            for order, f in zip(alpha, densities):
                df = f.nth_derivative(order)
                prod = df if prod is None else prod * df
                if prod.is_zero():
                    break
            if prod is None:
                prod = coeff
            else:
                prod = prod * coeff
            total = total + prod
        return total

    def __repr__(self) -> str:
        body = ", ".join(f"{format_multiindex(a)}: {p}" for a, p in self.sorted_terms())
        return f"DiffOperator({{{body}}})"

    # -- serialisation ------------------------------------------------

    def to_json_dict(self) -> dict:
        data = self.weights.to_json_dict()
        data["terms"] = {
            format_multiindex(alpha): poly.to_json()
            for alpha, poly in self.sorted_terms()
        }
        return data

    @staticmethod
    def from_json_dict(data: Mapping) -> "DiffOperator":
        weights = Weights.from_json_dict(data)
        terms = {
            parse_multiindex(key): Polynomial.from_json(value)
            for key, value in data.get("terms", {}).items()
        }
        return DiffOperator(weights, terms)


def act_on_operator(g: SL2Generator, op: DiffOperator) -> DiffOperator:
    """Action of a basis generator on an operator, term by term.

    The term at alpha - e_i is produced only through the vanishing factor
    alpha_i, never by clamping indices.
    """
    w = op.weights
    delta = scalar(w.delta())
    h = g.h
    dh = h.derivative()
    d2h = dh.derivative()
    out: dict[MultiIndex, Polynomial] = {}

    def accumulate(alpha: MultiIndex, poly: Polynomial) -> None:
        if poly.is_zero():
            return
        prev = out.get(alpha)
        merged = poly if prev is None else prev + poly
        if merged.is_zero():
            out.pop(alpha, None)
        else:
            out[alpha] = merged

    for alpha, coeff in op.terms.items():
        accumulate(alpha, coeff.derivative() * h)
        accumulate(alpha, (delta - index_weight(alpha)) * (coeff * dh))
        if not d2h.is_zero():
            for i, a_i in enumerate(alpha):
                if a_i == 0:
                    continue
                factor = divide(-a_i * (a_i + w.twice_lambdas[i] - 1), 2)
                if factor == 0:
                    continue
                accumulate(sub_unit(alpha, i), factor * (coeff * d2h))
    return DiffOperator(w, out)


def act_via_conjugation(g: SL2Generator, op: DiffOperator,
                        densities: Sequence[Polynomial]) -> Polynomial:
    """Evaluate (g . op) on densities straight from the defining formula.

    Computes L_g(op(f_1, ..., f_n)) minus the sum over slots of
    op(f_1, ..., L_g f_i, ..., f_n), using only density Lie derivatives and
    operator application.  Deliberately independent of
    :func:`act_on_operator`; the two routes are cross-checked in the tests.
    """
    w = op.weights
    value = lie_derivative_density(g, op.apply(densities), w.mu)
    for i in range(w.n):
        perturbed = list(densities)
        perturbed[i] = lie_derivative_density(g, densities[i], w.lambdas[i])
        value = value - op.apply(perturbed)
    return value
