"""No float anywhere: a walk over the exact scalars every layer returns.

Every scalar must be an ``int`` or a ``Fraction``; a ``float`` or a
``bool`` fails.  Where the polynomial constructor, ``scale``,
``antiderivative`` or ``divide`` return an integral value it must moreover
be an ``int``.  Sums and products of ``Fraction`` coefficients may stay
integral ``Fraction``s, which compare, hash and print as the ``int``.
"""

import itertools
import random
from fractions import Fraction

from sl2cohom.cecomplex import Truncation, block_matrix, weight_block_basis
from sl2cohom.linalg import solve
from sl2cohom.multiindices import enumerate_up_to
from sl2cohom.operators import DiffOperator, act_on_operator
from sl2cohom.polynomials import Polynomial, divide, scalar
from sl2cohom.reduced import (
    ReducedOneCochain,
    ReducedTwoCochain,
    build_system,
    coboundary_reduced,
    cocycle_basis,
    cocycle_residual,
    solve_coboundary,
)
from sl2cohom.sweep import nonresonant_weights, weights_for_tvector
from sl2cohom.weights import GENERATORS, Weights
from support import dense_kernel

#: The four non-half-integral weights of the certify path's pair-factor test.
FRACTION_PAIR_WEIGHTS = [
    Weights((Fraction(1, 3), Fraction(-1, 3)), Fraction(4)),
    Weights((Fraction(-1, 2), Fraction(-1), Fraction(1, 3)), Fraction(11, 6)),
    Weights((Fraction(2, 5), Fraction(-3, 5), Fraction(-1, 2)), Fraction(13, 10)),
    Weights((Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 3)), Fraction(7, 3)),
]
#: Resonant n = 2 and n = 3 rows, plus non-resonant ones.
RESONANT_WEIGHTS = (
    [weights_for_tvector(2, k, t) for k in range(1, 4)
     for t in itertools.product(range(k), repeat=2)]
    + [weights_for_tvector(3, k, t) for k in range(1, 3)
       for t in itertools.product(range(k), repeat=3)]
    + [nonresonant_weights(n, 2) for n in (2, 3)])


def check_scalar(c, where):
    assert type(c) in (int, Fraction), (where, c, type(c))


def check_int_when_integral(c, where):
    check_scalar(c, where)
    assert type(c) is int or c.denominator != 1, (where, c)


def walk_polynomial(p, where, int_when_integral=False):
    assert type(p) is Polynomial, where
    for c in p.coeffs:
        (check_int_when_integral if int_when_integral else check_scalar)(c, where)


def walk_families(cochain, names, where, int_when_integral=False):
    for name in names:
        for alpha, p in getattr(cochain, name).items():
            walk_polynomial(p, (where, name, alpha), int_when_integral)


def test_polynomial_arithmetic_returns_int_when_integral():
    anti = Polynomial([1, 1]).antiderivative()
    assert anti.coeffs == (0, 1, Fraction(1, 2))
    assert [type(c) for c in anti.coeffs] == [int, int, Fraction]
    # an integral Fraction constant term, which only _raw can store, comes back an int
    anti = Polynomial._raw([Fraction(3, 1)]).antiderivative()
    assert anti.coeffs == (0, 3)
    walk_polynomial(anti, "antiderivative", int_when_integral=True)
    built = Polynomial([Fraction(6, 3), "4/2", True, "1/3"])
    assert built.coeffs == (2, 2, 1, Fraction(1, 3))
    walk_polynomial(built, "constructor", int_when_integral=True)
    walk_polynomial(Polynomial([Fraction(1, 2), 1]).scale(4), "scale", int_when_integral=True)
    for value, divisor, quotient in ((6, 3, 2), (-7, 2, Fraction(-7, 2)),
                                     (Fraction(3, 2), Fraction(3, 4), 2),
                                     (Fraction(1, 3), 2, Fraction(1, 6)), (0, 5, 0)):
        assert divide(value, divisor) == quotient
        check_int_when_integral(divide(value, divisor), (value, divisor))
    for value in (3, Fraction(9, 3), Fraction(1, 3), "5/5", "-2/4"):
        check_int_when_integral(scalar(value), value)

    rng = random.Random(8)
    entries = [0, 1, -2, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(4, 1)]
    polys = [Polynomial([rng.choice(entries) for _ in range(rng.randint(0, 5))])
             for _ in range(40)]
    for p, q in zip(polys, polys[1:]):
        walk_polynomial(p, p, int_when_integral=True)
        for result in (p.scale(rng.choice(entries)), rng.choice(entries) * p,
                       p.antiderivative(), (p * q).antiderivative()):
            walk_polynomial(result, (p, q), int_when_integral=True)
        for result in (p + q, p - q, -p, p * q, p.derivative(), p.nth_derivative(2),
                       (p * q).antiderivative().derivative()):
            walk_polynomial(result, (p, q))
        check_scalar(p(Fraction(1, 2)), p)
        check_scalar(p(3), p)


def test_act_on_operator_terms_are_exact():
    weights = [Weights((Fraction(1, 5),), Fraction(2)),
               Weights((Fraction(1, 5), Fraction(-1, 2)), Fraction(3, 10)),
               Weights((Fraction(0), Fraction(-1, 2)), Fraction(1)),
               Weights((Fraction(-1),), Fraction(-1))]
    for w in weights:
        for alpha in enumerate_up_to(w.n, 3):
            for coeff in (Polynomial([0, 0, 1]), Polynomial([1, Fraction(1, 2), 3])):
                op = DiffOperator.elementary(w, alpha, coeff)
                for g in GENERATORS:
                    acted = act_on_operator(g, op)
                    for beta, p in acted.terms.items():
                        walk_polynomial(p, (str(w), alpha, g, beta))


def test_cocycle_bases_and_witnesses_are_exact():
    families = witnesses = 0
    for w in FRACTION_PAIR_WEIGHTS + RESONANT_WEIGHTS:
        for f in cocycle_basis(w):
            walk_families(f, "ABC", str(w), int_when_integral=True)
            families += 1
            witness = solve_coboundary(f)
            if witness is not None:
                walk_families(witness, "UVW", str(w))
                witnesses += 1
    assert families > witnesses > 0


def test_residuals_and_coboundaries_of_fraction_cochains_are_exact():
    rng = random.Random(9)
    entries = [0, 1, -2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6)]

    def family(n):
        """Four random entries; a zero polynomial is not kept, as no cochain
        family holds one."""
        fam = {}
        for _ in range(4):
            alpha = tuple(rng.randint(0, 3) for _ in range(n))
            if poly := Polynomial([rng.choice(entries) for _ in range(3)]):
                fam[alpha] = poly
        return fam

    residuals = 0
    for w in FRACTION_PAIR_WEIGHTS:
        for _ in range(6):
            f = ReducedTwoCochain(w, family(w.n), family(w.n), family(w.n))
            for alpha, p in cocycle_residual(f).items():
                walk_polynomial(p, (str(w), "residual", alpha))
                residuals += 1
            b = ReducedOneCochain(w, family(w.n), family(w.n), family(w.n))
            walk_families(coboundary_reduced(b), "ABC", (str(w), "coboundary"))
    assert residuals


def test_block_matrix_cells_and_linalg_outputs_are_exact():
    seen = {"block": 0, "kernel": 0, "solve": 0}
    for w in FRACTION_PAIR_WEIGHTS[:2] + RESONANT_WEIGHTS[:6]:
        tr = Truncation(2)
        for p in (0, 1, 2):
            source = weight_block_basis(p, tr, w)
            target = weight_block_basis(p + 1, tr, w)
            for column in block_matrix(p, tr, w, source, target):
                for c in column.values():
                    check_scalar(c, (str(w), p))
                    seen["block"] += 1
        system = build_system(w)
        for vec in dense_kernel(system.factorization):
            for c in vec:
                check_int_when_integral(c, (str(w), "kernel"))
                seen["kernel"] += 1
        rhs = [Fraction(j + 1, 2) for j in range(len(system.row_index))]
        for right in (rhs, [0] * len(rhs)):
            for c in solve(system.equations, len(system.col_index), right) or ():
                check_int_when_integral(c, (str(w), "solve"))
                seen["solve"] += 1
    assert all(seen.values()), seen
