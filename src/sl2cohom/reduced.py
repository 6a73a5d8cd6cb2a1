"""Structured two-cochains, the coefficient linear system, and rank bookkeeping.

Because the three vector fields 1, x, x^2 d/dx have vanishing third
derivative, every 2-cochain is uniquely of the shape

    f(X_h1, X_h2) = sum_a A_a (h1 h2' - h2 h1') Omega^a
                  + sum_a B_a (h1 h2'' - h2 h1'') Omega^a
                  + sum_a C_a (h1' h2'' - h1'' h2') Omega^a

and every 1-cochain uniquely of the shape

    b(X_h) = sum_a (U_a h + V_a h' + W_a h'') Omega^a,

with polynomial families A, B, C / U, V, W.  One map ties level |a| + 1 to
level |a|, the lowering map

    Lambda(F)_a = 1/2 sum_i (a_i + 1)(a_i + 2 lambda_i) F_(a + e_i).

In these coordinates the coboundary of a 1-cochain expands to

    A-part_a = (|a| - delta) U_a + V_a'
    B-part_a = W_a' + Lambda(U)_a
    C-part_a = (delta - |a| - 1) W_a + Lambda(V)_a

and a 2-cochain is closed iff for every a

    C_a' + (|a| + 1 - delta) B_a - Lambda(A)_a = 0.

All four formulas are normalised against the generic coboundary of the
cochain complex: converting to a :class:`~sl2cohom.cecomplex.Cochain` and
applying :func:`~sl2cohom.cecomplex.coboundary` agrees exactly, which the
test suite asserts symbolically.  Every lowering runs through one integer
kernel, :func:`_lower`.

For delta = k a natural number, the closed-coefficient constraint at top
order is the linear system

    sum_i (a_i + 1)(a_i + 2 lambda_i) A_(a + e_i) = 0,   |a| = k - 1,

that is 2 Lambda(A) = 0 on constants, with one equation per multi-index of
weight k - 1 and one unknown per multi-index of weight k.  The rank-based
dimension method reports

    dim = (number of weight-k indices over n-1 slots) + 3 * ell,

where ell is the rank deficiency of that system.  The system is built as
sparse rows and no dense matrix is formed on these paths.  The rows are
echelonised once per system, as ``LinearSystem.factorization`` (a
:class:`~sl2cohom.linalg.Factorization`), and every read comes off that
one echelon: the kernel (``linalg.kernel_basis``) and the leads of the
column space (``linalg.column_space_echelon``) behind
:func:`cocycle_basis`, and every solve behind :func:`solve_coboundary`
(``linalg.solve``, a replay of the logged row operations).
:func:`build_system` keeps the systems of recent weights, so a basis and
the solves that certify its elements share one echelon.

The rank needs only some of them.  Put t_i = -2 lambda_i, so row a has
entry f_i(a_i) = (a_i + 1)(a_i - t_i) in column a + e_i, and call slot i
*free* unless t_i is an integer in {0, ..., k - 1}; a free slot has no
zero factor on any row.  Let S(a) = {free slots} | {i : a_i > t_i}, for
rows and columns alike.  Row a meets column a + e_i only when
a_i != t_i, and then S(a + e_i) = S(a), so the matrix is block-diagonal
over S.  In a block with S nonempty, fix j in S: every row a has
f_j(a_j) != 0 in column a + e_j, and any other row meeting that column
has j-th entry a_j + 1, so a + e_j leads row a in the lex order led by
x_j.  In a vanishing combination of the block's rows, a row a of maximal
a_j among those used would leave c_a f_j(a_j) != 0 in column a + e_j:
none is used, and the block has full row rank.  What is left is the box
B = {a <= t}, which exists only when no slot is free (the singular case
of :func:`~sl2cohom.closedform.classify`) and whose entries are
(a_i + 1)(a_i - t_i) for a_i < t_i.  Hence

    rank = N_(k-1) - |B| + rank(B),

with N_(k-1) the number of rows, and :func:`rank_data` echelonises only
the box rows (``linalg.sparse_rank``); off the singular case the system
has full row rank and no row is built.

The box deficiency |B| - rank(B) depends on t only through (k, sorted t).
Permuting the n tensor factors by a slot permutation pi is an sl(2)-module
isomorphism from D_(lambda, mu) onto D_(pi lambda, mu), and on the system
it reads as follows.  Put (pi a)_(pi(i)) = a_i.  Row a of the system for t
has entry (a_i + 1)(a_i - t_i) in column a + e_i; row pi a of the system
for pi t has entry (a_i + 1)(a_i - (pi t)_(pi(i))) = (a_i + 1)(a_i - t_i)
in column pi a + e_(pi(i)) = pi(a + e_i).  So pi maps the rows and columns
of t bijectively onto those of pi t, carries every entry with it, and maps
the box {a <= t} onto the box {b <= pi t}: the two boxes are the same
matrix up to a relabelling of rows and columns, of equal size and rank.
:func:`rank_data` therefore ranks one box per orbit, the one of sorted t,
through a bounded memo keyed by (k, sorted t); n is the key's length.

The box is Q[x_1..x_n]/(x_i^(t_i + 1)) in degrees k - 1 to k, the ring
whose strong Lefschetz property (R. Stanley 1980; J. Watanabe 1987) makes
ell the count max(0, h_(k-1) - h_k) of its Hilbert function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import lcm
from operator import or_
from typing import Mapping, Optional

from . import linalg
from .cecomplex import ORBIT_CACHE_SIZE, Cochain, CohomResult
from .closedform import CaseKind, CaseTag, classify
from .linalg import RationalMatrix
from .multiindices import (
    MultiIndex,
    add_unit,
    enumerate_multiindices,
    format_multiindex,
    graded_lex_key,
    index_weight,
    multiset_coeff,
)
from .operators import DiffOperator
from .polynomials import ONE, Polynomial, Scalar, X, divide, exact, scalar
from .weights import SL2Generator, Weights

FamilyMap = dict[MultiIndex, Polynomial]


def _normalized(weights: Weights, family: Mapping[MultiIndex, Polynomial]) -> FamilyMap:
    out: FamilyMap = {}
    for alpha, poly in family.items():
        alpha = tuple(alpha)
        if len(alpha) != weights.n or any(a < 0 for a in alpha):
            raise ValueError(f"bad multi-index {alpha}")
        if not poly.is_zero():
            out[alpha] = poly
    return out


def _nonzero(family: FamilyMap) -> FamilyMap:
    """family without its zero polynomials, which (|a| - delta) U_a at
    |a| = delta, a derivative or a cancelling sum can leave."""
    if all(family.values()):
        return family
    return {alpha: poly for alpha, poly in family.items() if poly}


def _family_add(a: FamilyMap, b: FamilyMap) -> FamilyMap:
    out = dict(a)
    for alpha, poly in b.items():
        merged = out.get(alpha, Polynomial.zero()) + poly
        if merged.is_zero():
            out.pop(alpha, None)
        else:
            out[alpha] = merged
    return out


def _coefficient(family: FamilyMap, alpha: MultiIndex) -> Polynomial:
    return family.get(alpha, Polynomial.zero())


def _lower(weights: Weights, family: FamilyMap) -> FamilyMap:
    """Lambda(F), the lowering map of the module docstring, on its nonzero entries.

    One integer pass: the denominators of 2 lambda_i and of the family's
    coefficients are cleared once, by their lcms, each target's coefficients
    are summed as ``int``, and only a nonzero sum is divided back, through
    :func:`divide`.  A target whose sums all vanish creates no ``Fraction``.
    """
    if not family:
        return {}
    lam_den = coeff_den = 1
    for t in weights.twice_lambdas:
        if type(t) is not int:
            lam_den = lcm(lam_den, t.denominator)
    for poly in family.values():
        for c in poly.coeffs:
            if type(c) is not int:
                coeff_den = lcm(coeff_den, c.denominator)
    twice = [t * lam_den if type(t) is int else t.numerator * (lam_den // t.denominator)
             for t in weights.twice_lambdas]
    sums: dict[MultiIndex, list[int]] = {}
    for beta, poly in family.items():
        cs = poly.coeffs if coeff_den == 1 else [
            c * coeff_den if type(c) is int else c.numerator * (coeff_den // c.denominator)
            for c in poly.coeffs]
        for i, b_i in enumerate(beta):
            # (a_i + 1)(a_i + 2 lambda_i) times lam_den, at a = beta - e_i
            factor = b_i * ((b_i - 1) * lam_den + twice[i])
            if not factor:
                continue
            target = beta[:i] + (b_i - 1,) + beta[i + 1:]
            acc = sums.get(target)
            if acc is None:
                sums[target] = [factor * c for c in cs]
                continue
            if len(acc) < len(cs):
                acc.extend([0] * (len(cs) - len(acc)))
            for j, c in enumerate(cs):
                acc[j] += factor * c
    den = 2 * lam_den * coeff_den
    return {target: Polynomial._raw([divide(s, den) if s else 0 for s in acc])
            for target, acc in sums.items() if any(acc)}


@dataclass(frozen=True)
class ReducedOneCochain:
    """1-cochain in (U, V, W) coordinates."""

    weights: Weights
    U: FamilyMap
    V: FamilyMap
    W: FamilyMap

    def __post_init__(self) -> None:
        object.__setattr__(self, "U", _normalized(self.weights, self.U))
        object.__setattr__(self, "V", _normalized(self.weights, self.V))
        object.__setattr__(self, "W", _normalized(self.weights, self.W))

    def is_zero(self) -> bool:
        return not (self.U or self.V or self.W)

    def to_cochain(self) -> Cochain:
        """Values on the basis fields: U at X1, xU + V at Xx, x^2 U + 2xV + 2W at Xx2."""
        w = self.weights
        x_poly = X
        comps = {
            (SL2Generator.X1,): DiffOperator(w, self.U),
            (SL2Generator.XX,): DiffOperator(
                w, _family_add({a: x_poly * p for a, p in self.U.items()}, self.V)),
            (SL2Generator.XX2,): DiffOperator(w, _family_add(
                _family_add({a: (x_poly * x_poly) * p for a, p in self.U.items()},
                            {a: (2 * x_poly) * p for a, p in self.V.items()}),
                {a: p.scale(2) for a, p in self.W.items()})),
        }
        return Cochain(w, 1, {k: op for k, op in comps.items() if not op.is_zero()})


@dataclass(frozen=True)
class ReducedTwoCochain:
    """2-cochain in (A, B, C) coordinates."""

    weights: Weights
    A: FamilyMap
    B: FamilyMap
    C: FamilyMap

    def __post_init__(self) -> None:
        object.__setattr__(self, "A", _normalized(self.weights, self.A))
        object.__setattr__(self, "B", _normalized(self.weights, self.B))
        object.__setattr__(self, "C", _normalized(self.weights, self.C))

    def is_zero(self) -> bool:
        return not (self.A or self.B or self.C)

    def __add__(self, other: "ReducedTwoCochain") -> "ReducedTwoCochain":
        if other.weights != self.weights:
            raise ValueError("weight mismatch")
        return _two_cochain(self.weights,
                            _family_add(self.A, other.A),
                            _family_add(self.B, other.B),
                            _family_add(self.C, other.C))

    def __sub__(self, other: "ReducedTwoCochain") -> "ReducedTwoCochain":
        return self + -other

    def __neg__(self) -> "ReducedTwoCochain":
        return _two_cochain(self.weights,
                            {a: -p for a, p in self.A.items()},
                            {a: -p for a, p in self.B.items()},
                            {a: -p for a, p in self.C.items()})

    def to_cochain(self) -> Cochain:
        """Evaluate the three antisymmetric brackets on the basis pairs.

        (h1 h2' - h2 h1', h1 h2'' - h2 h1'', h1' h2'' - h1'' h2') equals
        (1, 0, 0) on (X1, Xx), (2x, 2, 0) on (X1, Xx2) and (x^2, 2x, 2) on
        (Xx, Xx2); the conversion is injective on the stored data.
        """
        w = self.weights
        x_poly = X
        x2 = x_poly * x_poly
        comp_12 = DiffOperator(w, self.A)
        comp_13 = DiffOperator(w, _family_add(
            {a: (2 * x_poly) * p for a, p in self.A.items()},
            {a: p.scale(2) for a, p in self.B.items()}))
        comp_23 = DiffOperator(w, _family_add(_family_add(
            {a: x2 * p for a, p in self.A.items()},
            {a: (2 * x_poly) * p for a, p in self.B.items()}),
            {a: p.scale(2) for a, p in self.C.items()}))
        comps = {
            (SL2Generator.X1, SL2Generator.XX): comp_12,
            (SL2Generator.X1, SL2Generator.XX2): comp_13,
            (SL2Generator.XX, SL2Generator.XX2): comp_23,
        }
        return Cochain(w, 2, {k: op for k, op in comps.items() if not op.is_zero()})

    def to_json_dict(self) -> dict:
        data = self.weights.to_json_dict()
        for name, fam in (("A", self.A), ("B", self.B), ("C", self.C)):
            data[name] = {format_multiindex(a): p.to_json()
                          for a, p in sorted(fam.items(), key=lambda kv: graded_lex_key(kv[0]))}
        return data


def _one_cochain(weights: Weights, U: FamilyMap, V: FamilyMap,
                 W: FamilyMap) -> ReducedOneCochain:
    """A 1-cochain from families whose keys are already valid multi-indices
    for weights: keys of checked cochains or of :func:`_lower`.  It skips
    the public constructor's check and strips only the zero polynomials."""
    b = object.__new__(ReducedOneCochain)
    object.__setattr__(b, "weights", weights)
    object.__setattr__(b, "U", _nonzero(U))
    object.__setattr__(b, "V", _nonzero(V))
    object.__setattr__(b, "W", _nonzero(W))
    return b


def _two_cochain(weights: Weights, A: FamilyMap, B: FamilyMap,
                 C: FamilyMap) -> ReducedTwoCochain:
    """A 2-cochain from families whose keys are already valid multi-indices
    for weights, as :func:`_one_cochain` builds 1-cochains; the system's
    index tuples also qualify."""
    f = object.__new__(ReducedTwoCochain)
    object.__setattr__(f, "weights", weights)
    object.__setattr__(f, "A", _nonzero(A))
    object.__setattr__(f, "B", _nonzero(B))
    object.__setattr__(f, "C", _nonzero(C))
    return f


def cocycle_residual(f: ReducedTwoCochain) -> FamilyMap:
    """Per-index obstruction to closedness; f is a cocycle iff all zero.

    The value at a is C_a' + (|a| + 1 - delta) B_a - Lambda(A)_a; only
    nonzero residuals are returned.  Scaled so that the generic coboundary
    of the converted cochain, evaluated on (X1, Xx, Xx2), equals twice the
    residual family (asserted in the tests).
    """
    w = f.weights
    delta = w.delta()
    lowered = _lower(w, f.A)
    out: FamilyMap = {}
    for alpha in set(f.B) | set(f.C) | set(lowered):
        res = _coefficient(f.C, alpha).derivative()
        b_poly = f.B.get(alpha)
        if b_poly is not None:
            res = res + b_poly.scale(index_weight(alpha) + 1 - delta)
        a_poly = lowered.get(alpha)
        if a_poly is not None:
            res = res - a_poly
        if not res.is_zero():
            out[alpha] = res
    return out


def coboundary_reduced(b: ReducedOneCochain) -> ReducedTwoCochain:
    """Coboundary of a 1-cochain in reduced coordinates.

    Agrees exactly with the generic complex differential applied to
    ``b.to_cochain()``; the module docstring lists the three coefficient
    families.
    """
    w = b.weights
    delta = w.delta()
    a_fam = _family_add({a: (index_weight(a) - delta) * u for a, u in b.U.items()},
                        {a: v.derivative() for a, v in b.V.items()})
    b_fam = _family_add(_lower(w, b.U), {a: p.derivative() for a, p in b.W.items()})
    c_fam = _family_add(_lower(w, b.V), {a: (delta - index_weight(a) - 1) * p
                                         for a, p in b.W.items()})
    return _two_cochain(w, a_fam, b_fam, c_fam)


# ---------------------------------------------------------------------------
# The coefficient linear system and its rank.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearSystem:
    """Linear constraints on the top-order coefficient family.

    Rows are indexed by multi-indices of weight k - 1 (the equations),
    columns by multi-indices of weight k (the unknowns), both in graded-lex
    order.  The row for a has entry (a_i + 1)(a_i + 2 lambda_i) in the
    column of a + e_i and zero elsewhere.  ``equations`` holds each row as
    a sparse vector {column: entry} of its nonzero entries, ``int`` when
    2 lambda_i is an integer; every rank, kernel and solve runs on these
    rows.  ``factorization`` echelonises them once, on first use, for the
    kernel, the column space and every solve.  :func:`build_system` hands
    the same cached system to every caller, so no caller changes the rows
    (the perturbed self-test of ``verify`` edits a copy).  The dense
    ``matrix`` is derived on demand only because the benchmark's tracer
    counts its cells and the tests use it as a reference.
    """

    row_index: tuple[MultiIndex, ...]
    col_index: tuple[MultiIndex, ...]
    equations: tuple[dict[int, Scalar], ...]

    @cached_property
    def matrix(self) -> RationalMatrix:
        dense = [[0] * len(self.col_index) for _ in self.equations]
        for row, equation in zip(dense, self.equations):
            for j, c in equation.items():
                row[j] = c
        return RationalMatrix(dense, cols=len(self.col_index))

    @cached_property
    def factorization(self) -> linalg.Factorization:
        return linalg.Factorization(self.equations, len(self.col_index))


#: Bound on the cached (n, k) system frames: rows visited in any order
#: over up to 32 (n, k) pairs rebuild none.  It bounds the cached systems
#: of :func:`build_system` as well.
SYSTEM_FRAME_CACHE_SIZE = 32


@lru_cache(maxsize=SYSTEM_FRAME_CACHE_SIZE)
def _system_frame(n: int, k: int) -> tuple[tuple[MultiIndex, ...], tuple[MultiIndex, ...],
                                           tuple[tuple[tuple[int, int], ...], ...],
                                           tuple[tuple[int, ...], ...]]:
    """row_index, col_index, per row alpha the (column of alpha + e_i,
    slot i k + a_i) pairs whose factor `build_system` fills in, and
    above[i][v], the bitset of the rows r (bit r) with a_i > v."""
    rows = tuple(enumerate_multiindices(n, k - 1))
    cols = tuple(enumerate_multiindices(n, k))
    col_pos = {c: j for j, c in enumerate(cols)}
    patterns = tuple(tuple((col_pos[add_unit(alpha, i)], i * k + a) for i, a in enumerate(alpha))
                     for alpha in rows)
    above = [[0] * k for _ in range(n)]
    for r, alpha in enumerate(rows):
        for i, a in enumerate(alpha):
            if a:  # a_i > v at v = a - 1; the sweep below adds every v < a - 1
                above[i][a - 1] |= 1 << r
    for above_i in above:
        for v in range(k - 2, -1, -1):
            above_i[v] |= above_i[v + 1]
    return rows, cols, patterns, tuple(map(tuple, above))


def build_system(n: int, k: int, lambdas: tuple[Fraction, ...]) -> LinearSystem:
    """The constraint system; empty (zero rows) when k = 0.

    Only the factors (a_i + 1)(a_i + 2 lambda_i), for each slot i and each
    a_i < k, depend on lambda.  The index tuples and each row's sparsity
    pattern are an (n, k) frame cached by ``_system_frame``, so a sweep
    evaluating many lambda at one (n, k) computes just the n k factors per
    configuration.  The frame also holds the row masks that
    :func:`rank_data` selects the box with.  The cache keeps at most
    ``SYSTEM_FRAME_CACHE_SIZE`` frames; the 6 of n = 4, k <= 5 hold
    24 KiB, and one at the command line's 5,000-equation ceiling 2.1 to
    2.8 MiB for n = 3 to 5 and 7.4 MiB for n = 2, k = 5,000.

    The systems themselves are kept for the last
    ``SYSTEM_FRAME_CACHE_SIZE`` (n, k, lambda), with their factorization
    once it is made: :func:`cocycle_basis` and the :func:`solve_coboundary`
    calls on its elements echelonise the rows once.  The lambdas are
    checked before the lookup, so a float is refused even where an equal
    ``Fraction`` is cached.
    """
    if len(lambdas) != n:
        raise ValueError("lambda tuple length must equal n")
    return _system(n, k, tuple(exact(v) for v in lambdas))


@lru_cache(maxsize=SYSTEM_FRAME_CACHE_SIZE)
def _system(n: int, k: int, lambdas: tuple[Fraction, ...]) -> LinearSystem:
    """The system of :func:`build_system` for checked lambdas."""
    rows, cols, patterns, _ = _system_frame(n, k)
    twice_lambdas = [scalar(2 * lam) for lam in lambdas]
    factors = [(a + 1) * (a + twice) for twice in twice_lambdas for a in range(k)]
    equations = tuple({j: f for j, slot in pattern if (f := factors[slot])}
                      for pattern in patterns)
    return LinearSystem(rows, cols, equations)


@lru_cache(maxsize=ORBIT_CACHE_SIZE)
def _box_deficiency(k: int, t: tuple[int, ...]) -> int:
    """|B| - rank(B) of the box B = {a <= t} at shift k, for sorted t.

    The rows of B are those in none of the frame's masks above[i][t_i].
    Only this value, not the rows, is kept, so every orbit of the module
    docstring's slot permutations is built and echelonised once.
    """
    n = len(t)
    n_rows = multiset_coeff(n, k - 1)
    _, _, patterns, above = _system_frame(n, k)
    off_box = reduce(or_, (above_i[t_i] for above_i, t_i in zip(above, t)))
    factors = [(a + 1) * (a - t_i) for t_i in t for a in range(k)]
    box = [{j: f for j, slot in patterns[r] if (f := factors[slot])}
           for r, bit in enumerate(reversed(f"{off_box:0{n_rows}b}")) if bit == "0"]
    return len(box) - linalg.sparse_rank(box)


def rank_data(w: Weights, tag: Optional[CaseTag] = None) -> Optional[tuple[int, int, int]]:
    """(k, rank, ell) of the constraint system for a natural shift, None otherwise.

    ``tag`` is ``classify(w)``, computed here when not given.  The system
    is block-diagonal over S(a) = {free slots} | {i : a_i > t_i}, and every
    block with S nonempty has full row rank (proof in the module
    docstring).  So the rank is N_(k-1) off the singular case and
    N_(k-1) - |B| + rank(B) on it, where only the rows of the box
    B = {a <= t} are built and echelonised.  A slot permutation carries
    the box of t onto that of the permuted t with every entry (module
    docstring), so the deficiency |B| - rank(B) comes from a memo keyed by
    (k, sorted t), bounded by ``cecomplex.ORBIT_CACHE_SIZE``: the rows of
    one orbit share one echelon.
    """
    tag = classify(w) if tag is None else tag
    if tag.kind is CaseKind.NON_INTEGER_DELTA:
        return None
    k, n_rows = tag.k, multiset_coeff(w.n, tag.k - 1)
    if tag.kind is CaseKind.NON_RESONANT:
        return (k, n_rows, 0)
    ell = _box_deficiency(k, tuple(sorted(tag.t)))
    return (k, n_rows - ell, ell)


def dim_h2_via_system(w: Weights, tag: Optional[CaseTag] = None) -> CohomResult:
    """Rank-based dimension: 0 unless the shift is natural, else base + 3*ell.

    The base is the count of weight-k indices over n - 1 slots; ell is the
    rank deficiency of the constraint system.  Maximal rank (ell = 0)
    reproduces the non-resonant closed form, so no case split is needed.
    The value counts the representatives of :func:`cocycle_basis`, not
    cohomology classes: base + 2*ell of them (the top and middle families)
    are coboundaries, and only the ell bottom-family ones are nontrivial
    classes, which is the value the brute-force complex gives.  ``tag`` is
    ``classify(w)``, computed here when not given.
    """
    tag = classify(w) if tag is None else tag
    data = rank_data(w, tag)
    if data is None:
        return CohomResult(dim=0, method="system", weights=w, stable=True,
                           case=tag.describe())
    k, _, ell = data
    dim = multiset_coeff(w.n - 1, k) + 3 * ell
    return CohomResult(dim=dim, method="system", weights=w, stable=True,
                       case=tag.describe())


# ---------------------------------------------------------------------------
# Cocycle bases and exact coboundary solving.
# ---------------------------------------------------------------------------


def cocycle_basis(w: Weights) -> list[ReducedTwoCochain]:
    """Spanning set of representatives used by the rank-based count.

    Requires a natural shift k.  Returns, in order: one constant top-order
    family per kernel vector of the constraint system; then, per unit of
    rank deficiency, one constant middle family and one constant bottom
    family at weight k - 1, chosen along coordinates completing the column
    space of the system.  Every element has identically zero residual.

    The top-family (A) and middle-family (B) representatives are
    coboundaries: :func:`solve_coboundary` returns a verified witness for
    each.  Only the ell bottom-family (C) representatives are nontrivial
    classes: they sit on coordinates completing the column space, so no
    nonzero combination of them lies in the image that
    :func:`solve_coboundary` solves against.

    The kernel and the column space are read off the system's one
    factorization, which the solves on these elements reuse.  The
    coordinates completing the column space are the rows that are
    combinations of the rows before them (proof in ``linalg``).
    """
    k = w.natural_delta()
    if k is None:
        raise ValueError("cocycle basis requires a natural shift")
    system = build_system(w.n, k, w.lambdas)
    factorization = system.factorization
    out: list[ReducedTwoCochain] = []
    for vec in linalg.kernel_basis(factorization):
        fam = {alpha: Polynomial._raw([c]) for alpha, c in zip(system.col_index, vec) if c}
        out.append(_two_cochain(w, fam, {}, {}))
    covered = set(linalg.column_space_echelon(factorization))
    complement = [alpha for i, alpha in enumerate(system.row_index) if i not in covered]
    out += [_two_cochain(w, {}, {alpha: ONE}, {}) for alpha in complement]
    out += [_two_cochain(w, {}, {}, {alpha: ONE}) for alpha in complement]
    return out


def solve_coboundary(f: ReducedTwoCochain) -> Optional[ReducedOneCochain]:
    """Exact solution b of (coboundary of b) = f, or None when none exists.

    The decision is exact, with no degree or support truncation:

    1. a non-cocycle is never a coboundary;
    2. away from the critical levels |a| = k (top family) and |a| = k - 1
       (middle/bottom families) the gauge freedoms U and W annihilate f, the
       denominators being the nonzero factors |a| - delta and
       delta - |a| - 1 (every level is non-critical when delta is not a
       natural number, which settles that case);
    3. at the critical levels the middle family is a derivative of a
       bottom-slot gauge W, so it always dies, while the top family A and
       bottom family C die together iff the constant vector
       C - Lambda(antiderivative of A) lies in the image of Lambda on
       constants at level k.  The certificate is an exact linear solve,
       replayed on the system's one factorization, needed only when that
       vector is nonzero.

    Every returned witness is verified by recomputing its coboundary.
    """
    w = f.weights
    delta = w.delta()
    if cocycle_residual(f):
        return None

    k = w.natural_delta()
    u_fam: FamilyMap = {}
    w_fam: FamilyMap = {}
    for alpha, a_poly in f.A.items():
        level = index_weight(alpha)
        if k is None or level != k:
            u_fam[alpha] = a_poly.scale(divide(1, level - delta))
    for alpha, c_poly in f.C.items():
        level = index_weight(alpha)
        if k is None or level != k - 1:
            w_fam[alpha] = c_poly.scale(divide(1, delta - level - 1))
    b1 = _one_cochain(w, u_fam, {}, w_fam)
    # A zero gauge has a zero coboundary: skip computing and subtracting it.
    f1 = f if b1.is_zero() else f - coboundary_reduced(b1)

    if k is None:
        residue = f1
        if not residue.is_zero():
            raise AssertionError("gauge reduction failed on a non-natural shift")
        _verify_witness(b1, f)
        return b1

    # Middle family: at level k - 1 it is exactly a derivative of a W-slot.
    if any(index_weight(a) != k - 1 for a in f1.B):
        raise AssertionError("closed cochain kept a middle family off-level")
    b2 = _one_cochain(w, {}, {}, {a: p.antiderivative() for a, p in f1.B.items()})
    f2 = f1 if b2.is_zero() else f1 - coboundary_reduced(b2)

    # Remaining data: top family at level k, bottom family at level k - 1,
    # coupled through the V gauge slot.
    v0 = {a: p.antiderivative() for a, p in f2.A.items()}
    reach = {a: p for a, p in _lower(w, v0).items() if index_weight(a) == k - 1}
    obstruction: FamilyMap = {}
    for alpha in set(f2.C) | set(reach):
        d_poly = _coefficient(f2.C, alpha) - _coefficient(reach, alpha)
        if not d_poly.is_zero():
            obstruction[alpha] = d_poly
    for poly in obstruction.values():
        if not poly.derivative().is_zero():
            raise AssertionError("coboundary obstruction is not constant")

    # A zero obstruction is met by v0 itself: the solve would return 0.
    v_fam = dict(v0)
    if obstruction:
        system = build_system(w.n, k, w.lambdas)
        row_pos = {alpha: i for i, alpha in enumerate(system.row_index)}
        rhs = [0] * len(system.row_index)
        for alpha, poly in obstruction.items():
            rhs[row_pos[alpha]] = 2 * poly.coefficient(0)
        solution = linalg.solve(system.factorization, rhs)
        if solution is None:
            return None
        for alpha, c in zip(system.col_index, solution):
            if c:
                v_fam[alpha] = _coefficient(v_fam, alpha) + Polynomial._raw([c])
    # The gauge parts fill U (b1), W (b1, b2) and V (here): assemble once, not summed.
    witness = _one_cochain(w, b1.U, v_fam, _family_add(b1.W, b2.W))
    _verify_witness(witness, f)
    return witness


def _verify_witness(b: ReducedOneCochain, f: ReducedTwoCochain) -> None:
    if coboundary_reduced(b) == f:
        return
    raise AssertionError("coboundary witness failed verification")
