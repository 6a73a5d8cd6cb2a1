"""The truncated cochain complex of sl(2) with operator coefficients.

Degree-p cochains are alternating p-linear maps from sl(2) into the module
of n-ary differential operators; with a 3-dimensional source algebra they
are determined by their values on the C(3, p) ascending basis tuples.  The
differential is the standard Lie-algebra coboundary

    (d f)(u_0, ..., u_p) = sum_i (-1)^i u_i . f(..., u_i omitted, ...)
        + sum_{i<j} (-1)^{i+j} f([u_i, u_j], ..., u_i, u_j omitted, ...).

The x d/dx generator acts diagonally on the monomial basis cochains
x^m Omega^alpha (x) (dual p-tuple) with eigenvalue

    m + delta - |alpha| + (#X1 arguments) - (#Xx2 arguments),

the differential preserves this eigenvalue and never increases |alpha|, so
each (eigenvalue, |alpha| <= cap) block is a finite subcomplex over the
rationals.  Brute-force dimensions are computed on the eigenvalue-0 block;
blocks of nonzero eigenvalue are exact (the contraction against x d/dx is
a homotopy), which the tests assert rather than assume.

The truncation loses nothing once the cap reaches the shift.  Filter the
eigenvalue-0 block by |alpha|: F_c is spanned by the cochains with
|alpha| <= c, a subcomplex because d never raises |alpha|.  The graded
piece gr_c = F_c / F_{c-1} keeps the action and bracket terms of d and
drops the lowering terms, which land at level c - 1.  Those terms see alpha
only through |alpha| and the monomial degree, so gr_c is a direct sum, over
the alpha with |alpha| = c, of copies of one 8-cochain complex K(nu) with
nu = delta - c.  In degree p, K(nu) has one cochain per ascending p-tuple T
whose monomial degree m = -nu - (#X1 in T) + (#Xx2 in T) is nonnegative.
So K(nu) is empty for nu >= 2, and for nu = -s <= -1 it has dimensions 1,
3, 3, 1 and, in basis order,

    d0 = (s, 0, -s)^T,  d1 = [[0, s, 0], [s+1, -2, s+1], [0, s, 0]],
    d2 = (-(s+1), 0, s+1),

of ranks 1, 2, 1 (pivots s and s + 1): K(nu) is acyclic.  The long exact
sequence of 0 -> F_{c-1} -> F_c -> gr_c -> 0 gives H^p(F_{c-1}) = H^p(F_c)
whenever delta - c <= -1, and cohomology commutes with the filtered colimit
over c (C. Weibel, An Introduction to Homological Algebra, 1994, 2.6 and
5.4).  So for a natural shift k, H^2(F_c) is the H^2 of the whole block
for every cap c >= k, and F_c = 0 for c <= k - 2.  When delta is a
negative integer every level has nu <= -1, and when delta is not an
integer the block is empty; either way H^2 = 0 at every cap.  So the
oracle computes the one cap max(k, 1), or 1 without a natural shift, and
takes no cap from its caller: a smaller cap cuts the levels k - 1 and k
(nu = 1 and 0), which carry cohomology, and a larger one gives the same
value more slowly.

The proof reads d only on one level, where its entries are affine in nu.
`_certify_graded_acyclicity` builds K(nu) from the differential tables at
nu = -1 and nu = -2 and compares it with the matrices above, which pins
them for every nu <= -1, and checks from the basis offsets that K(2), and
so every K(nu) with nu >= 2, is empty.  It runs once per process, on first
use (never at import), and raises RuntimeError on a mismatch.  An oracle
result is reported ``stable``, meaning certified: its cap is at least k,
and both this check and the pairing check below passed, since either one
raises rather than let a value through.

On a basis cochain f = x^m Omega^alpha on the ascending tuple S the
differential has a closed form, so the block matrices are written entry
by entry without building any operator:

* action terms: for each generator X_{x^j} not in S, with T = S + {X_{x^j}}
  and the new generator at position i of T, d f gains
  (-1)^i (m + j (delta - |alpha|)) x^(m+j-1) Omega^alpha on T, and when
  j = 2 also -(-1)^i a_l (a_l + 2 lambda_l - 1) x^m Omega^(alpha - e_l) on
  T for each a_l > 0 (the generator action of the operators module);
* bracket terms: for each pair r < s of a (p+1)-tuple T whose bracket
  c gen, put in front of the rest of T, re-sorts to S with permutation
  sign sigma, d f gains (-1)^(r+s) c sigma x^m Omega^alpha on T.

The (S, T, sign, c) tables are derived once from the structure constants.
The generic ``coboundary`` on operator-valued cochains stays as the
independent route the tests compare the block matrices against.

Only the lowering factor a_l (a_l + 2 lambda_l - 1) depends on lambda.
The action and bracket entries and the position of every entry form the
frame of d on a pair of bases; it stores each lowering entry as its
target position, slot l, a_l and -sign, and a column at one lambda is the
frame's column with -sign a_l (a_l + 2 lambda_l - 1) computed from those
indices (`_fill`), with no table of factors.

The oracle reads dim H^2 = |C2| - |C3| - rank d1, where C_p is the
degree-p block at its cap, and ranks d1 on every column of C1.  It does
not rank d2: rank d2 = |C3|.  X1 = d/dx acts on x^m by differentiation,
so it pairs off cochains one degree apart.  Every 3-cochain
(m, alpha, T) is on T = (X1, Xx, Xx2); its partner
(m + 1, alpha, (Xx, Xx2)) has the same eigenvalue and the same |alpha|,
so it lies in C2, and the column of d2 at it has no bracket or lowering
term: its one entry is m + 1 at the 3-cochain, from the j = 0 action
term.  These columns form a diagonal minor of full row rank.  This is
the contracting homotopy of X1 (G. Hochschild and J.-P. Serre, Ann. of
Math. 57, 1953), in the algebraic Morse theory form of E. Skoldberg
(Trans. AMS 358, 2006).  What the proof reads off d, that every partner
is in the basis and that the partner columns are diagonal, with a
nonzero and lambda-independent diagonal, on the X1-containing rows, is
checked from the frame's own entries when a block is first built
(`_certify_pairing`), never assumed.

The oracle reads the eigenvalue-0 block of an integral shift delta at
the cap max(delta, 1) (a non-integral shift leaves it empty), so its
bases, d1 and the sizes of C2 and C3 depend on (n, delta) alone.  They
form an `H2Frame`, built on first use (never at import), once per
(n, delta), and kept in a ``functools.lru_cache`` of at most
``FRAME_CACHE_SIZE`` frames.  Its rows put the X1-containing 2-cochains
first.  A 1-cochain (m, alpha, (X1,)) of the block has
m = |alpha| - delta - 1, so at this cap none exists for delta >= 1, and
X1-containing columns occur only at delta = 0 and at negative shifts,
where the blocks have at most 3 (n + 1) columns.  For delta >= 1, then,
each column (m, alpha, T) with m >= 1 has the row
(m - 1, alpha, X1 + T) that X1 pairs it with as its leading index, and
lands on a fresh pivot, unless an m = 0 column of the same alpha took
that row first.  At cap k that is the rule: each alpha of level k has an
m = 0 column on (Xx,) just before its matched column on (Xx2,), and over
the rows of ``table --n 4 --k-max 4 --oracle on`` with k >= 1, each
echelonised on its own, all 10,813 matched columns are reduced against
it, while the 6,030 columns of level k - 1 are zero.  The rows of a
``table`` share one frame per k, and the rows of one orbit below share
one echelon as well, through the orbit record of `sweep`.  The 5 frames
of that table hold about 0.06 MiB; the frame of a block near the command
line's ``MAX_ORACLE_BLOCK`` ceiling 1.4 MiB (n = 4, k = 18) to 3.1 MiB
(n = 6, k = 10) (``tracemalloc``).

The oracle's value depends on lambda only through the multiset of the
lambda_i.  Permuting the n tensor factors by a slot permutation pi is an
sl(2)-module isomorphism from D_(lambda, mu) onto D_(pi lambda, mu), and
on the block it reads as follows.  Put (pi alpha)_(pi(i)) = alpha_i and
(pi lambda)_(pi(i)) = lambda_i; delta does not change.  The map
(m, alpha, T) -> (m, pi alpha, T) keeps m, T and |alpha|, hence the
eigenvalue and the cap, so it maps every block basis C_p onto itself,
the X1-containing rows of an `H2Frame` onto themselves, and leaves |C2|
and |C3| alone.  In the closed form of d above, the action and bracket
entries read alpha only through |alpha|, and their position
(m', alpha, T') moves to (m', pi alpha, T').  The
lowering entry of slot i at (m, alpha - e_i, T), of factor
a_i (a_i + 2 lambda_i - 1), moves to (m, pi alpha - e_(pi(i)), T), where
the weights pi lambda give slot pi(i) the factor
(pi alpha)_(pi(i)) ((pi alpha)_(pi(i)) + 2 (pi lambda)_(pi(i)) - 1)
= a_i (a_i + 2 lambda_i - 1).  So the columns of d1 at pi lambda are
those at lambda with rows and columns relabelled, entries included: the
same frame filled at either weights has the same rank, and dim H^2 is
the same.  `brute_force_h2` keeps no value: it fills and echelonises
the frame at the weights it is given.  A sweep asks it once per orbit,
through the record of `sweep` keyed by (delta, sorted 2 lambda_i), in
which n and the cap max(k, 1) are determined.
"""

from __future__ import annotations

import functools
import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence

from .closedform import CaseTag, classify
from .linalg import sparse_rank
from .multiindices import MultiIndex, enumerate_up_to, index_weight
from .operators import DiffOperator, act_on_operator
from .polynomials import Polynomial, Scalar, scalar
from .weights import GENERATORS, SL2Generator, Weights, bracket

ArgTuple = tuple[SL2Generator, ...]

#: Ascending basis tuples of each exterior power of the 3-dim algebra.
BASIS_TUPLES: dict[int, tuple[ArgTuple, ...]] = {
    p: tuple(itertools.combinations(GENERATORS, p)) for p in range(4)
}


def _sort_with_sign(args: Sequence[SL2Generator]) -> Optional[tuple[ArgTuple, int]]:
    """Ascending reordering of args and the permutation sign; None if repeated."""
    if len(set(args)) != len(args):
        return None
    order = sorted(range(len(args)), key=lambda i: args[i])
    sign = 1
    perm = list(order)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return tuple(args[i] for i in order), sign


class Cochain:
    """Alternating p-cochain, stored on ascending basis tuples."""

    __slots__ = ("weights", "degree", "components")

    def __init__(self, weights: Weights, degree: int,
                 components: Mapping[ArgTuple, DiffOperator] = ()):
        if degree not in BASIS_TUPLES:
            raise ValueError(f"degree {degree} out of range")
        comps: dict[ArgTuple, DiffOperator] = {}
        items = components.items() if isinstance(components, Mapping) else components
        for key, op in items:
            key = tuple(key)
            if key not in BASIS_TUPLES[degree]:
                raise ValueError(f"{key} is not an ascending basis {degree}-tuple")
            if op.weights != weights:
                raise ValueError("component weights differ from cochain weights")
            if not op.is_zero():
                comps[key] = op
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Cochain is immutable")

    @staticmethod
    def zero(weights: Weights, degree: int) -> "Cochain":
        return Cochain(weights, degree, {})

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cochain):
            return NotImplemented
        return (self.weights, self.degree) == (other.weights, other.degree) and \
            self.components == other.components

    def component(self, key: ArgTuple) -> DiffOperator:
        return self.components.get(tuple(key), DiffOperator.zero(self.weights))

    def evaluate(self, args: Sequence[SL2Generator]) -> DiffOperator:
        """Value on an arbitrary argument tuple, antisymmetry included."""
        if len(args) != self.degree:
            raise ValueError("argument count does not match degree")
        sorted_sign = _sort_with_sign(args)
        if sorted_sign is None:
            return DiffOperator.zero(self.weights)
        key, sign = sorted_sign
        op = self.components.get(key)
        if op is None:
            return DiffOperator.zero(self.weights)
        return op if sign == 1 else -op

    def __repr__(self) -> str:
        body = ", ".join(
            f"({','.join(map(str, k))}): {op!r}" for k, op in sorted(self.components.items()))
        return f"Cochain(deg={self.degree}, {{{body}}})"


def coboundary(f: Cochain) -> Cochain:
    """The Lie-algebra coboundary, raising degree by one."""
    if f.degree > 2:
        raise ValueError("coboundary is only defined up to degree 2 here")
    w = f.weights
    out: dict[ArgTuple, DiffOperator] = {}
    for args in BASIS_TUPLES[f.degree + 1]:
        total = DiffOperator.zero(w)
        for i, u in enumerate(args):
            rest = args[:i] + args[i + 1:]
            value = f.evaluate(rest)
            if not value.is_zero():
                acted = act_on_operator(u, value)
                total = total + (acted if i % 2 == 0 else -acted)
        for i, j in itertools.combinations(range(len(args)), 2):
            br = bracket(args[i], args[j])
            if br is None:
                continue
            coeff, gen = br
            rest = tuple(a for t, a in enumerate(args) if t not in (i, j))
            value = f.evaluate((gen,) + rest)
            if value.is_zero():
                continue
            sign = -1 if (i + j) % 2 else 1
            total = total + value.scale(sign * coeff)
        if not total.is_zero():
            out[args] = total
    return Cochain(w, f.degree + 1, out)


def weight_of(m: int, alpha: MultiIndex, args: Sequence[SL2Generator],
              w: Weights) -> Fraction:
    """Diagonal eigenvalue of the x d/dx action on x^m Omega^alpha (x) args-dual."""
    value = Fraction(m) + w.delta() - index_weight(alpha)
    for g in args:
        value += g.weight_contribution
    return value


@dataclass(frozen=True)
class Truncation:
    """Cap on |alpha| and selected eigenvalue block."""

    alpha_max: int
    weight: int = 0

    def __post_init__(self) -> None:
        if self.alpha_max < 0:
            raise ValueError("alpha_max must be nonnegative")
        if not isinstance(self.weight, int):
            raise TypeError(f"block eigenvalue must be an int, got {self.weight!r}")


#: One basis cochain of a weight block: (m, alpha, args).
BlockElement = tuple[int, MultiIndex, ArgTuple]


def weight_block_basis(p: int, tr: Truncation, w: Weights) -> list[BlockElement]:
    """Ordered basis of the selected eigenvalue block in degree p.

    For each |alpha| <= alpha_max and each ascending p-tuple, the monomial
    degree m = weight - delta + |alpha| - (argument contributions) is pinned
    down by the eigenvalue equation; the element is kept when m >= 0.  Either
    every such m is an integer or none is: the list is empty when
    weight - delta is not an integer, e.g. for a non-integral shift.  A
    block whose monomial degrees exceed an index-sized integer raises
    OverflowError: no polynomial x^m of that degree can be built, so its
    cochains do not exist in the operator layer.
    """
    shift = tr.weight - w.delta()
    if shift.denominator != 1:
        return []
    return _block_basis(p, w.n, int(shift), tr.alpha_max)


def _block_basis(p: int, n: int, shift: int, alpha_max: int) -> list[BlockElement]:
    """The block basis of `weight_block_basis` for an integral shift.

    The cochain on the tuple args at level |alpha| has monomial degree
    offset + |alpha|, with the offset shift - (#X1 in args) + (#Xx2 in args).
    """
    if shift + 1 + alpha_max > sys.maxsize:
        raise OverflowError("monomial degree of the block exceeds an index-sized integer")
    offsets = [(args, shift - sum(g.weight_contribution for g in args))
               for args in BASIS_TUPLES[p]]
    out: list[BlockElement] = []
    for alpha in enumerate_up_to(n, alpha_max):
        level = index_weight(alpha)
        for args, offset in offsets:
            if offset + level >= 0:
                out.append((offset + level, alpha, args))
    return out


def basis_cochain(w: Weights, element: BlockElement) -> Cochain:
    """The cochain x^m Omega^alpha placed on a single basis tuple."""
    m, alpha, args = element
    op = DiffOperator.elementary(w, alpha, Polynomial.monomial(m))
    return Cochain(w, len(args), {args: op})


#: One target of d on a cochain supported on the ascending tuple S:
#: (T, j, sign, c).  When T = S + {X_{x^j}} with the new generator at
#: position i, j is that degree and sign = (-1)^i; otherwise j is None.  c
#: sums (-1)^(r+s) c' sigma over the pairs r < s of T whose bracket c' gen,
#: put in front of the rest of T, re-sorts to S with permutation sign sigma.
DifferentialTerm = tuple[ArgTuple, Optional[int], int, Scalar]


def _differential_table(p: int) -> dict[ArgTuple, tuple[DifferentialTerm, ...]]:
    """Targets of d on degree-p cochains, per source tuple, in target order.

    Read off the coboundary formula on argument tuples alone, with the
    structure constants of `bracket` and the signs of `_sort_with_sign`.
    """
    terms: dict[ArgTuple, dict[ArgTuple, list]] = {s: {} for s in BASIS_TUPLES[p]}
    for target in BASIS_TUPLES[p + 1]:
        for i, g in enumerate(target):
            entry = terms[target[:i] + target[i + 1:]].setdefault(
                target, [None, 0, Fraction(0)])
            entry[0], entry[1] = g.h.degree(), (-1) ** i
        for i, j in itertools.combinations(range(p + 1), 2):
            br = bracket(target[i], target[j])
            if br is None:
                continue
            coeff, gen = br
            rest = tuple(a for t, a in enumerate(target) if t not in (i, j))
            sorted_sign = _sort_with_sign((gen,) + rest)
            if sorted_sign is None:
                continue
            source, sigma = sorted_sign
            entry = terms[source].setdefault(target, [None, 0, Fraction(0)])
            entry[2] += (-1) ** (i + j) * coeff * sigma
    return {source: tuple((t, j, sign, scalar(c)) for t, (j, sign, c) in by_target.items()
                          if j is not None or c)
            for source, by_target in terms.items()}


_DIFFERENTIAL_TABLES = {p: _differential_table(p) for p in range(3)}


#: Bound on the cached frames.  The oracle reads one `H2Frame` per (n,
#: delta), so 32 blocks stay warm: rows visited in any order over up to 32
#: such pairs rebuild none.
FRAME_CACHE_SIZE = 32


#: The lambda-independent part of d on some source cochains: per column,
#: (fixed entries, lowering entries, missing lowering coordinates).
_Frame = tuple[tuple[dict[int, Scalar], tuple[tuple[int, int, int, int], ...],
                     tuple[tuple[BlockElement, int, int], ...]], ...]


def _build_frame(p: int, delta: Scalar, source: Sequence[BlockElement],
                 target: Sequence[BlockElement]) -> _Frame:
    """The frame of d on the source cochains, in coordinates of the target
    basis: one column per source cochain.

    A column holds its fixed entries {target position: value} (action and
    bracket terms, cancelled entries dropped), its lowering entries
    (target position, slot i, a_i, -sign) and its lowering entries whose
    coordinate the target basis lacks (coordinate, slot i, a_i); `_fill`
    computes each lowering value from its own indices.  Within one column
    the bracket term of T and the action term of T meet only when j = 1
    (both at (m, alpha, T)), and the lowering coordinates (|alpha| - 1,
    only on the one T with j = 2) meet nothing, so every entry is written
    once.  A fixed entry outside the target basis is an error here; a
    lowering coordinate outside it is an error only where its factor is
    nonzero, which `_fill` decides per configuration.
    """
    index = {elem: i for i, elem in enumerate(target)}
    table = _DIFFERENTIAL_TABLES[p]
    columns = []
    for m, alpha, args in source:
        order_shift = delta - index_weight(alpha)
        fixed: dict[int, Scalar] = {}
        lowering = []
        missing = []
        for tup, j, sign, c in table[args]:
            if j is None:
                _put(fixed, index, (m, alpha, tup), c)
                continue
            value = sign * (m + j * order_shift)
            if j == 1:
                _put(fixed, index, (m, alpha, tup), c + value)
                continue
            _put(fixed, index, (m, alpha, tup), c)
            _put(fixed, index, (m + j - 1, alpha, tup), value)
            if j != 2:
                continue
            for i, a in enumerate(alpha):
                if a:
                    key = (m, alpha[:i] + (a - 1,) + alpha[i + 1:], tup)
                    pos = index.get(key)
                    if pos is None:
                        missing.append((key, i, a))
                    else:
                        lowering.append((pos, i, a, -sign))
        columns.append((fixed, tuple(lowering), tuple(missing)))
    return tuple(columns)


def _put(column: dict[int, Scalar], index: dict[BlockElement, int],
         key: BlockElement, value: Scalar) -> None:
    """Write a nonzero entry at the target position of key."""
    if value:
        pos = index.get(key)
        if pos is None:
            raise ValueError(f"image coordinate {key} falls outside the block basis")
        column[pos] = value


def _fill(frame: _Frame, twice: Sequence[Scalar]) -> list[dict[int, Scalar]]:
    """The columns of the frame at the weights with these 2 lambda_i: each
    lowering entry (pos, i, a, s) is s a (a + twice_i - 1), computed from
    its own indices, with twice_i - 1 computed once per slot."""
    shifted = [v - 1 for v in twice]
    columns = []
    for fixed, lowering, missing in frame:
        column = fixed.copy()
        for pos, i, a, s in lowering:
            if value := s * a * (a + shifted[i]):
                column[pos] = value
        for key, i, a in missing:
            if a + shifted[i]:
                raise ValueError(f"image coordinate {key} falls outside the block basis")
        columns.append(column)
    return columns


def block_matrix(p: int, tr: Truncation, w: Weights,
                 source: Optional[list[BlockElement]] = None,
                 target: Optional[list[BlockElement]] = None,
                 ) -> list[dict[int, Scalar]]:
    """Columns of the differential block_p -> block_{p+1} as sparse vectors.

    Each column is written straight from the closed form of d on the basis
    cochain x^m Omega^alpha on the tuple S.  For each target tuple T of
    the table above, with its action degree j, sign and bracket sum c:

        sign (m + j (delta - |alpha|))            at (m + j - 1, alpha, T),
        -sign a_i (a_i + 2 lambda_i - 1)          at (m, alpha - e_i, T)
                                                  for j = 2 and each a_i > 0,
        c                                         at (m, alpha, T).

    Only the second line depends on lambda.  The rest, and the position of
    every entry, is the frame of the source and target bases (by default
    the whole blocks of degrees p and p + 1); this call builds it and
    `_fill` computes each lowering entry from its (i, a_i, -sign).  The oracle does not call it: this
    is the full matrix of d that the tests compare the oracle against.

    Entries are exact: ``int`` where delta and every 2 lambda_i are
    integers (delta always is on a nonempty eigenvalue block), else
    ``Fraction``, which the echelon's intake clears.  Coordinates whose
    terms cancel are dropped.  Raising the degree preserves the eigenvalue
    and never increases |alpha|, so every image coordinate must land in the
    target basis; a nonzero entry falling outside it is a hard error, not a
    truncation.
    """
    if source is None:
        source = weight_block_basis(p, tr, w)
    if target is None:
        target = weight_block_basis(p + 1, tr, w)
    return _fill(_build_frame(p, w.delta(), source, target), w.twice_lambdas)


@dataclass(frozen=True)
class H2Frame:
    """The lambda-independent data from which H^2 of one block is read.

    ``d1`` is the frame of d: C1 -> C2 on every source cochain, in basis
    order, with the target rows on X1-containing tuples first, each group
    in basis order.  ``size2`` and ``size3`` are |C2| and |C3|.
    """

    d1: _Frame
    size2: int
    size3: int


def _has_x1(element: BlockElement) -> bool:
    """Whether X1 is an argument; being the least generator, it is the
    first one when present."""
    return SL2Generator.X1 in element[2]


def _certify_pairing(p: int, delta: int, source: Sequence[BlockElement],
                     target: Sequence[BlockElement]) -> None:
    """Check that d: C_p -> C_{p+1} pairs every X1-containing target cochain
    (m, alpha, T) with its partner (m + 1, alpha, T - {X1}) in the source.

    The check reads the frame of d on the partner columns: every partner
    must be in the source basis, and on the X1-containing rows the partner
    columns must form a diagonal minor with a nonzero diagonal (nonzero
    because a frame never stores a zero entry) and no lambda-dependent
    entry.  Raises RuntimeError otherwise.
    """
    rows = [i for i, elem in enumerate(target) if _has_x1(elem)]
    basis = set(source)
    partners = []
    for i in rows:
        m, alpha, args = target[i]
        partner = (m + 1, alpha, args[1:])
        if partner not in basis:
            raise RuntimeError(f"the partner {partner} of {target[i]} is not in the block basis")
        partners.append(partner)
    paired = set(rows)
    frame = _build_frame(p, delta, partners, target)
    for i, partner, (fixed, lowering, _) in zip(rows, partners, frame):
        if [pos for pos in fixed if pos in paired] != [i] or \
                any(entry[0] in paired for entry in lowering):
            raise RuntimeError(f"d on {partner} is not diagonal on the X1 rows at {target[i]}")


@functools.cache
def _certify_graded_acyclicity() -> bool:
    """Check the graded pieces K(nu) of the module docstring against the
    differential tables; raise RuntimeError on a mismatch.

    K(nu) is the block of n = 1 at delta = nu truncated at cap 0: its one
    index alpha = (0,) has the basis offsets of every level with this nu,
    and its frame holds the action and bracket entries alone, since no
    lowering term acts at alpha = 0.  An offset grows with -nu, so K(2)
    being empty makes every K(nu) with nu >= 2 empty, and K(-1) having
    all 1, 3, 3, 1 cochains gives every K(nu) with nu <= -1 all of them.
    Each entry is affine in nu, so the matrices at nu = -1 and -2 pin them
    for every nu <= -1.
    """
    if any(_block_basis(p, 1, -2, 0) for p in range(4)):
        raise RuntimeError("the graded piece K(2) is not empty")
    for s in (1, 2):
        bases = [_block_basis(p, 1, s, 0) for p in range(4)]
        if [len(basis) for basis in bases] != [1, 3, 3, 1]:
            raise RuntimeError(f"the graded piece K({-s}) does not have dimensions 1, 3, 3, 1")
        # d0, d1 and d2 of the module docstring, as row lists
        matrices = ([[s], [0], [-s]],
                    [[0, s, 0], [s + 1, -2, s + 1], [0, s, 0]],
                    [[-(s + 1), 0, s + 1]])
        for p, expected in enumerate(matrices):
            try:
                frame = _build_frame(p, -s, bases[p], bases[p + 1])
            except ValueError as exc:
                raise RuntimeError(f"d{p} of the graded piece K({-s}) leaves it") from exc
            got = [[fixed.get(i, 0) for fixed, _, _ in frame]
                   for i in range(len(bases[p + 1]))]
            if got != expected:
                raise RuntimeError(f"d{p} of the graded piece K({-s}) is {got}, not {expected}")
    return True


def default_alpha_max(delta: Scalar) -> int:
    """Cap max(k, 1) when the shift delta is a natural number k, else 1: the
    smallest cap at which the oracle is certified."""
    return max(int(delta), 1) if delta.denominator == 1 else 1


@functools.lru_cache(maxsize=FRAME_CACHE_SIZE)
def _cached_h2_frame(n: int, delta: int) -> H2Frame:
    """The `H2Frame` of the eigenvalue-0 block of arity n and integral shift
    delta, at the cap `default_alpha_max`; every lambda with this n and
    delta shares it."""
    cap = default_alpha_max(delta)
    c1, c2, c3 = (_block_basis(p, n, -delta, cap) for p in (1, 2, 3))
    _certify_pairing(2, delta, c2, c3)
    rows = sorted(c2, key=lambda e: not _has_x1(e))
    return H2Frame(_build_frame(1, delta, c1, rows), len(c2), len(c3))


class CohomResult(NamedTuple):
    """A computed dimension with its method and provenance flags.

    ``stable`` marks a certified value: for the oracle, computed at a cap
    of at least the natural shift k with both block certificates passed,
    which every oracle result is.  ``tag`` is ``classify(weights)``; it is
    formatted only for output, by :meth:`to_json_dict`.
    """

    dim: int
    method: str
    weights: Weights
    tag: CaseTag
    alpha_max: Optional[int] = None
    stable: Optional[bool] = None

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "method": self.method,
            "alpha_max": self.alpha_max,
            "stable": self.stable,
            "weights": self.weights.to_json_dict(),
            "case": self.tag.describe(),
        }


def brute_force_h2(w: Weights, tag: Optional[CaseTag] = None) -> CohomResult:
    """Brute-force dimension of the degree-2 cohomology on the weight-0 block.

    Computed at the one cap `default_alpha_max`, max(k, 1) for a natural
    shift k and 1 otherwise.  By the filtration of the module docstring,
    checked by `_certify_graded_acyclicity`, that is the H^2 of the whole
    block, so the result is always flagged stable (certified); a failed
    certificate raises instead.

    A non-integral shift leaves the block empty.  Otherwise H^2 is
    |C2| - |C3| - rank d1, rank d2 = |C3| by the pairing of the module
    docstring, all read off the block's `H2Frame` with d1 filled at the
    2 lambda_i of ``w``.  A slot permutation of lambda
    leaves the value unchanged (module docstring), and no value is kept
    here: `sweep` reads each orbit's value from its record.  ``tag`` is
    ``classify(w)``, computed here when not given; it only names the case.
    """
    _certify_graded_acyclicity()
    delta = w.delta()
    if delta.denominator != 1:
        dim = 0
    else:
        frame = _cached_h2_frame(w.n, int(delta))
        dim = frame.size2 - frame.size3 - sparse_rank(_fill(frame.d1, w.twice_lambdas))
    # tuple.__new__ skips the NamedTuple's Python-level __new__ (see
    # closedform.classify)
    return tuple.__new__(CohomResult, (dim, "oracle", w, classify(w) if tag is None else tag,
                                       default_alpha_max(delta), True))
