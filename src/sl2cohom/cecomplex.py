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
a homotopy), which the tests assert rather than assume.  A result is
reported stable only when three consecutive caps agree.  The three caps
are read off one build of the largest: its block basis is ordered by
|alpha|, so each smaller cap's basis is a prefix of it, and each smaller
cap's differential is the matching block of leading columns.

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
The block bases, the action and bracket entries and the position of every
entry depend on (p, n, delta, cap, eigenvalue) alone, so they form a
`BlockFrame` built once per key and kept in a ``functools.lru_cache`` of
at most ``FRAME_CACHE_SIZE`` frames; ``block_matrix`` fills the lowering
factors of one lambda into a copy of the frame's columns.  A sweep
evaluates many lambda per key (a ``table`` row set shares one key per k),
so its oracle time goes into the echelon.  Frames are built on first use,
never at import.  The 10 frames of ``table --n 4 --k-max 4 --oracle on``
hold about 4.3 MiB; the two frames of a block at the command line's
``MAX_ORACLE_BLOCK`` ceiling hold 13-14 MiB (n = 3..5).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .closedform import classify
from .linalg import sparse_prefix_ranks
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

    def __add__(self, other: "Cochain") -> "Cochain":
        if (self.weights, self.degree) != (other.weights, other.degree):
            raise ValueError("cochains are not compatible")
        out = dict(self.components)
        for key, op in other.components.items():
            out[key] = out.get(key, DiffOperator.zero(self.weights)) + op
        return Cochain(self.weights, self.degree, out)

    def __neg__(self) -> "Cochain":
        return self.scale(-1)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + (-other)

    def scale(self, c) -> "Cochain":
        return Cochain(self.weights, self.degree,
                       {k: op.scale(c) for k, op in self.components.items()})

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
    """The block basis of `weight_block_basis` for an integral shift."""
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


#: Bound on the cached block frames.  The oracle reads two frames (degrees
#: 1 and 2) per (n, delta, cap, eigenvalue) block, so 16 blocks stay warm:
#: rows visited in any order over up to 16 such blocks rebuild none.
FRAME_CACHE_SIZE = 32


@dataclass(frozen=True)
class BlockFrame:
    """The lambda-independent part of d: block_p -> block_{p+1}.

    ``columns`` holds, per source basis cochain, its fixed entries
    {target position: value} (action and bracket terms, cancelled entries
    dropped), its lowering slots (target position, slot) and its lowering
    slots whose coordinate the target basis lacks (coordinate, slot).  Slot
    2 (i width + a) + (sign < 0) names the entry -sign a (a + 2 lambda_i - 1)
    of `_lowering_values`.  ``levels`` is |alpha| per source cochain, from
    which the prefix of each smaller cap is read.
    """

    width: int
    levels: tuple[int, ...]
    columns: tuple[tuple[dict[int, Scalar], tuple[tuple[int, int], ...],
                         tuple[tuple[BlockElement, int], ...]], ...]

    def cap_lengths(self, caps: Sequence[int]) -> list[int]:
        """Length of the prefix of the source basis with |alpha| <= cap, per cap."""
        return [bisect.bisect_right(self.levels, cap) for cap in caps]


_EMPTY_FRAME = BlockFrame(1, (), ())


def _build_frame(p: int, delta: Scalar, source: Sequence[BlockElement],
                 target: Sequence[BlockElement]) -> BlockFrame:
    """Frame of d on the source cochains, in coordinates of the target basis.

    Within one column the bracket term of T and the action term of T meet
    only when j = 1 (both at (m, alpha, T)), and the lowering coordinates
    (|alpha| - 1, only on the one T with j = 2) meet nothing, so every
    entry is written once.  A fixed entry outside the target basis is an
    error here; a lowering coordinate outside it is an error only where its
    factor is nonzero, which `_fill` decides per configuration.
    """
    index = {elem: i for i, elem in enumerate(target)}
    table = _DIFFERENTIAL_TABLES[p]
    width = 1 + max((a for _, alpha, _ in source for a in alpha), default=0)
    columns = []
    for m, alpha, args in source:
        order_shift = delta - index_weight(alpha)
        fixed: dict[int, Scalar] = {}
        slots = []
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
                    slot = 2 * (i * width + a) + (sign < 0)
                    pos = index.get(key)
                    if pos is None:
                        missing.append((key, slot))
                    else:
                        slots.append((pos, slot))
        columns.append((fixed, tuple(slots), tuple(missing)))
    return BlockFrame(width, tuple(index_weight(alpha) for _, alpha, _ in source),
                      tuple(columns))


def _put(column: dict[int, Scalar], index: dict[BlockElement, int],
         key: BlockElement, value: Scalar) -> None:
    """Write a nonzero entry at the target position of key."""
    if value:
        pos = index.get(key)
        if pos is None:
            raise ValueError(f"image coordinate {key} falls outside the block basis")
        column[pos] = value


@functools.lru_cache(maxsize=FRAME_CACHE_SIZE)
def _cached_frame(p: int, n: int, delta: int, alpha_max: int, weight: int) -> BlockFrame:
    shift = weight - delta
    return _build_frame(p, delta, _block_basis(p, n, shift, alpha_max),
                        _block_basis(p + 1, n, shift, alpha_max))


def _block_frame(p: int, tr: Truncation, w: Weights) -> BlockFrame:
    """The cached frame of the block of d selected by tr; it reads only
    n and delta off w, so every lambda with the same n and delta shares it."""
    delta = w.delta()
    if (tr.weight - delta).denominator != 1:
        return _EMPTY_FRAME
    return _cached_frame(p, w.n, int(delta), tr.alpha_max, tr.weight)


def _lowering_values(w: Weights, width: int) -> list[Scalar]:
    """-a (a + 2 lambda_i - 1) and a (a + 2 lambda_i - 1) for each slot i
    and each a < width, in the order of `BlockFrame` slots."""
    values: list[Scalar] = []
    for twice in w.twice_lambdas:
        for a in range(width):
            factor = a * (a + twice - 1)
            values += (-factor, factor)
    return values


def _fill(frame: BlockFrame, w: Weights) -> list[dict[int, Scalar]]:
    """The columns of the frame at the weights w."""
    values = _lowering_values(w, frame.width)
    columns = []
    for fixed, slots, missing in frame.columns:
        column = fixed.copy()
        for pos, slot in slots:
            value = values[slot]
            if value:
                column[pos] = value
        for key, slot in missing:
            if values[slot]:
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
    every entry, is the block's `BlockFrame`, cached per (p, n, delta,
    cap, eigenvalue); this call fills the lowering factors in.  Explicit
    ``source``/``target`` lists build an uncached frame the same way.

    Entries are exact: ``int`` where delta and every 2 lambda_i are
    integers (delta always is on a nonempty eigenvalue block), else
    ``Fraction``, which the echelon's intake clears.  Coordinates whose
    terms cancel are dropped.  Raising the degree preserves the eigenvalue
    and never increases |alpha|, so every image coordinate must land in the
    target basis; a nonzero entry falling outside it is a hard error, not a
    truncation.
    """
    if source is None and target is None:
        frame = _block_frame(p, tr, w)
    else:
        if source is None:
            source = weight_block_basis(p, tr, w)
        if target is None:
            target = weight_block_basis(p + 1, tr, w)
        frame = _build_frame(p, scalar(w.delta()), source, target)
    return _fill(frame, w)


@dataclass(frozen=True)
class CohomResult:
    """A computed dimension with its method and provenance flags."""

    dim: int
    method: str
    weights: Weights
    alpha_max: Optional[int] = None
    stable: Optional[bool] = None
    case: str = ""

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "method": self.method,
            "alpha_max": self.alpha_max,
            "stable": self.stable,
            "weights": self.weights.to_json_dict(),
            "case": self.case,
        }


def default_alpha_max(w: Weights) -> int:
    """Cap k + 3 when the shift is a natural number k, else 3."""
    k = w.natural_delta()
    return k + 3 if k is not None else 3


def h2_block_dimensions(w: Weights, caps: Sequence[int], weight: int = 0) -> list[int]:
    """dim ker(d: C2 -> C3) - rank(d: C1 -> C2) on the block truncated at each cap.

    Bases and differentials are built once, at the largest cap.  A smaller
    cap's basis is a prefix of the largest (the basis is ordered by
    |alpha|), and since d never raises |alpha| its matrix is the leading
    columns of the largest, on the same row indices; one incremental
    echelon pass per degree yields every cap's rank.
    """
    if not caps or min(caps) < 0:
        raise ValueError("caps must be a nonempty list of nonnegative integers")
    tr = Truncation(max(caps), weight)
    cuts1 = _block_frame(1, tr, w).cap_lengths(caps)
    cuts2 = _block_frame(2, tr, w).cap_lengths(caps)
    ranks1 = sparse_prefix_ranks(block_matrix(1, tr, w), cuts1)
    ranks2 = sparse_prefix_ranks(block_matrix(2, tr, w), cuts2)
    return [n2 - r2 - r1 for n2, r1, r2 in zip(cuts2, ranks1, ranks2)]


def brute_force_h2(w: Weights, alpha_max: Optional[int] = None) -> CohomResult:
    """Brute-force dimension of the degree-2 cohomology on the weight-0 block.

    Also computes the dimension at alpha_max + 1 and alpha_max + 2, reading
    all three off one build of the block at alpha_max + 2; the result is
    flagged stable only when the three truncations agree, and an unstable
    number is never reported silently (callers must consult the flag).
    """
    if alpha_max is None:
        alpha_max = default_alpha_max(w)
    if alpha_max < 1:
        raise ValueError("alpha_max must be at least 1")
    dims = h2_block_dimensions(w, [alpha_max + extra for extra in range(3)])
    return CohomResult(
        dim=dims[0],
        method="oracle",
        weights=w,
        alpha_max=alpha_max,
        stable=(dims[0] == dims[1] == dims[2]),
        case=classify(w).describe(),
    )
