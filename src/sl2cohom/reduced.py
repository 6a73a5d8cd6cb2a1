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
test suite asserts symbolically.

Two identities of Lambda carry :func:`solve_coboundary`.

* Lambda commutes with the antiderivative (the primitive with zero
  constant term, written Int).  The factors (a_i + 1)(a_i + 2 lambda_i)
  do not depend on x and Int is linear, so
  Lambda(Int F)_a = 1/2 sum_i (a_i + 1)(a_i + 2 lambda_i) Int F_(a + e_i)
  = Int(Lambda(F)_a).
* Lambda respects a scaling by level.  Lambda(F)_a reads F only at level
  |a| + 1.  So if U_b = F_b / s_|b| for every b whose level lies in a set
  L, and U is zero elsewhere, then Lambda(U)_a = Lambda(F)_a / s_(|a| + 1)
  when |a| + 1 lies in L, and 0 otherwise.  For the off-level gauge
  U_b = A_b / (|b| - delta), |b| != k, this reads
  Lambda(U)_a = Lambda(A)_a / (|a| + 1 - delta) for |a| != k - 1, and
  Lambda(U)_a = 0 at |a| = k - 1.

By them no step that builds a witness lowers anything.  A solve builds
its witness in one pass over each family of f, with no intermediate
cochain and no coboundary of a partial gauge, and checks it by
recomputing its coboundary once, independently, from the witness's own
U, V and W, which lowers U and V once each.  A coboundary is a cocycle,
so a witness that passes settles f; only after a failed check is f.A
lowered, for the cocycle check that tells a non-cocycle from a defect.
So a solve that finds a witness lowers at most two nonempty families,
and on an element of :func:`cocycle_basis` one: the witness's V.  An
infeasible solve lowers nothing, and a non-cocycle at most three
families, f.A last.  Every lowering runs through one integer kernel,
:func:`_lower`.

For delta = k a natural number, the closed-coefficient constraint at top
order is the linear system

    sum_i (a_i + 1)(a_i + 2 lambda_i) A_(a + e_i) = 0,   |a| = k - 1,

that is 2 Lambda(A) = 0 on constants, with one equation per multi-index of
weight k - 1 and one unknown per multi-index of weight k.  The rank-based
dimension method reports

    dim = (number of weight-k indices over n-1 slots) + 3 * ell,

where ell is the rank deficiency of that system.  The system is built as
sparse rows and no dense matrix is formed on these paths.
:func:`build_system` fills a fresh system on every call and keeps none:
no command asks for the same system twice.  :func:`cocycle_basis`
echelonises its rows once (a :class:`~sl2cohom.linalg.Factorization`)
and reads both the kernel (``linalg.kernel_basis``) and the leads of the
column space (``linalg.column_space_echelon``) off that one echelon.
Every solve behind :func:`solve_coboundary` (``linalg.solve``) builds
the rows and echelonises them with its right-hand side appended as one
more column.  The caches here follow one rule: an engine caches only
lambda-free structure (the (n, k) frames of the system and the lowering
targets of each index), and a value is memoised once per orbit of the
slot permutations below, in one record, :func:`orbit_record`.
:func:`build_system` takes a :class:`~sl2cohom.weights.Weights`, whose
constructor is the one place a float is refused, and checks no value
again.

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

with N_(k-1) the number of rows, and :func:`dim_h2_via_system` echelonises
only the box rows (``linalg.sparse_rank``); off the singular case the system
has full row rank and no row is built.

A slot with t_i = 0 carries no entry of B: it pins a_i = 0 on every row of
B, where its factor (a_i + 1)(a_i - t_i) vanishes, and b_i = 0 on every
column a row of B meets.  Dropping such slots maps the rows of B and the
columns they meet onto those of the box of the nonzero t_i, in the same
order and with every entry, so both boxes are the same matrix: B is
ranked at n' = #{t_i > 0} slots.

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
So the system's value is read from the orbit record,
:func:`orbit_record`, keyed by the shift and the sorted 2 lambda_i, which
on a miss ranks the box of sorted t once; n is the key's length.  The
record holds the case tag of the orbit's sorted representative and every
method's value of the orbit.  A permutation keeps the tag's kind, k and
sigma and permutes its t, so the tag is the case of every configuration
of the orbit up to the order of t.  The closed-form and summary
predictors read the kind, k and sigma, and t only through ``len``,
``max``, ``count`` and sum(v > m), which a permutation keeps as well,
and the oracle's value is an orbit value by the proof in the
``cecomplex`` docstring.

The box is Q[x_1..x_n]/(x_i^(t_i + 1)) in degrees k - 1 to k, the ring
whose strong Lefschetz property (R. Stanley 1980; J. Watanabe 1987) makes
ell the count max(0, h_(k-1) - h_k) of its Hilbert function:
:func:`ell_count` computes it, with no rank, and carries the proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import lcm
from operator import le
from typing import Iterable, NamedTuple, Optional

from . import linalg
from .cecomplex import Cochain, CohomResult, brute_force_h2
from .closedform import (
    CaseKind,
    CaseTag,
    classify,
    dim_h2_closed_form,
    dim_h2_summary_table,
)
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
from .polynomials import ONE, Polynomial, Scalar, X, divide
from .weights import SL2Generator, Weights

FamilyMap = dict[MultiIndex, Polynomial]


def _add_into(out: FamilyMap, alpha: MultiIndex, poly: Polynomial) -> None:
    """out[alpha] += poly for a nonzero poly; an entry whose sum vanishes goes."""
    prev = out.get(alpha)
    if prev is None:
        out[alpha] = poly
    elif merged := prev + poly:
        out[alpha] = merged
    else:
        del out[alpha]


def _family_add(a: FamilyMap, b: FamilyMap) -> FamilyMap:
    out = dict(a)
    for alpha, poly in b.items():
        _add_into(out, alpha, poly)
    return out


#: Bound on the multi-indices whose lowering targets are kept; a few
#: hundred serve every basis and solve of n <= 4, k <= 5 (``tracemalloc``
#: gives about 0.5 KiB an index at n = 4).
_LOWERING_CACHE_SIZE = 1024


@lru_cache(maxsize=_LOWERING_CACHE_SIZE)
def _lowering_targets(beta: MultiIndex) -> tuple[tuple[int, int, MultiIndex], ...]:
    """(i, b_i, beta - e_i) for each slot i with b_i > 0: the targets that
    :func:`_lower` sends F_beta to, with no lambda in them."""
    return tuple((i, b_i, beta[:i] + (b_i - 1,) + beta[i + 1:])
                 for i, b_i in enumerate(beta) if b_i)


def _lower(weights: Weights, family: FamilyMap) -> FamilyMap:
    """Lambda(F), the lowering map of the module docstring, on its nonzero entries.

    One integer pass: the denominators of 2 lambda_i and of the family's
    coefficients are cleared once, by their lcms, each target's coefficients
    are summed as ``int``, and only a nonzero sum is divided back, through
    :func:`divide`.  A target whose sums all vanish creates no ``Fraction``.
    When every 2 lambda_i is an ``int`` they are used as they are, a
    constant polynomial adds one product per target, and each index's
    targets come from the lambda-free, bounded ``_lowering_targets``.

    A coefficient already held is kept, not recomputed: an ``int`` is read
    as it is and a ``Fraction`` only through its numerator and denominator,
    so no ``Fraction`` arithmetic runs before the one division per nonzero
    sum.  A zero coefficient, such as the constant term of every V = Int A
    of :func:`solve_coboundary`, still adds its ``int`` product: skipping
    it costs more than the integer product it saves.
    """
    if not family:
        return {}
    twice = weights.twice_lambdas
    lam_den = coeff_den = 1
    for t in twice:
        if type(t) is not int:
            lam_den = lcm(lam_den, t.denominator)
    if lam_den != 1:
        twice = [t * lam_den if type(t) is int else t.numerator * (lam_den // t.denominator)
                 for t in twice]
    for poly in family.values():
        for c in poly.coeffs:
            if type(c) is not int:
                coeff_den = lcm(coeff_den, c.denominator)
    sums: dict[MultiIndex, list[int]] = {}
    for beta, poly in family.items():
        cs = poly.coeffs if coeff_den == 1 else [
            c * coeff_den if type(c) is int else c.numerator * (coeff_den // c.denominator)
            for c in poly.coeffs]
        constant = cs[0] if len(cs) == 1 else None
        for i, b_i, target in _lowering_targets(beta):
            # (a_i + 1)(a_i + 2 lambda_i) times lam_den, at a = beta - e_i
            factor = b_i * ((b_i - 1) * lam_den + twice[i])
            if not factor:
                continue
            acc = sums.get(target)
            if constant is not None:
                if acc is None:
                    sums[target] = [factor * constant]
                else:
                    acc[0] += factor * constant
                continue
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


class ReducedOneCochain(NamedTuple):
    """1-cochain in (U, V, W) coordinates.

    Every key of U, V and W is a multi-index of length ``weights.n``, and no
    family holds a zero polynomial.  Construction does not check this: the
    producers of this module keep it, and the tests check their outputs.
    """

    weights: Weights
    U: FamilyMap
    V: FamilyMap
    W: FamilyMap

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


class ReducedTwoCochain(NamedTuple):
    """2-cochain in (A, B, C) coordinates, under the invariant of
    :class:`ReducedOneCochain`."""

    weights: Weights
    A: FamilyMap
    B: FamilyMap
    C: FamilyMap

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


def cocycle_residual(f: ReducedTwoCochain) -> FamilyMap:
    """Per-index obstruction to closedness; f is a cocycle iff all zero.

    The value at a is C_a' + (|a| + 1 - delta) B_a - Lambda(A)_a; only
    nonzero residuals are returned.  Scaled so that the generic coboundary
    of the converted cochain, evaluated on (X1, Xx, Xx2), equals twice the
    residual family (asserted in the tests).
    """
    delta = f.weights.delta()
    out: FamilyMap = {}
    for alpha, c_poly in f.C.items():
        if d_poly := c_poly.derivative():
            out[alpha] = d_poly
    for alpha, b_poly in f.B.items():
        if s := index_weight(alpha) + 1 - delta:
            _add_into(out, alpha, b_poly.scale(s))
    for alpha, a_poly in _lower(f.weights, f.A).items():
        _add_into(out, alpha, -a_poly)
    return out


def coboundary_reduced(b: ReducedOneCochain) -> ReducedTwoCochain:
    """Coboundary of a 1-cochain in reduced coordinates.

    Agrees exactly with the generic complex differential applied to
    ``b.to_cochain()``; the module docstring lists the three coefficient
    families.  Each family is built in one pass: the shift is an ``int``
    when it is integral, and a scaling by zero adds no entry.
    """
    w = b.weights
    delta = w.delta()
    a_fam: FamilyMap = {}
    for alpha, u_poly in b.U.items():
        if s := index_weight(alpha) - delta:
            a_fam[alpha] = u_poly.scale(s)
    for alpha, v_poly in b.V.items():
        if d_poly := v_poly.derivative():
            _add_into(a_fam, alpha, d_poly)
    b_fam = _lower(w, b.U)
    for alpha, w_poly in b.W.items():
        if d_poly := w_poly.derivative():
            _add_into(b_fam, alpha, d_poly)
    c_fam = _lower(w, b.V)
    for alpha, w_poly in b.W.items():
        if s := delta - index_weight(alpha) - 1:
            _add_into(c_fam, alpha, w_poly.scale(s))
    return ReducedTwoCochain(w, a_fam, b_fam, c_fam)


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
    rows.  Each call of :func:`build_system` returns a system of its own,
    so a caller may change its rows: the perturbed self-test of ``verify``
    edits entry (0, 0) in place.  The dense ``matrix`` is derived on
    demand only because the benchmark's tracer counts its cells and the
    tests use it as a reference.
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


#: Bound on the cached (n, k) system frames, the lambda-free part of every
#: system: rows visited in any order over up to 32 (n, k) pairs rebuild
#: none.
SYSTEM_FRAME_CACHE_SIZE = 32

#: Bound on the orbit record, :func:`orbit_record`, which sweeps and
#: :func:`dim_h2_via_system` share.  A sweep visits k in ascending order,
#: so it meets an orbit again only within one k.  The command line's
#: ceilings (``cli.MAX_SWEEP_ROWS`` and ``cli.MAX_SYSTEM_EQUATIONS``) admit
#: at most C(16 + 2, 3) = 816 multisets t at one k (n = 3, k = 16; 741 at
#: n = 2, k = 38, 495 at n = 4, k = 9), and a sweep asks for one more key,
#: its non-resonant row, so every admitted sweep computes each orbit once.
#: A whole sweep with n >= 2 has at most C(38 + 2, 3) = 9,880 orbits
#: (n = 2, k <= 38); those need not fit, since a sweep never returns to a
#: k it has left.
ORBIT_CACHE_SIZE = 1024


class _Frame(NamedTuple):
    """The lambda-free part of the (n, k) constraint system: the index
    tuples and, per row, where each slot's entry goes."""

    rows: tuple[MultiIndex, ...]
    cols: tuple[MultiIndex, ...]
    #: per row alpha, the column of alpha + e_i for each slot i
    patterns: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=SYSTEM_FRAME_CACHE_SIZE)
def _system_frame(n: int, k: int) -> _Frame:
    rows = tuple(enumerate_multiindices(n, k - 1))
    cols = tuple(enumerate_multiindices(n, k))
    col_pos = {c: j for j, c in enumerate(cols)}
    patterns = tuple(tuple(col_pos[add_unit(alpha, i)] for i in range(n)) for alpha in rows)
    return _Frame(rows, cols, patterns)


def _fill(rows: Iterable[tuple[MultiIndex, tuple[int, ...]]],
          twice: tuple[Scalar, ...]) -> list[dict[int, Scalar]]:
    """Each (alpha, pattern) row as its nonzero entries (a_i + 1)(a_i + twice_i),
    in column pattern[i]: the one fill of the system's rows and the box's."""
    return [{j: f for j, a, v in zip(pattern, alpha, twice) if (f := (a + 1) * (a + v))}
            for alpha, pattern in rows]


def build_system(w: Weights) -> LinearSystem:
    """The constraint system of weights with a natural shift k; empty (zero
    rows) when k = 0.  A shift that is not a natural number has no system
    and raises ``ValueError``.

    Only the entries (a_i + 1)(a_i + 2 lambda_i) depend on lambda.  The
    index tuples and, per row alpha, the column of each alpha + e_i are an
    (n, k) frame cached by ``_system_frame``; ``_fill`` computes each row's
    entries from its own index, with no table of factors.
    :func:`_box_deficiency` fills the box rows through the same ``_fill``,
    on the frame of its nonzero t_i.  The cache keeps at most
    ``SYSTEM_FRAME_CACHE_SIZE`` frames; the 6 of n = 4, k <= 5 hold
    25 KiB, and one at the command line's 5,000-equation ceiling 1.4 to
    1.7 MiB for n = 3 to 5 and 1.9 MiB for n = 2, k = 5,000
    (``tracemalloc``).

    The rows are filled afresh on every call from ``w.twice_lambdas``,
    whose values were checked once, when ``Weights`` was built, which is
    where a float is refused; no system is kept, so the caller owns the
    one it gets.
    """
    k = w.natural_delta()
    if k is None:
        raise ValueError("the constraint system requires a natural shift")
    frame = _system_frame(w.n, k)
    equations = tuple(_fill(zip(frame.rows, frame.patterns), w.twice_lambdas))
    return LinearSystem(frame.rows, frame.cols, equations)


def _box_deficiency(k: int, t: tuple[int, ...]) -> int:
    """|B| - rank(B) of the box B = {a <= t} at shift k, for sorted t.

    A slot with t_i = 0 carries no entry of B (module docstring), so B is
    built on the nonzero part t' of t: the rows of the (n', k) frame whose
    index a satisfies a <= t', in frame order, each filled by ``_fill``
    with twice_i = -t'_i.
    """
    t = t[t.count(0):]  # sorted, so the zeros lead
    frame = _system_frame(len(t), k)
    box = _fill(((alpha, pattern) for alpha, pattern in zip(frame.rows, frame.patterns)
                 if all(map(le, alpha, t))), tuple(-t_i for t_i in t))
    return len(box) - linalg.sparse_rank(box)


@lru_cache(maxsize=ORBIT_CACHE_SIZE)
def orbit_record(delta: Scalar, sorted_twice_lambdas: tuple[Scalar, ...],
                 oracle: bool) -> tuple:
    """(dim_system, dim_closed, dim_summary, dim_oracle, stable, tag) of the
    orbit of the shift delta and the sorted 2 lambda_i (module docstring).

    Computed once per key, on the orbit's sorted representative: the
    weights lambda_i = v_i / 2, for the key's v_i, and mu = delta +
    sum(lambda_i).  ``tag`` is ``classify`` of that representative: its
    kind, k and sigma, and so the counts s and r, are those of every
    configuration of the orbit, and its t is the representative's.  Both
    predictors are always filled, since they are arithmetic on the tag;
    the oracle runs only when ``oracle`` is set, and its two fields are
    None otherwise.
    """
    lambdas = [Fraction(v, 2) for v in sorted_twice_lambdas]
    w = Weights(lambdas, delta + sum(lambdas))
    kind, k, t, _ = tag = classify(w)
    n = len(lambdas)
    system = 0 if kind is CaseKind.NON_INTEGER_DELTA else multiset_coeff(n - 1, k)
    if kind is CaseKind.SINGULAR:
        system += 3 * _box_deficiency(k, tuple(sorted(t)))
    result = brute_force_h2(w, tag) if oracle else None
    return (system, dim_h2_closed_form(tag, n), dim_h2_summary_table(tag, n),
            None if result is None else result.dim,
            None if result is None else result.stable, tag)


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

    The system is block-diagonal over S(a) = {free slots} | {i : a_i > t_i},
    and every block with S nonempty has full row rank (proof in the module
    docstring).  So ell is 0 off the singular case and |B| - rank(B) on
    it, where only the rows of the box B = {a <= t}, picked from the
    frame of the nonzero t_i by that test on their index, are built and
    echelonised.
    A slot permutation carries the box of t onto that of the permuted t
    with every entry (module docstring), so the value is read from
    :func:`orbit_record`: the rows of one orbit share one echelon.
    """
    dim = orbit_record(w.delta(), tuple(sorted(w.twice_lambdas)), False)[0]
    tag = classify(w) if tag is None else tag
    # tuple.__new__ skips the NamedTuple's Python-level __new__ (see
    # closedform.classify)
    return tuple.__new__(CohomResult, (dim, "system", w, tag, None, True))


def ell_count(w: Weights) -> int:
    """ell, the rank deficiency of the constraint system, counted with no rank.

    Off the singular case of :func:`~sl2cohom.closedform.classify` the
    system has full row rank (module docstring), and ell = 0.  On it, put
    t_i = -2 lambda_i, T = sum t_i, and let h_j be the coefficient of q^j
    in prod_i (1 + q + ... + q^(t_i)), the Hilbert function of the box ring
    Q[x_1..x_n]/(x_i^(t_i + 1)).  Then

        ell = max(0, h_(k-1) - h_k),

    which is the multiplicity of the irreducible V_(2k-2-T) in
    V_(t_1) (x) ... (x) V_(t_n), and 0 when 2k - 2 < T.

    Proof, by the strong Lefschetz property of the box ring (R. Stanley
    1980; J. Watanabe 1987) in the sl(2) form of R. A. Proctor (SIAM J.
    Algebraic Discrete Methods 3, 1982).

    * Give V_t the basis x^j, 0 <= j <= t, with f x^j = x^(j+1),
      e x^j = j (t - j + 1) x^(j-1) and h x^j = (t - 2j) x^j: the
      irreducible sl(2)-module of dimension t + 1.  This is a second
      sl(2), not the one of the vector fields.  On the tensor product V,
      x^a = x_1^(a_1) ... x_n^(a_n) has weight T - 2|a|, so the weight
      space W_j of weight T - 2j has the basis {x^a : a <= t, |a| = j},
      of dimension h_j.
    * e x^b has coefficient b_i (t_i - b_i + 1) at x^(b - e_i).  At
      a = b - e_i that is (a_i + 1)(t_i - a_i), minus the box entry of
      row a and column a + e_i.  So the box B, rows W_(k-1) and columns
      W_k, is -e: W_k -> W_(k-1), and |B| - rank(B) = h_(k-1) - rank(e)
      is the dimension of the cokernel of e.
    * V is a direct sum of irreducibles V_d (H. Weyl), and on V_d,
      e maps weight m onto weight m + 2 whenever both are weights of V_d.
      Put m = T - 2k.  If m >= -1, every V_d with the weight m + 2 has
      the weight m, so e is onto W_(k-1), and h_(k-1) <= h_k.  If
      m <= -2, the summands with the weight m + 2 but not m are the V_d
      with d = -m - 2 = 2k - 2 - T, and they span the cokernel; their
      count is h_(k-1) - h_k.

    The count takes one pass of prefix sums per nonzero slot, truncated
    at degree min(k, T): h_j = 0 beyond T, and a slot with t_i = 0
    multiplies by 1.
    """
    kind, k, t, sigma = classify(w)
    if kind is not CaseKind.SINGULAR:
        return 0
    top = min(k, sigma)
    h = [1] + [0] * top
    for t_i in t:
        if t_i:
            prefix = list(accumulate(h))
            h = [s - prefix[j - t_i - 1] if j > t_i else s for j, s in enumerate(prefix)]
    below, at = (h[j] if j <= top else 0 for j in (k - 1, k))
    return max(0, below - at)


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

    The kernel and the column space are read off one factorization of
    the system's rows.  The coordinates completing the column space are
    the rows that are combinations of the rows before them (proof in
    ``linalg``).

    A coefficient already held is kept, not recomputed: each kernel entry
    becomes its constant polynomial as the object it is, with no zero test,
    as every entry of a sparse kernel vector is nonzero, and the int 1 of
    each free column shares ``ONE``.
    """
    system = build_system(w)
    factorization = linalg.Factorization(system.equations, len(system.col_index))
    cols, new, constant = system.col_index, tuple.__new__, Polynomial._nonzero_constant
    # positional construction, skipping the NamedTuple's Python-level __new__
    out = [new(ReducedTwoCochain, (w, {cols[j]: constant(c) for j, c in vec.items()}, {}, {}))
           for vec in linalg.kernel_basis(factorization)]
    covered = set(linalg.column_space_echelon(factorization))
    complement = [alpha for i, alpha in enumerate(system.row_index) if i not in covered]
    out += [new(ReducedTwoCochain, (w, {}, {alpha: ONE}, {})) for alpha in complement]
    out += [new(ReducedTwoCochain, (w, {}, {}, {alpha: ONE})) for alpha in complement]
    return out


def solve_coboundary(f: ReducedTwoCochain) -> Optional[ReducedOneCochain]:
    """Exact solution b of (coboundary of b) = f, or None when none exists.

    The decision is exact, with no degree or support truncation, and uses
    the two identities of the module docstring.  A witness is built first,
    in one pass over each family of f, and verified; f is lowered only when
    the verification fails.

    1. The construction below runs on any f, cocycle or not: the gauge
       denominators of step 2 are nonzero off the critical levels, and
       every level-(k - 1) index is a row of the constraint system, so the
       right-hand side of step 4 is always placed.  Only what it proves
       needs f to be a cocycle.
    2. Away from the critical levels |a| = k (top family) and |a| = k - 1
       (middle and bottom families) the gauges U_a = A_a / (|a| - delta)
       and W_a = C_a / (delta - |a| - 1) remove f, the denominators being
       nonzero there.  Their coboundary has A-part A and C-part C off those
       levels, and B-part W' + Lambda(U).  By the scaling of Lambda(U) by
       level, that is (Lambda(A)_a - C_a') / (|a| + 1 - delta) = B_a off
       level k - 1, by the cocycle condition, and 0 at level k - 1.  So f
       minus their coboundary is the critical part of f, found with no
       lowering: A at level k, B and C at level k - 1.  Every level is
       off-critical when delta is not a natural number (k is None: no
       index is at level k or k - 1), which settles that case.
    3. At level k - 1 the middle family B is the derivative of the W gauge
       Int B, whose coboundary is (0, B, 0): its A-part is empty, as the
       gauge has no U or V; its B-part is (Int B)' = B; and its C-part
       (delta - |a| - 1) Int B vanishes at |a| = k - 1.  So it removes B
       and leaves (A, 0, C) on the critical levels, and no coboundary
       is computed to see it.
    4. The top family A (level k) and the bottom family C (level k - 1)
       are coupled through V = Int A + c, with c constant at level k.  Its
       coboundary has A-part A and C-part Lambda(Int A) + Lambda(c)
       = Int Lambda(A) + Lambda(c), as Lambda commutes with Int.  The
       cocycle condition at level k - 1 reads C' = Lambda(A), so
       C - Int Lambda(A) is the constant C(0), and A and C die together iff
       Lambda(c) = C(0) on constants.  The certificate is an exact linear
       solve on the system's rows, right-hand side 2 C(0), needed only when
       C(0) is nonzero.  When it is infeasible f is no coboundary: a
       cocycle by step 4's argument, and a non-cocycle in any case.

    So each family of f is read once: A gives the off-level U gauges and
    V = Int A at level k, B at level k - 1 gives the W gauge Int B, and C
    gives the off-level W gauges and the obstruction C(0) at level k - 1.
    The witness is verified by recomputing its coboundary from its own U,
    V and W through :func:`coboundary_reduced`, which lowers U and V once
    each and reuses no value the construction derived.  A coboundary is a
    cocycle, so a verified witness settles f with no cocycle check.  Only
    when the verification fails is f.A lowered, by
    :func:`cocycle_residual`: a non-cocycle is never a coboundary and
    gives None, while a cocycle that steps 2-4 did not solve is a defect
    of the construction and raises ``AssertionError``.
    """
    w = f.weights
    delta = w.delta()
    k = w.natural_delta()
    middle_level = None if k is None else k - 1

    # A: the off-level U gauges of step 2 and, at level k, V = Int A (step 4).
    u_fam: FamilyMap = {}
    v_fam: FamilyMap = {}
    for alpha, a_poly in f.A.items():
        level = index_weight(alpha)
        if level == k:
            v_fam[alpha] = a_poly.antiderivative()
        else:
            u_fam[alpha] = a_poly.scale(divide(1, level - delta))
    # C: the off-level W gauges of step 2 and, at level k - 1, the obstruction C(0).
    w_fam: FamilyMap = {}
    obstruction: dict[MultiIndex, Scalar] = {}
    for alpha, c_poly in f.C.items():
        level = index_weight(alpha)
        if level != middle_level:
            w_fam[alpha] = c_poly.scale(divide(1, delta - level - 1))
        elif c := c_poly.coefficient(0):
            obstruction[alpha] = c
    # B at level k - 1: the W gauge Int B of step 3, on a level apart from step 2's.
    for alpha, b_poly in f.B.items():
        if index_weight(alpha) == middle_level:
            w_fam[alpha] = b_poly.antiderivative()

    # Step 4: Lambda(c) = C(0); a zero C(0) is met by c = 0.
    if obstruction:
        system = build_system(w)
        rhs = [2 * obstruction.get(alpha, 0) for alpha in system.row_index]
        solution = linalg.solve(system.equations, len(system.col_index), rhs)
        if solution is None:
            return None
        for alpha, c in zip(system.col_index, solution):
            if c:
                _add_into(v_fam, alpha, Polynomial._nonzero_constant(c))
    witness = ReducedOneCochain(w, u_fam, v_fam, w_fam)
    if coboundary_reduced(witness) == f:
        return witness
    if cocycle_residual(f):
        return None
    raise AssertionError("coboundary witness failed verification")
