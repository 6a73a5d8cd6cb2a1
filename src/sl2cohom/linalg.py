"""Exact linear algebra over the rationals, on one fraction-free sparse echelon.

Every rank, kernel and solve runs the same elimination: vectors are stored
as dictionaries {index: value} of their nonzero entries and inserted one at
a time into an echelon keyed by leading (minimal) index.  The elimination
is fraction-free (Bareiss, Math. Comp. 22, 1968): each incoming vector has
its denominators cleared once and is divided by its content, a floating
point entry being refused; it is reduced by v <- a v - b row, with a and b
the two pivot entries divided by their gcd; and every echelon row is
stored as a primitive ``int`` row.  No ``Fraction`` arithmetic runs inside
the elimination.

A :class:`Factorization` echelonises the rows of a matrix M once, in
order, keeps the lead each row added, and back-substitutes to the reduced
row echelon form.  The back-substitution clears every reduced row at the
other leads and divides by the content only a row it changed: a row no
substitution touched is still the primitive row the forward pass stored.
Two reads share it.

* ``kernel_basis`` reads the kernel off the reduced row echelon form,
  which is unique up to the scale of each row, so the vectors do not
  depend on the order of elimination.  Each vector is sparse, read
  straight off the reduced rows: the free column x_f = 1 and, for every
  reduced row that meets column f, x_lead = -row[f] / row[lead].  The
  dense cols x (cols - rank) array is never formed.
* ``column_space_echelon`` gives the leading indices of an echelon basis
  of the column space C of M, a subspace of Q^(rows).  They are the rows
  that did not reduce to zero.  Proof: i leads an echelon basis of C iff
  some y in C has y_0 = ... = y_(i-1) = 0 != y_i, iff projecting C onto
  the coordinates 0..i has dimension one more than projecting it onto
  0..i-1.  The projection of C onto coordinates 0..i is the column space
  of rows 0..i of M, whose dimension is their rank.  So i leads iff row i
  is independent of rows 0..i-1, which is when inserting it in order
  leaves a remainder.  The complement of these leads completes the
  column space to Q^(rows).

``solve`` runs the same two passes on the augmented rows of textbook
Gauss-Jordan: the rows of M with -r appended as column ``cols``.  The
system M x = r is infeasible iff the row space of [M | -r] holds a vector
that vanishes off column ``cols`` and not on it, that is iff some echelon
row leads at ``cols``; the forward pass decides it at the first row that
leads there, and stops: no later row is inserted and nothing is
back-substituted.  Otherwise the reduced row led at j gives
x_j = -row[cols] / row[j], and free coordinates are 0.  That is the one
solution whose free coordinates vanish, whatever the order of
elimination.  A solve echelonises its augmented rows afresh and keeps
nothing.

No column combination is tracked: its fill-in grows along long chains
such as the bidiagonal n = 2 system.  ``rank`` and ``sparse_rank`` insert
into the same echelon and back-substitute nothing.  The dense
``RationalMatrix`` and its ``rank`` remain because the benchmark's tracer
binds both and the tests use them as references; ``rank`` hands the
nonzero entries to the engine.  There is one engine; no other elimination
routine exists.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Sequence

from .polynomials import Scalar, divide, exact, scalar


class RationalMatrix:
    """Dense row-major matrix of exact rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Scalar]], cols: Optional[int] = None):
        data = [[exact(v) for v in row] for row in entries]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
        else:
            width = cols or 0
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width if data else (cols or 0))
        object.__setattr__(self, "entries", data)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("RationalMatrix is immutable")

    def mat_vec(self, vec: Sequence[Scalar]) -> list[Fraction]:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        vec = [exact(v) for v in vec]
        return [sum((a * b for a, b in zip(row, vec)), Fraction(0))
                for row in self.entries]

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


def rank(matrix: RationalMatrix) -> int:
    """Exact rank: the sparse echelon rank of the matrix's rows."""
    return sparse_rank([{j: v for j, v in enumerate(row) if v} for row in matrix.entries])


class Factorization:
    """The reduced row echelon form of a sparse matrix.

    ``reduced`` maps each lead to its row of the reduced echelon form, a
    primitive ``int`` row.  ``leads[i]`` is the leading index of the
    echelon row that row i added, or None when row i reduced to zero
    against the rows before it.
    """

    __slots__ = ("cols", "reduced", "leads")

    def __init__(self, rows: Sequence[Mapping[int, Scalar]], cols: int):
        self.cols = cols
        self.reduced, self.leads = _echelon(rows)
        _back_substitute(self.reduced)


def kernel_basis(factorization: Factorization) -> list[dict[int, Scalar]]:
    """Basis of the null space of the factorised rows; exactly cols - rank vectors.

    Free columns are parametrised in ascending column order, so the result
    is deterministic.  Each vector is sparse, {column: value} of its
    nonzero entries: 1 at its free column and -row[free] / row[lead] at the
    lead of every reduced row that meets that column.  An entry is an
    ``int`` wherever it is integral.
    """
    reduced = factorization.reduced
    basis = {free: {free: 1} for free in range(factorization.cols) if free not in reduced}
    for lead, row in reduced.items():
        pivot = -row[lead]
        for free, c in row.items():
            if free != lead:
                # the int branch of divide: the reduced rows hold ints
                q, rem = divmod(c, pivot)
                basis[free][lead] = Fraction(c, pivot) if rem else q
    return list(basis.values())


def solve(rows: Sequence[Mapping[int, Scalar]], cols: int,
          rhs: Sequence[Scalar]) -> Optional[list[Scalar]]:
    """The solution of M x = rhs, M being the sparse rows on cols columns,
    or None when the system is infeasible.

    Each row enters the echelon with -rhs appended at column cols.  The
    first row that leads at cols means 0 = nonzero: the answer is None,
    and neither the rows after it nor the back-substitution run.
    Otherwise each reduced row gives x[lead] = -row[cols] / row[lead], and
    free coordinates are 0.  An entry is an ``int`` wherever it is
    integral.
    """
    if len(rhs) != len(rows):
        raise ValueError("dimension mismatch")
    rhs = [y if type(y) is int else scalar(y) for y in rhs]  # refuses a float, zero or not
    echelon: dict[int, dict[int, int]] = {}
    for row, y in zip(rows, rhs):
        vec = {**row, cols: -y} if y else row
        v = _intake(vec)
        if _insert(v, v is not vec, echelon) == cols:
            return None
    _back_substitute(echelon)
    x: list[Scalar] = [0] * cols
    for lead, row in echelon.items():
        if c := row.get(cols):
            x[lead] = divide(-c, row[lead])
    return x


def column_space_echelon(factorization: Factorization) -> list[int]:
    """Leading (minimal) indices of an echelon basis of the column space of
    the factorised rows, ascending: the rows that are independent of the
    rows before them (proof in the module docstring)."""
    return [i for i, lead in enumerate(factorization.leads) if lead is not None]


# ---------------------------------------------------------------------------
# The engine: a fraction-free echelon of sparse vectors {index: value}.
# ---------------------------------------------------------------------------


def sparse_rank(vectors: list[dict[int, Scalar]]) -> int:
    """Rank of the span of sparse vectors, by incremental echelon reduction."""
    return len(_echelon(vectors)[0])


def _echelon(vectors: Sequence[Mapping[int, Scalar]]
             ) -> tuple[dict[int, dict[int, int]], list[Optional[int]]]:
    """Echelon of primitive integer rows keyed by leading (minimal) index,
    and the lead each vector added, None for a vector that reduced to zero."""
    echelon: dict[int, dict[int, int]] = {}
    leads = []
    for vec in vectors:
        v = _intake(vec)
        leads.append(_insert(v, v is not vec, echelon))
    return echelon, leads


def _back_substitute(echelon: dict[int, dict[int, int]]) -> None:
    """Clear every echelon row at the other leads, from the largest lead
    down, and divide by its content only a row that changed: a row no
    substitution touched is still the primitive row :func:`_insert` stored."""
    for lead in sorted(echelon, reverse=True):
        row = echelon[lead]
        pivots = [i for i in row if i != lead and i in echelon]
        for pivot in pivots:
            row = _eliminate(row, pivot, echelon[pivot])
        if pivots:
            echelon[lead] = _primitive(row)


def _insert(v: dict[int, int], owned: bool, echelon: dict[int, dict[int, int]]) -> Optional[int]:
    """Reduce the primitive integer vector v (from :func:`_intake`) against
    echelon and keep the remainder, if any, as a new row.

    Returns the new row's lead, or None when v reduces to zero.  v is
    changed only when ``owned``, i.e. when `_intake` made it; otherwise it
    is the caller's vector and is copied when it becomes a row or is first
    reduced.  A vector stored without any elimination is already
    primitive.
    """
    reduced = False
    while v:
        lead = min(v)
        row = echelon.get(lead)
        if row is None:
            if reduced:
                v = _primitive(v)
            elif not owned:
                v = dict(v)
            echelon[lead] = v
            return lead
        v = _eliminate(v, lead, row, owned)
        owned = reduced = True
    return None


def _intake(vec: Mapping[int, Scalar]) -> dict[int, int]:
    """vec as a primitive integer vector of its nonzero entries, a positive
    multiple of vec.

    Denominators are cleared once, by their lcm; a float is refused.  A
    primitive integer vector without zero entries is returned as it is.
    """
    try:
        g = gcd(*vec.values())
    except TypeError:  # a Fraction, or a float that exact refuses
        q = {i: exact(c) for i, c in vec.items()}
        den = lcm(*(c.denominator for c in q.values()))
        return _primitive({i: c.numerator * (den // c.denominator) for i, c in q.items() if c})
    if g > 1:
        return {i: c // g for i, c in vec.items() if c}
    if 0 in vec.values():
        return {i: c for i, c in vec.items() if c}
    return vec


def _primitive(v: dict[int, int]) -> dict[int, int]:
    """v divided by the gcd of its entries."""
    g = gcd(*v.values())
    if g > 1:
        return {i: c // g for i, c in v.items()}
    return v


def _eliminate(v: dict[int, int], at: int, row: dict[int, int],
               in_place: bool = True) -> dict[int, int]:
    """a v - b row, which vanishes at ``at``; entries that cancel are dropped.

    a and b are row[at] and v[at] divided by their gcd.  v is updated in
    place only when in_place is set; row never is.
    """
    b, a = v[at], row[at]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        v = {i: a * c for i, c in v.items()}
    elif not in_place:
        v = dict(v)
    for i, c in row.items():
        new = v.get(i, 0) - b * c
        if new:
            v[i] = new
        else:
            del v[i]
    return v
