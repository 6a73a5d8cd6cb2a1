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

A :class:`Factorization` echelonises the rows of a matrix M once, in order,
back-substitutes to the reduced row echelon form and logs every row
operation on the way: the intake scale, each a v - b row and each division
by the content.  The back-substitution clears every reduced row at the
other leads and divides by the content only a row it changed: a row no
substitution touched is still the primitive row the forward pass stored.
Three reads share it.

* ``kernel_basis`` reads the kernel off the reduced row echelon form,
  which is unique up to the scale of each row, so the vectors do not
  depend on the order of elimination.  Each vector is sparse, read
  straight off the reduced rows: the free column x_f = 1 and, for every
  reduced row that meets column f, x_lead = -row[f] / row[lead].  The
  dense cols x (cols - rank) array is never formed.
* ``solve`` replays the log on a right-hand side, in integers except
  where a division by a content or an intake scale is inexact (through
  :func:`~sl2cohom.polynomials.divide`).  A row that reduced to zero is a
  combination of the rows before it, so the system is infeasible iff the
  replayed value of such a row is nonzero; otherwise the reduced row led
  at j with value v gives x_j = v / row[j], and free coordinates are 0.
  That is the one solution whose free coordinates vanish, whatever the
  order of elimination.
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

No column combination is tracked: its fill-in grows along long chains
such as the bidiagonal n = 2 system, while the log holds one record per
row operation.  ``rank`` and ``sparse_rank`` insert into the same echelon
and log nothing.  The dense ``RationalMatrix`` and its ``rank`` remain
because the benchmark's tracer binds both and the tests use them as
references; ``rank`` hands the nonzero entries to the engine.  There is
one engine; no other elimination routine exists.
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


def _sparse_rows(matrix: RationalMatrix) -> list[dict[int, Fraction]]:
    """The rows of a dense matrix as sparse vectors of their nonzero entries."""
    return [{j: v for j, v in enumerate(row) if v} for row in matrix.entries]


def rank(matrix: RationalMatrix) -> int:
    """Exact rank: the sparse echelon rank of the matrix's rows."""
    return sparse_rank(_sparse_rows(matrix))


#: (at, a, b): the row operation v <- a v - b row, row being the echelon row led by at.
Step = tuple[int, int, int]


class Factorization:
    """The reduced row echelon form of a sparse matrix, with the row
    operations that built it.

    Row i is scaled to a primitive integer vector, i.e. multiplied by
    num / den, reduced by ``steps`` and divided by the content g of what
    is left; ``inserts[i]`` is (num, den, steps, g, lead), lead being the
    leading index of the new echelon row, or None when row i reduced to
    zero.  ``substitutions`` then lists, from the largest lead down, the
    (lead, steps, g) that clear each row at every other lead.  ``reduced``
    maps each lead to its row of the reduced echelon form, a primitive
    ``int`` row.
    """

    __slots__ = ("cols", "reduced", "inserts", "substitutions")

    def __init__(self, rows: Sequence[Mapping[int, Scalar]], cols: int):
        echelon: dict[int, dict[int, int]] = {}
        inserts = []
        for vec in rows:
            v, num, den = _intake(vec)
            steps: list[Step] = []
            lead, g = _insert(v, v is not vec, echelon, steps)
            inserts.append((num, den, tuple(steps), g, lead))
        substitutions = []
        for lead in sorted(echelon, reverse=True):
            row = echelon[lead]
            steps = []
            for pivot in [i for i in row if i != lead and i in echelon]:
                row = _eliminate(row, pivot, echelon[pivot], steps=steps)
            if steps:  # an untouched row is still the primitive row _insert stored
                echelon[lead], g = _primitive(row)
                substitutions.append((lead, tuple(steps), g))
        self.cols = cols
        self.reduced = echelon
        self.inserts = tuple(inserts)
        self.substitutions = tuple(substitutions)


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


def solve(factorization: Factorization, rhs: Sequence[Scalar]) -> Optional[list[Scalar]]:
    """The solution of M x = rhs read off the factorisation of M, or None
    when the system is infeasible.

    The logged row operations are replayed on rhs.  A row that reduced to
    zero must meet a zero value, else 0 = nonzero; otherwise the value v of
    each reduced row gives x[lead] = v / row[lead], and free coordinates
    are 0.  An entry is an ``int`` wherever it is integral.
    """
    if len(rhs) != len(factorization.inserts):
        raise ValueError("dimension mismatch")
    value: dict[int, Scalar] = {}
    for y, (num, den, steps, g, lead) in zip(rhs, factorization.inserts):
        if type(y) is not int:
            y = scalar(y)
        if y and (num != 1 or den != 1):
            y = divide(y * num, den)
        for at, a, b in steps:
            y = a * y - b * value[at]
        if lead is None:
            if y:
                return None
            continue
        value[lead] = divide(y, g) if y and g != 1 else y
    for lead, steps, g in factorization.substitutions:
        y = value[lead]
        for at, a, b in steps:
            y = a * y - b * value[at]
        value[lead] = divide(y, g) if y and g != 1 else y
    x: list[Scalar] = [0] * factorization.cols
    for lead, row in factorization.reduced.items():
        y = value[lead]
        if y:
            x[lead] = divide(y, row[lead])
    return x


def column_space_echelon(factorization: Factorization) -> list[int]:
    """Leading (minimal) indices of an echelon basis of the column space of
    the factorised rows, ascending: the rows that are independent of the
    rows before them (proof in the module docstring)."""
    return [i for i, (*_, lead) in enumerate(factorization.inserts) if lead is not None]


# ---------------------------------------------------------------------------
# The engine: a fraction-free echelon of sparse vectors {index: value}.
# ---------------------------------------------------------------------------


def sparse_rank(vectors: list[dict[int, Scalar]]) -> int:
    """Rank of the span of sparse vectors, by incremental echelon reduction."""
    return len(_echelon(vectors))


def _echelon(vectors: list[dict[int, Scalar]]) -> dict[int, dict[int, int]]:
    """Echelon of primitive integer rows keyed by leading (minimal) index."""
    echelon: dict[int, dict[int, int]] = {}
    for vec in vectors:
        v = _intake(vec)[0]
        _insert(v, v is not vec, echelon)
    return echelon


def _insert(v: dict[int, int], owned: bool, echelon: dict[int, dict[int, int]],
            steps: Optional[list[Step]] = None) -> tuple[Optional[int], int]:
    """Reduce the primitive integer vector v (from :func:`_intake`) against
    echelon and keep the remainder, if any, as a new row.

    Returns the new row's lead and the content the remainder was divided
    by, or (None, 1) when v reduces to zero.  ``steps``, when given,
    receives every elimination in order.  v is changed only when
    ``owned``, i.e. when `_intake` made it; otherwise it is the caller's
    vector and is copied when it becomes a row or is first reduced.  A
    vector stored without any elimination is already primitive.
    """
    reduced = False
    while v:
        lead = min(v)
        row = echelon.get(lead)
        if row is None:
            g = 1
            if reduced:
                v, g = _primitive(v)
            elif not owned:
                v = dict(v)
            echelon[lead] = v
            return lead, g
        v = _eliminate(v, lead, row, owned, steps)
        owned = reduced = True
    return None, 1


def _intake(vec: dict[int, Scalar]) -> tuple[dict[int, int], int, int]:
    """vec as a primitive integer vector v of its nonzero entries, and the
    scale num / den, in lowest terms, with v = (num / den) vec.

    Denominators are cleared once, by their lcm L; a float is refused.  A
    primitive integer vector without zero entries is returned as it is.
    The scale L / g, g the content left after clearing, is in lowest
    terms: for each prime p dividing L, some entry's denominator holds
    the whole power of p in L, so that entry's cleared numerator, its
    numerator times L over its denominator, is prime to p, and p does
    not divide g.  A zero vector has scale 1.
    """
    try:
        g = gcd(*vec.values())
    except TypeError:  # a Fraction, or a float that exact refuses
        q = {i: exact(c) for i, c in vec.items()}
        den = lcm(*(c.denominator for c in q.values()))
        v = {i: c.numerator * (den // c.denominator) for i, c in q.items() if c}
        if not v:
            return v, 1, 1
        v, g = _primitive(v)
        return v, den, g
    if g > 1:
        return {i: c // g for i, c in vec.items() if c}, 1, g
    if 0 in vec.values():
        return {i: c for i, c in vec.items() if c}, 1, 1
    return vec, 1, 1


def _primitive(v: dict[int, int]) -> tuple[dict[int, int], int]:
    """v divided by the gcd g of its entries, and g."""
    g = gcd(*v.values())
    if g > 1:
        return {i: c // g for i, c in v.items()}, g
    return v, g


def _eliminate(v: dict[int, int], at: int, row: dict[int, int],
               in_place: bool = True, steps: Optional[list[Step]] = None) -> dict[int, int]:
    """a v - b row, which vanishes at ``at``; entries that cancel are dropped.

    a and b are row[at] and v[at] divided by their gcd; (at, a, b) is
    appended to ``steps`` when given.  v is updated in place only when
    in_place is set; row never is.
    """
    b, a = v[at], row[at]
    g = gcd(a, b)
    a, b = a // g, b // g
    if steps is not None:
        steps.append((at, a, b))
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
