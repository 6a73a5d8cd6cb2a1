"""Exact linear algebra over the rationals, on one fraction-free sparse echelon.

Every rank, kernel and solve runs the same elimination: vectors are stored
as dictionaries {index: value} of their nonzero entries and inserted one at
a time into an echelon keyed by leading (minimal) index.  The elimination
is fraction-free (Bareiss, Math. Comp. 22, 1968): each incoming vector has
its denominators cleared once and is divided by its content, a floating
point entry being refused; it is reduced by v <- a v - b row, with a and b
the two pivot entries divided by their gcd; and every echelon row is
stored as a primitive ``int`` row.  No ``Fraction`` arithmetic runs inside
the elimination.  ``kernel_basis`` and ``solve`` back-substitute the same
integer echelon to the reduced row echelon form, which is unique up to the
scale of each row, so their results do not depend on the order of
elimination; only when reading results off do they divide by the leading
entry and return ``Fraction`` values.

``kernel_basis``, ``solve`` and ``column_space_echelon`` take a matrix as
its sparse rows plus its column count, the form in which
:func:`sl2cohom.reduced.build_system` and the block matrices of the
truncated cochain complex are built.  The dense ``RationalMatrix`` and
its ``rank`` remain because the benchmark's tracer binds both and the
tests use them as references; ``rank`` hands the nonzero entries to the
engine.  There is one engine; no other elimination routine exists.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Sequence

from .polynomials import Scalar, exact


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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            self.entries == other.entries

    def row(self, i: int) -> list[Fraction]:
        return list(self.entries[i])

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


def _reduced_echelon(vectors: Sequence[Mapping[int, Scalar]]) -> dict[int, dict[int, int]]:
    """Reduced row echelon form of the span, keyed by leading index.

    Echelonise, then back-substitute from the largest leading index down, so
    each row is zero at every other row's leading index.  Rows stay
    primitive integer rows; row / row[lead] is the reduced form, which is
    unique, so the result does not depend on insertion order.
    """
    echelon = _echelon(vectors)
    for lead in sorted(echelon, reverse=True):
        row = echelon[lead]
        for pivot in [i for i in row if i != lead and i in echelon]:
            row = _eliminate(row, pivot, echelon[pivot])
        echelon[lead] = _primitive(row)
    return echelon


def rank(matrix: RationalMatrix) -> int:
    """Exact rank: the sparse echelon rank of the matrix's rows."""
    return sparse_rank(_sparse_rows(matrix))


def kernel_basis(rows: Sequence[Mapping[int, Scalar]], cols: int) -> list[list[Fraction]]:
    """Basis of the null space of the sparse rows; exactly cols - rank vectors.

    Free columns are parametrised in ascending column order, each vector
    read off the reduced row echelon form, so the result is deterministic.
    """
    echelon = _reduced_echelon(rows)
    basis = []
    for free in range(cols):
        if free in echelon:
            continue
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for lead, row in echelon.items():
            vec[lead] = Fraction(-row.get(free, 0), row[lead])
        basis.append(vec)
    return basis


def solve(rows: Sequence[Mapping[int, Scalar]], cols: int,
          rhs: Sequence[Scalar]) -> Optional[list[Fraction]]:
    """One exact solution of M x = rhs for the sparse rows of M, or None
    when the system is infeasible.

    The right-hand side is column ``cols`` of the augmented rows; a leading
    entry there means 0 = nonzero.  Free coordinates of the solution are 0.
    """
    if len(rhs) != len(rows):
        raise ValueError("dimension mismatch")
    augmented = []
    for row, v in zip(rows, rhs):
        v = exact(v)
        augmented.append({**row, cols: v} if v else row)
    echelon = _reduced_echelon(augmented)
    if cols in echelon:
        return None
    x = [Fraction(0)] * cols
    for lead, row in echelon.items():
        x[lead] = Fraction(row.get(cols, 0), row[lead])
    return x


def column_space_echelon(rows: Sequence[Mapping[int, Scalar]],
                         cols: int) -> list[dict[int, Fraction]]:
    """Echelonised spanning set of the column space of the sparse rows, as
    sparse vectors indexed by row; columns are inserted in ascending order."""
    columns: list[dict[int, Scalar]] = [{} for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, c in row.items():
            columns[j][i] = c
    return sparse_echelon([col for col in columns if col])


# ---------------------------------------------------------------------------
# The engine: a fraction-free echelon of sparse vectors {index: value}.
# ---------------------------------------------------------------------------


def sparse_echelon(vectors: list[dict[int, Scalar]]) -> list[dict[int, Fraction]]:
    """Reduce a list of sparse vectors to an independent echelon set.

    Each returned vector is normalised to leading coefficient 1 at its
    minimal index, and the leading indices are pairwise distinct.
    """
    echelon = _echelon(vectors)
    out = []
    for lead in sorted(echelon):
        row = echelon[lead]
        pivot = row[lead]
        out.append({i: Fraction(c, pivot) for i, c in row.items()})
    return out


def sparse_rank(vectors: list[dict[int, Scalar]]) -> int:
    """Rank of the span of sparse vectors, by incremental echelon reduction."""
    return len(_echelon(vectors))


def _echelon(vectors: list[dict[int, Scalar]]) -> dict[int, dict[int, int]]:
    """Echelon of primitive integer rows keyed by leading (minimal) index."""
    echelon: dict[int, dict[int, int]] = {}
    for vec in vectors:
        _insert(vec, echelon)
    return echelon


def _insert(vec: dict[int, Scalar], echelon: dict[int, dict[int, int]]) -> None:
    """Reduce vec against echelon and keep the remainder, if any, as a new row.

    vec itself is never changed.  `_intake` may hand it back as it is, so it
    is copied when it becomes a row or is first reduced in place; a vector
    stored without any elimination is already primitive.
    """
    v = _intake(vec)
    owned = v is not vec
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
            return
        v = _eliminate(v, lead, row, owned)
        owned = reduced = True


def _intake(vec: dict[int, Scalar]) -> dict[int, int]:
    """vec as a primitive integer vector of its nonzero entries.

    Denominators are cleared once, by their lcm; a float is refused.  A
    primitive integer vector without zero entries is returned as it is.
    """
    try:
        g = gcd(*vec.values())
    except TypeError:  # a Fraction, or a float that exact refuses
        q = {i: exact(c) for i, c in vec.items()}
        den = lcm(*(c.denominator for c in q.values()))
        return _primitive({i: c.numerator * (den // c.denominator)
                           for i, c in q.items() if c})
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
