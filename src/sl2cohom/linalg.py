"""Exact linear algebra over the rationals, on one sparse echelon.

Every rank, kernel and solve runs the same elimination: vectors are stored
as dictionaries {index: value} of their nonzero entries and inserted one at
a time into an echelon keyed by leading (minimal) index, each new row
normalised to leading coefficient 1.  ``kernel_basis`` and ``solve``
back-substitute that echelon to the reduced row echelon form, which is
unique, so their results do not depend on the order of elimination.  The
dense ``RationalMatrix`` holds the structured systems built elsewhere and
hands its nonzero entries to the engine; the large, very sparse block
matrices of the truncated cochain complex go to it directly, and one pass
can report the rank of every leading prefix.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .polynomials import Scalar, exact, format_rational, parse_rational


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

    @staticmethod
    def zeros(rows: int, cols: int) -> "RationalMatrix":
        return RationalMatrix([[0] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            self.entries == other.entries

    def row(self, i: int) -> list[Fraction]:
        return list(self.entries[i])

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows)

    def mat_vec(self, vec: Sequence[Scalar]) -> list[Fraction]:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        vec = [Fraction(v) for v in vec]
        return [sum((a * b for a, b in zip(row, vec)), Fraction(0))
                for row in self.entries]

    def scale_row(self, i: int, c: Scalar) -> "RationalMatrix":
        out = [list(r) for r in self.entries]
        out[i] = [Fraction(c) * v for v in out[i]]
        return RationalMatrix(out, cols=self.cols)

    def with_entry(self, i: int, j: int, value: Scalar) -> "RationalMatrix":
        out = [list(r) for r in self.entries]
        out[i][j] = Fraction(value)
        return RationalMatrix(out, cols=self.cols)

    def to_csv(self, row_labels: Optional[Sequence[str]] = None,
               col_labels: Optional[Sequence[str]] = None) -> str:
        lines = []
        if col_labels is not None:
            head = [""] if row_labels is not None else []
            lines.append(",".join(head + [str(c) for c in col_labels]))
        for i, row in enumerate(self.entries):
            cells = [format_rational(v) for v in row]
            if row_labels is not None:
                cells = [str(row_labels[i])] + cells
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str, labeled: bool = False) -> "RationalMatrix":
        rows = []
        lines = [line for line in text.strip().splitlines() if line.strip()]
        if labeled and lines:
            lines = lines[1:]
        for line in lines:
            cells = line.split(",")
            if labeled:
                cells = cells[1:]
            rows.append([parse_rational(c) for c in cells])
        return RationalMatrix(rows)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


def _sparse_rows(matrix: RationalMatrix) -> list[dict[int, Fraction]]:
    """The rows of a dense matrix as sparse vectors of their nonzero entries."""
    return [{j: v for j, v in enumerate(row) if v} for row in matrix.entries]


def _reduced_echelon(vectors: list[dict[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form of the span, keyed by leading index.

    Echelonise, then back-substitute from the largest leading index down, so
    each row is zero at every other row's leading index.  The reduced form
    of a span is unique, so the result does not depend on insertion order.
    """
    echelon: dict[int, dict[int, Fraction]] = {}
    for vec in vectors:
        _echelon_insert(vec, echelon)
    for lead in sorted(echelon, reverse=True):
        row = echelon[lead]
        for pivot in [i for i in row if i != lead and i in echelon]:
            _subtract_multiple(row, row[pivot], echelon[pivot])
    return echelon


def rank(matrix: RationalMatrix) -> int:
    """Exact rank: the sparse echelon rank of the matrix's rows."""
    return sparse_rank(_sparse_rows(matrix))


def kernel_basis(matrix: RationalMatrix) -> list[list[Fraction]]:
    """Basis of the null space; exactly cols - rank vectors with M v = 0.

    Free columns are parametrised in ascending column order, each vector
    read off the reduced row echelon form, so the result is deterministic.
    """
    echelon = _reduced_echelon(_sparse_rows(matrix))
    basis = []
    for free in range(matrix.cols):
        if free in echelon:
            continue
        vec = [Fraction(0)] * matrix.cols
        vec[free] = Fraction(1)
        for lead, row in echelon.items():
            vec[lead] = -row.get(free, Fraction(0))
        basis.append(vec)
    return basis


def solve(matrix: RationalMatrix, rhs: Sequence[Scalar]) -> Optional[list[Fraction]]:
    """One exact solution of M x = rhs, or None when the system is infeasible.

    The right-hand side is column ``cols`` of the augmented rows; a leading
    entry there means 0 = nonzero.  Free coordinates of the solution are 0.
    """
    if len(rhs) != matrix.rows:
        raise ValueError("dimension mismatch")
    rows = _sparse_rows(matrix)
    for row, v in zip(rows, rhs):
        if v:
            row[matrix.cols] = Fraction(v)
    echelon = _reduced_echelon(rows)
    if matrix.cols in echelon:
        return None
    x = [Fraction(0)] * matrix.cols
    for lead, row in echelon.items():
        x[lead] = row.get(matrix.cols, Fraction(0))
    return x


def column_space_echelon(matrix: RationalMatrix) -> list[dict[int, Fraction]]:
    """Echelonised spanning set of the column space as sparse vectors."""
    cols = []
    for j in range(matrix.cols):
        col = {i: matrix.entries[i][j] for i in range(matrix.rows)
               if matrix.entries[i][j] != 0}
        if col:
            cols.append(col)
    return sparse_echelon(cols)


# ---------------------------------------------------------------------------
# Sparse routines on dictionary vectors {index: value}.
# ---------------------------------------------------------------------------


def sparse_echelon(vectors: list[dict[int, Fraction]]) -> list[dict[int, Fraction]]:
    """Reduce a list of sparse vectors to an independent echelon set.

    Each returned vector is normalised to leading coefficient 1 at its
    minimal index, and the leading indices are pairwise distinct.
    """
    echelon: dict[int, dict[int, Fraction]] = {}
    for vec in vectors:
        _echelon_insert(vec, echelon)
    return [echelon[lead] for lead in sorted(echelon)]


def _echelon_insert(vec: dict[int, Fraction],
                    echelon: dict[int, dict[int, Fraction]]) -> None:
    """Reduce vec against echelon and keep the remainder, if any, as a new row."""
    v = sparse_reduce(vec, echelon)
    if v:
        lead = min(v)
        lv = v[lead]
        echelon[lead] = {i: c / lv for i, c in v.items()}


def sparse_reduce(vec: dict[int, Fraction],
                  echelon: dict[int, dict[int, Fraction]]) -> dict[int, Fraction]:
    """Reduce vec against echelon rows keyed by leading index."""
    v = dict(vec)
    while v:
        lead = min(v)
        row = echelon.get(lead)
        if row is None:
            return v
        _subtract_multiple(v, v[lead], row)
    return v


def _subtract_multiple(v: dict[int, Fraction], factor: Fraction,
                       row: dict[int, Fraction]) -> None:
    """v -= factor * row in place, dropping the entries that cancel."""
    for i, c in row.items():
        newval = v.get(i, Fraction(0)) - factor * c
        if newval == 0:
            v.pop(i, None)
        else:
            v[i] = newval


def sparse_rank(vectors: list[dict[int, Fraction]]) -> int:
    """Rank of the span of sparse vectors, by incremental echelon reduction."""
    return len(sparse_echelon(vectors))


def sparse_prefix_ranks(vectors: list[dict[int, Fraction]],
                        cuts: Sequence[int]) -> list[int]:
    """Rank of vectors[:cut] for each cut, from one incremental echelon pass.

    The vectors are inserted once, in order; the rank is read off whenever
    the pass reaches a cut.  Cuts may come in any order.
    """
    if any(cut < 0 for cut in cuts):
        raise ValueError("prefix lengths must be nonnegative")
    echelon: dict[int, dict[int, Fraction]] = {}
    rank_at: dict[int, int] = {}
    done = 0
    for cut in sorted(set(cuts)):
        for vec in vectors[done:cut]:
            _echelon_insert(vec, echelon)
        done = cut
        rank_at[cut] = len(echelon)
    return [rank_at[cut] for cut in cuts]
