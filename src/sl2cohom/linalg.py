"""Exact linear algebra over the rationals.

Dense matrices cover the structured systems built elsewhere (at desk scale
they stay small); rank uses fraction-free Bareiss elimination on a
denominator-cleared copy so intermediate growth stays controlled, with
pivots chosen as the first nonzero entry in column order, which makes the
elimination, and hence every downstream report, deterministic.  A sparse
rank routine on dictionary rows handles the large, very sparse block
matrices of the truncated cochain complex, and can report the rank of every
leading-column prefix from one pass; both routines agree exactly and are
cross-checked in the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .polynomials import Scalar, format_rational, parse_rational


class RationalMatrix:
    """Dense row-major matrix of exact rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Scalar]], cols: Optional[int] = None):
        data = [[Fraction(v) for v in row] for row in entries]
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


def _integer_rows(matrix: RationalMatrix) -> list[list[int]]:
    """Clear denominators row by row (row scaling preserves rank)."""
    out = []
    for row in matrix.entries:
        scale = 1
        for v in row:
            scale = scale * v.denominator // math.gcd(scale, v.denominator)
        out.append([int(v * scale) for v in row])
    return out


def rank(matrix: RationalMatrix) -> int:
    """Exact rank by fraction-free (Bareiss) elimination.

    Pivot selection scans columns left to right and, within a column, takes
    the first nonzero entry below the current pivot row.
    """
    m = _integer_rows(matrix)
    nrows, ncols = matrix.rows, matrix.cols
    pivot_row = 0
    prev_pivot = 1
    for col in range(ncols):
        pivot = None
        for r in range(pivot_row, nrows):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != pivot_row:
            m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        pv = m[pivot_row][col]
        for r in range(pivot_row + 1, nrows):
            if not any(m[r][col:]):
                continue
            rv = m[r][col]
            for c in range(col, ncols):
                m[r][c] = (pv * m[r][c] - rv * m[pivot_row][c]) // prev_pivot
        prev_pivot = pv
        pivot_row += 1
        if pivot_row == nrows:
            break
    return pivot_row


def _rref(entries: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot column list)."""
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, len(entries)):
            if entries[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        entries[r], entries[pivot] = entries[pivot], entries[r]
        pv = entries[r][col]
        entries[r] = [v / pv for v in entries[r]]
        for i in range(len(entries)):
            if i != r and entries[i][col] != 0:
                factor = entries[i][col]
                entries[i] = [a - factor * b for a, b in zip(entries[i], entries[r])]
        pivots.append(col)
        r += 1
    return entries, pivots


def kernel_basis(matrix: RationalMatrix) -> list[list[Fraction]]:
    """Basis of the null space; exactly cols - rank vectors with M v = 0.

    Free columns are parametrised in ascending column order, so the result
    is deterministic.
    """
    entries = [list(row) for row in matrix.entries]
    entries, pivots = _rref(entries, matrix.cols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(matrix.cols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * matrix.cols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -entries[r][free]
        basis.append(vec)
    return basis


def solve(matrix: RationalMatrix, rhs: Sequence[Scalar]) -> Optional[list[Fraction]]:
    """One exact solution of M x = rhs, or None when the system is infeasible."""
    if len(rhs) != matrix.rows:
        raise ValueError("dimension mismatch")
    aug = [list(row) + [Fraction(v)] for row, v in zip(matrix.entries, [Fraction(v) for v in rhs])]
    if not aug:
        return [Fraction(0)] * matrix.cols
    aug, pivots = _rref(aug, matrix.cols)
    for r in range(len(pivots), len(aug)):
        if aug[r][matrix.cols] != 0:
            return None
    x = [Fraction(0)] * matrix.cols
    for r, pc in enumerate(pivots):
        x[pc] = aug[r][matrix.cols]
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
        factor = v[lead]
        for i, c in row.items():
            newval = v.get(i, Fraction(0)) - factor * c
            if newval == 0:
                v.pop(i, None)
            else:
                v[i] = newval
    return v


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


def sparse_in_span(vec: dict[int, Fraction],
                   echelon: list[dict[int, Fraction]]) -> bool:
    """Whether vec lies in the span of an echelonised vector set."""
    table = {min(row): row for row in echelon if row}
    return not sparse_reduce(vec, table)
