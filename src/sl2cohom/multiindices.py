"""Multi-index combinatorics.

A multi-index is a plain tuple of naturals ``alpha = (a_1, ..., a_n)``;
``|alpha|`` denotes the total weight ``a_1 + ... + a_n``.  Multi-indices
label the elementary operators that differentiate the i-th argument of an
n-ary differential operator ``a_i`` times, so the enumeration order fixed
here is part of the contract: every matrix built elsewhere in the package
lays out its rows and columns in graded lexicographic order (by weight,
then by ascending tuple comparison), which makes all outputs reproducible
bit for bit.
"""

from __future__ import annotations

import itertools
import math
from operator import sub
from typing import Iterator

MultiIndex = tuple[int, ...]


def index_weight(alpha: MultiIndex) -> int:
    """Total weight |alpha| of a multi-index."""
    return sum(alpha)


def add_unit(alpha: MultiIndex, i: int) -> MultiIndex:
    """alpha + e_i, incrementing exactly the i-th entry (0-based)."""
    return alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]


def sub_unit(alpha: MultiIndex, i: int) -> MultiIndex:
    """alpha - e_i.  Negative entries are a hard internal error."""
    if alpha[i] == 0:
        raise ValueError(f"multi-index {alpha} has no unit to remove in slot {i}")
    return alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]


def graded_lex_key(alpha: MultiIndex) -> tuple[int, MultiIndex]:
    """Sort key realising the graded lexicographic total order."""
    return (index_weight(alpha), alpha)


def multiset_coeff(m: int, k: int) -> int:
    """Number of multi-indices in N^m of total weight k.

    Equals the binomial coefficient with repetition C(m + k - 1, k).  The
    degenerate conventions are fixed explicitly: the count is 1 whenever
    k = 0 (the empty sum, even for m = 0) and 0 whenever k < 0 (systems
    indexed over weight k - 1 are empty at k = 0).
    """
    if k == 0:
        return 1
    if k < 0 or m == 0:
        return 0
    return math.comb(m + k - 1, k)


def iter_multiindices(n: int, weight: int) -> Iterator[MultiIndex]:
    """Yield all alpha in N^n with |alpha| = weight, lexicographically ascending.

    Iterative, so any arity works: the partial sums a_1 + ... + a_i for
    i < n form a non-decreasing tuple in [0, weight], and the ascending
    walk over those tuples is the ascending walk over alpha.  For n = 1
    there are no partial sums and the one index is yielded directly:
    ``combinations_with_replacement`` would copy its whole pool, O(weight),
    to yield one empty tuple.
    """
    if weight < 0:
        return
    if n == 1:
        yield (weight,)
        return
    if n == 0:
        if weight == 0:
            yield ()
        return
    for sums in itertools.combinations_with_replacement(range(weight + 1), n - 1):
        yield tuple(map(sub, sums + (weight,), (0,) + sums))


def enumerate_multiindices(n: int, weight: int) -> list[MultiIndex]:
    """All multi-indices of the given weight, in graded-lex (here: lex) order.

    The length of the result is ``multiset_coeff(n, weight)``.
    """
    return list(iter_multiindices(n, weight))


def enumerate_up_to(n: int, max_weight: int) -> list[MultiIndex]:
    """All multi-indices with |alpha| <= max_weight in graded-lex order."""
    out: list[MultiIndex] = []
    for w in range(max_weight + 1):
        out.extend(iter_multiindices(n, w))
    return out


def format_multiindex(alpha: MultiIndex) -> str:
    """Render as "[a1,...,an]" (no spaces), the label used in CSV/JSON."""
    return "[" + ",".join(map(str, alpha)) + "]"
