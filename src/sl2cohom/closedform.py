"""Case classification of weight data and closed-form dimension tables.

A weight configuration falls into exactly one of three cases, keyed by the
shift delta = mu - sum(lambda_i):

* ``NON_INTEGER_DELTA`` -- delta is not a natural number (this includes
  negative integers): the second cohomology vanishes.
* ``NON_RESONANT`` -- delta = k is a natural number but some -2*lambda_i
  lies outside {0, ..., k-1}: the constraint system on top-order
  coefficients has maximal rank.
* ``SINGULAR`` -- delta = k and every -2*lambda_i is an integer in
  {0, ..., k-1}: the system drops rank and correction terms appear.

Two closed-form predictors are provided.  The main one binds the auxiliary
counts s and r per branch (they are *not* globally defined: s counts
t_i >= 1 on the sigma = k and sigma = k+1 branches but t_i > m on the
sigma = k + m branches).  The second is a literal transcription of a
summary table whose prefactor and sigma = k row are inconsistent with the
individual branch formulas; it is kept as a separate predictor so sweep
reports can record, instance by instance, which table matches the exact
rank computation.  It is never used as an authority.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

from .multiindices import multiset_coeff
from .weights import Weights


class CaseKind(enum.Enum):
    NON_INTEGER_DELTA = "non-integer-delta"
    NON_RESONANT = "non-resonant"
    SINGULAR = "singular"


class CaseTag(NamedTuple):
    """Classification of a weight configuration.

    ``k`` is present unless the kind is NON_INTEGER_DELTA; ``t`` and
    ``sigma`` only for SINGULAR tags.  The counts s and r are
    recomputed per formula branch, see :func:`singular_counts`.
    """

    kind: CaseKind
    k: Optional[int] = None
    t: Optional[tuple[int, ...]] = None
    sigma: Optional[int] = None

    def describe(self) -> str:
        if self.kind is CaseKind.NON_INTEGER_DELTA:
            return "non-integer-delta"
        if self.kind is CaseKind.NON_RESONANT:
            return f"non-resonant(k={self.k})"
        return (f"singular(k={self.k}, t={self.t}, sigma={self.sigma})")


#: The one tag of every configuration whose shift is not a natural number;
#: a ``CaseTag`` is immutable, so all of them share it.
NON_INTEGER_DELTA = CaseTag(CaseKind.NON_INTEGER_DELTA)


def classify(w: Weights) -> CaseTag:
    """Exactly one tag per weight configuration.

    Singular requires *all* -2*lambda_i to be integers in {0, ..., k-1}; a
    tuple that is only partially integral is non-resonant (the rank method
    stays correct regardless, so no case is lost).
    """
    k = w.delta()
    if type(k) is not int or k < 0:
        return NON_INTEGER_DELTA
    # t_i = -2 lambda_i from the stored 2 lambda_i, an int exactly when
    # integral; the first slot outside {0, ..., k-1} settles the case.  The
    # tag is built by tuple.__new__, which skips the Python frame of the
    # NamedTuple's generated __new__, about half the cost of a tag.
    t = []
    for v in w.twice_lambdas:
        if type(v) is not int or not -k < v <= 0:
            return tuple.__new__(CaseTag, (CaseKind.NON_RESONANT, k, None, None))
        t.append(-v)
    return tuple.__new__(CaseTag, (CaseKind.SINGULAR, k, tuple(t), sum(t)))


def singular_counts(tag: CaseTag) -> tuple[Optional[int], Optional[int]]:
    """The branch-appropriate (s, r) for a singular tag, else (None, None).

    * sigma <= k - 1: unused, reported as (None, None);
    * sigma = k:       s = #{t_i >= 1}, r unused;
    * sigma = k + 1:   s = #{t_i >= 1}, r = #{t_i = 1};
    * sigma = k + m, m >= 2: s = #{t_i > m}, r unused.

    Every t_i of a singular tag is a natural number, so #{t_i >= 1} is
    n - #{t_i = 0}, and both counts are ``tuple.count`` calls.
    """
    kind, k, t, sigma = tag
    if kind is not CaseKind.SINGULAR or sigma < k:
        return (None, None)
    if sigma == k:
        return (len(t) - t.count(0), None)
    if sigma == k + 1:
        return (len(t) - t.count(0), t.count(1))
    m = sigma - k
    return (sum(v > m for v in t), None)


def dim_h2_closed_form(tag: CaseTag, n: int) -> int:
    """Closed-form dimension prediction, with s and r as in :func:`singular_counts`."""
    kind, k, _, sigma = tag
    if kind is CaseKind.NON_INTEGER_DELTA:
        return 0
    base = multiset_coeff(n - 1, k)
    if kind is CaseKind.NON_RESONANT or sigma < k - 1:
        return base
    if sigma == k - 1:
        return base + 3
    s, r = singular_counts(tag)
    if sigma == k:
        return base + 3 * (s - 1)
    if sigma == k + 1:
        # s = r when every nonzero t_i is 1, that is max(t) = 1
        return base if s == r else base + 3 * (s * (s - 1) // 2) - 3 * r
    return base + 3 * (s * (s - 1) // 2)


def dim_h2_summary_table(tag: CaseTag, n: int) -> Optional[int]:
    """Literal transcription of the summary table, kept for comparison only.

    Uses the single global definitions s = #{t_i > sigma - k} and
    r = #{t_i = 1} and keeps the table's leading factor 2, which clears
    every half in its rows, so the value is an integer: 2 base, 2 base + 6,
    2 base + 3 (s - 1), 2 base + 3 (s + r)(s + r - 1) - 6 r or
    2 base + 3 s (s - 1).  Only defined for singular tags.  At sigma = k,
    s counts the nonzero t_i, and at sigma = k + 1, s + r does.
    """
    kind, k, t, sigma = tag
    if kind is not CaseKind.SINGULAR:
        return None
    twice_base = 2 * multiset_coeff(n - 1, k)
    if sigma < k - 1:
        return twice_base
    if sigma == k - 1:
        return twice_base + 6
    if sigma == k:
        return twice_base + 3 * (len(t) - t.count(0) - 1)
    if sigma == k + 1:
        if max(t) >= 2:
            s_plus_r = len(t) - t.count(0)
            return twice_base + 3 * s_plus_r * (s_plus_r - 1) - 6 * t.count(1)
        return twice_base
    m = sigma - k
    s = sum(1 for v in t if v > m)
    return twice_base + 3 * s * (s - 1)
