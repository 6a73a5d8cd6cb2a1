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
rank computation.  It may return non-integers and is never used as an
authority.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .multiindices import multiset_coeff
from .weights import Weights


class CaseKind(enum.Enum):
    NON_INTEGER_DELTA = "non-integer-delta"
    NON_RESONANT = "non-resonant"
    SINGULAR = "singular"


@dataclass(frozen=True)
class CaseTag:
    """Classification of a weight configuration.

    ``k`` is present unless the kind is NON_INTEGER_DELTA; ``t``, ``sigma``
    and ``m`` (= sigma - k) only for SINGULAR tags.  The counts s and r are
    recomputed per formula branch, see :func:`singular_counts`.
    """

    kind: CaseKind
    k: Optional[int] = None
    t: Optional[tuple[int, ...]] = None
    sigma: Optional[int] = None
    m: Optional[int] = None

    def describe(self) -> str:
        if self.kind is CaseKind.NON_INTEGER_DELTA:
            return "non-integer-delta"
        if self.kind is CaseKind.NON_RESONANT:
            return f"non-resonant(k={self.k})"
        return (f"singular(k={self.k}, t={self.t}, sigma={self.sigma})")


def classify(w: Weights) -> CaseTag:
    """Exactly one tag per weight configuration.

    Singular requires *all* -2*lambda_i to be integers in {0, ..., k-1}; a
    tuple that is only partially integral is non-resonant (the rank method
    stays correct regardless, so no case is lost).
    """
    k = w.natural_delta()
    if k is None:
        return CaseTag(CaseKind.NON_INTEGER_DELTA)
    # -2 lambda_i from the stored 2 lambda_i, an int exactly when integral
    t = tuple(-v for v in w.twice_lambdas)
    if all(type(v) is int and 0 <= v < k for v in t):
        sigma = sum(t)
        return CaseTag(CaseKind.SINGULAR, k=k, t=t, sigma=sigma, m=sigma - k)
    return CaseTag(CaseKind.NON_RESONANT, k=k)


def singular_counts(tag: CaseTag) -> tuple[Optional[int], Optional[int]]:
    """The branch-appropriate (s, r) for a singular tag, else (None, None).

    * sigma <= k - 1: unused, reported as (None, None);
    * sigma = k:       s = #{t_i >= 1}, r unused;
    * sigma = k + 1:   s = #{t_i >= 1}, r = #{t_i = 1};
    * sigma = k + m, m >= 2: s = #{t_i > m}, r unused.
    """
    if tag.kind is not CaseKind.SINGULAR:
        return (None, None)
    t, k, sigma = tag.t, tag.k, tag.sigma
    assert t is not None and k is not None and sigma is not None
    if sigma < k:
        return (None, None)
    if sigma == k:
        return (sum(1 for v in t if v >= 1), None)
    if sigma == k + 1:
        return (sum(1 for v in t if v >= 1), sum(1 for v in t if v == 1))
    m = sigma - k
    return (sum(1 for v in t if v > m), None)


def dim_h2_closed_form(tag: CaseTag, n: int) -> int:
    """Closed-form dimension prediction, with s and r from :func:`singular_counts`."""
    if tag.kind is CaseKind.NON_INTEGER_DELTA:
        return 0
    base = multiset_coeff(n - 1, tag.k)
    if tag.kind is CaseKind.NON_RESONANT or tag.sigma < tag.k - 1:
        return base
    if tag.sigma == tag.k - 1:
        return base + 3
    s, r = singular_counts(tag)
    if tag.sigma == tag.k:
        return base + 3 * (s - 1)
    if tag.sigma == tag.k + 1:
        return base if max(tag.t) == 1 else base + 3 * (s * (s - 1) // 2) - 3 * r
    return base + 3 * (s * (s - 1) // 2)


def dim_h2_summary_table(tag: CaseTag, n: int) -> Optional[Fraction]:
    """Literal transcription of the summary table, kept for comparison only.

    Uses the single global definitions s = #{t_i > sigma - k} and
    r = #{t_i = 1} and keeps the table's leading factor 2; the value can be
    a non-integer, which by itself shows the table cannot be taken at face
    value.  Only defined for singular tags.
    """
    if tag.kind is not CaseKind.SINGULAR:
        return None
    t, k, sigma = tag.t, tag.k, tag.sigma
    assert t is not None and k is not None and sigma is not None
    base = Fraction(multiset_coeff(n - 1, k))
    s = sum(1 for v in t if v > sigma - k)
    r = sum(1 for v in t if v == 1)
    if sigma < k - 1:
        inner = base
    elif sigma == k - 1:
        inner = base + 3
    elif sigma == k:
        inner = base + Fraction(3, 2) * (s - 1)
    elif sigma == k + 1:
        if max(t) >= 2:
            inner = base + Fraction(3, 2) * (s + r) * (s + r - 1) - 3 * r
        else:
            inner = base
    else:
        inner = base + Fraction(3, 2) * s * (s - 1)
    return 2 * inner
