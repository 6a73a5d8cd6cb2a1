import itertools
from fractions import Fraction
from typing import Optional

from sl2cohom.closedform import (
    CaseKind,
    CaseTag,
    classify,
    dim_h2_closed_form,
    dim_h2_summary_table,
    singular_counts,
)
from sl2cohom.multiindices import multiset_coeff
from sl2cohom.sweep import nonresonant_weights, sweep_configurations, weights_for_tvector
from sl2cohom.weights import Weights


def test_classify_examples():
    tag = classify(Weights((Fraction(1, 3),), Fraction(0)))
    assert tag.kind is CaseKind.NON_INTEGER_DELTA

    tag = classify(Weights((Fraction(0), Fraction(0)), Fraction(1)))
    assert tag.kind is CaseKind.SINGULAR
    assert (tag.k, tag.t, tag.sigma) == (1, (0, 0), 0)

    tag = classify(Weights((Fraction(1), Fraction(1)), Fraction(5)))
    assert tag.kind is CaseKind.NON_RESONANT and tag.k == 3

    # negative integral shift is not natural
    tag = classify(Weights((Fraction(1),), Fraction(-2)))
    assert tag.kind is CaseKind.NON_INTEGER_DELTA

    # partially integral data stays non-resonant
    tag = classify(Weights((Fraction(0), Fraction(1, 3)), Fraction(4, 3)))
    assert tag.kind is CaseKind.NON_RESONANT


def test_classify_is_exhaustive_and_exclusive():
    samples = [Weights((Fraction(a, 6), Fraction(b, 6)), Fraction(c, 6))
               for a in range(-3, 4) for b in range(-3, 4) for c in range(-6, 7, 3)]
    for w in samples:
        tag = classify(w)
        assert tag.kind in (CaseKind.NON_INTEGER_DELTA, CaseKind.NON_RESONANT,
                            CaseKind.SINGULAR)
        if tag.kind is CaseKind.SINGULAR:
            assert all(0 <= v <= tag.k - 1 for v in tag.t)


def _weights_at(k, t):
    """lambda_i = -t_i / 2 and shift k, for any rational t_i."""
    lambdas = tuple(Fraction(-v) / 2 for v in t)
    return Weights(lambdas, k + sum(lambdas))


def test_classify_boundaries():
    for n in (1, 2, 3):
        for k in range(1, 5):
            for t in itertools.product(range(k), repeat=n):
                if k - 1 not in t:
                    continue
                tag = classify(_weights_at(k, t))
                assert (tag.kind, tag.k, tag.t, tag.sigma) == \
                    (CaseKind.SINGULAR, k, t, sum(t)), (k, t)
                for i in range(n):
                    # one slot at k, at -1 (lambda = 1/2) or at 2/3
                    for v in (k, -1, Fraction(2, 3)):
                        other = t[:i] + (v,) + t[i + 1:]
                        tag = classify(_weights_at(k, other))
                        assert (tag.kind, tag.k, tag.t, tag.sigma) == \
                            (CaseKind.NON_RESONANT, k, None, None), (k, other)
        for t in itertools.product(range(-1, 2), repeat=n):
            tag = classify(_weights_at(0, t))
            assert (tag.kind, tag.k) == (CaseKind.NON_RESONANT, 0), t


def test_closed_form_examples():
    tag = classify(nonresonant_weights(3, 2))
    assert dim_h2_closed_form(tag, 3) == 3

    tag = classify(weights_for_tvector(2, 1, (0, 0)))
    assert dim_h2_closed_form(tag, 2) == 4

    tag = classify(Weights((Fraction(1, 3),), Fraction(0)))
    assert dim_h2_closed_form(tag, 1) == 0


def test_closed_form_n2_pattern():
    # two-argument rule: 4 when sigma >= k - 1, else 1
    for k in range(1, 6):
        for t in itertools.product(range(k), repeat=2):
            tag = classify(weights_for_tvector(2, k, t))
            expected = 4 if sum(t) >= k - 1 else 1
            assert dim_h2_closed_form(tag, 2) == expected


def test_singular_counts_per_branch():
    # sigma = k: s counts positive entries
    tag = classify(weights_for_tvector(3, 2, (1, 1, 0)))
    assert tag.sigma == tag.k
    assert singular_counts(tag) == (2, None)
    # sigma = k + 1: s and r
    tag = classify(weights_for_tvector(3, 3, (2, 1, 1)))
    assert tag.sigma == tag.k + 1
    assert singular_counts(tag) == (3, 2)
    # sigma = k + m, m >= 2: s counts entries above m
    tag = classify(weights_for_tvector(3, 4, (3, 3, 0)))
    assert tag.sigma == tag.k + 2
    assert singular_counts(tag) == (2, None)
    # below the window
    tag = classify(weights_for_tvector(3, 4, (0, 0, 1)))
    assert singular_counts(tag) == (None, None)
    assert singular_counts(classify(nonresonant_weights(2, 1))) == (None, None)


def test_closed_form_branch_values():
    # sigma = k - 1
    tag = classify(weights_for_tvector(3, 4, (1, 1, 1)))
    assert dim_h2_closed_form(tag, 3) == multiset_coeff(2, 4) + 3
    # sigma = k, s = 2
    tag = classify(weights_for_tvector(3, 2, (1, 1, 0)))
    assert dim_h2_closed_form(tag, 3) == multiset_coeff(2, 2) + 3
    # sigma = k + 1, max >= 2: base + (3/2)s(s-1) - 3r
    tag = classify(weights_for_tvector(3, 3, (2, 1, 1)))
    assert dim_h2_closed_form(tag, 3) == multiset_coeff(2, 3) + 9 - 6
    # sigma = k + m: s entries above m
    tag = classify(weights_for_tvector(3, 4, (3, 3, 0)))
    assert dim_h2_closed_form(tag, 3) == multiset_coeff(2, 4) + 3
    # max t = 1 at sigma = k + 1 collapses to the base
    tag = classify(weights_for_tvector(4, 3, (1, 1, 1, 1)))
    assert tag.sigma == tag.k + 1 and max(tag.t) == 1
    assert dim_h2_closed_form(tag, 4) == multiset_coeff(3, 3)


def test_monotone_sanity():
    # the singular corrections never push the prediction below the base
    for n in (2, 3):
        for k in range(1, 6):
            for t in itertools.product(range(k), repeat=n):
                tag = classify(weights_for_tvector(n, k, t))
                value = dim_h2_closed_form(tag, n)
                assert value is not None and value >= multiset_coeff(n - 1, k)


def test_summary_table_relationship():
    """The summary table doubles the branch predictions, and its sigma = k
    row additionally halves the correction; this is recorded, not trusted."""
    for n in (2, 3):
        for k in range(1, 6):
            for t in itertools.product(range(k), repeat=n):
                tag = classify(weights_for_tvector(n, k, t))
                summary = dim_h2_summary_table(tag, n)
                closed = dim_h2_closed_form(tag, n)
                assert summary is not None and closed is not None
                base = multiset_coeff(n - 1, k)
                if tag.sigma == tag.k:
                    s, _ = singular_counts(tag)
                    assert summary == 2 * (base + Fraction(3, 2) * (s - 1))
                else:
                    assert summary == 2 * closed
    assert dim_h2_summary_table(classify(nonresonant_weights(2, 2)), 2) is None


def test_closed_equals_system_on_nonresonant_samples():
    """Fifty non-resonant configurations with fractional first weight: the
    closed form and the rank method agree (both report the repetition
    binomial, the system having maximal rank)."""
    from sl2cohom.reduced import dim_h2_via_system

    count = 0
    j = 1
    while count < 50:
        n = 1 + (j % 3)
        k = j % 6
        lambdas = (Fraction(j, 7),) + tuple(Fraction((j + i) % 4 - 1)
                                            for i in range(n - 1))
        w = Weights(lambdas, Fraction(k) + sum(lambdas, Fraction(0)))
        tag = classify(w)
        if tag.kind is CaseKind.NON_RESONANT:
            assert dim_h2_closed_form(tag, n) == dim_h2_via_system(w).dim == \
                multiset_coeff(n - 1, k)
            count += 1
        j += 1


def test_summary_table_gives_8_and_5_on_two_small_rows():
    tag = classify(weights_for_tvector(2, 1, (0, 0)))
    # sigma = k - 1 row: 2 * (1 + 3) = 8, twice the branch prediction
    assert dim_h2_summary_table(tag, 2) == 8
    tag2 = classify(weights_for_tvector(2, 2, (1, 1)))
    # sigma = k row with s = 2: 2 * (1 + 3/2) = 5, not equal to 4
    assert dim_h2_summary_table(tag2, 2) == 5


def test_summary_table_is_an_int_on_every_singular_sweep_row():
    for n in range(1, 5):
        for w, k, t in sweep_configurations(n, 5):
            tag = classify(w)
            value = dim_h2_summary_table(tag, n)
            assert (value is None) == (tag.kind is not CaseKind.SINGULAR), (n, k, t)
            assert value is None or type(value) is int, (n, k, t)


# -- the predictors against their earlier bodies --------------------------


def reference_closed_form(tag: CaseTag, n: int) -> int:
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


def reference_summary_table(tag: CaseTag, n: int) -> Optional[int]:
    """Literal transcription of the summary table, kept for comparison only.

    Uses the single global definitions s = #{t_i > sigma - k} and
    r = #{t_i = 1} and keeps the table's leading factor 2, which clears
    every half in its rows, so the value is an integer: 2 base, 2 base + 6,
    2 base + 3 (s - 1), 2 base + 3 (s + r)(s + r - 1) - 6 r or
    2 base + 3 s (s - 1).  Only defined for singular tags.
    """
    if tag.kind is not CaseKind.SINGULAR:
        return None
    t, k, sigma = tag.t, tag.k, tag.sigma
    assert t is not None and k is not None and sigma is not None
    twice_base = 2 * multiset_coeff(n - 1, k)
    s = sum(1 for v in t if v > sigma - k)
    r = sum(1 for v in t if v == 1)
    if sigma < k - 1:
        return twice_base
    if sigma == k - 1:
        return twice_base + 6
    if sigma == k:
        return twice_base + 3 * (s - 1)
    if sigma == k + 1:
        if max(t) >= 2:
            return twice_base + 3 * (s + r) * (s + r - 1) - 6 * r
        return twice_base
    return twice_base + 3 * s * (s - 1)


def test_the_predictors_equal_their_reference_bodies_on_every_sweep_tag():
    grids = [(n, 6) for n in range(1, 5)] + [(n, 3) for n in range(5, 9)]
    branches = set()
    for n, k_max in grids:
        for w, k, t in sweep_configurations(n, k_max):
            tag = classify(w)
            closed, summary = dim_h2_closed_form(tag, n), dim_h2_summary_table(tag, n)
            assert (closed, type(closed)) == \
                (reference_closed_form(tag, n), type(reference_closed_form(tag, n))), (n, k, t)
            assert (summary, type(summary)) == \
                (reference_summary_table(tag, n), type(reference_summary_table(tag, n))), \
                (n, k, t)
            if tag.kind is CaseKind.SINGULAR:
                m = tag.sigma - tag.k
                branches.add("max t = 1" if m == 1 and max(tag.t) == 1 else max(-2, min(m, 2)))
    # every branch of both bodies is reached: sigma - k <= -2, -1, 0, 1, >= 2
    assert branches == {-2, -1, 0, 1, 2, "max t = 1"}
