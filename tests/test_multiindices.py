import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2cohom.multiindices import (
    add_unit,
    enumerate_multiindices,
    enumerate_up_to,
    format_multiindex,
    graded_lex_key,
    index_weight,
    multiset_coeff,
    sub_unit,
)
from sl2cohom.sweep import _t_grid


def test_multiset_coeff_base_cases():
    assert multiset_coeff(1, 5) == 1
    # enumerate by hand: (0,3),(1,2),(2,1),(3,0)
    assert multiset_coeff(2, 3) == 4
    assert multiset_coeff(0, 0) == 1
    assert multiset_coeff(0, 3) == 0
    assert multiset_coeff(3, -1) == 0
    # one choice of nothing for every slot count
    for m in range(6):
        assert multiset_coeff(m, 0) == 1


def test_multiset_coeff_matches_enumeration():
    for n in range(0, 4):
        for k in range(0, 6):
            elems = enumerate_multiindices(n, k)
            assert len(elems) == multiset_coeff(n, k)
            assert len(set(elems)) == len(elems)
            assert all(index_weight(a) == k for a in elems)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_pascal_identity(m, k):
    assert multiset_coeff(m, k) == multiset_coeff(m - 1, k) + multiset_coeff(m, k - 1)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_gamma_difference_identity(n, k):
    assert multiset_coeff(n, k) - multiset_coeff(n, k - 1) == multiset_coeff(n - 1, k)


def test_enumeration_order_is_graded_lex():
    assert enumerate_multiindices(2, 1) == [(0, 1), (1, 0)]
    assert enumerate_multiindices(3, 0) == [(0, 0, 0)]
    elems = enumerate_multiindices(3, 2)
    assert len(elems) == 6
    assert elems == sorted(elems)
    up = enumerate_up_to(2, 3)
    assert up == sorted(up, key=graded_lex_key)


def recursive_multiindices(n, weight):
    """Reference enumeration: first entry ascending, then the rest."""
    if weight < 0:
        return []
    if n == 0:
        return [()] if weight == 0 else []
    return [(first,) + rest for first in range(weight + 1)
            for rest in recursive_multiindices(n - 1, weight - first)]


def recursive_grid(n, k):
    """Reference {0, ..., k-1}^n, first entry ascending, then the rest."""
    if n == 0:
        return [()]
    return [(v,) + rest for v in range(k) for rest in recursive_grid(n - 1, k)]


def test_iterative_enumerations_equal_recursive_references():
    for n in range(6):
        for weight in range(-1, 7):
            assert enumerate_multiindices(n, weight) == recursive_multiindices(n, weight), \
                (n, weight)
    for n in range(1, 6):
        for k in range(5):
            assert _t_grid(n, k) == recursive_grid(n, k), (n, k)
    # n = 1 at the oracle ceiling's weight takes its own branch
    assert enumerate_multiindices(1, 8332) == recursive_multiindices(1, 8332) == [(8332,)]
    assert enumerate_up_to(1, 8332) == [(w,) for w in range(8333)]


def test_unit_vectors():
    assert add_unit((0, 1), 0) == (1, 1)
    assert add_unit((0, 1), 1) == (0, 2)
    assert sub_unit((2, 1), 0) == (1, 1)
    with pytest.raises(ValueError):
        sub_unit((0, 1), 0)


def test_format_parse_roundtrip():
    assert format_multiindex((1, 0, 2)) == "[1,0,2]"
