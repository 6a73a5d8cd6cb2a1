import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from sl2cohom import cecomplex
from sl2cohom import weights as weights_module
from sl2cohom.cecomplex import (
    BASIS_TUPLES,
    Cochain,
    Truncation,
    basis_cochain,
    brute_force_h2,
    coboundary,
    block_matrix,
    default_alpha_max,
    h2_block_dimensions,
    weight_block_basis,
    weight_of,
)
from sl2cohom.linalg import sparse_rank
from sl2cohom.multiindices import enumerate_up_to, index_weight
from sl2cohom.operators import DiffOperator, act_on_operator
from sl2cohom.polynomials import Polynomial
from sl2cohom.reduced import rank_data
from sl2cohom.sweep import nonresonant_weights, sweep_configurations, weights_for_tvector
from sl2cohom.weights import GENERATORS, Weights

X1, XX, XX2 = GENERATORS

SAMPLED_WEIGHTS = [
    Weights((Fraction(0),), Fraction(0)),
    Weights((Fraction(1, 3),), Fraction(0)),
    Weights((Fraction(-1, 2),), Fraction(3, 2)),
    Weights((Fraction(1),), Fraction(-2)),
    Weights((Fraction(0), Fraction(0)), Fraction(1)),
    Weights((Fraction(1), Fraction(1)), Fraction(3)),
    Weights((Fraction(0), Fraction(-1, 2)), Fraction(2)),
    Weights((Fraction(1, 5), Fraction(2, 5)), Fraction(1)),
    Weights((Fraction(0), Fraction(0), Fraction(-1, 2)), Fraction(2)),
    Weights((Fraction(1), Fraction(1), Fraction(1)), Fraction(5)),
]


def random_cochain(rng, w, degree, level=2, deg=2):
    comps = {}
    for args in BASIS_TUPLES[degree]:
        terms = {}
        for _ in range(3):
            alpha = tuple(rng.randint(0, level) for _ in range(w.n))
            terms[alpha] = Polynomial([rng.randint(-3, 3) for _ in range(deg + 1)])
        op = DiffOperator(w, terms)
        if not op.is_zero():
            comps[args] = op
    return Cochain(w, degree, comps)


def weight_block_report(w, alpha_max, weight=0):
    """Dimensions and differential ranks of one block, degree by degree."""
    tr = Truncation(alpha_max, weight)
    bases = {p: weight_block_basis(p, tr, w) for p in range(4)}
    ranks = {
        p: sparse_rank(block_matrix(p, tr, w, bases[p], bases[p + 1]))
        for p in range(3)
    }
    dims = {p: len(bases[p]) for p in range(4)}
    kernels = {p: dims[p] - ranks[p] for p in range(3)}
    return {"dims": dims, "ranks": ranks, "kernels": kernels}


def cochain_weight_components(f):
    """Split a cochain into its diagonal eigenvalue components."""
    buckets = {}
    for args, op in f.components.items():
        for alpha, poly in op.terms.items():
            for m, coeff in enumerate(poly.coeffs):
                if coeff == 0:
                    continue
                wt = weight_of(m, alpha, args, f.weights)
                comp = buckets.setdefault(wt, {}).setdefault(args, {})
                coeffs = comp.setdefault(alpha, [])
                while len(coeffs) <= m:
                    coeffs.append(Fraction(0))
                coeffs[m] = coeff
    out = {}
    for wt, comps in buckets.items():
        out[wt] = Cochain(f.weights, f.degree, {
            args: DiffOperator(f.weights, {a: Polynomial(cs) for a, cs in terms.items()})
            for args, terms in comps.items()
        })
    return out


def test_zero_cochain_has_zero_coboundary():
    w = Weights((Fraction(0), Fraction(0)), Fraction(1))
    for p in range(3):
        assert coboundary(Cochain.zero(w, p)).is_zero()


def test_coboundary_of_invariant_operator_at_xx():
    # For a 0-cochain given by one elementary operator, the Xx component of
    # its coboundary is the eigenvalue (delta - |alpha|) times the operator.
    w = Weights((Fraction(0), Fraction(-1, 2)), Fraction(2))
    delta = w.delta()
    for alpha in [(0, 0), (1, 0), (1, 2)]:
        op = DiffOperator.elementary(w, alpha)
        df = coboundary(Cochain(w, 0, {(): op}))
        assert df.component((XX,)) == op.scale(delta - index_weight(alpha))


def test_evaluate_antisymmetry():
    rng = random.Random(4)
    w = Weights((Fraction(0),), Fraction(1))
    f = random_cochain(rng, w, 2)
    assert f.evaluate((XX, X1)) == -f.evaluate((X1, XX))
    assert f.evaluate((XX, XX)).is_zero()
    g = random_cochain(rng, w, 3)
    assert g.evaluate((XX, X1, XX2)) == -g.evaluate((X1, XX, XX2))


def test_d_squared_is_zero_on_random_cochains():
    rng = random.Random(12)
    for w in SAMPLED_WEIGHTS:
        for degree in (0, 1):
            for _ in range(3):
                f = random_cochain(rng, w, degree)
                assert coboundary(coboundary(f)).is_zero()


def test_d_squared_is_zero_on_block_bases():
    # every basis cochain with |alpha| <= 5 in a couple of configurations
    for w in [Weights((Fraction(0),), Fraction(1)),
              Weights((Fraction(0), Fraction(0)), Fraction(1))]:
        for p in (0, 1):
            for alpha in enumerate_up_to(w.n, 5):
                for args in BASIS_TUPLES[p]:
                    for m in range(3):
                        f = basis_cochain(w, (m, alpha, args))
                        assert coboundary(coboundary(f)).is_zero()


def test_weight_of_examples():
    # all contributions cancel when m = 0 and |alpha| = delta on an Xx slot
    w = Weights((Fraction(0), Fraction(0)), Fraction(2))
    assert weight_of(0, (1, 1), (XX,), w) == 0
    # degree-0 cochain x * identity-product at shift 0
    w0 = Weights((Fraction(0),), Fraction(0))
    assert weight_of(1, (0,), (), w0) == 1
    # mixed arguments at shift 2: 0 + 2 - 1 + 1 - 1 = 1
    wdel2 = Weights((Fraction(1, 2), Fraction(1, 2)), Fraction(3))
    assert wdel2.delta() == 2
    assert weight_of(0, (1, 0), (X1, XX2), wdel2) == 1


def test_weight_of_matches_diagonal_action():
    # the eigenvalue read off combinatorially equals the actual Lie action
    w = Weights((Fraction(0), Fraction(-1, 2)), Fraction(1))
    for elem in [(1, (0, 0), (XX,)), (0, (1, 0), (X1, XX2)), (2, (0, 1), ())]:
        m, alpha, args = elem
        f = basis_cochain(w, elem)
        eig = weight_of(m, alpha, args, w)
        # L_Xx f = Xx . f(args) - sum_i f(..., [Xx, u_i], ...); on basis
        # elements every substituted tuple stays proportional to args.
        op = f.evaluate(args)
        acted = act_on_operator(XX, op)
        bracket_term = DiffOperator.zero(w)
        for i, u in enumerate(args):
            if u is X1:
                bracket_term = bracket_term + f.evaluate(args).scale(-1)
            elif u is XX2:
                bracket_term = bracket_term + f.evaluate(args)
        assert acted - bracket_term == op.scale(eig)


def test_weight_block_basis_sizes_and_emptiness():
    w = Weights((Fraction(1, 3),), Fraction(0))  # delta = -1/3
    assert weight_block_basis(2, Truncation(3, 0), w) == []
    w2 = Weights((Fraction(0), Fraction(0)), Fraction(1))
    basis = weight_block_basis(2, Truncation(4, 0), w2)
    assert len(basis) == 41
    assert all(weight_of(m, a, s, w2) == 0 for (m, a, s) in basis)
    # deterministic order: sorted by (|alpha|, alpha, argument tuple)
    keys = [(index_weight(a), a, s) for (m, a, s) in basis]
    assert keys == sorted(keys)


def test_differential_preserves_weight_and_level():
    for w in SAMPLED_WEIGHTS[:6]:
        for p in (0, 1, 2):
            for alpha in enumerate_up_to(w.n, 3):
                for args in BASIS_TUPLES[p]:
                    f = basis_cochain(w, (2, alpha, args))
                    df = coboundary(f)
                    eig = weight_of(2, alpha, args, w)
                    for comps in cochain_weight_components(df).items():
                        assert comps[0] == eig
                    for key, op in df.components.items():
                        assert max(map(index_weight, op.terms), default=-1) <= \
                            index_weight(alpha)


def test_nonzero_weight_blocks_are_acyclic():
    for w in [Weights((Fraction(0),), Fraction(2)),
              Weights((Fraction(0), Fraction(0)), Fraction(1))]:
        for wt in (1, -1, 2, -2):
            rep = weight_block_report(w, 4, weight=wt)
            assert rep["kernels"][1] == rep["ranks"][0]
            assert rep["kernels"][2] == rep["ranks"][1]


def test_brute_force_empty_block_when_shift_not_integral():
    w = Weights((Fraction(1, 3),), Fraction(0))
    result = brute_force_h2(w)
    assert result.dim == 0 and result.stable
    assert result.alpha_max == 1 and result.method == "oracle"


def test_brute_force_matches_rank_deficiency():
    """Verified behaviour: the certified block dimension equals the rank
    deficiency of the coefficient system whenever the shift is natural."""
    cases = [
        Weights((Fraction(0),), Fraction(0)),
        Weights((Fraction(0),), Fraction(1)),
        Weights((Fraction(-1, 2),), Fraction(3, 2)),
        Weights((Fraction(0), Fraction(0)), Fraction(1)),
        Weights((Fraction(1), Fraction(1)), Fraction(3)),
        Weights((Fraction(0), Fraction(-1, 2), Fraction(-1)), Fraction(7, 2)),
    ]
    for w in cases:
        result = brute_force_h2(w)
        assert result.stable
        assert result.dim == rank_data(w)[2]


def test_brute_force_matches_rank_deficiency_at_n4_k4_and_n3_k5():
    """The stable oracle equals ell on seeded resonant rows beyond the
    default sweeps' oracle range (n = 4, k = 4 and 6; n = 3, k = 5; n = 5,
    k = 4), within a 10 s budget."""
    rng = random.Random(2024)
    rows = [(4, 4, tuple(rng.randrange(4) for _ in range(4))) for _ in range(12)]
    rows += [(3, 5, tuple(rng.randrange(5) for _ in range(3))) for _ in range(12)]
    rows += [(4, 6, tuple(rng.randrange(6) for _ in range(4))) for _ in range(6)]
    rows += [(5, 4, tuple(rng.randrange(4) for _ in range(5))) for _ in range(6)]
    start = time.perf_counter()
    for n, k, t in rows:
        w = weights_for_tvector(n, k, t)
        result = brute_force_h2(w)
        assert result.stable, t
        assert result.dim == rank_data(w)[2], t
    assert time.perf_counter() - start < 10


def test_default_alpha_max():
    assert default_alpha_max(Weights((Fraction(0),), Fraction(2))) == 2
    assert default_alpha_max(Weights((Fraction(1, 3),), Fraction(0))) == 1
    assert default_alpha_max(Weights((Fraction(0),), Fraction(0))) == 1
    assert default_alpha_max(Weights((Fraction(1),), Fraction(-2))) == 1


def test_block_dimension_stable_across_truncations():
    w = Weights((Fraction(0), Fraction(0)), Fraction(1))
    dims = [h2_block_dimensions(w, cap) for cap in (2, 3, 4, 5, 6)]
    assert len(set(dims)) == 1


def test_a_cap_below_the_shift_is_not_certified():
    # k = 5 and ell = 1: caps 1 to 3 cut every level (all give 0) and cap 4
    # keeps only level 4, so none of them is the H^2 of the block
    w = weights_for_tvector(2, 5, (2, 3))
    assert rank_data(w)[2] == 1
    low = brute_force_h2(w, 1)
    assert (low.dim, low.stable, low.alpha_max) == (0, False, 1)
    for cap in (2, 3, 4):
        assert brute_force_h2(w, cap).stable is False
    for cap in (5, 6, 7):
        result = brute_force_h2(w, cap)
        assert (result.dim, result.stable) == (1, True)
    assert brute_force_h2(w).alpha_max == 5


def test_cap_k_equals_cap_k_plus_2_and_ell_on_seeded_rows():
    rng = random.Random(11)
    rows = [weights_for_tvector(n, k, tuple(rng.randrange(k) for _ in range(n)))
            for n, k in ((1, 5), (2, 5), (3, 4), (3, 5), (4, 3), (4, 4)) for _ in range(3)]
    rows += [nonresonant_weights(4, 4),
             Weights((Fraction(1, 3), Fraction(0)), Fraction(7, 3)),
             Weights((Fraction(1, 3), Fraction(-1, 2), Fraction(0)), Fraction(23, 6)),
             Weights((Fraction(0),), Fraction(0))]
    for w in rows:
        k = w.natural_delta()
        result = brute_force_h2(w)
        assert result.stable and result.alpha_max == max(k, 1), w
        assert result.dim == h2_block_dimensions(w, max(k, 1) + 2) == rank_data(w)[2], w
    # a negative integral shift: nonempty blocks, acyclic at every cap
    w = Weights((Fraction(1),), Fraction(-2))
    assert w.delta() == -3 and weight_block_basis(2, Truncation(3), w)
    assert brute_force_h2(w).stable
    assert [h2_block_dimensions(w, cap) for cap in (1, 3)] == [0, 0]


def test_the_graded_acyclicity_certificate_refuses_a_corrupted_table(monkeypatch):
    assert cecomplex._certify_graded_acyclicity()
    # flip the sign of the bracket entry of d1 from Xx to (X1, Xx2)
    table = dict(cecomplex._DIFFERENTIAL_TABLES[1])
    table[(XX,)] = tuple((t, j, sign, -c if t == (X1, XX2) else c)
                         for t, j, sign, c in table[(XX,)])
    assert table[(XX,)] != cecomplex._DIFFERENTIAL_TABLES[1][(XX,)]
    monkeypatch.setitem(cecomplex._DIFFERENTIAL_TABLES, 1, table)
    cecomplex._certify_graded_acyclicity.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="d1 of the graded piece"):
            cecomplex._certify_graded_acyclicity()
        with pytest.raises(RuntimeError, match="graded piece"):
            brute_force_h2(weights_for_tvector(2, 2, (1, 0)))
    finally:
        monkeypatch.undo()
        cecomplex._certify_graded_acyclicity.cache_clear()
        cecomplex._cached_h2_frame.cache_clear()
    # Xx2 lowering the eigenvalue by 2: the cochain on (Xx2,) would exist
    # in K(2), so the levels below k - 1 would not all be empty
    monkeypatch.setitem(weights_module._WEIGHT_CONTRIB, XX2, -2)
    cecomplex._certify_graded_acyclicity.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="not empty"):
            cecomplex._certify_graded_acyclicity()
    finally:
        monkeypatch.undo()
        cecomplex._certify_graded_acyclicity.cache_clear()


def test_the_graded_acyclicity_certificate_runs_once_and_not_at_import():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    script = "\n".join([
        "import sl2cohom",
        "from sl2cohom import cecomplex, sweep",
        "info = cecomplex._certify_graded_acyclicity.cache_info",
        "assert info().misses == 0, info()",
        "for t in ((1, 0), (1, 1), (0, 2)):",
        "    cecomplex.brute_force_h2(sweep.weights_for_tvector(2, 3, t))",
        "assert (info().misses, info().hits) == (1, 2), info()",
    ])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


#: (weights, caps, eigenvalue block): n = 1, 2, 3, resonant and not, a
#: non-integral shift (empty blocks), a non-half-integral lambda with an
#: integral shift, and a nonzero eigenvalue block.
PREFIX_CASES = [
    (weights_for_tvector(1, 2, (0,)), [1, 2, 3, 4], 0),
    (nonresonant_weights(1, 2), [1, 2, 3, 4], 0),
    (weights_for_tvector(2, 2, (1, 0)), [1, 2, 3, 4], 0),
    (nonresonant_weights(2, 2), [1, 2, 3, 4], 0),
    (weights_for_tvector(3, 2, (0, 1, 0)), [1, 2, 3], 0),
    (nonresonant_weights(3, 1), [1, 2, 3], 0),
    (Weights((Fraction(1, 3),), Fraction(0)), [1, 2, 3], 0),
    (Weights((Fraction(1, 3), Fraction(0)), Fraction(7, 3)), [1, 2, 3, 4], 0),
    (Weights((Fraction(0), Fraction(0)), Fraction(1)), [1, 2, 3, 4], 1),
]


def _h2_block_dimension_reference(w, cap, weight):
    """One cap built and ranked from scratch."""
    tr = Truncation(cap, weight)
    b1, b2, b3 = (weight_block_basis(p, tr, w) for p in (1, 2, 3))
    return (len(b2) - sparse_rank(block_matrix(2, tr, w, b2, b3))
            - sparse_rank(block_matrix(1, tr, w, b1, b2)))


def test_block_dimensions_equal_per_cap_reference():
    # Also every sweep row with n <= 3, k <= 4, below, at and above the cap
    # where H^2 settles; nonzero eigenvalue blocks; and lambda = 1/3.
    cases = PREFIX_CASES + [(w, [0, k, k + 1, k + 3], 0)
                            for n in (1, 2, 3) for w, k, _ in sweep_configurations(n, 4)]
    for w in (weights_for_tvector(1, 2, (0,)), weights_for_tvector(2, 2, (1, 0)),
              weights_for_tvector(3, 2, (0, 1, 0)), nonresonant_weights(2, 3)):
        cases += [(w, [1, 3, 4], eigenvalue) for eigenvalue in (1, -1, 2, -2)]
    cases += [(Weights((Fraction(1, 3),), Fraction(7, 3)), [1, 3, 5], 0),
              (Weights((Fraction(1, 3), Fraction(1, 3)), Fraction(8, 3)), [1, 2, 4], 0),
              (Weights((Fraction(1, 3), Fraction(-1, 2)), Fraction(11, 6)), [2, 4], -1)]
    for w, caps, weight in cases:
        for cap in caps:
            assert h2_block_dimensions(w, cap, weight) == \
                _h2_block_dimension_reference(w, cap, weight), (w, cap, weight)


def test_brute_force_never_builds_a_block_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("block_matrix called")
    monkeypatch.setattr(cecomplex, "block_matrix", refuse)
    cecomplex._cached_h2_frame.cache_clear()
    for w in (weights_for_tvector(2, 3, (1, 2)), weights_for_tvector(2, 3, (0, 2))):
        assert brute_force_h2(w).dim == rank_data(w)[2]


def test_a_cold_oracle_call_enumerates_each_degree_once(monkeypatch):
    calls = []
    block_basis = cecomplex._block_basis

    def counting(p, *args):
        calls.append(p)
        return block_basis(p, *args)
    monkeypatch.setattr(cecomplex, "_block_basis", counting)
    cecomplex._cached_h2_frame.cache_clear()
    w = weights_for_tvector(3, 3, (1, 0, 2))
    brute_force_h2(w)
    assert sorted(calls) == [0, 1, 2, 3]
    brute_force_h2(weights_for_tvector(3, 3, (2, 2, 1)))
    assert len(calls) == 4


def test_the_oracle_frame_keeps_the_x1_free_columns_and_puts_x1_rows_first():
    # An X1-free column x^m Omega^alpha on T with m >= 1 is the partner of
    # the row (m - 1, alpha, X1 + T).  With the X1-containing rows first,
    # that row is the column's leading index, distinct for each column, so
    # every matched column lands on a fresh pivot.
    matched = 0
    for w, caps, weight in PREFIX_CASES:
        tr = Truncation(max(caps), weight)
        sources = [e for e in weight_block_basis(1, tr, w) if X1 not in e[2]]
        x1_rows = sum(X1 in args for _, _, args in weight_block_basis(2, tr, w))
        columns = cecomplex._fill(cecomplex._h2_frame(tr, w).d1, w)
        assert len(columns) == len(sources)
        leads = [min(column) for (m, _, _), column in zip(sources, columns) if m > 0]
        assert all(lead < x1_rows for lead in leads)
        assert len(set(leads)) == len(leads)
        matched += len(leads)
    assert matched > 0


def _block_bases(w, cap):
    tr = Truncation(cap)
    return [weight_block_basis(p, tr, w) for p in range(4)]


def test_the_pairing_certificate_refuses_a_missing_partner():
    w = weights_for_tvector(2, 2, (1, 0))
    delta = int(w.delta())
    c0, c1, c2, c3 = _block_bases(w, 4)
    cecomplex._certify_pairing(0, delta, c0, c1)
    cecomplex._certify_pairing(2, delta, c2, c3)
    with pytest.raises(RuntimeError, match="partner"):
        cecomplex._certify_pairing(0, delta, [e for e in c0 if e[0] != 2], c1)
    with pytest.raises(RuntimeError, match="partner"):
        cecomplex._certify_pairing(2, delta, c2[:-1], c3)


def test_the_pairing_certificate_refuses_a_minor_that_is_not_diagonal(monkeypatch):
    w = weights_for_tvector(2, 2, (1, 0))
    delta = int(w.delta())
    c0, c1, _, _ = _block_bases(w, 4)
    paired = [i for i, (_, _, args) in enumerate(c1) if X1 in args]
    build_frame = cecomplex._build_frame

    def skewed(p, delta, source, target):
        frame = build_frame(p, delta, source, target)
        frame.columns[0][0][paired[1]] = 1
        return frame
    monkeypatch.setattr(cecomplex, "_build_frame", skewed)
    with pytest.raises(RuntimeError, match="not diagonal"):
        cecomplex._certify_pairing(0, delta, c0, c1)
    monkeypatch.undo()
    # X1 acting with coefficient 0: the partner's diagonal entry vanishes,
    # and the oracle refuses the block instead of dropping its X1 columns.
    # Cap 4 has X1-containing 1-cochains (from level 3 on); the graded
    # certificate has run on the intact tables, so the pairing check is
    # what trips.
    assert cecomplex._certify_graded_acyclicity()
    table = {source: tuple((t, j, 0 if t[0] is X1 else sign, c) for t, j, sign, c in terms)
             for source, terms in cecomplex._DIFFERENTIAL_TABLES[0].items()}
    monkeypatch.setitem(cecomplex._DIFFERENTIAL_TABLES, 0, table)
    cecomplex._cached_h2_frame.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="not diagonal"):
            brute_force_h2(w, 4)
    finally:
        cecomplex._cached_h2_frame.cache_clear()


def test_block_basis_at_a_cap_is_a_prefix_of_a_larger_cap():
    for w, caps, weight in PREFIX_CASES:
        cap = caps[0]
        for p in (1, 2, 3):
            small = weight_block_basis(p, Truncation(cap, weight), w)
            large = weight_block_basis(p, Truncation(cap + 2, weight), w)
            assert large[:len(small)] == small
            assert all(index_weight(a) > cap for _, a, _ in large[len(small):])


def test_block_matrix_coordinates_are_exact_fractions():
    # int where delta and every 2 lambda_i are integers, else Fraction;
    # never a float or a bool
    seen = set()
    for w, caps, weight in PREFIX_CASES:
        tr = Truncation(max(caps), weight)
        integral = all((2 * lam).denominator == 1 for lam in w.lambdas)
        for p in (1, 2):
            for column in block_matrix(p, tr, w):
                assert all(type(c) in (int, Fraction) for c in column.values())
                if integral:
                    assert all(type(c) is int for c in column.values())
                seen.update(type(c) for c in column.values())
    # lambda_1 = 1/3 with delta = 2 gives a nonempty block with Fraction entries
    assert seen == {int, Fraction}


def _generic_block_matrix(w, source, target):
    """Columns of d read off the generic coboundary of each basis cochain."""
    index = {elem: i for i, elem in enumerate(target)}
    columns = []
    for elem in source:
        column = {}
        for args, op in coboundary(basis_cochain(w, elem)).components.items():
            for alpha, poly in op.terms.items():
                for m, c in enumerate(poly.coeffs):
                    if c:
                        column[index[(m, alpha, args)]] = c
        columns.append(column)
    return columns


def _box(n, p, m_max, alpha_max):
    """Every basis cochain of degree p with m <= m_max and |alpha| <= alpha_max."""
    return [(m, alpha, args) for alpha in enumerate_up_to(n, alpha_max)
            for args in BASIS_TUPLES[p] for m in range(m_max + 1)]


def test_block_matrix_equals_generic_coboundary():
    weights = SAMPLED_WEIGHTS + [w for w, _, _ in PREFIX_CASES]
    for w in weights:
        cap = 4 if w.n < 3 else 3
        for eigenvalue in (0, 1, -1):
            tr = Truncation(cap, eigenvalue)
            bases = [weight_block_basis(p, tr, w) for p in range(4)]
            for p in range(3):
                columns = block_matrix(p, tr, w, bases[p], bases[p + 1])
                assert columns == _generic_block_matrix(w, bases[p], bases[p + 1])
                assert all(type(c) in (int, Fraction) for col in columns for c in col.values())
    # Outside any one eigenvalue block: every monomial degree up to 3, so a
    # non-integral shift (-1/3, 2/5) and half-integral lambda give columns too.
    for w in (SAMPLED_WEIGHTS[1], SAMPLED_WEIGHTS[2], SAMPLED_WEIGHTS[7]):
        for p in range(3):
            source = _box(w.n, p, 3, 3)
            target = _box(w.n, p + 1, 4, 3)
            columns = block_matrix(p, Truncation(2), w, source, target)
            assert columns == _generic_block_matrix(w, source, target)
            assert any(columns)
            assert all(type(c) in (int, Fraction) for col in columns for c in col.values())


def test_block_matrix_refuses_a_target_missing_an_image_coordinate():
    w = Weights((Fraction(0), Fraction(0)), Fraction(1))
    tr = Truncation(3)
    source = weight_block_basis(1, tr, w)
    target = weight_block_basis(2, tr, w)
    for hit in sorted({i for col in block_matrix(1, tr, w, source, target) for i in col})[:5]:
        with pytest.raises(ValueError, match="outside the block basis"):
            block_matrix(1, tr, w, source, target[:hit] + target[hit + 1:])
    # A lowering coordinate whose factor a_1 (a_1 + 2 lambda_1 - 1) is 0 at
    # lambda_1 = 0, a_1 = 1 carries no entry, so its absence is no error;
    # at lambda_1 = 1/3 (same delta, same block) the entry is 2/3 and it is.
    w_third = Weights((Fraction(1, 3), Fraction(0)), Fraction(4, 3))
    lowering_sources = [elem for elem in source if elem[1] == (1, 0) and XX2 not in elem[2]]
    assert lowering_sources
    for elem in lowering_sources:
        m, _, args = elem
        short = [e for e in target if e != (m, (0, 0), args + (XX2,))]
        assert len(short) == len(target) - 1
        assert block_matrix(1, tr, w, [elem], short) == _generic_block_matrix(w, [elem], short)
        with pytest.raises(ValueError, match="outside the block basis"):
            block_matrix(1, tr, w_third, [elem], short)


#: Weights sharing n = 2 and delta = 2, so one oracle frame per cap:
#: lambda_1 = 1/3 gives Fraction entries, and the resonant rows make the
#: lowering factor a_i (a_i + 2 lambda_i - 1) vanish at a_1 = 1 (lambda_1 = 0)
#: and at a_2 = 2 (lambda_2 = -1/2), where the first weight's factors do not.
SHARED_FRAME_WEIGHTS = [
    Weights((Fraction(1), Fraction(1)), Fraction(4)),
    Weights((Fraction(1, 3), Fraction(2)), Fraction(13, 3)),
    Weights((Fraction(0), Fraction(-1, 2)), Fraction(3, 2)),
    weights_for_tvector(2, 2, (1, 0)),
    Weights((Fraction(-1, 2), Fraction(1, 3)), Fraction(11, 6)),
]


def test_block_frames_carry_no_lambda():
    assert {w.delta() for w in SHARED_FRAME_WEIGHTS} == {2}
    tr = Truncation(4)
    for p in range(3):
        bases = (weight_block_basis(p, tr, SHARED_FRAME_WEIGHTS[0]),
                 weight_block_basis(p + 1, tr, SHARED_FRAME_WEIGHTS[0]))
        for w in SHARED_FRAME_WEIGHTS:
            assert block_matrix(p, tr, w) == _generic_block_matrix(w, *bases), (p, w)
    # and the cochain dimensions read off the shared oracle frame are
    # per-lambda; every weight after the first read the frame already built
    hits = cecomplex._cached_h2_frame.cache_info().hits
    for w in SHARED_FRAME_WEIGHTS:
        for cap in (3, 4):
            assert h2_block_dimensions(w, cap) == _h2_block_dimension_reference(w, cap, 0)
    assert cecomplex._cached_h2_frame.cache_info().hits - hits >= \
        2 * (len(SHARED_FRAME_WEIGHTS) - 1)


def test_truncation_refuses_a_non_integer_eigenvalue():
    for eigenvalue in (0.5, 1.0, Fraction(1, 2), Fraction(1)):
        with pytest.raises(TypeError, match="int"):
            Truncation(3, eigenvalue)
    assert Truncation(3, -1).weight == -1


def test_block_beyond_index_sized_monomial_degrees_overflows():
    # shift -10^30: the block's cochains would need x^(10^30)
    w = Weights((Fraction(10**30),), Fraction(0))
    with pytest.raises(OverflowError, match="index-sized"):
        weight_block_basis(1, Truncation(3), w)
    assert weight_block_basis(1, Truncation(3), Weights((Fraction(0),), Fraction(10**30))) == []


def test_cohom_result_json():
    w = Weights((Fraction(0),), Fraction(1))
    result = brute_force_h2(w, 4)
    data = result.to_json_dict()
    assert data["method"] == "oracle"
    assert data["alpha_max"] == 4
    assert data["stable"] is True
    assert data["weights"] == {"n": 1, "lambdas": ["0"], "mu": "1"}


def test_brute_force_requires_positive_alpha_max():
    w = Weights((Fraction(0),), Fraction(1))
    with pytest.raises(ValueError):
        brute_force_h2(w, 0)
