import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from sl2cohom import cecomplex, reduced
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
    weight_block_basis,
    weight_of,
)
from sl2cohom.linalg import sparse_rank
from sl2cohom.multiindices import enumerate_up_to, index_weight, multiset_coeff
from sl2cohom.operators import DiffOperator, act_on_operator
from sl2cohom.polynomials import Polynomial
from sl2cohom.reduced import dim_h2_via_system
from sl2cohom.sweep import (
    evaluate_row,
    nonresonant_weights,
    run_sweep,
    sweep_configurations,
    weights_for_tvector,
)
from sl2cohom.weights import GENERATORS, Weights
from support import empty_caches


def system_ell(w):
    """The rank deficiency of the constraint system at a natural shift k,
    read off dim_h2_via_system = base + 3 ell."""
    return (dim_h2_via_system(w).dim - multiset_coeff(w.n - 1, w.natural_delta())) // 3


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
        assert result.dim == system_ell(w)


def test_the_oracle_is_the_exact_count_on_every_orbit_of_the_grids():
    # the module docstring proves dim H^2 = ell at the cap max(k, 1); the
    # exact count computes ell with no rank, so the two meet on every
    # sorted t, the orbit representatives
    orbits = positive = 0
    for n, k_max in ((1, 30), (2, 11), (3, 8), (4, 6), (5, 5)):
        for k in range(1, k_max + 1):
            for t in itertools.combinations_with_replacement(range(k), n):
                w = weights_for_tvector(n, k, t)
                ell = reduced.ell_count(w)
                assert brute_force_h2(w).dim == ell, (k, t)
                orbits += 1
                positive += ell > 0
    assert (orbits, positive) == (1543, 575)


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
        assert result.dim == system_ell(w), t
    assert time.perf_counter() - start < 10


def test_default_alpha_max():
    assert default_alpha_max(Fraction(2)) == 2
    assert default_alpha_max(Fraction(-1, 3)) == 1
    assert default_alpha_max(Fraction(0)) == 1
    assert default_alpha_max(Fraction(-3)) == 1


def _h2_block_dimension_reference(w, cap):
    """H^2 of the eigenvalue-0 block at one cap, built and ranked from scratch."""
    tr = Truncation(cap)
    b1, b2, b3 = (weight_block_basis(p, tr, w) for p in (1, 2, 3))
    return (len(b2) - sparse_rank(block_matrix(2, tr, w, b2, b3))
            - sparse_rank(block_matrix(1, tr, w, b1, b2)))


def test_block_dimension_stable_across_truncations():
    w = Weights((Fraction(0), Fraction(0)), Fraction(1))
    dims = [_h2_block_dimension_reference(w, cap) for cap in (2, 3, 4, 5, 6)]
    assert len(set(dims)) == 1


def test_a_cap_below_the_shift_is_not_certified():
    # k = 5 and ell = 1: caps 1 to 3 cut every level (all give 0) and cap 4
    # keeps only level 4, so none of them is the H^2 of the block; from cap
    # k on, the filtration gives ell, and the oracle computes at cap k
    w = weights_for_tvector(2, 5, (2, 3))
    assert system_ell(w) == 1
    assert [_h2_block_dimension_reference(w, cap) for cap in range(1, 8)] == \
        [0, 0, 0, 5, 1, 1, 1]
    result = brute_force_h2(w)
    assert (result.dim, result.stable, result.alpha_max) == (1, True, 5)
    with pytest.raises(ValueError, match="nonnegative"):
        Truncation(-1)


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
        assert result.dim == _h2_block_dimension_reference(w, max(k, 1) + 2) == \
            system_ell(w), w
    # a negative integral shift: nonempty blocks, acyclic at every cap
    w = Weights((Fraction(1),), Fraction(-2))
    assert w.delta() == -3 and weight_block_basis(2, Truncation(3), w)
    assert brute_force_h2(w).stable
    assert [_h2_block_dimension_reference(w, cap) for cap in (1, 3)] == [0, 0]


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


def test_block_dimensions_equal_per_cap_reference():
    # The prefix cases, every sweep row with n <= 3, k <= 4, and lambda = 1/3
    # (a natural shift and a non-half-integral lambda beside -1/2).
    cases = [w for w, _, _ in PREFIX_CASES]
    cases += [w for n in (1, 2, 3) for w, _, _ in sweep_configurations(n, 4)]
    cases += [nonresonant_weights(2, 3),
              Weights((Fraction(1, 3),), Fraction(7, 3)),
              Weights((Fraction(1, 3), Fraction(1, 3)), Fraction(8, 3)),
              Weights((Fraction(1, 3), Fraction(-1, 2)), Fraction(11, 6))]
    # The shifts 0, -1, -2 and -3, where d1 has X1-containing columns
    # beside the X1-free ones, at every sorted lambda of n <= 3 from four
    # values: resonant, half-integral, non-half-integral and a large one.
    values = (Fraction(0), Fraction(-1, 2), Fraction(1, 3), Fraction(2))
    cases += [Weights(lambdas, delta + sum(lambdas)) for delta in (0, -1, -2, -3)
              for n in (1, 2, 3) for lambdas in itertools.combinations_with_replacement(values, n)]
    for w in cases:
        assert brute_force_h2(w).dim == \
            _h2_block_dimension_reference(w, default_alpha_max(w.delta())), w


def test_brute_force_never_builds_a_block_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("block_matrix called")
    monkeypatch.setattr(cecomplex, "block_matrix", refuse)
    cecomplex._cached_h2_frame.cache_clear()
    for w in (weights_for_tvector(2, 3, (1, 2)), weights_for_tvector(2, 3, (0, 2))):
        assert brute_force_h2(w).dim == system_ell(w)


def test_a_cold_oracle_call_enumerates_each_degree_once(monkeypatch):
    calls = []
    block_basis = cecomplex._block_basis

    def counting(p, *args):
        calls.append(p)
        return block_basis(p, *args)
    # the graded-acyclicity check, once per process, builds bases of its own
    empty_caches()
    cecomplex._certify_graded_acyclicity()
    monkeypatch.setattr(cecomplex, "_block_basis", counting)
    w = weights_for_tvector(3, 3, (1, 0, 2))
    brute_force_h2(w)
    # d1 and the pairing of d2 read degrees 1 to 3; nothing reads d0
    assert sorted(calls) == [1, 2, 3]
    brute_force_h2(weights_for_tvector(3, 3, (2, 2, 1)))
    assert len(calls) == 3


def _cold_h2(w):
    """The oracle's value, built and ranked from scratch at its cap."""
    return _h2_block_dimension_reference(w, default_alpha_max(w.delta()))


def test_a_warm_shuffled_orbit_memo_equals_cold_block_dimensions():
    # the rows of the orbit record, keyed by (delta, sorted 2 lambda_i),
    # read the oracle value of a row computed cold, in any order
    rows = [config for n, k_max in ((2, 8), (3, 5), (4, 4))
            for config in sweep_configurations(n, k_max)]
    random.Random(19).shuffle(rows)
    orbits = {(w.delta(), tuple(sorted(w.twice_lambdas))) for w, _, _ in rows}
    empty_caches()
    for w, k, t in rows:
        evaluate_row(w, k, t, ("oracle",), "on")
    info = reduced.orbit_record.cache_info()
    assert (info.misses, info.currsize) == (len(orbits), len(orbits))
    assert [evaluate_row(w, k, t, ("oracle",), "on").dim_oracle for w, k, t in rows] == \
        [_cold_h2(w) for w, _, _ in rows]
    assert reduced.orbit_record.cache_info().hits == info.hits + len(rows)


def test_the_orbit_memo_keeps_shift_arity_and_fractional_weights_apart():
    half, third = Fraction(-1, 2), Fraction(1, 3)
    rows = [
        # the same sorted lambda = (-1/2, 0) at shifts 2 and 3: 1 and 0
        weights_for_tvector(2, 2, (1, 0)), weights_for_tvector(2, 3, (0, 1)),
        # the same values lambda_i = -1/2 at n = 2 and n = 3, k = 2: 1 and 0
        weights_for_tvector(2, 2, (1, 1)), weights_for_tvector(3, 2, (1, 1, 1)),
        # lambda = 1/3: a shift that is not natural, a natural one, and a
        # natural one beside -1/2 (0; the resonant (0, -1/2) would give 1)
        Weights((third,), Fraction(0)), Weights((third,), Fraction(7, 3)),
        Weights((third, half), Fraction(11, 6)),
    ]
    assert [w.natural_delta() for w in rows[4:]] == [None, 2, 2]

    def oracle(w, methods=("oracle",)):
        return evaluate_row(w, w.natural_delta(), None, methods, "on").dim_oracle
    empty_caches()
    dims = [oracle(w) for w in rows]
    assert dims == [_cold_h2(w) for w in rows] == [1, 0, 1, 0, 0, 0, 0]
    assert reduced.orbit_record.cache_info().currsize == len(rows)
    # a permuted row is a hit on its orbit
    assert oracle(Weights((half, third), Fraction(11, 6))) == 0
    assert oracle(weights_for_tvector(2, 2, (0, 1))) == 1
    # so is a row asking for any other method beside the oracle, which
    # every record fills; a row without the oracle is a key of its own
    assert oracle(rows[0], ("system", "closed", "summary", "oracle")) == 1
    info = reduced.orbit_record.cache_info()
    assert (info.hits, info.currsize) == (3, len(rows))
    assert oracle(rows[0], ("closed",)) is None
    assert oracle(rows[0], ("system", "summary")) is None
    info = reduced.orbit_record.cache_info()
    assert (info.hits, info.currsize) == (4, len(rows) + 1)


def test_a_cold_sweep_computes_the_oracle_once_per_orbit(monkeypatch):
    configs = sweep_configurations(4, 6)
    resonant = {(k, tuple(sorted(t))) for _, k, t in configs if t is not None}
    non_resonant = {k for _, k, t in configs if t is None}
    assert (len(configs), len(resonant), len(non_resonant)) == (2282, 252, 7)
    calls = []
    monkeypatch.setattr(reduced, "brute_force_h2", lambda *args: calls.append(args[0])
                        or brute_force_h2(*args))
    empty_caches()
    rows = run_sweep(4, 6, ("system", "oracle"), "on")
    assert len(calls) == reduced.orbit_record.cache_info().misses == \
        len(resonant) + len(non_resonant)
    # on the sorted representative of each orbit
    assert all(list(w.twice_lambdas) == sorted(w.twice_lambdas) for w in calls)
    assert all(row.dim_oracle == system_ell(row.weights) for row in rows)


def test_the_oracle_frame_keeps_the_x1_free_columns_and_puts_x1_rows_first():
    # The oracle's d1 has a column for every cochain of C1, and at a
    # natural shift k >= 1 (every integral shift of the prefix cases) all
    # of C1 is X1-free, so each frame holds the X1-free columns alone.  An
    # X1-free column x^m Omega^alpha on T with m >= 1 is the partner of
    # the row (m - 1, alpha, X1 + T).  With the X1-containing rows first,
    # that row is the column's leading index, distinct for each column, so
    # every matched column lands on a fresh pivot.
    matched = 0
    for w, _, _ in PREFIX_CASES:
        if w.delta().denominator != 1:
            continue
        assert w.delta() >= 1
        tr = Truncation(default_alpha_max(w.delta()))
        sources = weight_block_basis(1, tr, w)
        assert not any(X1 in args for _, _, args in sources)
        x1_rows = sum(X1 in args for _, _, args in weight_block_basis(2, tr, w))
        frame = cecomplex._cached_h2_frame(w.n, int(w.delta()))
        columns = cecomplex._fill(frame.d1, w.twice_lambdas)
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
        frame[0][0][paired[1]] = 1
        return frame
    monkeypatch.setattr(cecomplex, "_build_frame", skewed)
    with pytest.raises(RuntimeError, match="not diagonal"):
        cecomplex._certify_pairing(0, delta, c0, c1)
    monkeypatch.undo()
    # X1 acting with coefficient 0: the partner's diagonal entry vanishes,
    # and the oracle refuses the block instead of taking rank d2 = |C3|.
    # X1-containing 3-cochains exist at every k, so d2 is zeroed on a k = 4
    # row; the oracle ranks d1 on all of C1 and reads no d0.  The graded
    # certificate has run on the intact tables, so the pairing check is
    # what trips.
    assert cecomplex._certify_graded_acyclicity()
    table = {source: tuple((t, j, 0 if t[0] is X1 else sign, c) for t, j, sign, c in terms)
             for source, terms in cecomplex._DIFFERENTIAL_TABLES[2].items()}
    monkeypatch.setitem(cecomplex._DIFFERENTIAL_TABLES, 2, table)
    cecomplex._cached_h2_frame.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="not diagonal"):
            brute_force_h2(weights_for_tvector(2, 4, (1, 2)))
    finally:
        monkeypatch.undo()
        cecomplex._cached_h2_frame.cache_clear()


def test_identity_1_pairs_cochains_only_at_k_0_and_negative_shifts():
    # At the oracle's cap max(delta, 1), an X1-containing 1-cochain
    # (m, alpha, (X1,)) has m = |alpha| - delta - 1: none exists for
    # delta >= 1, the n of level 1 at delta = 0, and all 1 + n of level
    # <= 1 below 0.  So ranking d1 on all of C1, not only on its X1-free
    # columns, adds columns only there: every frame of a shift k >= 1 is
    # the X1-free one.
    for n in (1, 2, 3, 4):
        counts = [sum(X1 in args for _, _, args in
                      cecomplex._block_basis(1, n, -delta, default_alpha_max(delta)))
                  for delta in range(-3, 7)]
        assert counts == [n + 1] * 3 + [n] + [0] * 6, n


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
    # and the cochain dimensions read off the shared oracle frame at cap 2
    # are per-lambda; every row after the first reads the frame already
    # built
    empty_caches()
    for w in SHARED_FRAME_WEIGHTS:
        result = brute_force_h2(w)
        assert result.alpha_max == 2
        assert result.dim == _h2_block_dimension_reference(w, 2), w
    info = cecomplex._cached_h2_frame.cache_info()
    assert (info.misses, info.hits) == (1, len(SHARED_FRAME_WEIGHTS) - 1)


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
    result = brute_force_h2(w)
    data = result.to_json_dict()
    assert data["method"] == "oracle"
    assert data["alpha_max"] == 1
    assert data["stable"] is True
    assert data["weights"] == {"n": 1, "lambdas": ["0"], "mu": "1"}
