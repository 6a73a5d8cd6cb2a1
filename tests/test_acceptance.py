"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every expected value is exact; there are no tolerances anywhere.  Two kinds
of value are pinned.  The formula values ``C(n + k - 2, k) + 3 * ell``
promised by the ``system`` and ``closed`` methods are checked in
criterion 3, the system half of criterion 2, the closed-versus-system
report of criterion 4 and the basis size of criterion 6.  The cochain
complex itself is checked against ``ell``, the rank deficiency of the
constraint system: the certified oracle in criteria 2 and 4, and in
criterion 6 the verified coboundary witnesses of the top and middle
representatives and the infeasibility of the ``ell`` bottom ones.
Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from sl2cohom.cecomplex import brute_force_h2
from sl2cohom.cli import main as cli_main
from sl2cohom.multiindices import enumerate_up_to, multiset_coeff
from sl2cohom.operators import DiffOperator, act_on_operator, act_via_conjugation
from sl2cohom.polynomials import Polynomial
from sl2cohom.cecomplex import BASIS_TUPLES, basis_cochain, coboundary
from sl2cohom.reduced import (
    cocycle_basis,
    cocycle_residual,
    dim_h2_via_system,
    solve_coboundary,
)
from sl2cohom.sweep import (
    nonresonant_weights,
    run_sweep,
    verify_rows,
    weights_for_tvector,
)
from sl2cohom.weights import GENERATORS, Weights, bracket


def system_ell(w):
    """The rank deficiency of the constraint system at a natural shift k,
    read off dim_h2_via_system = base + 3 ell."""
    return (dim_h2_via_system(w).dim - multiset_coeff(w.n - 1, w.natural_delta())) // 3


def _finish(num: int, budget: float, elapsed: float, failures: list) -> None:
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    detail = f"{elapsed:.1f}s of {budget:.0f}s budget"
    if failures:
        detail += f"; {len(failures)} failing check(s)"
    print(f"ACCEPTANCE CRITERION {num}: {status} ({detail})")
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s"
    assert not failures, f"criterion {num} failures: {failures[:10]}"


def test_criterion_1_generic_vanishing():
    """Non-integer shift: both methods report 0, stable, in under 10 s."""
    t0 = time.monotonic()
    denominators = [3, 5, 7]
    samples = []
    i = 0
    while len(samples) < 20:
        n = 1 + (i % 3)
        den = denominators[i % 3]
        lambdas = tuple(Fraction((i + j) % 5 - 2, 1) for j in range(n - 1)) + \
            (Fraction(2 * i + 1, den),)
        mu = Fraction(i - 3, 2 if i % 2 else 1)
        w = Weights(lambdas, mu)
        if w.delta().denominator != 1:
            samples.append(w)
        i += 1
    failures = []
    for w in samples:
        oracle = brute_force_h2(w)
        system = dim_h2_via_system(w)
        if not (oracle.dim == 0 and oracle.stable and system.dim == 0):
            failures.append((str(w), oracle.dim, oracle.stable, system.dim))
    _finish(1, 10.0, time.monotonic() - t0, failures)


def test_criterion_2_nonresonant_dimension():
    """Maximal-rank configurations: the rank method matches the repetition
    binomial for n <= 4, k <= 5, and on n <= 2, k <= 4 the brute-force
    complex is stable and equals ell, which is 0 at maximal rank."""
    t0 = time.monotonic()
    failures = []
    for n in (1, 2, 3, 4):
        for k in range(6):
            w = nonresonant_weights(n, k)
            expected = multiset_coeff(n - 1, k)
            got = dim_h2_via_system(w).dim
            if got != expected:
                failures.append(("system", n, k, got, expected))
    for n in (1, 2):
        for k in range(5):
            w = nonresonant_weights(n, k)
            expected = system_ell(w)
            oracle = brute_force_h2(w)
            if not (oracle.stable and oracle.dim == expected):
                failures.append(("oracle", n, k, oracle.dim, expected,
                                 f"stable={oracle.stable}"))
    _finish(2, 60.0, time.monotonic() - t0, failures)


def test_criterion_3_two_argument_singular_benchmark():
    """Two-argument sweep, k <= 5: 4 when sigma >= k - 1, else 1."""
    t0 = time.monotonic()
    failures = []
    for k in range(1, 6):
        for t in itertools.product(range(k), repeat=2):
            w = weights_for_tvector(2, k, t)
            expected = 4 if sum(t) >= k - 1 else 1
            got = dim_h2_via_system(w).dim
            if got != expected:
                failures.append((k, t, got, expected))
    _finish(3, 30.0, time.monotonic() - t0, failures)


def test_criterion_4_singular_case_table():
    """Three-argument sweep k <= 5: the closed forms match the rank method
    on every row or land in the discrepancy report; gate: the brute-force
    complex is stable and equals ell, the rank deficiency of the constraint
    system, on the n <= 2 oracle rows plus ten seeded-random n = 3 rows."""
    t0 = time.monotonic()
    failures = []
    rows = run_sweep(3, 5, ("system", "closed", "summary"), oracle_policy="off")
    report = verify_rows(rows)
    for row in rows:
        agrees = row.dim_closed == row.dim_system
        reported = row in report.closed_mismatches
        if not (agrees or reported):
            failures.append(("closed-unreported", row.k, row.t))
    mism = [(r.k, r.t, r.dim_system, r.dim_closed) for r in report.closed_mismatches]
    print(f"  criterion 4: {len(mism)} closed-vs-system rows in discrepancy "
          f"report (both values recorded), e.g. {mism[:3]}")

    gate_rows = run_sweep(2, 4, ("system", "oracle"), oracle_policy="auto")
    rng = random.Random(2024)
    n3_rows = [cfg for cfg in rows if cfg.t is not None]
    gate = []
    for picked in rng.sample(n3_rows, 10):
        oracle = brute_force_h2(picked.weights)
        gate.append(("gate-n3", picked, oracle.dim, oracle.stable))
    for row in gate_rows:
        gate.append(("gate-n2", row, row.dim_oracle, row.stable))
    checked = []
    for label, row, dim_oracle, stable in gate:
        ell = system_ell(row.weights)
        checked.append((row.k, row.t, dim_oracle, ell))
        if not (stable and dim_oracle == ell):
            failures.append((label, row.k, row.t, dim_oracle, ell, stable))
    print(f"  criterion 4: {len(checked)} gate rows (k, t, oracle, ell), "
          f"e.g. {checked[:3]}")
    _finish(4, 300.0, time.monotonic() - t0, failures)


ACTION_WEIGHTS = [
    Weights((Fraction(0),), Fraction(0)),
    Weights((Fraction(1, 3),), Fraction(1)),
    Weights((Fraction(-1, 2),), Fraction(3, 2)),
    Weights((Fraction(2),), Fraction(-1)),
    Weights((Fraction(0), Fraction(0)), Fraction(1)),
    Weights((Fraction(1), Fraction(1)), Fraction(3)),
    Weights((Fraction(0), Fraction(-1, 2)), Fraction(5, 2)),
    Weights((Fraction(1, 5), Fraction(2, 5)), Fraction(0)),
    Weights((Fraction(0), Fraction(0), Fraction(-1, 2)), Fraction(2)),
    Weights((Fraction(1), Fraction(1), Fraction(1)), Fraction(5)),
]


def test_criterion_5_structural_invariants():
    """d of d vanishes on all block basis cochains with |alpha| <= 4; the
    closed-form action equals the defining conjugation on the full grid;
    the action is a bracket homomorphism on every generator pair."""
    t0 = time.monotonic()
    failures = []
    for w in ACTION_WEIGHTS:
        for p in (0, 1):
            for alpha in enumerate_up_to(w.n, 4):
                for args in BASIS_TUPLES[p]:
                    for m in range(5):
                        f = basis_cochain(w, (m, alpha, args))
                        if not coboundary(coboundary(f)).is_zero():
                            failures.append(("dd", str(w), m, alpha, args))

    monomials = [Polynomial.monomial(d) for d in range(7)]
    action_weights = [w for w in ACTION_WEIGHTS if w.n <= 2] + [ACTION_WEIGHTS[8]]
    for w in action_weights:
        n = w.n
        tuples = [[monomials[d] for d in tup]
                  for tup in itertools.product(range(7), repeat=n)]
        for alpha in enumerate_up_to(n, 4):
            for deg in range(4):
                op = DiffOperator.elementary(w, alpha, Polynomial.monomial(deg))
                for g in GENERATORS:
                    acted = act_on_operator(g, op)
                    for dens in tuples:
                        if acted.apply(dens) != act_via_conjugation(g, op, dens):
                            failures.append(("action", str(w), alpha, deg, g))

    rng = random.Random(55)
    for w in ACTION_WEIGHTS:
        for _ in range(3):
            alpha = tuple(rng.randint(0, 2) for _ in range(w.n))
            op = DiffOperator.elementary(
                w, alpha, Polynomial([rng.randint(-2, 2) for _ in range(3)]))
            for g1, g2 in itertools.combinations(GENERATORS, 2):
                lhs = act_on_operator(g1, act_on_operator(g2, op)) - \
                    act_on_operator(g2, act_on_operator(g1, op))
                coeff, gen = bracket(g1, g2)
                if lhs != act_on_operator(gen, op).scale(coeff):
                    failures.append(("homomorphism", str(w), alpha, g1, g2))
    _finish(5, 120.0, time.monotonic() - t0, failures)


def test_criterion_6_cocycle_bases():
    """Every instance of criteria 2-3: the basis has exactly the announced
    size and identically zero residuals; every top-family (A) and
    middle-family (B) element has a coboundary witness that the generic
    differential of the cochain complex verifies; no bottom-family (C)
    element has one, and there are exactly ell of them."""
    t0 = time.monotonic()
    failures = []
    instances = [nonresonant_weights(n, k) for n in (1, 2, 3, 4) for k in range(6)]
    instances += [weights_for_tvector(2, k, t)
                  for k in range(1, 6) for t in itertools.product(range(k), repeat=2)]
    for w in instances:
        basis = cocycle_basis(w)
        announced = dim_h2_via_system(w).dim
        if len(basis) != announced:
            failures.append(("count", str(w), len(basis), announced))
            continue
        bottom = 0
        for pos, f in enumerate(basis):
            if cocycle_residual(f):
                failures.append(("residual", str(w), pos))
            witness = solve_coboundary(f)
            if f.A or f.B:
                kind = "A" if f.A else "B"
                if witness is None:
                    failures.append(("no-witness", str(w), pos, kind))
                elif coboundary(witness.to_cochain()) != f.to_cochain():
                    failures.append(("bad-witness", str(w), pos, kind))
            else:
                bottom += 1
                if witness is not None:
                    failures.append(("exact", str(w), pos, "C"))
        ell = system_ell(w)
        if bottom != ell:
            failures.append(("bottom-count", str(w), bottom, ell))
    _finish(6, 120.0, time.monotonic() - t0, failures)


def test_criterion_7_negative_control(tmp_path):
    """An injected single-entry perturbation makes the verify gate exit
    nonzero and changes its gate-failure list.

    The unperturbed sweep already fails the gate (system against oracle is
    the documented method disagreement), so the exit code alone cannot
    show that the perturbation was detected; the failure list must move.
    """
    t0 = time.monotonic()
    reports = {}
    for label, extra in (("clean", []), ("perturbed", ["--self-test-perturb"])):
        path = tmp_path / f"{label}.json"
        code = cli_main(["verify", "--n", "2", "--k-max", "2", "--oracle", "auto",
                         "--out", str(path)] + extra)
        reports[label] = (code, json.loads(path.read_text())["gate_failures"])
    failures = []
    code, perturbed = reports["perturbed"]
    if code == 0:
        failures.append(("exit-code", code))
    if perturbed == reports["clean"][1]:
        failures.append(("gate-failures-unchanged", len(perturbed)))
    _finish(7, 60.0, time.monotonic() - t0, failures)
