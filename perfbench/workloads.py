"""The benchmark's workloads: config lists, evaluation, invariant checks, digests.

Each workload is a list of configurations, a function that evaluates one
configuration through the public functions of ``sl2cohom`` (what one
``sl2cohom dim`` or ``basis`` query does), and a check of the result against
invariants of the mathematics.  No expectation is a stored answer: each is
derived from the configuration itself.

The seed only chooses the evaluation order and, for ``oracle``, which
``n = 3, k = 3`` resonant rows join the fixed ``n = 2`` grid.  Configs are
evaluated one at a time in the calling thread; ``sweep.run_sweep`` and its
``COHOM_THREADS`` pool are never used.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from sl2cohom import reduced, sweep
from sl2cohom.multiindices import multiset_coeff
from sl2cohom.weights import Weights

Config = tuple[Weights, int, Optional[tuple[int, ...]]]

NAMES = ("sweep-system", "oracle", "certify")

SWEEP_METHODS = ("system", "closed", "summary")
ORACLE_METHODS = ("system", "oracle")
#: Resonant n = 3, k = 3 rows drawn per seed for ``oracle``; they cost about
#: four times an n = 2 row, so they set the workload's tail.
ORACLE_SAMPLE = 8


class Checks:
    """Per-invariant tallies: how often each was evaluated and how often it failed."""

    def __init__(self) -> None:
        self.tally: dict[str, list[int]] = {}

    def expect(self, name: str, ok: bool) -> bool:
        entry = self.tally.setdefault(name, [0, 0])
        entry[0] += 1
        if not ok:
            entry[1] += 1
        return ok


@dataclass(frozen=True)
class Workload:
    name: str
    configs: list[Config]
    evaluate: Callable[[Config], Any]
    #: Returns False when any invariant fails for this config's output.
    check: Callable[[Checks, Config, Any], bool]
    #: sha256 of the sorted output of one pass, given (config, output) pairs.
    digest: Callable[[list[tuple[Config, Any]]], str]


@dataclass(frozen=True)
class CertifyResult:
    dim: int
    basis: list
    residual_free: list[bool]
    exact: list[bool]


def expected_nonresonant(n: int, k: int) -> int:
    """dim H^2 off resonance: the weight-k indices over n - 1 slots."""
    return multiset_coeff(n - 1, k)


def expected_two_argument(k: int, sigma: int) -> int:
    """dim_system on an n = 2 resonant row: 4 when sigma >= k - 1, else 1."""
    return 4 if sigma >= k - 1 else 1


def check_system_dim(checks: Checks, cfg: Config, dim: int) -> tuple[bool, int]:
    """Invariants of a system dimension; returns (all held, ell)."""
    w, k, t = cfg
    n = w.n
    excess = dim - expected_nonresonant(n, k)
    ell = excess // 3
    ok = checks.expect("excess_divisible_by_3", excess % 3 == 0)
    ok &= checks.expect("ell_within_equation_count", 0 <= ell <= multiset_coeff(n, k - 1))
    if t is None:
        ok &= checks.expect("nonresonant_dim", dim == expected_nonresonant(n, k))
    elif n == 2:
        ok &= checks.expect("two_argument_dim", dim == expected_two_argument(k, sum(t)))
    return ok, ell


def _config_key(cfg: Config) -> tuple:
    w, k, t = cfg
    return (w.n, k, t if t is not None else (-1,) * w.n)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sweep_workload(name: str, configs: list[Config], methods: tuple[str, ...],
                   oracle_policy: str) -> Workload:
    """Rows of a ``table`` sweep, each evaluated by ``sweep.evaluate_row``."""
    oracle = "oracle" in methods

    def evaluate(cfg: Config) -> sweep.SweepRow:
        w, k, t = cfg
        return sweep.evaluate_row(w, k, t, methods, oracle_policy)

    def check(checks: Checks, cfg: Config, row: sweep.SweepRow) -> bool:
        ok, ell = check_system_dim(checks, cfg, row.dim_system)
        if oracle:
            # The stabilised oracle equals ell, not the formula value: the
            # documented method disagreement.
            ok &= checks.expect("oracle_stable", row.stable is True)
            ok &= checks.expect("oracle_equals_ell", row.dim_oracle == ell)
        return ok

    def digest(done: list[tuple[Config, Any]]) -> str:
        rows = sorted((row for _, row in done), key=lambda row: row.sort_key())
        return _sha256(sweep.rows_to_csv(rows))

    return Workload(name, configs, evaluate, check, digest)


def evaluate_certify(cfg: Config) -> CertifyResult:
    """``basis`` plus a coboundary solve on every representative."""
    w = cfg[0]
    basis = reduced.cocycle_basis(w)
    dim = reduced.dim_h2_via_system(w).dim
    residual_free = [not reduced.cocycle_residual(f) for f in basis]
    exact = [reduced.solve_coboundary(f) is not None for f in basis]
    return CertifyResult(dim, basis, residual_free, exact)


def check_certify(checks: Checks, cfg: Config, out: CertifyResult) -> bool:
    ok, ell = check_system_dim(checks, cfg, out.dim)
    ok &= checks.expect("basis_size_announced", len(out.basis) == out.dim)
    ok &= checks.expect("residuals_zero", all(out.residual_free))
    ok &= checks.expect("infeasible_solves_equal_ell", out.exact.count(False) == ell)
    return ok


def digest_certify(done: list[tuple[Config, CertifyResult]]) -> str:
    records = [{"weights": cfg[0].to_json_dict(), "dim": out.dim,
                "basis": [f.to_json_dict() for f in out.basis], "exact": out.exact}
               for cfg, out in sorted(done, key=lambda pair: _config_key(pair[0]))]
    return _sha256(json.dumps(records, sort_keys=True))


def certify_workload(configs: list[Config]) -> Workload:
    return Workload("certify", configs, evaluate_certify, check_certify, digest_certify)


def resonant_rows(n: int, k: int) -> list[Config]:
    """Every integral t-vector in {0, ..., k-1}^n at shift k."""
    return [(sweep.weights_for_tvector(n, k, t), k, t)
            for t in itertools.product(range(k), repeat=n)]


def certify_configs() -> list[Config]:
    """Acceptance criterion 6's 79 instances plus all n = 3, k <= 4 resonant rows."""
    configs: list[Config] = [(sweep.nonresonant_weights(n, k), k, None)
                             for n in (1, 2, 3, 4) for k in range(6)]
    for k in range(1, 6):
        configs += resonant_rows(2, k)
    for k in range(1, 5):
        configs += resonant_rows(3, k)
    return configs


def build(name: str, seed: int) -> Workload:
    """The named workload's configs for this seed, in evaluation order."""
    rng = random.Random(seed)
    if name == "sweep-system":
        configs = sweep.sweep_configurations(4, 5)
        rng.shuffle(configs)
        return sweep_workload(name, configs, SWEEP_METHODS, "off")
    if name == "oracle":
        configs = sweep.sweep_configurations(2, 4) + rng.sample(resonant_rows(3, 3), ORACLE_SAMPLE)
        rng.shuffle(configs)
        return sweep_workload(name, configs, ORACLE_METHODS, "on")
    if name == "certify":
        configs = certify_configs()
        rng.shuffle(configs)
        return certify_workload(configs)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
