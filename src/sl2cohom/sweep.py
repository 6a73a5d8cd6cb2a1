"""Parameter sweeps, method cross-checks, and deterministic reports.

A sweep enumerates, for each k up to a bound, every integral t-vector in
{0, ..., k-1}^n (realised by lambda_i = -t_i / 2, mu = k - sigma / 2) plus
one non-resonant configuration per k (lambda_i = 1).  Each row records the
dimension of every requested method side by side; disagreements are never
suppressed, they are collected into a discrepancy report.  Output order is
fixed by the row key and no timestamps appear in data files, so identical
configurations produce byte-identical reports.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .cecomplex import brute_force_h2
from .closedform import (
    CaseTag,
    classify,
    dim_h2_closed_form,
    dim_h2_summary_table,
    singular_counts,
)
from .multiindices import format_multiindex, multiset_coeff
from .polynomials import format_rational
from .reduced import build_system, dim_h2_via_system
from .weights import Weights

CSV_COLUMNS = ["n", "k", "t", "sigma", "s", "r", "dim_system", "dim_closed",
               "dim_summary", "dim_oracle", "stable", "agree"]


def weights_for_tvector(n: int, k: int, t: Sequence[int]) -> Weights:
    """The weight configuration with -2*lambda = t and shift k."""
    lambdas = tuple(Fraction(-v, 2) for v in t)
    mu = Fraction(k) + sum(lambdas, Fraction(0))
    return Weights(lambdas, mu)


def nonresonant_weights(n: int, k: int) -> Weights:
    """lambda_i = 1 keeps -2*lambda_i = -2 outside {0, ..., k-1} for every k."""
    lambdas = (Fraction(1),) * n
    return Weights(lambdas, Fraction(k) + n)


def _t_grid(n: int, k: int) -> list[tuple[int, ...]]:
    """Every t in {0, ..., k-1}^n, lexicographically ascending."""
    return list(itertools.product(range(k), repeat=n))


@dataclass(frozen=True)
class SweepRow:
    """One evaluated configuration of a sweep."""

    weights: Weights
    tag: CaseTag
    k: int
    t: Optional[tuple[int, ...]]
    dim_system: int
    dim_closed: Optional[int]
    dim_summary: Optional[Fraction]
    dim_oracle: Optional[int]
    stable: Optional[bool]

    @property
    def n(self) -> int:
        return self.weights.n

    @property
    def sigma(self) -> Optional[int]:
        return self.tag.sigma

    def counts(self) -> tuple[Optional[int], Optional[int]]:
        return singular_counts(self.tag)

    @property
    def agree(self) -> Optional[bool]:
        """System-versus-oracle agreement; None without a certified oracle value."""
        if self.dim_oracle is None or not self.stable:
            return None
        return self.dim_oracle == self.dim_system

    def sort_key(self) -> tuple:
        return (self.n, self.k, self.t if self.t is not None else (-1,) * self.n)

    def to_csv_record(self) -> list[str]:
        s, r = self.counts()
        return [
            str(self.n),
            str(self.k),
            format_multiindex(self.t) if self.t is not None else "",
            "" if self.sigma is None else str(self.sigma),
            "" if s is None else str(s),
            "" if r is None else str(r),
            str(self.dim_system),
            "" if self.dim_closed is None else str(self.dim_closed),
            "" if self.dim_summary is None else format_rational(self.dim_summary),
            "" if self.dim_oracle is None else str(self.dim_oracle),
            "" if self.stable is None else str(self.stable).lower(),
            "" if self.agree is None else str(self.agree).lower(),
        ]

    def to_json_dict(self) -> dict:
        s, r = self.counts()
        return {
            "n": self.n,
            "k": self.k,
            "t": list(self.t) if self.t is not None else None,
            "sigma": self.sigma,
            "s": s,
            "r": r,
            "weights": self.weights.to_json_dict(),
            "case": self.tag.describe(),
            "dim_system": self.dim_system,
            "dim_closed": self.dim_closed,
            "dim_summary": None if self.dim_summary is None
            else format_rational(self.dim_summary),
            "dim_oracle": self.dim_oracle,
            "stable": self.stable,
            "agree": self.agree,
        }


#: ``oracle_policy="auto"`` runs the oracle on the rows with n <= 2, k <= 4.
AUTO_ORACLE_MAX_N = 2
AUTO_ORACLE_MAX_K = 4


def _oracle_wanted(policy: str, n: int, k: int) -> bool:
    if policy == "on":
        return True
    if policy == "off":
        return False
    return n <= AUTO_ORACLE_MAX_N and k <= AUTO_ORACLE_MAX_K


def largest_oracle_k(policy: str, n: int, k_max: int) -> Optional[int]:
    """The largest k of a sweep up to k_max whose rows run the oracle, if any."""
    k = min(k_max, AUTO_ORACLE_MAX_K) if policy == "auto" else k_max
    return k if _oracle_wanted(policy, n, k) else None


def evaluate_row(w: Weights, k: int, t: Optional[tuple[int, ...]],
                 methods: Sequence[str], oracle_policy: str = "auto",
                 alpha_max: Optional[int] = None, perturb: bool = False) -> SweepRow:
    """Evaluate one configuration with the requested methods.

    ``perturb`` is the self-test of ``verify``: it adds 1 to entry (0, 0)
    of the constraint system's sparse rows and ranks all of them, so the
    verification gate can prove it detects an injected error.
    """
    tag = classify(w)
    if not perturb:
        dim_system = dim_h2_via_system(w, tag).dim
    else:
        equations = list(build_system(w.n, k, w.lambdas).equations)
        if equations:
            equations[0] = {**equations[0], 0: equations[0].get(0, 0) + 1}
        ell = multiset_coeff(w.n, k - 1) - linalg.sparse_rank(equations)
        dim_system = multiset_coeff(w.n - 1, k) + 3 * ell
    dim_closed = dim_h2_closed_form(tag, w.n) if "closed" in methods else None
    dim_summary = dim_h2_summary_table(tag, w.n) if "summary" in methods else None
    dim_oracle = None
    stable = None
    if "oracle" in methods and _oracle_wanted(oracle_policy, w.n, k):
        result = brute_force_h2(w, alpha_max)
        dim_oracle = result.dim
        stable = result.stable
    return SweepRow(weights=w, tag=tag, k=k, t=t, dim_system=dim_system,
                    dim_closed=dim_closed, dim_summary=dim_summary,
                    dim_oracle=dim_oracle, stable=stable)


def sweep_configurations(n: int, k_max: int) -> list[tuple[Weights, int, Optional[tuple[int, ...]]]]:
    """All (weights, k, t) rows of a sweep, singular grids plus non-resonant."""
    configs: list[tuple[Weights, int, Optional[tuple[int, ...]]]] = []
    for k in range(k_max + 1):
        for t in _t_grid(n, k):
            configs.append((weights_for_tvector(n, k, t), k, t))
        configs.append((nonresonant_weights(n, k), k, None))
    return configs


def run_sweep(n: int, k_max: int, methods: Sequence[str],
              oracle_policy: str = "auto", alpha_max: Optional[int] = None,
              perturb: bool = False) -> list[SweepRow]:
    """Evaluate a full sweep; rows come back in row-key order."""
    rows = [evaluate_row(w, k, t, methods, oracle_policy, alpha_max, perturb)
            for (w, k, t) in sweep_configurations(n, k_max)]
    return sorted(rows, key=lambda row: row.sort_key())


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.to_csv_record())
    return buf.getvalue()


def rows_to_json(rows: Sequence[SweepRow]) -> str:
    return json.dumps([row.to_json_dict() for row in rows],
                      indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class VerifyReport:
    """Pairwise method comparison over a sweep.

    The gate is system-versus-oracle equality on every row with a stable,
    that is certified, oracle value; closed-form and summary-table
    mismatches are recorded but are not fatal (the predictors exist to be
    compared, not trusted).  Oracle rows that are not certified are
    excluded from the gate and counted.
    """

    rows: list[SweepRow]
    gate_failures: list[SweepRow]
    unstable_rows: list[SweepRow]
    closed_mismatches: list[SweepRow]
    summary_mismatches: list[SweepRow]

    @property
    def passed(self) -> bool:
        return not self.gate_failures

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "rows": [row.to_json_dict() for row in self.rows],
            "gate_failures": [row.to_json_dict() for row in self.gate_failures],
            "unstable_rows": [row.to_json_dict() for row in self.unstable_rows],
            "closed_mismatches": [row.to_json_dict() for row in self.closed_mismatches],
            "summary_mismatches": [row.to_json_dict() for row in self.summary_mismatches],
        }

    def summary_lines(self) -> list[str]:
        lines = [
            f"rows evaluated: {len(self.rows)}",
            f"oracle gate failures: {len(self.gate_failures)}",
            f"unstable oracle rows (excluded from gate): {len(self.unstable_rows)}",
            f"closed-form mismatches (reported, non-fatal): {len(self.closed_mismatches)}",
            f"summary-table mismatches (reported, non-fatal): {len(self.summary_mismatches)}",
            f"verdict: {'PASS' if self.passed else 'FAIL'}",
        ]
        return lines


def verify_rows(rows: Sequence[SweepRow]) -> VerifyReport:
    """Compare the methods over the rows.

    An oracle row enters the gate only when it is stable, which means
    certified: its cap is at least the row's k (the default cap is) and
    the oracle's block certificates passed.  An explicit cap below k cuts
    levels that carry cohomology, so such a row is counted as unstable.
    """
    gate_failures = [r for r in rows if r.agree is False]
    unstable = [r for r in rows if r.dim_oracle is not None and r.stable is False]
    closed_mismatch = [r for r in rows if r.dim_closed is not None
                       and r.dim_closed != r.dim_system]
    summary_mismatch = [r for r in rows if r.dim_summary is not None
                        and r.dim_summary != r.dim_system]
    return VerifyReport(list(rows), gate_failures, unstable,
                        closed_mismatch, summary_mismatch)
