"""Parameter sweeps, method cross-checks, and deterministic reports.

A sweep enumerates, for each k up to a bound, every integral t-vector in
{0, ..., k-1}^n (realised by lambda_i = -t_i / 2, mu = k - sigma / 2) plus
one non-resonant configuration per k (lambda_i = 1).  Each row records the
dimension of every requested method side by side; disagreements are never
suppressed, they are collected into a discrepancy report.  Output order is
fixed by the row key and no timestamps appear in data files, so identical
configurations produce byte-identical reports.

Permuting the n tensor factors of F_lambda_1 (x) ... (x) F_lambda_n is an
sl(2)-module isomorphism from D_(lambda, mu) onto D_(pi lambda, mu), so
dim H^2 depends only on mu and the multiset of the lambda_i.  So every
method's dimension for a row is read from one orbit record,
``reduced.orbit_record``: a ``functools.lru_cache`` of at most
``reduced.ORBIT_CACHE_SIZE`` entries, keyed by the shift, the sorted
2 lambda_i and whether the oracle runs, that on a miss evaluates the
orbit's sorted representative (the ``reduced`` docstring says why each
method's value is the same on the whole orbit).  The record always holds
both predictors; a row sets to None each one it did not ask for.  It also
holds the representative's case tag, which every row of the orbit shares
as its ``tag``: its kind, k and sigma, and so s and r, are the row's own,
and only its t is in the representative's order, so a row classifies
nothing.  The row's own t stays in ``row.t``, and a JSON report formats
the case from ``classify`` of the row's weights.  The self-test of
``verify --self-test-perturb`` is applied by ``run_sweep``, after the
record: entry (0, 0), which it perturbs, is moved by a permutation, so
each row ranks its own perturbed rows, and no record holds that rank.

So a warm row is bookkeeping.  The row is a named tuple, built
positionally through ``tuple.__new__``, and the case string is formatted
only when a JSON report is written.  In-process CPU time on 2 vCPUs,
Python 3.11.7, best of 9 timings of 10 passes: a warm n = 4, k <= 5 row
with the system, closed and summary methods costs about 1.0 us: 0.55 to
sort its 2 lambda_i and look the orbit up, and the rest to read the
methods asked for, for the call and for the row.  A ``classify`` of the
row would cost 0.9 us more, which is why the tag comes from the record.
On a warm row, asking for the oracle adds only the check of the oracle
policy.  Building the row's ``Weights`` beforehand, in
``sweep_configurations``, costs about 3 us more at n = 4 and 5 us at
n = 8: the weights -t_i/2 and mu = k - sigma/2 are made once per k, and
what is left is the ``Weights`` constructor.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import linalg
from .closedform import CaseTag, classify, singular_counts
from .multiindices import format_multiindex, multiset_coeff
from .polynomials import format_rational
from .reduced import build_system, orbit_record
from .weights import Weights

CSV_COLUMNS = ["n", "k", "t", "sigma", "s", "r", "dim_system", "dim_closed",
               "dim_summary", "dim_oracle", "stable", "agree"]


def _tvector_weights(k: int, values: Iterable[int],
                     sigmas: Iterable[int]) -> Callable[[Sequence[int]], Weights]:
    """Builds the weights with -2*lambda = t and shift k, for every t with
    entries in ``values`` and sum in ``sigmas``.

    Each lambda = -v/2 and each mu = (2k - sigma)/2 is made once, here: a
    ``Fraction`` normalises through ``gcd``, and a sweep has many more rows
    than values.
    """
    lambdas = {v: Fraction(-v, 2) for v in values}
    mus = {sigma: Fraction(2 * k - sigma, 2) for sigma in sigmas}
    return lambda t: Weights(tuple(map(lambdas.__getitem__, t)), mus[sum(t)])


def weights_for_tvector(n: int, k: int, t: Sequence[int]) -> Weights:
    """The weight configuration with -2*lambda = t and shift k."""
    return _tvector_weights(k, t, (sum(t),))(t)


def nonresonant_weights(n: int, k: int) -> Weights:
    """lambda_i = 1 keeps -2*lambda_i = -2 outside {0, ..., k-1} for every k."""
    lambdas = (Fraction(1),) * n
    return Weights(lambdas, Fraction(k) + n)


def _t_grid(n: int, k: int) -> list[tuple[int, ...]]:
    """Every t in {0, ..., k-1}^n, lexicographically ascending."""
    return list(itertools.product(range(k), repeat=n))


class SweepRow(NamedTuple):
    """One evaluated configuration of a sweep.

    ``tag`` is the case of the row's orbit, read from the orbit record and
    shared by every row of the orbit: its kind, k and sigma, and so the
    counts s and r, are the row's own, but its t is in the order of the
    orbit's sorted representative.  The row's own t is ``t`` (None on the
    non-resonant row) and its ``weights``; a report formats the case from
    ``classify(weights)``.
    """

    weights: Weights
    tag: CaseTag
    k: int
    t: Optional[tuple[int, ...]]
    dim_system: int
    dim_closed: Optional[int]
    dim_summary: Optional[int]
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
        """The row's cells under ``CSV_COLUMNS``, in one pass over its
        unpacked fields: ``table`` writes one per row, so n, sigma, the
        counts and ``agree`` are not read through the properties."""
        w, tag, k, t, dim_system, dim_closed, dim_summary, dim_oracle, stable = self
        sigma = tag[3]
        s, r = singular_counts(tag)
        agree = None if dim_oracle is None or not stable else dim_oracle == dim_system
        return [
            str(len(w.lambdas)),
            str(k),
            "" if t is None else format_multiindex(t),
            "" if sigma is None else str(sigma),
            "" if s is None else str(s),
            "" if r is None else str(r),
            str(dim_system),
            "" if dim_closed is None else str(dim_closed),
            "" if dim_summary is None else format_rational(dim_summary),
            "" if dim_oracle is None else str(dim_oracle),
            "" if stable is None else "true" if stable else "false",
            "" if agree is None else "true" if agree else "false",
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
            "case": classify(self.weights).describe(),
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
                 methods: Sequence[str], oracle_policy: str = "auto") -> SweepRow:
    """Evaluate one configuration with the requested methods.

    The case and every dimension are read from the orbit record,
    ``reduced.orbit_record``, so a row classifies nothing itself; a
    predictor the row did not ask for reads None.
    """
    system, closed, summary, dim_oracle, stable, tag = orbit_record(
        w.delta(), tuple(sorted(w.twice_lambdas)),
        "oracle" in methods and _oracle_wanted(oracle_policy, w.n, k))
    # tuple.__new__ skips the NamedTuple's Python-level __new__ (see
    # closedform.classify)
    return tuple.__new__(SweepRow, (w, tag, k, t, system,
                                    closed if "closed" in methods else None,
                                    summary if "summary" in methods else None,
                                    dim_oracle, stable))


def _perturbed_system_dim(w: Weights, k: int) -> int:
    """The system's value with 1 added to entry (0, 0) of the constraint
    system's sparse rows, all of which are ranked: the self-test of
    ``verify``."""
    equations = build_system(w).equations  # fresh rows, this row's own
    if equations:
        equations[0][0] = equations[0].get(0, 0) + 1
    n = w.n
    ell = multiset_coeff(n, k - 1) - linalg.sparse_rank(equations)
    return multiset_coeff(n - 1, k) + 3 * ell


def sweep_configurations(n: int, k_max: int) -> list[tuple[Weights, int, Optional[tuple[int, ...]]]]:
    """All (weights, k, t) rows of a sweep, singular grids plus non-resonant."""
    configs: list[tuple[Weights, int, Optional[tuple[int, ...]]]] = []
    for k in range(k_max + 1):
        weights = _tvector_weights(k, range(k), range(n * (k - 1) + 1))
        configs += [(weights(t), k, t) for t in _t_grid(n, k)]
        configs.append((nonresonant_weights(n, k), k, None))
    return configs


def run_sweep(n: int, k_max: int, methods: Sequence[str],
              oracle_policy: str = "auto", perturb: bool = False) -> list[SweepRow]:
    """Evaluate a full sweep; rows come back in row-key order.

    ``perturb`` is the self-test of ``verify``, which proves the gate
    detects an injected error: each row's ``dim_system`` becomes the rank
    of its own perturbed rows.  Entry (0, 0), which it perturbs, is moved
    by a slot permutation, so that rank belongs to the row, not its orbit,
    and no record holds it.
    """
    rows = [evaluate_row(w, k, t, methods, oracle_policy)
            for (w, k, t) in sweep_configurations(n, k_max)]
    if perturb:
        rows = [row._replace(dim_system=_perturbed_system_dim(row.weights, row.k))
                for row in rows]
    return sorted(rows, key=lambda row: row.sort_key())


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.to_csv_record())
    return buf.getvalue()


def rows_to_json(rows: Sequence[SweepRow]) -> Iterator[str]:
    """The rows as one JSON array, written row by row by :func:`json_array`."""
    return json_array(row.to_json_dict() for row in rows)


def json_array(elements: Iterable[dict]) -> Iterator[str]:
    """The text of ``json.dumps(list(elements), indent=2, sort_keys=True)``
    and a newline, one element at a time.

    Each element is encoded alone and indented one level further, which is
    safe because JSON text escapes every newline inside a string.  Only one
    element's dict and text are held at once: ``basis`` at n = 1000, k = 1
    writes 1,002 elements that each repeat the 1,000 weights.
    """
    encode = json.JSONEncoder(indent=2, sort_keys=True).encode
    separator = "[\n  "
    for element in elements:
        yield separator
        yield encode(element).replace("\n", "\n  ")
        separator = ",\n  "
    yield "[]\n" if separator == "[\n  " else "\n]\n"


@dataclass(frozen=True)
class VerifyReport:
    """Pairwise method comparison over a sweep.

    The gate is system-versus-oracle equality on every row with a stable,
    that is certified, oracle value; closed-form and summary-table
    mismatches are recorded but are not fatal (the predictors exist to be
    compared, not trusted).  Oracle rows that are not certified would be
    excluded from the gate and counted; the oracle certifies every value
    it returns, so that count is 0, and it stays in the report's format.
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
    certified: the oracle computes at the cap max(k, 1) and its block
    certificates passed.  Every row the oracle returns is, so the unstable
    list is empty.
    """
    gate_failures = [r for r in rows if r.agree is False]
    unstable = [r for r in rows if r.dim_oracle is not None and r.stable is False]
    closed_mismatch = [r for r in rows if r.dim_closed is not None
                       and r.dim_closed != r.dim_system]
    summary_mismatch = [r for r in rows if r.dim_summary is not None
                        and r.dim_summary != r.dim_system]
    return VerifyReport(list(rows), gate_failures, unstable,
                        closed_mismatch, summary_mismatch)
