"""Batch command-line front end.

Four subcommands: ``dim`` answers a single-instance dimension query with
any subset of the methods, ``table`` materialises a parameter sweep as CSV
or JSON, ``verify`` runs the sweep cross-check gate, and ``basis`` exports
a spanning set of cocycle representatives.  Weights are passed as exact
rational strings; no floats are parsed anywhere, so the natural-shift
predicate stays exact.  Exit codes: 0 success, 1 method disagreement in
``verify``, 2 usage error, 3 unwritable output.  An instance above one of
the size ceilings below is a usage error, refused before anything is
enumerated.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .cecomplex import CohomResult, brute_force_h2, default_alpha_max
from .closedform import classify, dim_h2_closed_form, dim_h2_summary_table
from .multiindices import multiset_coeff
from .polynomials import format_rational, parse_rational
from .reduced import cocycle_basis, cocycle_residual, dim_h2_via_system, ell_count
from .sweep import (
    json_array,
    largest_oracle_k,
    rows_to_csv,
    rows_to_json,
    run_sweep,
    verify_rows,
)
from .weights import Weights

USAGE_EXIT = 2
IO_EXIT = 3

# Size ceilings, each set where one evaluation takes seconds, not minutes
# (timings: 2 vCPU, Python 3.11.7, slowest resonant t found).
#: Equations C(n + k - 2, k - 1) of the constraint system the ``system``
#: method ranks, checked at the frame it builds: n is the count n' of
#: nonzero t_i on a singular ``dim`` row, and the full arity at a sweep's
#: largest k.  Only the box rows a <= t are echelonised, and symmetric
#: middle resonance puts most rows there: 4,845 took 5.7 s (n = 5, k = 17,
#: t = (7, 7, 7, 7, 6)) and 4,960 took 5.2 s (n = 4, k = 30,
#: t = (15, 15, 15, 15)), medians of 3 ``dim`` runs; 9,880 took 27 s
#: (n = 4, k = 38).
MAX_SYSTEM_EQUATIONS = 5_000
#: Index entries n (C(n + k - 2, k - 1) + C(n + k - 1, k)) of the same
#: frame, n = n' on a ``dim`` row: its row and column multi-indices, n
#: entries each.  The equation count misses it at large n and small k (n
#: equations at k = 2, but about n^3 / 2 entries).  Near the ceiling, CPU
#: time and peak RSS, medians of 3 ``dim --methods system`` runs:
#: 9,410,150 (n' = 265, k = 2, t = (1, ..., 1)) took 1.1 s and 97 MiB, and
#: 9,320,250 (n' = 85, k = 3, t = (2, ..., 2)) 1.6 s and 125 MiB; with 83
#: zeros, t = (0, ..., 0, 2, 2), the same n = 85 row has n' = 2 and took
#: 0.12 s and 17 MiB.  A sweep checks it at its full arity and at
#: max(k_max, 1), which makes it the sweep's guard on n at k_max <= 1
#: (n <= 3,161): ``table --n 3160 --k-max 1`` (9,988,760 entries) took
#: 0.12 s and 17 MiB in one run; ``table --n 1000000 --k-max 0``, which a
#: check at k_max = 0 (n entries) let through, took 3.5 s and 116 MiB,
#: growing linearly in n.  It is more than an arity guard under ``verify
#: --self-test-perturb``, which builds the full (n, k) system on every row.
MAX_SYSTEM_FRAME_ENTRIES = 10_000_000
#: Candidate cochains 3 C(cap + n, n) of the oracle's block at its one cap,
#: cap = max(k, 1) (1 without a natural shift): near the ceiling, the
#: slowest of the non-resonant row and 12 sampled t, each ``dim --methods
#: oracle`` in a fresh process, took 0.79 s and 24 MiB at 24,024 (n = 6,
#: k = 10), 0.44 s at 21,945 (n = 4, k = 18) and 0.15 s at 24,999 (n = 1,
#: k = 8332).
MAX_ORACLE_BLOCK = 25_000
#: Cells C(n + k - 1, k)^2, the square of the system's unknown count
#: cols = C(n + k - 1, k), which is at least its equation count rows and,
#: for k >= 1, at least n.  Within a factor 3 the square bounds what
#: ``basis`` builds and writes: the rows times cols of the sparse system
#: it echelonises, the cols - rank sparse kernel vectors of at most
#: rank + 1 entries each, and the n weights that each of its at most
#: cols + 2 rows elements prints.  It bounds the system's frame too: for
#: k >= 1, cols <= 1,000 and rows and n are at most cols, so the frame has
#: at most 2 * 10^6 index entries; at k = 0 it has n.
#: The weights dominate at large n and small k: 10^6 cells took 0.71 s and
#: 33 MiB at n = 1000, k = 1 (1,002 elements, 13 MB of JSON, written one
#: element at a time), against 0.11 s and 21 MiB at n = 2, k = 999 (one
#: kernel vector); 627,264 cells took 0.33 s and 22 MiB at n = 6, k = 7,
#: t = (3, ..., 3) (CPU time and peak RSS, medians of 6 ``basis`` runs in
#: fresh processes, 2 vCPUs, CPython 3.11).
MAX_BASIS_CELLS = 1_000_000
#: Rows sum_{k=1}^{k_max} k^n + (k_max + 1) of a ``table`` or ``verify``
#: sweep.  ``table`` in a fresh process, medians of 5 on 2 vCPUs: 19,701
#: rows took 0.5 s (n = 1, k_max = 197, oracle off), and 15,343 rows took
#: 2.4 s with the oracle on and 0.6 s with it off (n = 4, k_max = 9), in
#: 32 MiB.  Past the ceiling, 80,601 rows took 2.8 s and 81 MiB (n = 1,
#: k_max = 400, the same sweep and CSV in a fresh process, median of 3).
MAX_SWEEP_ROWS = 20_000
#: Terms n' (min(k, sigma) + 1) of the Hilbert pass of ``exact`` on a
#: singular row: one prefix sum per nonzero t_i and degree.  Near the
#: ceiling, in-process CPU time and peak RSS of ``ell_count``: 0.08 s and
#: 43 MiB at n' = 2, k = 500,000; 0.15 s and 20 MiB at n' = 100,
#: k = 10,000; 0.21 s at n' = 1,412, k = 707, t = (1, ..., 1), whose ell
#: has 421 digits.
MAX_EXACT_TERMS = 1_000_000

#: The methods a sweep runs; ``exact`` runs in ``dim`` only, until the
#: ``verify`` gate reads it.
SWEEP_METHODS = ("system", "closed", "summary", "oracle")
ALL_METHODS = SWEEP_METHODS + ("exact",)


class UsageError(Exception):
    pass


def _print_bound() -> int:
    """10^d for d = ``sys.get_int_max_str_digits()``, or 0 when d = 0 (no
    limit): Python refuses to print an integer at or above it.  The bound
    has d digits itself, so a command builds it once."""
    digits = sys.get_int_max_str_digits()
    return 10 ** digits if digits else 0


def _check_printable(value: Fraction | int, what: str, bound: int) -> None:
    """Refuse a number the output holds that Python cannot print."""
    if bound and max(abs(value.numerator), value.denominator) >= bound:
        raise UsageError(f"{what} is too large: more than {sys.get_int_max_str_digits()} "
                         "digits in numerator or denominator")


def _parse_rational_arg(text: str, what: str, bound: int) -> Fraction:
    try:
        value = parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed rational for {what}: {text!r} ({exc})") from exc
    _check_printable(value, f"rational for {what}", bound)  # every weight is printed
    return value


def _parse_weights(args: argparse.Namespace, bound: int) -> Weights:
    if args.lambdas is None or args.mu is None:
        raise UsageError("--lambdas and --mu are required")
    parts = [p for p in args.lambdas.split(",") if p.strip()]
    lambdas = tuple(_parse_rational_arg(p, "--lambdas", bound) for p in parts)
    if args.n is not None and args.n != len(lambdas):
        raise UsageError(f"--n {args.n} does not match {len(lambdas)} lambdas")
    if not lambdas:
        raise UsageError("--lambdas must list at least one rational")
    w = Weights(lambdas, _parse_rational_arg(args.mu, "--mu", bound))
    # k is printed in the case, and bounds every t_i there
    _check_printable(w.natural_delta() or 0, "the shift k = mu - sum(lambdas)", bound)
    return w


def _int_at_least(low: int):
    """argparse type for an int bounded below; a smaller value is a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _parse_methods(raw: Optional[str], default: Sequence[str],
                   allowed: Sequence[str] = ALL_METHODS) -> tuple[str, ...]:
    if raw is None:
        return tuple(default)
    methods = tuple(m.strip() for m in raw.split(",") if m.strip())
    for m in methods:
        if m not in allowed:
            raise UsageError(f"method {m!r} is not one of {', '.join(allowed)}")
        if methods.count(m) > 1:
            raise UsageError(f"method {m!r} is listed twice in --methods")
    if not methods:
        raise UsageError("--methods must list at least one method")
    return methods


def _check_ceiling(what: str, size: int, unit: str, ceiling: int) -> None:
    if size > ceiling:
        bound = _print_bound()
        count = f"over 10^{sys.get_int_max_str_digits()}" if bound and size >= bound else size
        raise UsageError(f"{what} has {count} {unit}, above the ceiling of {ceiling}")


def _check_system_equations(n: int, k: int, arity: str = "n") -> None:
    what = f"the constraint system at {arity} = {n}, k = {k}"
    rows = multiset_coeff(n, k - 1)
    _check_ceiling(what, rows, "equations", MAX_SYSTEM_EQUATIONS)
    _check_ceiling(what, n * (rows + multiset_coeff(n, k)), "index entries",
                   MAX_SYSTEM_FRAME_ENTRIES)


def _check_closed_size(n: int, k: int) -> None:
    """Refuse a closed-form base C(n + k - 2, k) that Python cannot print
    before ``math.comb`` forms it (1,000 zero weights at k = 10^4000 took
    7.4 s to reach the refusal of the value).  Integers only: with
    r = min(n - 2, k), C(n + k - 2, r) >= ((n + k - 2) / r)^r >= 2^b for
    b = r (bitlen((n + k - 2) // r) - 1), and 2^b > 2 * 10^d once
    1000 b > 3322 d + 1000.  The closed, summary and system values are at
    least the base less 3 n, so none could be printed either; a smaller
    base is formed and its value checked as before."""
    digits = sys.get_int_max_str_digits()
    r = min(n - 2, k)
    if not digits or r <= 0:
        return
    bits = r * (((n + k - 2) // r).bit_length() - 1)
    if 1000 * bits > 3322 * digits + 1000:
        raise UsageError(f"the closed-form base C(n + k - 2, k) at n = {n} is too large: "
                         f"more than {bits * 3 // 10} digits, above the ceiling of "
                         f"{digits} digits that Python prints")


def _check_basis_size(n: int, k: int) -> None:
    # the square of the unknown count C(n + k - 1, k); see MAX_BASIS_CELLS
    _check_ceiling(f"the kernel of the constraint system at n = {n}, k = {k}",
                   multiset_coeff(n, k) ** 2, "cells", MAX_BASIS_CELLS)


def _check_oracle_size(n: int, cap: int) -> None:
    # 3 tuples times #{alpha : |alpha| <= cap}: what the oracle enumerates
    _check_ceiling(f"the oracle's block at n = {n}, alpha_max = {cap}",
                   3 * multiset_coeff(n + 1, cap), "candidate cochains",
                   MAX_ORACLE_BLOCK)


def _sweep_rows(n: int, k_max: int) -> int:
    """Rows of a sweep: k^n resonant rows plus one non-resonant row per k <= k_max.

    For n = 1 the sum is k_max (k_max + 1) / 2; for n >= 2 the system ceiling,
    checked first, keeps k_max small enough to add the powers directly.
    """
    if n == 1:
        resonant = k_max * (k_max + 1) // 2
    else:
        resonant = sum(k ** n for k in range(1, k_max + 1))
    return resonant + k_max + 1


def _check_sweep_size(n: int, k_max: int, methods: Sequence[str], policy: str) -> None:
    """The ceilings on the sweep's row count and at its largest row; every
    row runs the system method.  The frame is checked at k >= 1, where its
    n^2 entries bound the arity of every sweep."""
    _check_system_equations(n, max(k_max, 1))
    k = largest_oracle_k(policy, n, k_max) if "oracle" in methods else None
    if k is not None:
        _check_oracle_size(n, max(k, 1))
    _check_ceiling(f"the sweep at n = {n}, k_max = {k_max}", _sweep_rows(n, k_max),
                   "rows", MAX_SWEEP_ROWS)


def _write_output(chunks: Iterable[str], path: Optional[str]) -> None:
    """Write the text chunks in order to path, or to stdout when path is None."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _cmd_dim(args: argparse.Namespace) -> int:
    bound = _print_bound()
    w = _parse_weights(args, bound)
    methods = _parse_methods(args.methods, ("system", "closed", "oracle"))
    k = w.natural_delta()
    tag = classify(w)
    if "system" in methods and tag.t is not None:
        # only a singular row builds anything: the frame of its n' nonzero t_i
        _check_system_equations(len(tag.t) - tag.t.count(0), k, "n' = #{t_i > 0}")
    if "oracle" in methods and w.delta().denominator == 1:
        _check_oracle_size(w.n, default_alpha_max(w.delta()))  # otherwise every block is empty
    if "exact" in methods and tag.t is not None:
        terms = (len(tag.t) - tag.t.count(0)) * (min(k, tag.sigma) + 1)
        _check_ceiling(f"the Hilbert count at n' = #{{t_i > 0}}, k = {k}", terms, "terms",
                       MAX_EXACT_TERMS)
    _check_printable(tag.sigma or 0, "sigma = sum(t)", bound)  # printed in the case
    # the closed form and the system have a base at every natural shift,
    # the summary table only on singular rows
    if (k is not None and ("closed" in methods or "system" in methods)) or \
            ("summary" in methods and tag.t is not None):
        _check_closed_size(w.n, k)
    results = []
    for method in methods:
        if method == "system":
            result = dim_h2_via_system(w, tag)
            _check_printable(result.dim, "the system value", bound)
        elif method == "oracle":
            result = brute_force_h2(w, tag)
        else:
            value = ell_count(w) if method == "exact" else \
                (dim_h2_closed_form if method == "closed" else dim_h2_summary_table)(tag, w.n)
            if value is not None:
                _check_printable(value, f"the {method} value", bound)
                value = format_rational(value) if method == "summary" else value
            result = CohomResult(dim=value, method=method, weights=w, tag=tag, stable=True)
        results.append(result.to_json_dict())
    _write_output(json_array(results), args.out)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    methods = _parse_methods(args.methods, SWEEP_METHODS, SWEEP_METHODS)
    _check_sweep_size(args.n, args.k_max, methods, args.oracle)
    rows = run_sweep(args.n, args.k_max, methods, oracle_policy=args.oracle)
    _write_output((rows_to_csv(rows),) if args.format == "csv" else rows_to_json(rows), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_sweep_size(args.n, args.k_max, SWEEP_METHODS, args.oracle)
    if args.self_test_perturb and not largest_oracle_k(args.oracle, args.n, args.k_max):
        raise UsageError(f"--self-test-perturb needs a row with k >= 1 that runs the oracle, the "
                         f"one the gate reads: --oracle {args.oracle} runs it on none here")
    rows = run_sweep(args.n, args.k_max, SWEEP_METHODS, oracle_policy=args.oracle,
                     perturb=args.self_test_perturb)
    report = verify_rows(rows)
    if args.out is not None:
        _write_output((json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n",),
                      args.out)
    for line in report.summary_lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_basis(args: argparse.Namespace) -> int:
    w = _parse_weights(args, _print_bound())
    if w.natural_delta() is None:
        print("H^2 = 0, empty basis", file=sys.stderr)
        _write_output(json_array(()), args.out)
        return 0
    _check_basis_size(w.n, w.natural_delta())
    basis = cocycle_basis(w)
    for element in basis:
        if cocycle_residual(element):
            raise AssertionError("basis element with nonzero residual")
    _write_output(json_array(b.to_json_dict() for b in basis), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2cohom",
        description="Exact dimensions of the degree-2 cohomology of sl(2) "
                    "acting on n-ary differential operators between "
                    "weighted density modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_weight_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=None, help="arity (checked against --lambdas)")
        p.add_argument("--lambdas", type=str, default=None,
                       help="comma-separated exact rationals, e.g. 0,1/2")
        p.add_argument("--mu", type=str, default=None, help="target weight, exact rational")

    p_dim = sub.add_parser("dim", help="dimension of one configuration per method")
    add_weight_args(p_dim)
    p_dim.add_argument("--methods", type=str, default=None,
                       help="comma list from: system,closed,summary,oracle,exact")
    p_dim.add_argument("--out", type=str, default=None)
    p_dim.set_defaults(func=_cmd_dim)

    p_table = sub.add_parser("table", help="parameter sweep report")
    p_table.add_argument("--n", type=_positive_int, required=True)
    p_table.add_argument("--k-max", type=_nonnegative_int, required=True)
    p_table.add_argument("--methods", type=str, default=None)
    p_table.add_argument("--oracle", choices=("auto", "on", "off"), default="auto")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--out", type=str, default=None)
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser("verify", help="cross-check methods over a sweep")
    p_verify.add_argument("--n", type=_positive_int, required=True)
    p_verify.add_argument("--k-max", type=_nonnegative_int, required=True)
    p_verify.add_argument("--oracle", choices=("auto", "on", "off"), default="auto")
    p_verify.add_argument("--out", type=str, default=None)
    p_verify.add_argument("--self-test-perturb", action="store_true",
                          help="corrupt one matrix entry to prove the gate trips")
    p_verify.set_defaults(func=_cmd_verify)

    p_basis = sub.add_parser(
        "basis",
        help="export cocycle representatives; the top (A) and middle (B) "
             "ones are coboundaries, only the ell bottom (C) ones are "
             "nontrivial classes")
    add_weight_args(p_basis)
    p_basis.add_argument("--out", type=str, default=None)
    p_basis.set_defaults(func=_cmd_basis)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except OverflowError as exc:
        # Input too large for the exact engine (e.g. an exponent beyond an
        # index-sized integer); exit 1 would read as a verify disagreement.
        print(f"usage error: input too large: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except IOError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return IO_EXIT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
