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
from typing import Optional, Sequence

from .cecomplex import brute_force_h2, default_alpha_max
from .closedform import classify, dim_h2_closed_form, dim_h2_summary_table
from .multiindices import multiset_coeff
from .polynomials import format_rational, parse_rational
from .reduced import cocycle_basis, cocycle_residual, dim_h2_via_system
from .sweep import (
    largest_oracle_k,
    nonresonant_weights,
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
#: method ranks.  Only the box rows a <= t are echelonised, and symmetric
#: middle resonance puts most rows there: 4,845 took 5.7 s (n = 5, k = 17,
#: t = (7, 7, 7, 7, 6)) and 4,960 took 5.2 s (n = 4, k = 30,
#: t = (15, 15, 15, 15)), medians of 3 ``dim`` runs; 9,880 took 27 s
#: (n = 4, k = 38).  It bounds k as well: the system's frame holds k
#: factors per slot, which at n = 1 outnumber the one equation.
MAX_SYSTEM_EQUATIONS = 5_000
#: Candidate cochains 3 C(cap + n, n) of the oracle's block at its one cap,
#: cap = alpha_max (by default k): near the ceiling, the slowest of the
#: non-resonant row and 12 sampled t, each ``dim --methods oracle`` in a
#: fresh process, took 0.79 s and 24 MiB at 24,024 (n = 6, k = 10), 0.44 s
#: at 21,945 (n = 4, k = 18) and 0.15 s at 24,999 (n = 1, k = 8332).
MAX_ORACLE_BLOCK = 25_000
#: Cells C(n + k - 1, k)^2 of the dense kernel ``basis`` returns:
#: ``kernel_basis`` gives up to cols - rank vectors of cols entries each,
#: with cols = C(n + k - 1, k) >= rows, so the count also bounds the rows
#: times cols of the sparse system it echelonises.  10^6 cells took 0.2 s
#: and 20 MiB at n = 2, k = 999 (one kernel vector) and 3.3 s and 182 MiB
#: at n = 1000, k = 1 (999 kernel vectors, 13 MB of JSON); 627,264 cells
#: took 1.0 s and 34 MiB at n = 6, k = 7, t = (3, ..., 3).
MAX_BASIS_CELLS = 1_000_000
#: Rows sum_{k=1}^{k_max} k^n + (k_max + 1) of a ``table`` or ``verify``
#: sweep: 19,701 rows took 1.7 s (n = 1, k_max = 197, oracle off) and 15,343
#: rows 26 s (n = 4, k_max = 9); 501,501 rows took 48 s and 571 MiB
#: (n = 1, k_max = 1000).
MAX_SWEEP_ROWS = 20_000

ALL_METHODS = ("system", "closed", "summary", "oracle")


class UsageError(Exception):
    pass


def _parse_rational_arg(text: str, what: str) -> Fraction:
    try:
        value = parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed rational for {what}: {text!r} ({exc})") from exc
    # Every weight is printed in the output, and Python refuses to print an
    # integer of more than this many digits.
    digits = sys.get_int_max_str_digits()
    if digits and max(abs(value.numerator), value.denominator) >= 10 ** digits:
        raise UsageError(f"rational for {what} is too large: "
                         f"more than {digits} digits in numerator or denominator")
    return value


def _parse_weights(args: argparse.Namespace) -> Weights:
    if args.lambdas is None or args.mu is None:
        raise UsageError("--lambdas and --mu are required")
    parts = [p for p in args.lambdas.split(",") if p.strip()]
    lambdas = tuple(_parse_rational_arg(p, "--lambdas") for p in parts)
    if args.n is not None and args.n != len(lambdas):
        raise UsageError(f"--n {args.n} does not match {len(lambdas)} lambdas")
    if not lambdas:
        raise UsageError("--lambdas must list at least one rational")
    return Weights(lambdas, _parse_rational_arg(args.mu, "--mu"))


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


def _parse_methods(raw: Optional[str], default: Sequence[str]) -> tuple[str, ...]:
    if raw is None:
        return tuple(default)
    methods = tuple(m.strip() for m in raw.split(",") if m.strip())
    for m in methods:
        if m not in ALL_METHODS:
            raise UsageError(f"unknown method {m!r}; choose from {', '.join(ALL_METHODS)}")
    if not methods:
        raise UsageError("--methods must list at least one method")
    return methods


def _check_ceiling(what: str, size: int, unit: str, ceiling: int) -> None:
    if size > ceiling:
        raise UsageError(f"{what} has {size} {unit}, above the ceiling of {ceiling}")


def _check_system_equations(n: int, k: int) -> None:
    _check_ceiling(f"the constraint system at n = {n}, k = {k}",
                   multiset_coeff(n, k - 1), "equations", MAX_SYSTEM_EQUATIONS)


def _check_system_size(n: int, k: int) -> None:
    _check_system_equations(n, k)
    # n >= 2 has at least k equations, so this binds only at n = 1
    _check_ceiling(f"the constraint system at n = {n}, k = {k}", k,
                   "lowering factors per slot", MAX_SYSTEM_EQUATIONS)


def _check_basis_size(n: int, k: int) -> None:
    # the dense kernel basis returns: up to C(n + k - 1, k) vectors of that length
    _check_ceiling(f"the kernel of the constraint system at n = {n}, k = {k}",
                   multiset_coeff(n, k) ** 2, "cells", MAX_BASIS_CELLS)


def _check_oracle_size(n: int, alpha_max: int) -> None:
    # 3 tuples times #{alpha : |alpha| <= alpha_max}: what the oracle enumerates
    _check_ceiling(f"the oracle's block at n = {n}, alpha_max = {alpha_max}",
                   3 * multiset_coeff(n + 1, alpha_max), "candidate cochains",
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


def _check_sweep_size(n: int, k_max: int, methods: Sequence[str], policy: str,
                      alpha_max: Optional[int]) -> None:
    """The ceilings on the sweep's row count and at its largest row; every
    row runs the system method.  At n = 1 the row ceiling holds k_max below
    200, so the system's k factors per slot need no check of their own."""
    _check_system_equations(n, k_max)
    k = largest_oracle_k(policy, n, k_max) if "oracle" in methods else None
    if k is not None:
        _check_oracle_size(n, alpha_max if alpha_max is not None
                           else default_alpha_max(nonresonant_weights(n, k)))
    _check_ceiling(f"the sweep at n = {n}, k_max = {k_max}", _sweep_rows(n, k_max),
                   "rows", MAX_SWEEP_ROWS)


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _cmd_dim(args: argparse.Namespace) -> int:
    w = _parse_weights(args)
    methods = _parse_methods(args.methods, ("system", "closed", "oracle"))
    k = w.natural_delta()
    amax = args.alpha_max if args.alpha_max is not None else default_alpha_max(w)
    if "system" in methods and k is not None:
        _check_system_size(w.n, k)
    if "oracle" in methods and w.delta().denominator == 1:
        _check_oracle_size(w.n, amax)  # otherwise every block is empty
    tag = classify(w)
    results = []
    for method in methods:
        if method == "system":
            results.append(dim_h2_via_system(w, tag).to_json_dict())
        elif method == "closed":
            value = dim_h2_closed_form(tag, w.n)
            results.append({
                "dim": value, "method": "closed", "alpha_max": None,
                "stable": True, "weights": w.to_json_dict(),
                "case": tag.describe(),
            })
        elif method == "summary":
            value = dim_h2_summary_table(tag, w.n)
            results.append({
                "dim": None if value is None else format_rational(value),
                "method": "summary", "alpha_max": None, "stable": True,
                "weights": w.to_json_dict(), "case": tag.describe(),
            })
        else:
            results.append(brute_force_h2(w, amax).to_json_dict())
    _write_output(json.dumps(results, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    methods = _parse_methods(args.methods, ("system", "closed", "summary", "oracle"))
    _check_sweep_size(args.n, args.k_max, methods, args.oracle, args.alpha_max)
    rows = run_sweep(args.n, args.k_max, methods, oracle_policy=args.oracle,
                     alpha_max=args.alpha_max)
    text = rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows)
    _write_output(text, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    methods = ("system", "closed", "summary", "oracle")
    _check_sweep_size(args.n, args.k_max, methods, args.oracle, args.alpha_max)
    rows = run_sweep(args.n, args.k_max, methods,
                     oracle_policy=args.oracle, alpha_max=args.alpha_max,
                     perturb=args.self_test_perturb)
    report = verify_rows(rows)
    if args.out is not None:
        _write_output(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n",
                      args.out)
    for line in report.summary_lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_basis(args: argparse.Namespace) -> int:
    w = _parse_weights(args)
    if w.natural_delta() is None:
        print("H^2 = 0, empty basis")
        _write_output(json.dumps([], indent=2) + "\n", args.out)
        return 0
    _check_basis_size(w.n, w.natural_delta())
    _check_system_size(w.n, w.natural_delta())
    basis = cocycle_basis(w)
    for element in basis:
        if cocycle_residual(element):
            raise AssertionError("basis element with nonzero residual")
    _write_output(json.dumps([b.to_json_dict() for b in basis],
                             indent=2, sort_keys=True) + "\n", args.out)
    return 0


ALPHA_MAX_HELP = ("the oracle's cap on |alpha| (default max(k, 1)); a value is "
                  "stable, meaning certified, only at a cap of at least k")


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
                       help="comma list from: system,closed,summary,oracle")
    p_dim.add_argument("--alpha-max", type=_positive_int, default=None,
                       help=ALPHA_MAX_HELP)
    p_dim.add_argument("--out", type=str, default=None)
    p_dim.add_argument("--format", choices=("json",), default="json")
    p_dim.set_defaults(func=_cmd_dim)

    p_table = sub.add_parser("table", help="parameter sweep report")
    p_table.add_argument("--n", type=_positive_int, required=True)
    p_table.add_argument("--k-max", type=_nonnegative_int, required=True)
    p_table.add_argument("--methods", type=str, default=None)
    p_table.add_argument("--oracle", choices=("auto", "on", "off"), default="auto")
    p_table.add_argument("--alpha-max", type=_positive_int, default=None,
                         help=ALPHA_MAX_HELP)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--out", type=str, default=None)
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser("verify", help="cross-check methods over a sweep")
    p_verify.add_argument("--n", type=_positive_int, required=True)
    p_verify.add_argument("--k-max", type=_nonnegative_int, required=True)
    p_verify.add_argument("--oracle", choices=("auto", "on", "off"), default="auto")
    p_verify.add_argument("--alpha-max", type=_positive_int, default=None,
                          help=ALPHA_MAX_HELP)
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
    p_basis.add_argument("--format", choices=("json",), default="json")
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
