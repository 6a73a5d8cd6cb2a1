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
#: Index entries n (C(n + k - 2, k - 1) + C(n + k - 1, k)) of the frame the
#: ``system`` method builds on a singular row: its row and column
#: multi-indices, n entries each.  The equation count misses it at large n
#: and small k (one equation at k = 1, but n^2 entries).  Zero weights at
#: k = 1 took 0.26 s and 24 MiB at 1,001,000 entries (n = 1,000), 1.5 s and
#: 94 MiB at 9,988,760 (n = 3,160), and 8.9 s and 509 MiB at 64,008,000
#: (n = 8,000); near the ceiling, 9,410,150 (n = 265, k = 2) took 1.8 s and
#: 9,320,250 (n = 85, k = 3, t = (2, ..., 2)) 2.7 s and 144 MiB.
MAX_SYSTEM_FRAME_ENTRIES = 10_000_000
#: Candidate cochains 3 C(cap + n, n) of the oracle's block at its one cap,
#: cap = max(k, 1) (1 without a natural shift): near the ceiling, the
#: slowest of the non-resonant row and 12 sampled t, each ``dim --methods
#: oracle`` in a fresh process, took 0.79 s and 24 MiB at 24,024 (n = 6,
#: k = 10), 0.44 s at 21,945 (n = 4, k = 18) and 0.15 s at 24,999 (n = 1,
#: k = 8332).
MAX_ORACLE_BLOCK = 25_000
#: Cells C(n + k - 1, k)^2 of the dense kernel ``basis`` returns:
#: ``kernel_basis`` gives up to cols - rank vectors of cols entries each,
#: with cols = C(n + k - 1, k) >= rows, so the count also bounds the rows
#: times cols of the sparse system it echelonises.  10^6 cells took 0.2 s
#: and 21 MiB at n = 2, k = 999 (one kernel vector) and 3.2 s and 182 MiB
#: at n = 1000, k = 1 (999 kernel vectors, 13 MB of JSON); 627,264 cells
#: took 0.7 s and 31 MiB at n = 6, k = 7, t = (3, ..., 3) (medians of 5
#: ``basis`` runs).
MAX_BASIS_CELLS = 1_000_000
#: Rows sum_{k=1}^{k_max} k^n + (k_max + 1) of a ``table`` or ``verify``
#: sweep: 19,701 rows took 1.7 s (n = 1, k_max = 197, oracle off) and 15,343
#: rows 26 s (n = 4, k_max = 9); 501,501 rows took 48 s and 571 MiB
#: (n = 1, k_max = 1000).
MAX_SWEEP_ROWS = 20_000

ALL_METHODS = ("system", "closed", "summary", "oracle")


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
        bound = _print_bound()
        count = f"over 10^{sys.get_int_max_str_digits()}" if bound and size >= bound else size
        raise UsageError(f"{what} has {count} {unit}, above the ceiling of {ceiling}")


def _check_system_equations(n: int, k: int) -> None:
    what = f"the constraint system at n = {n}, k = {k}"
    rows = multiset_coeff(n, k - 1)
    _check_ceiling(what, rows, "equations", MAX_SYSTEM_EQUATIONS)
    _check_ceiling(what, n * (rows + multiset_coeff(n, k)), "index entries",
                   MAX_SYSTEM_FRAME_ENTRIES)


def _check_system_size(n: int, k: int) -> None:
    _check_system_equations(n, k)
    # n >= 2 has at least k equations, so this binds only at n = 1
    _check_ceiling(f"the constraint system at n = {n}, k = {k}", k,
                   "lowering factors per slot", MAX_SYSTEM_EQUATIONS)


def _check_closed_size(n: int, k: int) -> None:
    """Refuse a closed-form base C(n + k - 2, k) that Python cannot print
    before ``math.comb`` forms it (1,000 zero weights at k = 10^4000 took
    7.4 s to reach the refusal of the value).  Integers only: with
    r = min(n - 2, k), C(n + k - 2, r) >= ((n + k - 2) / r)^r >= 2^b for
    b = r (bitlen((n + k - 2) // r) - 1), and 2^b > 2 * 10^d once
    1000 b > 3322 d + 1000.  The closed and summary values are at least
    the base less 3 n, so neither could be printed either; a smaller base
    is formed and its value checked as before."""
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
    # the dense kernel basis returns: up to C(n + k - 1, k) vectors of that length
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
    row runs the system method.  At n = 1 the row ceiling holds k_max below
    200, so the system's k factors per slot need no check of their own."""
    _check_system_equations(n, k_max)
    k = largest_oracle_k(policy, n, k_max) if "oracle" in methods else None
    if k is not None:
        _check_oracle_size(n, max(k, 1))
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
    bound = _print_bound()
    w = _parse_weights(args, bound)
    methods = _parse_methods(args.methods, ("system", "closed", "oracle"))
    k = w.natural_delta()
    if "system" in methods and k is not None:
        _check_system_size(w.n, k)
    if "oracle" in methods and w.delta().denominator == 1:
        _check_oracle_size(w.n, default_alpha_max(w))  # otherwise every block is empty
    tag = classify(w)
    _check_printable(tag.sigma or 0, "sigma = sum(t)", bound)  # printed in the case
    # the closed form has a base at every natural shift, the summary table
    # only on singular rows
    if ("closed" in methods and k is not None) or ("summary" in methods and tag.t is not None):
        _check_closed_size(w.n, k)
    results = []
    for method in methods:
        if method == "system":
            results.append(dim_h2_via_system(w, tag).to_json_dict())
        elif method == "oracle":
            results.append(brute_force_h2(w, tag).to_json_dict())
        else:
            value = (dim_h2_closed_form if method == "closed" else dim_h2_summary_table)(tag, w.n)
            if value is not None:
                _check_printable(value, f"the {method} value", bound)
                value = value if method == "closed" else format_rational(value)
            results.append({"dim": value, "method": method, "alpha_max": None, "stable": True,
                            "weights": w.to_json_dict(), "case": tag.describe()})
    _write_output(json.dumps(results, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    methods = _parse_methods(args.methods, ("system", "closed", "summary", "oracle"))
    _check_sweep_size(args.n, args.k_max, methods, args.oracle)
    rows = run_sweep(args.n, args.k_max, methods, oracle_policy=args.oracle)
    text = rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows)
    _write_output(text, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    methods = ("system", "closed", "summary", "oracle")
    _check_sweep_size(args.n, args.k_max, methods, args.oracle)
    rows = run_sweep(args.n, args.k_max, methods, oracle_policy=args.oracle,
                     perturb=args.self_test_perturb)
    report = verify_rows(rows)
    if args.out is not None:
        _write_output(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n",
                      args.out)
    for line in report.summary_lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_basis(args: argparse.Namespace) -> int:
    w = _parse_weights(args, _print_bound())
    if w.natural_delta() is None:
        print("H^2 = 0, empty basis", file=sys.stderr)
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
