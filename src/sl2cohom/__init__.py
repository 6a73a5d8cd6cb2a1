"""Exact second cohomology of sl(2) acting on n-ary differential operators.

The package computes dim H^2 for the sl(2)-module of n-linear differential
operators between weighted density spaces on the line, by three
independent routes, and cross-certifies them:

* ``reduced``    -- the rank of an explicit linear system on top-order
                    coefficients (the reference method);
* ``closedform`` -- case-classified closed formulas (predictors);
* ``cecomplex``  -- brute-force linear algebra on truncated eigenvalue
                    blocks of the cochain complex (the oracle).

Everything is exact rational arithmetic; there is no floating point.
"""

from .cecomplex import (
    CohomResult,
    Cochain,
    Truncation,
    brute_force_h2,
    coboundary,
    default_alpha_max,
    weight_block_basis,
    weight_of,
)
from .closedform import CaseKind, CaseTag, classify, dim_h2_closed_form, dim_h2_summary_table
from .linalg import RationalMatrix, kernel_basis, rank
from .multiindices import enumerate_multiindices, multiset_coeff
from .operators import DiffOperator, act_on_operator
from .polynomials import Polynomial, Rational, format_rational, parse_rational
from .reduced import (
    LinearSystem,
    ReducedOneCochain,
    ReducedTwoCochain,
    build_system,
    coboundary_reduced,
    cocycle_basis,
    cocycle_residual,
    dim_h2_via_system,
    solve_coboundary,
)
from .sweep import run_sweep, verify_rows
from .weights import GENERATORS, SL2Generator, Weights, lie_derivative_density

__version__ = "1.0.0"

__all__ = [
    "CaseKind", "CaseTag", "Cochain", "CohomResult", "DiffOperator",
    "GENERATORS", "LinearSystem", "Polynomial", "Rational", "RationalMatrix",
    "ReducedOneCochain", "ReducedTwoCochain", "SL2Generator", "Truncation",
    "Weights", "act_on_operator", "brute_force_h2",
    "build_system", "classify", "coboundary", "coboundary_reduced",
    "cocycle_basis", "cocycle_residual", "default_alpha_max",
    "dim_h2_closed_form", "dim_h2_summary_table", "dim_h2_via_system",
    "enumerate_multiindices", "format_rational", "kernel_basis",
    "lie_derivative_density", "multiset_coeff", "parse_rational", "rank",
    "run_sweep", "solve_coboundary", "verify_rows",
    "weight_block_basis", "weight_of",
]
