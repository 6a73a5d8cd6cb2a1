"""Helpers shared by the test modules.

``system_of`` names a constraint system by (n, k, lambdas), the way the
tests state their examples, and builds it through ``build_system`` on the
weights with that shift.  ``dense`` and ``dense_kernel`` turn the sparse
vectors of ``linalg`` into full lists, for comparison with dense
references.  ``empty_caches`` starts a count of calls or cache entries
from nothing, whatever the tests before it left in the process.
"""

from sl2cohom import cecomplex, reduced, sweep
from sl2cohom.linalg import kernel_basis
from sl2cohom.reduced import build_system
from sl2cohom.weights import Weights


def system_of(n, k, lambdas):
    """The constraint system at shift k: ``build_system`` of the weights
    lambdas with mu = k + sum(lambdas)."""
    assert len(lambdas) == n
    return build_system(Weights(lambdas, k + sum(lambdas)))


def dense(vectors, ncols):
    """Sparse vectors {column: value} as lists of ncols entries."""
    return [[vec.get(j, 0) for j in range(ncols)] for vec in vectors]


def dense_kernel(factorization):
    """``kernel_basis`` of the factorization, each vector as a full list."""
    return dense(kernel_basis(factorization), factorization.cols)


def empty_caches():
    """Empty the orbit record of ``sweep``, the box memo of ``reduced``, the
    systems and frames of ``reduced`` and the oracle frames of
    ``cecomplex``: each outlives a test."""
    sweep._orbit_dims.cache_clear()
    reduced._box_deficiency.cache_clear()
    reduced._system.cache_clear()
    reduced._system_frame.cache_clear()
    cecomplex._cached_h2_frame.cache_clear()
