"""Helpers shared by the test modules.

``system_of`` names a constraint system by (n, k, lambdas), the way the
tests state their examples, and builds it through ``build_system`` on the
weights with that shift.  ``factorize`` echelonises a system's rows, as
``cocycle_basis`` does.  ``dense`` and ``dense_kernel`` turn the sparse
vectors of ``linalg`` into full lists, for comparison with dense
references.  ``package_caches`` finds every cache the package's modules
define, and ``empty_caches`` empties them all, so that a count of calls or
cache entries starts from nothing, whatever the tests before it left in
the process.
"""

import importlib
import pkgutil

import sl2cohom
from sl2cohom.linalg import Factorization, kernel_basis
from sl2cohom.reduced import build_system
from sl2cohom.weights import Weights


def system_of(n, k, lambdas):
    """The constraint system at shift k: ``build_system`` of the weights
    lambdas with mu = k + sum(lambdas)."""
    assert len(lambdas) == n
    return build_system(Weights(lambdas, k + sum(lambdas)))


def factorize(system):
    """The reduced row echelon form of the system's rows."""
    return Factorization(system.equations, len(system.col_index))


def dense(vectors, ncols):
    """Sparse vectors {column: value} as lists of ncols entries."""
    return [[vec.get(j, 0) for j in range(ncols)] for vec in vectors]


def dense_kernel(factorization):
    """``kernel_basis`` of the factorization, each vector as a full list."""
    return dense(kernel_basis(factorization), factorization.cols)


def package_caches():
    """{"module.name": function} for every module-level function with a
    ``cache_clear`` that a module of the package defines (``__main__``,
    which runs the command line on import, defines none)."""
    caches = {}
    for info in pkgutil.iter_modules(sl2cohom.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"sl2cohom.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = value
    return caches


def empty_caches():
    """Empty every cache of ``package_caches``: each outlives a test."""
    for cache in package_caches().values():
        cache.cache_clear()
