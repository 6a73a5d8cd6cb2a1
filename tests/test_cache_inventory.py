"""Every cache the package keeps, with its key and the reason it may keep it.

The rule (``reduced`` module docstring): an engine caches only lambda-free
structure, and a value is memoised once per orbit of the slot
permutations.  No constraint system is kept: ``build_system`` fills a
fresh one on every call.  A cache added to the package fails this test
until it is listed here with its key and its reason.
"""

import inspect

from support import package_caches

#: "module.function": (the parameters that key it, why it is kept)
CACHES = {
    "reduced._system_frame": (
        ("n", "k"), "the lambda-free index tuples and column patterns of the system"),
    "cecomplex._cached_h2_frame": (
        ("n", "delta"), "the lambda-free bases, sizes and d1 frame of the oracle's block"),
    "reduced._lowering_targets": (
        ("beta",), "the lambda-free targets of the lowering map on one index"),
    "cecomplex._certify_graded_acyclicity": (
        (), "the check of the differential tables, run once per process"),
    "reduced._box_deficiency": (
        ("k", "t"), "the box deficiency, one value per orbit (k, sorted t)"),
    "sweep._orbit_dims": (
        ("delta", "twice_lambdas", "system", "closed", "summary", "oracle"),
        "every method's value, one record per orbit (delta, sorted 2 lambda_i) "
        "and the methods a row asks for"),
}


def test_every_cache_is_listed_with_its_key():
    caches = package_caches()
    assert sorted(caches) == sorted(CACHES)
    for name, cache in caches.items():
        key = tuple(inspect.signature(cache).parameters)
        assert key == CACHES[name][0], name
        # bounded, except the check that has no key and so one entry
        assert cache.cache_info().maxsize is not None or key == (), name
