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
The package root exports nothing; each route lives in its submodule.
"""
