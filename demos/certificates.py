#!/usr/bin/env python3
"""Exact convergence certificates and honest refusals.

A scheme is certified convergent when some power of its halved derived
scheme has operator norm < 1; the norm is an exact rational, so the
certificate is machine-checkable.  A refusal is inconclusive by design:
the criterion is sufficient, not necessary.
"""

from subsmooth import (LaurentPoly, catalog, certify_hermite, certify_vector,
                       scalar_mask, taylor_scheme)


def main():
    for name in ("bspline1", "bspline2", "bspline4"):
        print(f"{name}:")
        print(certify_vector(catalog.get(name), 0))
        print()

    print("taylor scheme of the interpolatory Hermite scheme:")
    print(certify_vector(taylor_scheme(catalog.get("merrien")), 0))
    print()

    for name, ell in (("merrien", 1), ("merrien-smoothed", 2), ("derham", 2)):
        print(f"{name}, order {ell}:")
        print(certify_hermite(catalog.get(name), ell))
        print()

    # a mask with the right values at +-1 but wildly large inner
    # coefficients: the norm search comes back empty-handed
    wild = scalar_mask(LaurentPoly({0: -2, 1: 1, 2: 3}))
    print("wild scalar mask (-2 + z + 3z^2):")
    print(certify_vector(wild, 0, lmax=4))


if __name__ == "__main__":
    main()
