#!/usr/bin/env python3
"""Iterated Hermite smoothing with exact bookkeeping.

A Hermite mask refining (value, derivative) pairs factors through the
Taylor operator when it reproduces constants and linears; smoothing the
factored vector scheme and inverting the factorization raises the limit
regularity by one per round.  The shift parameter phi drops by exactly 1/2
per round and the re-normalization constant zeta drifts away from 1 once
the coupling entry stops vanishing at z = 1.
"""

import os
import sys

from subsmooth import (catalog, check_interpolatory, check_spectral,
                       smooth_hermite, zeta_of)

# The closed-form round and the zeta forecast are test oracles; they live in
# the repository's tests/.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.hermite_oracle import (smooth_hermite_closed_form,  # noqa: E402
                                  zeta_multiplicity_forecast)


def run(name, rounds=3):
    mask = catalog.get(name)
    print(f"== {name} ==")
    print(f"spectral condition: {check_spectral(mask).holds}, phi = {mask.phi}, "
          f"interpolatory = {check_interpolatory(mask)}")
    print(f"coupling-entry root multiplicity at 1: "
          f"{zeta_multiplicity_forecast(mask)} "
          f"(rounds remaining with zeta = 1: that minus one)")
    for r in range(1, rounds + 1):
        zeta = zeta_of(mask)
        out = smooth_hermite(mask)
        cross = smooth_hermite_closed_form(mask)
        print(f"round {r}: zeta = {zeta}, phi {mask.phi} -> {out.phi}, "
              f"support {mask.support} -> {out.support}, "
              f"closed-form check: {out == cross}")
        mask = out
    print()


def main():
    run("merrien")
    run("derham")


if __name__ == "__main__":
    main()
