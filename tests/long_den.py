"""Mask files of long-denominator rationals.

Kept apart from tests.maskgen, which imports hypothesis, so that
tests/hostile.py builds its documents in a small process: a child forked
from it starts with the parent's resident pages, and they count in the
child's peak RSS.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction


def long_denominator_doc(p: int, seed: int = 0) -> str:
    """A vector mask file whose two coefficients have last column e_p, so
    the common 1-eigenspace is span(e_p), and 1000-character rationals with
    independent ~490-digit denominators everywhere else: the canonical
    transform of such a mask is dense, and every entry of a conjugation
    lands on the lcm of all the denominators."""
    rng = random.Random(seed)

    def entry(i, j):
        if j == p - 1:
            return str(int(i == j))
        return str(Fraction(rng.randrange(1 - 10 ** 508, 10 ** 508),
                            rng.randrange(10 ** 489, 10 ** 490)))

    return json.dumps({"schema_version": 1, "kind": "vector", "p": p, "support_lo": 0,
                       "coeffs": [[[entry(i, j) for j in range(p)] for i in range(p)]
                                  for _ in range(2)]})
