"""Job lists of the four benchmark workloads and the seeded mask generator.

A job is one `subsmooth` command line.  Jobs are grouped into units: a unit
runs in order (a `show` reads the file the `smooth` before it wrote), and
the seed permutes the units of every pass.  `{tmp}` in an argument stands
for the run's scratch directory inside the checkout.  The seed also drives
the mask generator of certify-bitgrowth; the job lists themselves are fixed.

Every workload stresses a different layer; see README.md for why each one
is here and which per-layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Job:
    """One CLI call.  `ref` names the catalog mask whose canonical
    serialization the job must print (the independent smoothed references)."""

    argv: tuple[str, ...]
    ref: str | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def out_file(self) -> str | None:
        if "--out" in self.argv:
            return self.argv[self.argv.index("--out") + 1]
        return None

    def resolve(self, tmp: str) -> list[str]:
        return [a.replace("{tmp}", tmp) for a in self.argv]


def _job(text: str, ref: str | None = None) -> Job:
    return Job(tuple(text.split()), ref)


def _single(*texts: str) -> list[tuple[Job, ...]]:
    return [(_job(t),) for t in texts]


# The five depth-6 renders whose CSVs are committed under demos/out/.
DEMO_RENDERS = ("bspline1", "bspline3", "merrien", "merrien-smoothed",
                "derham-smoothed")


def render_deep() -> list[tuple[Job, ...]]:
    units = _single(
        "render catalog:merrien-smoothed --depth 10 --out {tmp}/merrien-smoothed-d10.csv",
        "render catalog:derham-smoothed --depth 9 --basis 2 --exact "
        "--out {tmp}/derham-smoothed-d9-b2.csv",
        "render catalog:bspline3 --depth 11 --out {tmp}/bspline3-d11.csv")
    units += _single(*(f"render catalog:{name} --depth 6 --out {{tmp}}/{name}-d6.csv"
                       for name in DEMO_RENDERS))
    return units


CERTIFY_GRANTS = ("merrien --ell 1", "merrien-smoothed --ell 2", "derham --ell 2",
                  "derham-smoothed --ell 3", "double-knot --ell 1",
                  "bspline3 --ell 2", "bspline5 --ell 4")


def certify_search() -> list[tuple[Job, ...]]:
    units = _single("certify catalog:merrien --ell 2 --lmax 10")
    for _ in range(4):
        units += _single(*(f"certify catalog:{g}" for g in CERTIFY_GRANTS))
    return units


BITGROWTH_MASKS = 3
BITGROWTH_LMAX = 8


def certify_bitgrowth() -> list[tuple[Job, ...]]:
    return _single(*(f"certify {{tmp}}/hermite-{i}.mask --ell 1 --lmax {BITGROWTH_LMAX}"
                     for i in range(BITGROWTH_MASKS)))


CHAIN_MASKS = ("merrien", "derham", "double-knot", "bspline3")


def smooth_chain() -> list[tuple[Job, ...]]:
    units = [(_job(f"smooth catalog:{name} --rounds 12 --out {{tmp}}/{name}-r12.mask"),
              _job(f"show {{tmp}}/{name}-r12.mask"))
             for name in CHAIN_MASKS]
    units += [(_job(f"smooth catalog:{name} --rounds 1", ref=f"{name}-smoothed"),)
              for name in ("merrien", "derham")]
    return units


WORKLOADS = {
    "render-deep": render_deep,
    "certify-search": certify_search,
    "certify-bitgrowth": certify_bitgrowth,
    "smooth-chain": smooth_chain,
}


# -- seeded Hermite masks for certify-bitgrowth ---------------------------------
#
# Each entry starts as a polynomial whose coefficients are +-n/d, n in 1..6,
# with the five denominators a permutation of {3, 5, 7, 9, 11}.  The terms
# a + b*z that then fix its values at +-1 mix all five, so the z^0 and z^1
# coefficients of the mask get denominators up to 4 * 3465 = 13860 (every
# denominator divides it; about a quarter exceed 12).  Fixing the denominator
# set keeps the coefficient bit growth, and so the cost of the search, nearly
# the same for every seed; only the numerators and their placement vary.

_DENOMINATORS = (3, 5, 7, 9, 11)

# subsmooth is imported inside the functions below: run.py imports this
# module for the workload names without the library on its path.


def _rand_poly(rng: random.Random):
    from subsmooth import LaurentPoly
    dens = list(_DENOMINATORS)
    rng.shuffle(dens)
    return LaurentPoly({e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), d)
                        for e, d in zip(range(-2, 3), dens)})


def _with_values(f, at1, atm1):
    """f plus a + b*z chosen so the result takes the given values at +-1."""
    from subsmooth import LaurentPoly
    u = Fraction(at1) - f.evaluate(1)
    v = Fraction(atm1) - f.evaluate(-1)
    return f + LaurentPoly({0: (u + v) / 2, 1: (u - v) / 2})


def _rand_spectral(rng: random.Random):
    """Hermite mask on support [-2, 2] satisfying the spectral condition."""
    from subsmooth import SymbolMatrix, hermite_mask
    a11 = _with_values(_rand_poly(rng), 2, 0)
    a21 = _with_values(_rand_poly(rng), 0, 0)
    a22 = _with_values(_rand_poly(rng), (a21.derivative_at(1) + 2) / 2,
                       -a21.derivative_at(-1) / 2)
    coupling = Fraction(rng.randint(1, 5), rng.choice((1, 3, 5))) * rng.choice((-1, 1))
    a12 = _with_values(_rand_poly(rng), coupling, -a11.derivative_at(-1) / 2)
    return hermite_mask(SymbolMatrix(((a11, a12), (a21, a22))))


def _reaches_search(mask) -> bool:
    """True when `certify --ell 1` on this mask gets to the contractivity
    search with a norm far from 1 at L = 1, so the search runs to lmax.

    Some spectral masks stop before the search, for example with a
    defective eigenvalue 1; they are screened out here, with the public
    library checks, instead of failing in the timed region.
    """
    from subsmooth import (SubsmoothError, canonical_transform, check_spectral,
                           common_one_eigenspace, conjugate, derived,
                           iterated_symbol, stencil_norm, taylor_scheme)
    if not check_spectral(mask).holds:
        return False
    try:
        tay = taylor_scheme(mask)
        basis = common_one_eigenspace(tay)
        if not (len(basis) == 1 and basis[0][0, 0] == 0):
            return False
        es = canonical_transform(tay)
        der = derived(conjugate(tay, es.r), es.k)
    except SubsmoothError:
        return False
    return stencil_norm(iterated_symbol(der, 1), 2) / 2 >= 4


def write_inputs(workload: str, seed: int, tmp: str) -> dict[str, str]:
    """Write the workload's generated mask files; return file name -> sha256."""
    if workload != "certify-bitgrowth":
        return {}
    from subsmooth import maskfile
    rng = random.Random(f"{seed}/inputs")
    digests = {}
    for i in range(BITGROWTH_MASKS):
        mask = _rand_spectral(rng)
        while not _reaches_search(mask):
            mask = _rand_spectral(rng)
        text = maskfile.serialize(mask)
        name = f"hermite-{i}.mask"
        with open(f"{tmp}/{name}", "w", encoding="utf-8") as fh:
            fh.write(text)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    return digests
