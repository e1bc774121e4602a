"""Linear algebra of masks the slow way, kept as independent oracles.

``conjugate`` is the similarity transform as two full symbol products with
constant symbols, R^-1 inverted by Gauss-Jordan elimination; the package
computes each entry of R^-1 A(z) R as one linear combination of the entries
of A and takes R^-1 from its caller.  ``eigenspace_is_e2`` reads the common
1-eigenspace off a kernel basis from the reduced echelon form; the package
reads eight symbol values instead.  ``rank`` counts the pivots of that form;
the package needs no rank.
"""

from __future__ import annotations

from subsmooth import LaurentPoly, Mask, RatMatrix, SymbolMatrix, invert, kernel_basis
from subsmooth.linalg import rref


def rank(m: RatMatrix) -> int:
    return len(rref(m)[1])


def from_constant(m: RatMatrix) -> SymbolMatrix:
    """The constant symbol with coefficient m at z**0."""
    return SymbolMatrix([[LaurentPoly({0: m[i, j]}) for j in range(m.cols)]
                         for i in range(m.rows)])


def conjugate(mask: Mask, r: RatMatrix) -> Mask:
    """symbol -> R^-1 * symbol * R."""
    return Mask(mask.kind, from_constant(invert(r)) * mask.symbol * from_constant(r))


def one_eigenspace(mask: Mask) -> list[RatMatrix]:
    """Kernel basis of the stacked matrix [A(1) - 2I; A(-1)]."""
    top = mask.symbol.evaluate(1) - RatMatrix.identity(mask.p).scale(2)
    return kernel_basis(top.vstack(mask.symbol.evaluate(-1)))


def eigenspace_is_e2(mask: Mask) -> bool:
    basis = one_eigenspace(mask)
    return len(basis) == 1 and basis[0][0, 0] == 0 and basis[0][1, 0] != 0
