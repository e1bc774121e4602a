"""Linear algebra of masks the slow way, kept as independent oracles.

``rref`` is plain Gauss-Jordan elimination over Fractions, taking the first
nonzero entry of each column as its pivot; the package eliminates once on
integer rows and builds Fractions only for the values it returns.
``kernel_basis``, ``column_space_basis`` and ``invert`` read their results
off this form.  ``conjugate`` is the similarity transform as two full
symbol products with constant symbols, R^-1 inverted by that elimination;
the package computes each entry of R^-1 A(z) R as one linear combination of
the entries of A and takes R^-1 from its caller.  ``one_eigenspace`` stacks
[A(1) - 2I; A(-1)] as a matrix of Fractions; the package reads the integer
rows off the symbol's numerators.  ``rank`` counts the pivots; the package
needs no rank.  ``canonical_transform`` builds R from the mean matrix A(1)/2
minus I over Fractions; the package reads that matrix as integer rows.
``derived_in_basis`` and ``smooth_in_basis`` conjugate, run the operator and,
for a round, conjugate back; the package folds R and R^-1 into the one
product of its intertwine or untwine.
"""

from __future__ import annotations

from fractions import Fraction

from subsmooth import (EigenspaceError, Eigenstructure, EmptyEigenspaceError, LaurentPoly,
                       Mask, RatMatrix, SingularMatrixError, SymbolMatrix, derived,
                       smooth_raw)


def rref(m: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Reduced row echelon form and the list of pivot column indices."""
    a = [list(m.row(i)) for i in range(m.rows)]
    nr, nc = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return RatMatrix(nr, nc, [x for row in a for x in row]), pivots


def rank(m: RatMatrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: RatMatrix) -> list[RatMatrix]:
    """Free variables set to 1 one at a time in the reduced echelon form."""
    red, pivots = rref(m)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r, fc]
        basis.append(RatMatrix.column(v))
    return basis


def column_space_basis(m: RatMatrix) -> list[RatMatrix]:
    return [RatMatrix.column(m.col(c)) for c in rref(m)[1]]


def hstack(*ms: RatMatrix) -> RatMatrix:
    """The matrices side by side."""
    return RatMatrix.from_rows([[x for m in ms for x in m.row(i)] for i in range(ms[0].rows)])


def invert(m: RatMatrix) -> RatMatrix:
    n = m.rows
    red, pivots = rref(hstack(m, RatMatrix.identity(n)))
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return RatMatrix(n, n, [red[i, n + j] for i in range(n) for j in range(n)])


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
    low = mask.symbol.evaluate(-1)
    return kernel_basis(RatMatrix(2 * mask.p, mask.p, top.entries + low.entries))


def eigenspace_is_e2(mask: Mask) -> bool:
    basis = one_eigenspace(mask)
    return len(basis) == 1 and basis[0][0, 0] == 0 and basis[0][1, 0] != 0


def canonical_transform(mask: Mask) -> Eigenstructure:
    """The 1-eigenspace, then the pivot columns of A(1)/2 - I, side by side
    as R, and R inverted, all over Fractions."""
    basis = one_eigenspace(mask)
    if not basis:
        raise EmptyEigenspaceError(
            "the even/odd coefficient sums have no common 1-eigenvector")
    p, k = mask.p, len(basis)
    cols = list(basis)
    if k < p:
        comp = column_space_basis(mask.symbol.evaluate(1).scale(Fraction(1, 2))
                                  - RatMatrix.identity(p))
        if len(comp) != p - k:
            raise EigenspaceError(
                f"complement has dimension {len(comp)}, expected {p - k}; "
                "eigenvalue 1 is defective (non-convergent-style mask)")
        cols += comp
    r = hstack(*cols)
    try:
        r_inv = invert(r)
    except SingularMatrixError:
        raise EigenspaceError("eigenspace and complement overlap; "
                              "no canonical transform exists") from None
    return Eigenstructure(k=k, basis=tuple(basis), r=r, r_inv=r_inv)


def derived_in_basis(mask: Mask, es: Eigenstructure) -> Mask:
    """A descent in three steps: conjugate by es.r, then the derived scheme."""
    return derived(conjugate(mask, es.r), es.k)


def smooth_in_basis(mask: Mask, es: Eigenstructure) -> Mask:
    """A vector round's basis change in three steps: conjugate by es.r,
    smooth, conjugate by es.r**-1."""
    return conjugate(smooth_raw(conjugate(mask, es.r), es.k), invert(es.r))
