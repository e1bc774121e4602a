"""Linear algebra of masks the slow way, kept as independent oracles.

``rref`` is plain Gauss-Jordan elimination over Fractions, taking the first
nonzero entry of each column as its pivot; the package eliminates once on
integer rows and builds Fractions only for the values it returns.
``kernel_basis``, ``column_space_basis`` and ``invert`` read their results
off this form; the package keeps no column space and returns a kernel only
to ``masks``, off integer rows.  ``matmul``, ``add``, ``sub``, ``col`` and
``zero`` are the matrix arithmetic that RatMatrix, a container of
coefficients, lacks.  ``conjugate`` is the similarity transform as two full
symbol products with constant symbols, R^-1 inverted by that elimination;
the package computes each entry of R^-1 A(z) R as one linear combination of
the entries of A and takes R^-1 from its caller.  ``one_eigenspace`` stacks
[A(1) - 2I; A(-1)] as a matrix of Fractions; the package reads the integer
rows off the symbol's numerators.  ``rank`` counts the pivots; the package
needs no rank.  ``canonical_transform`` builds R from the mean matrix A(1)/2
minus I over Fractions; the package reads that matrix as integer rows.
``derived_in_basis`` and ``smooth_in_basis`` conjugate, run the operator and,
for a round, conjugate back; the package folds R and R^-1 into the one
product of its intertwine or untwine.  ``integer_rows`` puts every entry of
a matrix over the lcm of all their denominators, read as Fractions; the
package scales rows that are integers over a denominator each already.
"""

from __future__ import annotations

import math
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


def matmul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """The product a b, each entry summed over Fractions."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    return RatMatrix(a.rows, b.cols, [sum((a[i, k] * b[k, j] for k in range(a.cols)), Fraction(0))
                                      for i in range(a.rows) for j in range(b.cols)])


def add(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """The sum a + b of matrices of one shape."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    return RatMatrix(a.rows, a.cols, [x + y for x, y in zip(a.entries, b.entries)])


def sub(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """The difference a - b of matrices of one shape."""
    return add(a, b.scale(-1))


def col(m: RatMatrix, j: int) -> tuple:
    """Column j of m."""
    return tuple(m[i, j] for i in range(m.rows))


def zero(rows: int, cols: int) -> RatMatrix:
    return RatMatrix(rows, cols, [0] * (rows * cols))


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
    return [RatMatrix.column(col(m, c)) for c in rref(m)[1]]


def hstack(*ms: RatMatrix) -> RatMatrix:
    """The matrices side by side."""
    return RatMatrix.from_rows([[x for m in ms for x in m.row(i)] for i in range(ms[0].rows)])


def invert(m: RatMatrix) -> RatMatrix:
    n = m.rows
    red, pivots = rref(hstack(m, RatMatrix.identity(n)))
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return RatMatrix(n, n, [red[i, n + j] for i in range(n) for j in range(n)])


def integer_rows(m: RatMatrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The rows of m times the lcm of its denominators, and that lcm: the
    integers and denominator of a basis change that intertwine and untwine
    price and multiply."""
    ratios = [x.as_integer_ratio() for x in m.entries]
    den = math.lcm(*(d for _, d in ratios))
    ints = tuple(n * (den // d) for n, d in ratios)
    return tuple(ints[i:i + m.cols] for i in range(0, len(ints), m.cols)), den


def from_constant(m: RatMatrix) -> SymbolMatrix:
    """The constant symbol with coefficient m at z**0."""
    return SymbolMatrix([[LaurentPoly({0: m[i, j]}) for j in range(m.cols)]
                         for i in range(m.rows)])


def conjugate(mask: Mask, r: RatMatrix) -> Mask:
    """symbol -> R^-1 * symbol * R."""
    return Mask(mask.kind, from_constant(invert(r)) * mask.symbol * from_constant(r))


def one_eigenspace(mask: Mask) -> list[RatMatrix]:
    """Kernel basis of the stacked matrix [A(1) - 2I; A(-1)]."""
    top = sub(mask.symbol.evaluate(1), RatMatrix.identity(mask.p).scale(2))
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
        comp = column_space_basis(sub(mask.symbol.evaluate(1).scale(Fraction(1, 2)),
                                      RatMatrix.identity(p)))
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
