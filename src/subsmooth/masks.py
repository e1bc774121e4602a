"""Subdivision masks and their structural invariants.

A mask is a finitely supported sequence of p x p rational matrices,
represented by its symbol (a SymbolMatrix).  The scheme kind records how
the data refined by the mask is interpreted: plain scalar sequences,
coupled vector sequences, or Hermite data (function value and first
derivative, dimension 2, with a shift parameter phi read off the symbol).

The common 1-eigenspace of the even/odd coefficient sums drives all of
the smoothing machinery; this module computes it exactly, once per mask
(a Mask caches it), from the integer rows of [A(1) - 2I; A(-1)], together
with the canonical basis change R that moves it onto the leading
coordinates, read off the integer rows of A(1) - 2I.  Conjugation,
R^-1 A(z) R, is SymbolMatrix.transform; a descent or a smoothing round does
not conjugate: laurent.intertwine and untwine fold R and R^-1 into their
one product.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import add

from .errors import EigenspaceError, EmptyEigenspaceError, SingularMatrixError
from .laurent import LaurentPoly, SymbolMatrix
from .linalg import RatMatrix, _invert, _kernel, _matrix, _pivots, invert


class Kind(enum.Enum):
    SCALAR = "scalar"
    VECTOR = "vector"
    HERMITE = "hermite"


class Mask(namedtuple("Mask", "kind symbol")):
    """A subdivision scheme: kind + symbol.  A Hermite mask's shift
    parameter phi is read off its symbol.

    Immutable, equal and hashed by its fields; the instance dict holds only
    the cached 1-eigenspace, phi and Taylor scheme (hermite_smoothing's; a
    round's output carries its sheared scheme, eigenspace and all)."""

    def __new__(cls, kind: Kind, symbol: SymbolMatrix):
        if kind is Kind.SCALAR and symbol.p != 1:
            raise ValueError("scalar masks store a 1x1 symbol")
        if kind is Kind.HERMITE and symbol.p != 2:
            raise ValueError("Hermite masks refine value/derivative pairs (p = 2)")
        return tuple.__new__(cls, (kind, symbol))

    def __setattr__(self, name, value):
        raise AttributeError("Mask is immutable")

    @property
    def p(self) -> int:
        return self.symbol.p

    @property
    def support(self) -> tuple[int, int] | None:
        return self.symbol.support

    def coefficient(self, i: int) -> RatMatrix:
        return self.symbol.coefficient(i)

    @cached_property
    def _one_eigenspace(self) -> tuple[RatMatrix, ...]:
        return tuple(_kernel([[(e._sum_at(x) - two * e.den * (i == j), e.den)
                               for j, e in enumerate(row)]
                              for x, two in ((1, 2), (-1, 0))
                              for i, row in enumerate(self.symbol.entries)], self.p))

    @cached_property
    def phi(self) -> Fraction | None:
        """derive_phi of the symbol for a Hermite mask, None otherwise."""
        return derive_phi(self.symbol) if self.kind is Kind.HERMITE else None


def scalar_mask(f: LaurentPoly) -> Mask:
    return Mask(Kind.SCALAR, SymbolMatrix(((f,),)))


def vector_mask(symbol: SymbolMatrix) -> Mask:
    return Mask(Kind.VECTOR, symbol)


def derive_phi(symbol: SymbolMatrix) -> Fraction:
    """Shift parameter from the linear-reproduction equality:
    phi = (a11'(1) - 2*a12(1)) / 2.  Meaningful under the spectral condition,
    but computable for any 2x2 symbol."""
    a11 = symbol[0, 0]
    a12 = symbol[0, 1]
    return (a11.derivative_at(1) - 2 * a12.evaluate(1)) / 2


def hermite_mask(symbol: SymbolMatrix) -> Mask:
    return Mask(Kind.HERMITE, symbol)


# -- even/odd structure ----------------------------------------------------------

def even_odd_mean(mask: Mask) -> RatMatrix:
    """Half the symbol value at 1, i.e. the mean of the even/odd sums."""
    return mask.symbol.evaluate(1).scale(Fraction(1, 2))


def common_one_eigenspace(mask: Mask) -> list[RatMatrix]:
    """Exact basis of {v : A*(1) v = 2v and A*(-1) v = 0}.

    This is the common 1-eigenspace of the even/odd coefficient sums; its
    non-triviality is necessary for convergence.  Computed once per mask;
    every call returns a fresh list.
    """
    return list(mask._one_eigenspace)


def stencil_norm(symbol: SymbolMatrix, arity: int) -> Fraction:
    """Exact sup-norm of c -> sum_j M_{i - arity*j} c_j on bounded sequences.

    Equals the max over the residue classes of the output index of the
    max-row-sum of the entrywise absolute coefficient sums; the supremum is
    attained by sign-aligned data of sup-norm one.  Works on the integer
    numerators: each row is put on the lcm of its denominators, and the
    absolute numerators of an entry are folded into arity residue classes
    by summing consecutive blocks of arity terms.
    """
    best = Fraction(0)
    for row in symbol.entries:
        entries = [e for e in row if e.nums]
        if not entries:
            continue
        den = math.lcm(*(e.den for e in entries))
        sums = [0] * arity
        for e in entries:
            # position k of padded holds the exponent congruent to k mod arity
            padded = [0] * (e.lo % arity) + [abs(x) for x in e.nums]
            padded += [0] * (-len(padded) % arity)
            classes = map(sum, zip(*[padded[k:k + arity]
                                     for k in range(0, len(padded), arity)]))
            f = den // e.den
            sums = list(map(add, sums, classes if f == 1 else map(f.__mul__, classes)))
        best = max(best, Fraction(max(sums), den))
    return best


def conjugate(mask: Mask, r: RatMatrix, *, r_inv: RatMatrix | None = None) -> Mask:
    """Similarity transform of every coefficient: symbol -> R^-1 * symbol * R.

    ``r_inv`` is R^-1 for a caller that already holds it; it is trusted, not
    checked.  Without it, r is inverted here (SingularMatrixError).  R = I,
    as for every scalar mask's canonical transform, returns the mask."""
    if r.rows != mask.p or r.cols != mask.p:
        raise ValueError("transform dimension mismatch")
    if r == RatMatrix.identity(mask.p):
        return mask
    return Mask(mask.kind, mask.symbol.transform(invert(r) if r_inv is None else r_inv, r))


class Eigenstructure(namedtuple("Eigenstructure", "k basis r r_inv")):
    """Canonical basis change moving the common 1-eigenspace to the front.

    The first k columns of r are the eigenspace basis (the k columns
    ``basis``); the remaining columns span the complementary invariant
    subspace of the even/odd mean matrix, and ``r_inv`` is r**-1.  After
    conjugation by r, that matrix becomes block diagonal with identity
    leading block.
    """

    __slots__ = ()


def canonical_transform(mask: Mask) -> Eigenstructure:
    """Build the canonical transform from the 1-eigenspace and the column
    space of (mean matrix - identity).

    That column space is the invariant complement exactly when the
    eigenvalue 1 of the mean matrix has equal algebraic and geometric
    multiplicity, which holds for convergent schemes; if the dimensions do
    not add up, the input cannot be normalized and an error is raised
    instead of guessing.  Mean matrix - identity = (A(1) - 2I)/2 is read as
    integer rows off the symbol's numerators; one elimination finds its pivot
    columns, the complement's basis, and one of [R | I] gives R**-1.
    """
    basis = mask._one_eigenspace
    if not basis:
        raise EmptyEigenspaceError(
            "the even/odd coefficient sums have no common 1-eigenvector")
    p, k = mask.p, len(basis)
    cols = [v.entries for v in basis]
    if k < p:
        m = [[(e._sum_at(1) - 2 * e.den * (i == j), 2 * e.den) for j, e in enumerate(row)]
             for i, row in enumerate(mask.symbol.entries)]
        pivots = _pivots(m)
        if len(pivots) != p - k:
            raise EigenspaceError(
                f"complement has dimension {len(pivots)}, expected {p - k}; "
                "eigenvalue 1 is defective (non-convergent-style mask)")
        cols += [tuple(Fraction(*row[c]) for row in m) for c in pivots]
    r = _matrix(p, p, tuple(chain.from_iterable(zip(*cols))))
    try:
        r_inv = _matrix(p, p, _invert([[x.as_integer_ratio() for x in r.row(i)]
                                       for i in range(p)]))
    except SingularMatrixError:
        raise EigenspaceError("eigenspace and complement overlap; "
                              "no canonical transform exists") from None
    return Eigenstructure(k=k, basis=basis, r=r, r_inv=r_inv)
