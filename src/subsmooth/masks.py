"""Subdivision masks and their structural invariants.

A mask is a finitely supported sequence of p x p rational matrices,
represented by its symbol (a SymbolMatrix).  The scheme kind records how
the data refined by the mask is interpreted: plain scalar sequences,
coupled vector sequences, or Hermite data (function value and first
derivative, dimension 2, with a shift parameter phi read off the symbol).

The common 1-eigenspace of the even/odd coefficient sums drives all of
the smoothing machinery; this module computes it exactly, once per mask
(a Mask caches it), from the integer rows of [A(1) - 2I; A(-1)] that
SymbolMatrix.evaluate gives, together with the canonical basis change R that
moves it onto the leading coordinates, read off those of A(1) - 2I.  ``conjugate``,
R^-1 A(z) R, is one SymbolMatrix.transform with R inverted; no pipeline
calls it: a descent or a smoothing round folds R and R^-1 into the one
product of laurent.intertwine or untwine.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from operator import add

from .errors import EigenspaceError, EmptyEigenspaceError, SingularMatrixError
from .laurent import LaurentPoly, SymbolMatrix
from .linalg import (Eigenstructure, RatMatrix, _eliminate, _invert, _kernel, _matrix, _row,
                     invert)


class Kind(enum.Enum):
    SCALAR = "scalar"
    VECTOR = "vector"
    HERMITE = "hermite"


class Mask(namedtuple("Mask", "kind symbol")):
    """A subdivision scheme: kind + symbol.  A Hermite mask's shift
    parameter phi is read off its symbol.

    Immutable, equal and hashed by its fields; the instance dict holds only
    the cached 1-eigenspace with A(1), phi and Taylor scheme (hermite_smoothing's;
    a round's output carries its sheared scheme, eigenspace and all)."""

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
    def _one_eigenspace(self) -> tuple[tuple[RatMatrix, ...], RatMatrix]:
        a1 = self.symbol.evaluate(1)  # kept: the canonical transform reads its rows
        return tuple(_kernel(_minus_two(a1) + [*self.symbol.evaluate(-1).nums])), a1

    @cached_property
    def phi(self) -> Fraction | None:
        """derive_phi of the symbol for a Hermite mask, None otherwise."""
        return derive_phi(self.symbol) if self.kind is Kind.HERMITE else None


def _minus_two(m: RatMatrix) -> list[list[int]]:
    """The integer rows of m - 2I, each over the denominator of m's row."""
    return [[x - 2 * d * (i == j) for j, x in enumerate(row)]
            for i, (row, d) in enumerate(zip(m.nums, m.dens))]


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
    return list(mask._one_eigenspace[0])


def stencil_norm(symbol: SymbolMatrix, arity: int) -> Fraction:
    """Exact sup-norm of c -> sum_j M_{i - arity*j} c_j on bounded sequences.

    Equals the max over the residue classes of the output index of the
    max-row-sum of the entrywise absolute coefficient sums; the supremum is
    attained by sign-aligned data of sup-norm one.  Works on the integer
    numerators: each row is put on the lcm of its denominators, and the
    absolute numerators of an entry are folded into arity residue classes
    by summing consecutive blocks of arity terms.
    """
    if arity < 1:
        raise ValueError("arity must be >= 1")
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


def conjugate(mask: Mask, r: RatMatrix) -> Mask:
    """Similarity transform of every coefficient: symbol -> R^-1 * symbol * R,
    with r inverted here (SingularMatrixError)."""
    if r.rows != mask.p or r.cols != mask.p:
        raise ValueError("transform dimension mismatch")
    return Mask(mask.kind, mask.symbol.transform(invert(r), r))


def canonical_transform(mask: Mask) -> Eigenstructure:
    """Build the canonical transform from the 1-eigenspace and the column
    space of (mean matrix - identity).

    That column space is the invariant complement exactly when the
    eigenvalue 1 of the mean matrix has equal algebraic and geometric
    multiplicity, which holds for convergent schemes; if the dimensions do
    not add up, the input cannot be normalized and an error is raised
    instead of guessing.  Mean matrix - identity = (A(1) - 2I)/2 is read off
    the rows of A(1); one elimination finds its pivot columns, the complement's
    basis, and one of [R | I] gives R**-1.
    """
    basis, a1 = mask._one_eigenspace
    if not basis:
        raise EmptyEigenspaceError(
            "the even/odd coefficient sums have no common 1-eigenvector")
    p, k = mask.p, len(basis)
    if k == p:  # the kernel of a zero matrix: the basis is the identity's columns
        return Eigenstructure(k, basis, *[RatMatrix.identity(p)] * 2)
    top = _minus_two(a1)
    pivots = _eliminate(top)[1]
    if len(pivots) != p - k:
        raise EigenspaceError(
            f"complement has dimension {len(pivots)}, expected {p - k}; "
            "eigenvalue 1 is defective (non-convergent-style mask)")
    r = _matrix(_row([*(v.nums[i][0] for v in basis), *(row[c] for c in pivots)],
                     [*(v.dens[i] for v in basis), *[2 * d] * len(pivots)])
                for i, (row, d) in enumerate(zip(top, a1.dens)))
    try:
        r_inv = _invert(r.nums, r.dens)
    except SingularMatrixError:
        raise EigenspaceError("eigenspace and complement overlap; "
                              "no canonical transform exists") from None
    return Eigenstructure(k=k, basis=basis, r=r, r_inv=r_inv)
