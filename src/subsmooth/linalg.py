"""Exact dense linear algebra over the rationals: where the rationals of a
constant matrix become integers.

A RatMatrix stores each row as integer numerators over a positive denominator
of its own, in lowest terms (_row), so equal matrices have equal rows; entries
are ``fractions.Fraction`` only at the boundary.  Matrices are small and dense,
with no arithmetic beyond scaling: products with symbols are ``laurent``'s.
Every routine runs one Gauss-Jordan elimination on integer rows, _eliminate.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from .errors import SingularMatrixError


def rat(x) -> Fraction:
    """Coerce ints, strings like ``"-3/8"`` and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _row(nums: Sequence[int], dens: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The entries nums[j] / dens[j], dens[j] nonzero, as one row in lowest terms, den > 0."""
    den = lcm(*dens)
    nums = [x * (den // d) for x, d in zip(nums, dens)]
    g = gcd(den, *nums)
    return (tuple(nums), den) if g == 1 else (tuple([x // g for x in nums]), den // g)


def _matrix(rows: Iterable[tuple[tuple[int, ...], int]]) -> "RatMatrix":
    """A RatMatrix from rows as _row returns them, unchecked."""
    m = object.__new__(RatMatrix)
    nums, dens = zip(*rows)
    object.__setattr__(m, "nums", nums)
    object.__setattr__(m, "dens", dens)
    return m


class RatMatrix:
    """Immutable dense matrix of rationals: row i is nums[i] / dens[i]."""

    __slots__ = ("nums", "dens")

    def __new__(cls, rows: int, cols: int, entries: Iterable):
        flat = [rat(x) for x in entries]
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(flat) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(flat)}")
        return _matrix(_row([x.numerator for x in row], [x.denominator for x in row])
                       for row in (flat[i:i + cols] for i in range(0, len(flat), cols)))

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    rows = property(lambda self: len(self.nums))
    cols = property(lambda self: len(self.nums[0]))

    # -- construction helpers -------------------------------------------------
    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RatMatrix":
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return RatMatrix(len(rows), c, [x for row in rows for x in row])

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        if n <= 0:
            raise ValueError("matrix dimensions must be positive")
        return _matrix((tuple(int(i == j) for j in range(n)), 1) for i in range(n))

    @staticmethod
    def column(values: Iterable) -> "RatMatrix":
        return RatMatrix.from_rows([[x] for x in values])

    # -- access ---------------------------------------------------------------
    def __getitem__(self, idx) -> Fraction:
        i, j = idx
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(idx)
        return Fraction(self.nums[i][j], self.dens[i])

    def row(self, i: int) -> tuple:
        return tuple(Fraction(x, self.dens[i]) for x in self.nums[i])

    @property
    def entries(self) -> tuple:
        return tuple(x for i in range(self.rows) for x in self.row(i))

    # -- algebra ---------------------------------------------------------------
    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        return _matrix(_row([c.numerator * x for x in row], [c.denominator * den] * len(row))
                       for row, den in zip(self.nums, self.dens))

    def is_zero(self) -> bool:
        return not any(map(any, self.nums))

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and (self.nums, self.dens) == (other.nums, other.dens)

    def __hash__(self) -> int:
        return hash((self.nums, self.dens))

    def _strings(self) -> list[list[str]]:
        """str() of each entry, row by row, from one gcd each and no Fraction."""
        return [[str(x // g) if (g := gcd(x, d)) == d else f"{x // g}/{d // g}" for x in row]
                for row, d in zip(self.nums, self.dens)]

    def __repr__(self) -> str:
        return f"RatMatrix[{'; '.join(map(' '.join, self._strings()))}]"


class Eigenstructure(namedtuple("Eigenstructure", "k basis r r_inv")):
    """Canonical basis change moving the common 1-eigenspace to the front: the
    one value in which intertwine, untwine, derived and smooth_raw take one.

    The first k columns of r are the eigenspace basis (the k columns
    ``basis``); the remaining columns span the complementary invariant
    subspace of the even/odd mean matrix, and ``r_inv`` is r**-1.  After
    conjugation by r, that matrix becomes block diagonal with identity
    leading block.
    """

    __slots__ = ()


def _eliminate(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan on integer rows, each standing for its nonzero multiples.  A
    column's first nonzero entry is its pivot; an update cross-multiplies a row
    with the pivot row and divides out its gcd (0 for a zero row).  Returns the
    rows, multiples of the rref's, and the pivots."""
    a = [list(row) for row in rows]
    pivots: list[int] = []
    for c in range(len(a[0])):
        r = len(pivots)
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        top, pv = a[r], a[r][c]
        for i, row in enumerate(a):
            f = row[c]
            if f and i != r:
                row = [pv * x - f * y for x, y in zip(row, top)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    return a, pivots


def rref(m: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Reduced row echelon form and the list of pivot column indices."""
    a, pivots = _eliminate(m.nums)
    pvs = [row[c] for row, c in zip(a, pivots)] + [1] * (m.rows - len(pivots))
    return _matrix(_row(row, [pv] * len(row)) for row, pv in zip(a, pvs)), pivots


def _kernel(rows: Sequence[Sequence[int]]) -> list[RatMatrix]:
    """Exact null space basis of the matrix with these integer rows, as columns:
    free variables set to 1 one at a time in the reduced echelon form."""
    a, pivots = _eliminate(rows)
    basis = []
    for fc in (c for c in range(len(a[0])) if c not in pivots):
        v = [((int(c == fc),), 1) for c in range(len(a[0]))]
        for row, pc in zip(a, pivots):
            v[pc] = _row((-row[fc],), (row[pc],))
        basis.append(_matrix(v))
    return basis


def _invert(rows: Sequence[Sequence[int]], dens: Sequence[int]) -> RatMatrix:
    """The inverse of the square matrix of rows rows[i] / dens[i]: that of rows, by
    Gauss-Jordan on [rows | I], times dens[j] in column j; SingularMatrixError."""
    n = len(rows)
    a, pivots = _eliminate([[*row, *(int(i == j) for j in range(n))]
                            for i, row in enumerate(rows)])
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return _matrix(_row([x * d for x, d in zip(row[n:], dens)], [row[i]] * n)
                   for i, row in enumerate(a))


def invert(m: RatMatrix) -> RatMatrix:
    """Exact inverse via Gauss-Jordan on [m | I]; raises SingularMatrixError."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    return _invert(m.nums, m.dens)
