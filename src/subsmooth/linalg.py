"""Exact dense linear algebra over the rationals.

Scalars are ``fractions.Fraction`` (arbitrary precision, always reduced,
positive denominator), so every result here is exact and canonical.
Matrices are small and dense, with no arithmetic beyond scaling: products
with symbols are ``laurent``'s.  Every routine runs one Gauss-Jordan
elimination on integer rows, _eliminate: each row is scaled by the lcm of
its own denominators, and Fractions are built only for returned values.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from .errors import SingularMatrixError


def rat(x) -> Fraction:
    """Coerce ints, strings like ``"-3/8"`` and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _matrix(rows: int, cols: int, entries: tuple) -> "RatMatrix":
    """A RatMatrix from a tuple of rows * cols Fractions, unchecked; for
    results computed here, which need no coercion."""
    m = object.__new__(RatMatrix)
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "entries", entries)
    return m


class RatMatrix:
    """Immutable dense matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        flat = tuple(rat(x) for x in entries)
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(flat) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(flat)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", flat)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    # -- construction helpers -------------------------------------------------
    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RatMatrix":
        r = len(rows)
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return RatMatrix(r, c, [x for row in rows for x in row])

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return _matrix(n, n, tuple(Fraction(int(i == j)) for i in range(n) for j in range(n)))

    @staticmethod
    def column(values: Sequence) -> "RatMatrix":
        vals = list(values)
        return RatMatrix(len(vals), 1, vals)

    # -- access ---------------------------------------------------------------
    def __getitem__(self, idx) -> Fraction:
        i, j = idx
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(idx)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    # -- algebra ---------------------------------------------------------------
    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        return _matrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"RatMatrix[{body}]"


def _eliminate(rows: list) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan on rows of (numerator, denominator) pairs, each put over the
    lcm of its denominators.  A column's first nonzero entry is its pivot; an
    update cross-multiplies a row with the pivot row and divides out its gcd (0
    for a zero row).  Returns the rows, multiples of the rref's, and the pivots."""
    a = []
    for row in rows:
        den = lcm(*[d for _, d in row])
        a.append([n * (den // d) for n, d in row])
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


def _ratios(m: RatMatrix) -> list:
    return [[x.as_integer_ratio() for x in m.row(i)] for i in range(m.rows)]


def rref(m: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Reduced row echelon form and the list of pivot column indices."""
    a, pivots = _eliminate(_ratios(m))
    pvs = [row[c] for row, c in zip(a, pivots)] + [1] * (m.rows - len(pivots))
    return _matrix(m.rows, m.cols, tuple(Fraction(x, pv) for row, pv in zip(a, pvs)
                                         for x in row)), pivots


def _kernel(rows: list, cols: int) -> list[RatMatrix]:
    """Exact null space basis of the matrix given as _eliminate takes it, as
    columns: free variables set to 1 one at a time in the reduced echelon form."""
    a, pivots = _eliminate(rows)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(int(c == fc)) for c in range(cols)]
        for row, pc in zip(a, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(_matrix(cols, 1, tuple(v)))
    return basis


def _pivots(rows: list) -> list[int]:
    """The pivot columns of the matrix given as _eliminate takes it."""
    return _eliminate(rows)[1]


def _invert(rows: list) -> tuple:
    """The entries of the inverse, row-major, of the square matrix given as
    _eliminate takes it: Gauss-Jordan on [m | I]; raises SingularMatrixError."""
    n = len(rows)
    a, pivots = _eliminate([[*row, *((int(i == j), 1) for j in range(n))]
                            for i, row in enumerate(rows)])
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return tuple(Fraction(a[i][n + j], a[i][i]) for i in range(n) for j in range(n))


def invert(m: RatMatrix) -> RatMatrix:
    """Exact inverse via Gauss-Jordan on [m | I]; raises SingularMatrixError."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    return _matrix(m.rows, m.rows, _invert(_ratios(m)))
