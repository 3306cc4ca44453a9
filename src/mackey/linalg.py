"""Exact linear algebra over the rationals.

Rows are eliminated as primitive integer rows: sparse rows {column: int}
with the denominators cleared, the content divided out and the pivot
positive, combined as a*r - c*e in integers (fraction-free elimination,
after Bareiss). An echelon of such rows is kept fully reduced and keyed by
pivot. The reduced echelon form of a span is unique, so its primitive rows
are too, and dividing each by its pivot gives the reduced row-echelon basis
of Fractions. Rows may come lazily, from any iterable: the elimination
stops reading them once it holds as many pivots as there are columns, since
a full-rank reduced echelon is the identity and no further row changes it.
A Subspace holds the integer echelon and densifies its basis only when the
basis is read; rref and nullspace take and return dense Fraction rows.
Action matrices of tensor modules are column-sparse (a matrix unit moves a
basis word to at most one other word per tensor slot), so those get a small
sparse type of their own. Its entries are exact and kept as given: the
integer matrices of word modules hold ints, which reach the kernel without
conversion.

No floating point anywhere: ranks and kernels here feed socle and
essentiality decisions, which are meaningless under rounding.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = list[Fraction]
Row = dict[int, int]  # a sparse integer row {column: nonzero entry}

ZERO = Fraction(0)
ONE = Fraction(1)
_INT = {int}


def zero_vec(n: int) -> Vec:
    return [ZERO] * n


def vec(values: Iterable) -> Vec:
    return [Fraction(v) for v in values]


def unit_vec(n: int, i: int) -> Vec:
    v = zero_vec(n)
    v[i] = ONE
    return v


def integer_rows(rows: Iterable[Sequence | dict]) -> list[Row]:
    """Rational rows, dense or as dicts {column: value}, as sparse integer
    rows, all scaled by one positive integer: the lcm of the denominators."""
    # a dense row's zeros are mostly the shared ZERO, skipped without a call
    sparse = [{k: x for k, x in (row.items() if type(row) is dict else enumerate(row))
               if x is not ZERO and x} for row in rows]
    if all(type(x) is int for row in sparse for x in row.values()):
        return sparse
    scale = lcm(*[x.denominator for row in sparse for x in row.values()])
    return [{k: x.numerator * (scale // x.denominator) for k, x in row.items()}
            for row in sparse]


def add_multiple(row: Row, c: int, other: Row) -> None:
    """row += c * other, in place, on sparse integer rows."""
    for k, x in other.items():
        y = row.get(k, 0) + c * x
        if y:
            row[k] = y
        else:
            del row[k]


def _primitive(row: Row) -> Row:
    """The nonzero row divided by the gcd of its entries, with the sign
    that makes its leading entry positive."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {k: x // g for k, x in row.items()}


def _eliminate(row: Row, e: Row, p: int) -> None:
    """row <- a*row - c*e in place, with a > 0 and c the least integers that
    clear column p; e[p] must be positive."""
    a, c = e[p], row[p]
    g = gcd(a, c)
    a, c = a // g, c // g
    if a != 1:
        for k in row:
            row[k] *= a
    add_multiple(row, -c, e)


def _reduce(echelon: dict[int, Row], row: Row) -> Row:
    """Reduce the integer row in place to a positive multiple of its residual
    modulo the echelon rows, and return it: no entry at any pivot, and empty
    iff the row lay in their span."""
    for p in [p for p in row if p in echelon]:
        _eliminate(row, echelon[p], p)
    return row


def _insert(echelon: dict[int, Row], row: Row) -> None:
    """Add the integer row, which the echelon takes over and may change, to
    the span of the echelon, keeping every row primitive with a positive
    pivot and fully reduced."""
    _reduce(echelon, row)
    if not row:
        return
    row = _primitive(row)
    lead = min(row)
    for p, e in echelon.items():
        if lead in e:
            _eliminate(e, row, lead)
            echelon[p] = _primitive(e)
    echelon[lead] = row


def _echelon(rows: Iterable[Sequence | dict], ncols: int) -> dict[int, Row]:
    """The primitive reduced echelon rows of the span of rows on ncols
    columns, keyed by pivot. No row is read after the echelon holds ncols
    pivots."""
    echelon: dict[int, Row] = {}
    for row in rows if ncols else ():
        # a fresh sparse row, scaled to integers only when it holds a non-int
        sparse = {k: x for k, x in (row.items() if type(row) is dict else enumerate(row))
                  if x is not ZERO and x}
        if not _INT.issuperset(map(type, sparse.values())):
            sparse = integer_rows([sparse])[0]
        _insert(echelon, sparse)
        if len(echelon) == ncols:
            break
    return echelon


def _dense(row: Row, pivot: int, n: int) -> Vec:
    """The integer row divided by its pivot, as a dense row of Fractions."""
    v = zero_vec(n)
    d = row[pivot]
    for k, x in row.items():
        v[k] = Fraction(x) if d == 1 else Fraction(x, d)
    return v


def rref(rows: Iterable[Sequence[Fraction]]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form. Returns (nonzero rows, pivot columns)."""
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    echelon = _echelon(rows, ncols)
    pivots = sorted(echelon)
    return [_dense(echelon[p], p, ncols) for p in pivots], pivots


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Iterable[Sequence | dict], ncols: int) -> list[Vec]:
    """Basis of {x : R x = 0} where the rows of R are the given functionals,
    dense or as dicts {column: value}: one vector per free column j, with
    1 at j and minus the reduced echelon entries of column j at the pivots."""
    echelon = _echelon(rows, ncols)
    basis = {j: unit_vec(ncols, j) for j in range(ncols) if j not in echelon}
    for p, e in echelon.items():
        d = e[p]
        for j, x in e.items():
            if j != p:
                basis[j][p] = Fraction(-x, d)
    return list(basis.values())


class Subspace:
    """A subspace of Q^n held as the primitive integer rows of its reduced
    echelon form, keyed by pivot. Its reduced row-echelon basis of Fractions
    is made when first read."""

    __slots__ = ("ambient", "pivots", "blocks", "parts", "_echelon", "_basis")

    def __init__(self, ambient: int, vectors: Iterable[Sequence | dict] = ()):
        """The span of the vectors, each dense or a dict {column: value}."""
        self.ambient = ambient
        self._echelon = _echelon(vectors, ambient)
        self.pivots = sorted(self._echelon)
        self._basis = self.blocks = self.parts = None

    @classmethod
    def _of_echelon(cls, ambient: int, echelon: dict[int, Row]) -> "Subspace":
        """The span of rows that already are primitive reduced echelon rows."""
        space = cls.__new__(cls)
        space.ambient, space._echelon, space.pivots = ambient, echelon, sorted(echelon)
        space._basis = space.blocks = space.parts = None
        return space

    @classmethod
    def from_blocks(cls, ambient: int,
                    parts: Iterable[tuple[Sequence[int], "Subspace"]]) -> "Subspace":
        """Direct sum of subspaces of disjoint coordinate blocks, each part
        given with the increasing ambient positions of its coordinates.

        Placed in the ambient space, the echelon rows of the parts already
        are the reduced echelon rows of the sum, so nothing is eliminated
        again; they are placed when first read. The blocks and parts are
        kept, so that two sums over the same blocks are compared part by
        part.
        """
        parts = list(parts)
        space = cls.__new__(cls)
        space.ambient, space._echelon, space._basis = ambient, None, None
        space.blocks = [positions for positions, _ in parts]
        space.parts = [part for _, part in parts]
        space.pivots = sorted(positions[pivot] for positions, part in parts
                              for pivot in part.pivots)
        return space

    @property
    def echelon(self) -> dict[int, Row]:
        """The primitive integer rows of the reduced echelon form, by pivot."""
        if self._echelon is None:
            self._echelon = {positions[p]: {positions[k]: x for k, x in row.items()}
                             for positions, part in zip(self.blocks, self.parts)
                             for p, row in part.echelon.items()}
        return self._echelon

    @property
    def basis(self) -> list[Vec]:
        if self._basis is None:
            echelon = self.echelon
            self._basis = [_dense(echelon[p], p, self.ambient) for p in self.pivots]
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def contains(self, v: Sequence | dict) -> bool:
        """Whether v, dense or a dict {column: value}, is a member."""
        return not _reduce(self.echelon, integer_rows([v])[0])

    def contains_subspace(self, other: "Subspace") -> bool:
        if self.blocks is not None and other.blocks == self.blocks:
            return all(a.contains_subspace(b) for a, b in zip(self.parts, other.parts))
        echelon = self.echelon
        return not any(_reduce(echelon, dict(row)) for row in other.echelon.values())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.echelon == other.echelon)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def full_space(n: int) -> Subspace:
    """Q^n, whose unit vectors already are its reduced echelon rows."""
    return Subspace._of_echelon(n, {i: {i: 1} for i in range(n)})


class SparseMatrix:
    """Square column-sparse matrix of exact entries: cols[j] = {i: M[i][j]},
    each an int or a Fraction as given; any other number (a float, say) is
    stored as the Fraction of its exact value."""

    __slots__ = ("dim", "cols")

    def __init__(self, dim: int, cols: dict[int, dict[int, int | Fraction]] | None = None):
        self.dim = dim
        self.cols: dict[int, dict[int, int | Fraction]] = {}
        if cols:
            for j, col in cols.items():
                clean = {i: v if type(v) in (int, Fraction) else Fraction(v)
                         for i, v in col.items() if v}
                if clean:
                    self.cols[j] = clean

    @classmethod
    def _of_cols(cls, dim: int, cols: dict[int, dict[int, int | Fraction]]) -> "SparseMatrix":
        """The matrix of columns that already hold only nonzero ints or
        Fractions, taken as they are."""
        mat = cls.__new__(cls)
        mat.dim, mat.cols = dim, cols
        return mat

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix) or self.dim != other.dim:
            return False
        return self.cols == other.cols

    def to_dense_rows(self, rows: Sequence[int] | None = None,
                      cols: Sequence[int] | None = None) -> list[Vec]:
        """Dense rows of the matrix, or of its submatrix on the given row
        and column positions (each in the order given)."""
        rows = range(self.dim) if rows is None else rows
        cols = range(self.dim) if cols is None else cols
        at = {i: r for r, i in enumerate(rows)}
        out = [zero_vec(len(cols)) for _ in rows]
        for k, j in enumerate(cols):
            for i, v in self.cols.get(j, {}).items():
                r = at.get(i)
                if r is not None:
                    out[r][k] = v
        return out

