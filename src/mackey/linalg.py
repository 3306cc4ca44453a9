"""Exact linear algebra over the rationals.

Vectors are dense lists of Fraction; subspaces are stored as reduced
row-echelon bases so membership tests and quotient coordinates are cheap.
Action matrices of tensor modules are column-sparse (a matrix unit moves a
basis word to at most one other word per tensor slot), so those get a small
sparse type of their own.

No floating point anywhere: ranks and kernels here feed socle and
essentiality decisions, which are meaningless under rounding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vec = list[Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def zero_vec(n: int) -> Vec:
    return [ZERO] * n


def vec(values: Iterable) -> Vec:
    return [Fraction(v) for v in values]


def unit_vec(n: int, i: int) -> Vec:
    v = zero_vec(n)
    v[i] = ONE
    return v


def add_scaled(target: Vec, source: Sequence[Fraction], c: Fraction) -> None:
    """target += c * source, in place."""
    if c == 0:
        return
    for i, s in enumerate(source):
        if s:
            target[i] += c * s


def rref(rows: Iterable[Sequence[Fraction]]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form. Returns (nonzero rows, pivot columns)."""
    echelon: list[Vec] = []
    pivots: list[int] = []
    for row in rows:
        r = list(row)
        for e, p in zip(echelon, pivots):
            if r[p]:
                add_scaled(r, e, -r[p])
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is None:
            continue
        pv = r[lead]
        if pv != 1:
            r = [x / pv for x in r]
        for e, p in zip(echelon, pivots):
            if e[lead]:
                add_scaled(e, r, -e[lead])
        # keep pivot columns sorted so bases are canonical
        at = next((k for k, p in enumerate(pivots) if p > lead), len(pivots))
        echelon.insert(at, r)
        pivots.insert(at, lead)
    return echelon, pivots


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    return len(rref(rows)[0])


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Vec]:
    """Basis of {x : R x = 0} where the rows of R are the given functionals."""
    echelon, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        v = zero_vec(ncols)
        v[j] = ONE
        for e, p in zip(echelon, pivots):
            if e[j]:
                v[p] = -e[j]
        basis.append(v)
    return basis


class Subspace:
    """A subspace of Q^n held as a reduced row-echelon basis."""

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient: int, vectors: Iterable[Sequence[Fraction]] = ()):
        self.ambient = ambient
        self.basis, self.pivots = rref(vectors)

    @classmethod
    def from_blocks(cls, ambient: int,
                    parts: Iterable[tuple[Sequence[int], "Subspace"]]) -> "Subspace":
        """Direct sum of subspaces of disjoint coordinate blocks, each part
        given with the increasing ambient positions of its coordinates.

        Placed in the ambient space and sorted by pivot, the echelon rows of
        the parts already are the reduced echelon basis of the sum, so
        nothing is eliminated again and the basis is the one the
        constructor would compute.
        """
        placed = []
        for positions, part in parts:
            for row, pivot in zip(part.basis, part.pivots):
                v = zero_vec(ambient)
                for k, x in enumerate(row):
                    if x:
                        v[positions[k]] = x
                placed.append((positions[pivot], v))
        placed.sort(key=lambda item: item[0])
        space = cls.__new__(cls)
        space.ambient = ambient
        space.pivots = [pivot for pivot, _ in placed]
        space.basis = [v for _, v in placed]
        return space

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: Sequence[Fraction]) -> Vec:
        """Residual of v modulo this subspace (zero iff v is a member)."""
        r = list(v)
        for e, p in zip(self.basis, self.pivots):
            if r[p]:
                add_scaled(r, e, -r[p])
        return r

    def contains(self, v: Sequence[Fraction]) -> bool:
        return not any(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(b) for b in other.basis)

    def coordinates(self, v: Sequence[Fraction]) -> Vec:
        """Coefficients of v in this basis; raises if v is not a member."""
        coords = [v[p] for p in self.pivots]
        r = list(v)
        for e, c in zip(self.basis, coords):
            if c:
                add_scaled(r, e, -c)
        if any(r):
            raise ValueError("vector not in subspace")
        return coords

    def intersection(self, other: "Subspace") -> "Subspace":
        """Standard kernel construction on stacked coefficient vectors."""
        a, b = self.basis, other.basis
        if not a or not b:
            return Subspace(self.ambient)
        # coefficients (y, z) with y.A = z.B, i.e. [A^T | -B^T] (y,z)^T = 0
        rows = []
        for j in range(self.ambient):
            rows.append([ai[j] for ai in a] + [-bi[j] for bi in b])
        combos = nullspace(rows, len(a) + len(b))
        vecs = []
        for combo in combos:
            w = zero_vec(self.ambient)
            for c, ai in zip(combo[: len(a)], a):
                add_scaled(w, ai, c)
            vecs.append(w)
        return Subspace(self.ambient, vecs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.basis == other.basis)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def full_space(n: int) -> Subspace:
    return Subspace(n, [unit_vec(n, i) for i in range(n)])


class SparseMatrix:
    """Square column-sparse matrix of Fractions: cols[j] = {i: M[i][j]}."""

    __slots__ = ("dim", "cols")

    def __init__(self, dim: int, cols: dict[int, dict[int, Fraction]] | None = None):
        self.dim = dim
        self.cols: dict[int, dict[int, Fraction]] = {}
        if cols:
            for j, col in cols.items():
                clean = {i: Fraction(v) for i, v in col.items() if v}
                if clean:
                    self.cols[j] = clean

    @classmethod
    def from_entries(cls, dim: int, entries: Iterable[tuple[int, int, Fraction]]
                     ) -> "SparseMatrix":
        """Build from (row, col, value) triples, summing duplicates."""
        cols: dict[int, dict[int, Fraction]] = {}
        for i, j, v in entries:
            col = cols.setdefault(j, {})
            col[i] = col.get(i, ZERO) + v
        return cls(dim, cols)

    @classmethod
    def diagonal(cls, values: Sequence) -> "SparseMatrix":
        vals = [Fraction(v) for v in values]
        return cls(len(vals), {j: {j: v} for j, v in enumerate(vals) if v})

    def apply(self, v: Sequence[Fraction]) -> Vec:
        out = zero_vec(self.dim)
        for j, col in self.cols.items():
            x = v[j]
            if x:
                for i, m in col.items():
                    out[i] += m * x
        return out

    def entry(self, i: int, j: int) -> Fraction:
        return self.cols.get(j, {}).get(i, ZERO)

    def is_diagonal(self) -> bool:
        return all(set(col) <= {j} for j, col in self.cols.items())

    def diagonal_entries(self) -> Vec:
        return [self.entry(j, j) for j in range(self.dim)]

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


def format_rational(x: Fraction) -> str:
    """Plain-text exchange format: always p/q."""
    return f"{x.numerator}/{x.denominator}"


def dump_matrix(rows: Iterable[Sequence[Fraction]]) -> str:
    """One row per line, entries space-separated as p/q."""
    return "\n".join(" ".join(format_rational(Fraction(x)) for x in row)
                     for row in rows)
