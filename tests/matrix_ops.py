"""Linear algebra that only the tests need: products, sums and scalar
multiples of mackey.linalg.SparseMatrix, for checking brackets and
conjugating modules, the diagonal of a matrix, for checking weights, and
the intersection of two subspaces.
"""

from fractions import Fraction

from mackey.linalg import SparseMatrix, Subspace, add_scaled, nullspace, zero_vec


def compose(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """a @ b."""
    cols = {}
    for j, col in b.cols.items():
        acc = {}
        for k, v in col.items():
            for i, x in a.cols.get(k, {}).items():
                acc[i] = acc.get(i, 0) + x * v
        cols[j] = acc
    return SparseMatrix(a.dim, cols)


def add(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    cols = {j: dict(col) for j, col in a.cols.items()}
    for j, col in b.cols.items():
        acc = cols.setdefault(j, {})
        for i, v in col.items():
            acc[i] = acc.get(i, 0) + v
    return SparseMatrix(a.dim, cols)


def scaled(a: SparseMatrix, c) -> SparseMatrix:
    c = Fraction(c)
    return SparseMatrix(a.dim, {j: {i: c * v for i, v in col.items()}
                                for j, col in a.cols.items()})


def diagonal(a: SparseMatrix) -> list[Fraction] | None:
    """The diagonal entries of a, or None when a has an entry off the diagonal."""
    if any(set(col) != {j} for j, col in a.cols.items()):
        return None
    return [a.cols.get(j, {}).get(j, Fraction(0)) for j in range(a.dim)]


def intersection(a: Subspace, b: Subspace) -> Subspace:
    """a meet b, by the standard kernel construction on stacked coefficient
    vectors."""
    if not a.basis or not b.basis:
        return Subspace(a.ambient)
    # coefficients (y, z) with y.A = z.B, i.e. [A^T | -B^T] (y,z)^T = 0
    rows = [[ai[j] for ai in a.basis] + [-bi[j] for bi in b.basis]
            for j in range(a.ambient)]
    vecs = []
    for combo in nullspace(rows, a.dim + b.dim):
        w = zero_vec(a.ambient)
        for c, ai in zip(combo[:a.dim], a.basis):
            add_scaled(w, ai, c)
        vecs.append(w)
    return Subspace(a.ambient, vecs)
