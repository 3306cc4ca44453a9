"""Sparse matrix arithmetic that only the tests need: products, sums and
scalar multiples of mackey.linalg.SparseMatrix, for checking brackets and
conjugating modules.
"""

from fractions import Fraction

from mackey.linalg import SparseMatrix


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
