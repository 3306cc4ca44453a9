from fractions import Fraction

import pytest

from mackey.linalg import (
    SparseMatrix,
    Subspace,
    dump_matrix,
    format_rational,
    nullspace,
    rank,
    rref,
    vec,
)

from matrix_ops import compose

F = Fraction


def test_rref_basic():
    rows, pivots = rref([vec([2, 4]), vec([1, 2]), vec([0, 1])])
    assert pivots == [0, 1]
    assert rows == [vec([1, 0]), vec([0, 1])]


def test_rank_and_nullspace():
    rows = [vec([1, 1, 0]), vec([0, 1, 1])]
    assert rank(rows) == 2
    kernel = nullspace(rows, 3)
    assert len(kernel) == 1
    k = kernel[0]
    assert k[0] + k[1] == 0 and k[1] + k[2] == 0


def test_subspace_membership_and_coordinates():
    s = Subspace(3, [vec([1, 1, 0]), vec([0, 0, 2])])
    assert s.dim == 2
    assert s.contains(vec([3, 3, 5]))
    assert not s.contains(vec([1, 0, 0]))
    coords = s.coordinates(vec([2, 2, 1]))
    rebuilt = [F(0)] * 3
    for c, b in zip(coords, s.basis):
        for i, x in enumerate(b):
            rebuilt[i] += c * x
    assert rebuilt == vec([2, 2, 1])
    with pytest.raises(ValueError):
        s.coordinates(vec([1, 0, 0]))


def test_subspace_sum_and_intersection():
    a = Subspace(3, [vec([1, 0, 0]), vec([0, 1, 0])])
    b = Subspace(3, [vec([0, 1, 0]), vec([0, 0, 1])])
    assert Subspace(3, a.basis + b.basis).dim == 3
    meet = a.intersection(b)
    assert meet.dim == 1
    assert meet.contains(vec([0, 5, 0]))
    zero = Subspace(3)
    assert a.intersection(zero).dim == 0


def test_subspace_from_blocks_is_the_echelon_basis_of_the_sum():
    # blocks at positions {0, 2, 4} and {1, 3} of Q^5, interleaved
    left = Subspace(3, [vec([2, 1, 0]), vec([0, 3, 6])])
    right = Subspace(2, [vec([1, -1])])
    summed = Subspace.from_blocks(5, [([0, 2, 4], left), ([1, 3], right)])
    embedded = [vec([2, 0, 1, 0, 0]), vec([0, 0, 3, 0, 6]), vec([0, 1, 0, -1, 0])]
    direct = Subspace(5, embedded)
    assert summed == direct and summed.pivots == direct.pivots == [0, 1, 2]
    assert Subspace.from_blocks(5, []) == Subspace(5)


def test_dense_rows_of_a_submatrix():
    m = SparseMatrix.from_entries(3, [(0, 1, F(2)), (2, 1, F(5)), (1, 2, F(-1))])
    assert m.to_dense_rows() == [vec([0, 2, 0]), vec([0, 0, -1]), vec([0, 5, 0])]
    assert m.to_dense_rows([2, 0], [1, 2]) == [vec([5, 0]), vec([2, 0])]
    assert m.to_dense_rows([1], [0]) == [vec([0])]


def test_sparse_matrix_apply_and_compose():
    m = SparseMatrix.from_entries(2, [(0, 1, F(2)), (1, 0, F(1))])
    assert m.apply(vec([1, 1])) == vec([2, 1])
    # the product the tests conjugate with
    assert compose(m, m) == SparseMatrix.diagonal([2, 2])


def test_sparse_matrix_diagonal():
    d = SparseMatrix.diagonal([1, -2, 0])
    assert d.is_diagonal()
    assert d.diagonal_entries() == vec([1, -2, 0])
    nd = SparseMatrix.from_entries(2, [(0, 1, F(1))])
    assert not nd.is_diagonal()


def test_dump_format_is_p_over_q():
    assert format_rational(F(3)) == "3/1"
    assert format_rational(F(-2, 5)) == "-2/5"
    text = dump_matrix([vec([1, F(1, 2)]), vec([0, -3])])
    assert text == "1/1 1/2\n0/1 -3/1"
