from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from mackey.linalg import (
    SparseMatrix,
    Subspace,
    nullspace,
    rank,
    rref,
    vec,
)

from matrix_ops import (compose, dense_nullspace, dense_rref, diagonal, dump_matrix,
                        format_rational, intersection, reduce, vandermonde_powers)

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
    meet = intersection(a, b)
    assert meet.dim == 1
    assert meet.contains(vec([0, 5, 0]))
    zero = Subspace(3)
    assert intersection(a, zero).dim == 0


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
    # the diagonal is read by the tests' own helper, as no code in mackey does
    d = SparseMatrix.diagonal([1, -2, 0])
    assert d.to_dense_rows() == [vec([1, 0, 0]), vec([0, -2, 0]), vec([0, 0, 0])]
    # int entries are kept as given
    assert d.cols == {0: {0: 1}, 1: {1: -2}}
    assert all(type(col[j]) is int for j, col in d.cols.items())
    assert diagonal(d) == vec([1, -2, 0])
    nd = SparseMatrix.from_entries(2, [(0, 1, F(1))])
    assert diagonal(nd) is None


def test_powers_of_a_diagonal_on_the_sum_of_its_eigenvectors_have_full_rank():
    # distinct eigenvalues make the rows a nonsingular Vandermonde matrix, so
    # the weight components of a vector lie in the span of its orbit under h
    for count in range(1, 7):
        assert rank(vandermonde_powers(count)) == count


def test_dump_format_is_p_over_q():
    assert format_rational(F(3)) == "3/1"
    assert format_rational(F(-2, 5)) == "-2/5"
    text = dump_matrix([vec([1, F(1, 2)]), vec([0, -3])])
    assert text == "1/1 1/2\n0/1 -3/1"
    assert dump_matrix([[1, F(1, 2)]]) == "1/1 1/2"


# --- the integer kernel against the dense Fraction reference -------------------

BIG = 10**30

entries = st.one_of(
    st.just(F(0)),
    st.integers(-3, 3).map(F),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.integers(-BIG, BIG).map(F),
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


@st.composite
def matrices(draw):
    """(ncols, rows): rational rows with zero, repeated and scaled rows mixed in."""
    ncols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=5))
    extra = [[F(0)] * ncols]
    if rows:
        extra.append([F(-7, 3) * x for x in draw(st.sampled_from(rows))])
    rows += draw(st.lists(st.sampled_from(rows + extra), max_size=3))
    return ncols, draw(st.permutations(rows))


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


def sparse(row):
    return {k: x for k, x in enumerate(row) if x}


@settings(deadline=None)
@given(matrices())
def test_rref_rank_and_nullspace_match_the_dense_reference(matrix):
    ncols, rows = matrix
    echelon, pivots = rref(rows)
    assert (echelon, pivots) == dense_rref(rows) and all_fractions(echelon)
    assert rank(rows) == len(pivots)
    kernel = nullspace(rows, ncols)
    assert kernel == dense_nullspace(rows, ncols) and all_fractions(kernel)
    assert nullspace([sparse(row) for row in rows], ncols) == kernel


def test_empty_input():
    assert rref([]) == ([], []) and rank([]) == 0
    assert nullspace([], 2) == [vec([1, 0]), vec([0, 1])] and nullspace([], 0) == []
    assert Subspace(0).dim == 0 and Subspace(3).basis == []


@settings(deadline=None)
@given(matrices(), st.data())
def test_subspace_matches_the_dense_reference(matrix, data):
    ncols, rows = matrix
    space = Subspace(ncols, rows)
    assert (space.basis, space.pivots) == dense_rref(rows) and all_fractions(space.basis)
    # the echelon rows are primitive integer rows with a positive leading pivot
    for pivot, row in space.echelon.items():
        assert all(type(x) is int and x for x in row.values())
        assert min(row) == pivot and row[pivot] > 0 and gcd(*row.values()) == 1
    # so the held form is unique: any spanning set gives the same rows
    assert Subspace(ncols, rows[::-1]) == space == Subspace(ncols, space.basis)
    assert Subspace(ncols, [sparse(row) for row in rows]).echelon == space.echelon

    v = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    if rows and data.draw(st.booleans()):  # a member, as a combination of the rows
        v = [F(0)] * ncols
        for row in rows:
            c = data.draw(st.integers(-2, 2))
            v = [x + c * y for x, y in zip(v, row)]
    member = not any(reduce(space, v))
    assert space.contains(v) == space.contains(sparse(v)) == member
    if member:
        coords = space.coordinates(v)
        assert space.coordinates(sparse(v)) == coords
        rebuilt = [F(0)] * ncols
        for c, b in zip(coords, space.basis):
            for i, x in enumerate(b):
                rebuilt[i] += c * x
        assert rebuilt == v
    else:
        with pytest.raises(ValueError):
            space.coordinates(v)
        with pytest.raises(ValueError):
            space.coordinates(sparse(v))
    other = Subspace(ncols, data.draw(st.lists(st.sampled_from(rows + [v]), max_size=4)))
    assert space.contains_subspace(other) == all(
        not any(reduce(space, b)) for b in other.basis)
