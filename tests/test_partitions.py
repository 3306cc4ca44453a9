import subprocess
import sys
import time
from collections import Counter
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

from mackey.partitions import (
    EMPTY,
    Partition,
    dim_mixed,
    dim_schur,
    format_partition,
    parse_partition,
    partitions_of,
    partitions_up_to,
    syt_count,
)

from oracles import ssyt_count, syt_enumerate


@st.composite
def partition_strategy(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return Partition()
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1),
                         min_size=n, max_size=n))
    return Partition(sorted(Counter(bins).values(), reverse=True))


def cells(lam):
    """(row, col) coordinates of the diagram, 0-indexed."""
    return [(i, j) for i, row in enumerate(lam) for j in range(row)]


def hook_length(lam, i, j):
    """The hook of one cell, its leg counted over the rows below it: the
    per-cell reference for the first-column hook products of syt_count and
    dim_schur."""
    arm = lam[i] - j - 1
    leg = sum(1 for r in lam.parts[i + 1:] if r > j)
    return arm + leg + 1


def test_normalization_strips_zeros():
    assert Partition([3, 1, 0, 0]) == Partition([3, 1])
    assert Partition([0, 0]) == EMPTY
    assert Partition([3, 1]).parts == (3, 1)
    assert Partition((2, 2, 0)).parts == (2, 2) and len(Partition((1, 0))) == 1
    assert type(Partition([0])) is Partition and Partition([0]) == ()


def test_a_generator_is_read_once():
    reads = []

    def parts():
        for p in (3, 2, 2, 0):
            reads.append(p)
            yield p

    assert Partition(parts()) == (3, 2, 2) and reads == [3, 2, 2, 0]


def test_an_int_subclass_is_a_part():
    class Part(int):
        pass

    lam = Partition([Part(3), 2, Part(2), Part(0)])
    assert lam == (3, 2, 2) and type(lam) is Partition
    assert Partition(Part(k) for k in (2, 1)) == (2, 1)
    with pytest.raises(ValueError, match=r"weakly decreasing: \(1, 2\)$"):
        Partition([Part(1), Part(2)])


def test_rejects_bad_parts():
    with pytest.raises(ValueError, match=r"weakly decreasing: \(1, 2\)$"):
        Partition([1, 2])
    with pytest.raises(ValueError, match=r"weakly decreasing: \(1, 2\)$"):
        Partition((1, 2))
    # a generator is read once, and the message names the parts it gave
    with pytest.raises(ValueError, match=r"weakly decreasing: \(1, 2\)$"):
        Partition(x for x in [1, 2])
    # the message names the parts as given, zeros included
    with pytest.raises(ValueError, match=r"weakly decreasing: \(1, 0, 2\)$"):
        Partition([1, 0, 2])
    with pytest.raises(ValueError, match=r"^partition parts must be nonnegative, got -1$"):
        Partition([2, -1])
    with pytest.raises(TypeError, match=r"^partition parts must be integers, got 1\.5$"):
        Partition([1.5])
    with pytest.raises(TypeError, match=r"^partition parts must be integers, got 2\.0$"):
        Partition([3, 2.0])
    # bool is a subclass of int, but True is not a part
    with pytest.raises(TypeError, match=r"^partition parts must be integers, got True$"):
        Partition([True])
    with pytest.raises(TypeError, match=r"^partition parts must be integers, got False$"):
        Partition([2, False])


def test_immutable_and_hashable():
    p = Partition([2, 1])
    with pytest.raises(AttributeError):
        p.parts = (3,)
    assert len({Partition([2, 1]), Partition([2, 1]), Partition([3])}) == 2


def test_conjugate_examples():
    assert EMPTY.conjugate() == EMPTY
    assert Partition([2, 1]).conjugate() == Partition([2, 1])
    assert Partition([3, 1]).conjugate() == Partition([2, 1, 1])


def test_conjugate_involution_grid():
    for lam in partitions_up_to(10):
        assert lam.conjugate().conjugate() == lam


@given(partition_strategy())
def test_conjugate_involution_random(lam):
    assert lam.conjugate().conjugate() == lam
    assert lam.conjugate().size == lam.size


def test_contains_examples():
    assert Partition([3, 1]).contains(EMPTY)
    assert Partition([3, 1]).contains(Partition([2, 1]))
    assert not Partition([3, 1]).contains(Partition([1, 1, 1]))


def test_contains_is_inclusion_of_cell_sets():
    shapes = list(partitions_up_to(7))
    for lam in shapes:
        lam_cells = set(cells(lam))
        for mu in shapes:  # mu may have more rows, or longer ones, than lam
            assert lam.contains(mu) == (set(cells(mu)) <= lam_cells), (lam, mu)


@given(partition_strategy(max_n=8), partition_strategy(max_n=8))
def test_contains_conjugate_compatible(lam, mu):
    assert lam.contains(mu) == lam.conjugate().contains(mu.conjugate())


def test_syt_count_examples():
    assert syt_count(EMPTY) == 1
    assert syt_count(Partition([2, 1])) == 2
    assert syt_count(Partition([2, 2])) == 2


def test_syt_count_matches_enumeration():
    for lam in partitions_up_to(7):
        assert syt_count(lam) == syt_enumerate(lam.parts), lam


def test_syt_squares_sum_to_factorial():
    for k in range(8):
        assert sum(syt_count(lam) ** 2 for lam in partitions_of(k)) == factorial(k)


def test_dim_schur_examples():
    assert dim_schur(EMPTY, 5) == 1
    assert dim_schur(Partition([1, 1]), 3) == 3
    assert dim_schur(Partition([2, 1]), 3) == 8


def test_dim_schur_matches_ssyt_enumeration():
    for lam in partitions_up_to(5):
        for n in range(5):
            assert dim_schur(lam, n) == ssyt_count(lam.parts, n), (lam, n)


def test_hook_formulas_match_the_per_cell_hooks():
    # syt_count up to degree 20, the largest of the length workload;
    # dim_schur up to degree 12 at ranks 0..14
    for lam in partitions_up_to(20):
        hooks = prod(hook_length(lam, i, j) for i, j in cells(lam))
        assert syt_count(lam) == factorial(lam.size) // hooks, lam
        if lam.size > 12:
            continue
        for n in range(15):
            expected = 0 if len(lam) > n else prod(n + j - i for i, j in cells(lam)) // hooks
            assert dim_schur(lam, n) == expected, (lam, n)


def test_dim_schur_vanishing():
    assert dim_schur(Partition([1, 1, 1]), 2) == 0
    assert dim_schur(Partition([1, 1]), 2) == 1


def test_an_inexact_division_raises_under_python_O():
    # the check is no assert, which -O strips: a wrong hook product of 7
    # must not let dim_schur((2, 1), 3) return 24 // 7
    script = ("import mackey.partitions as p\n"
              "p._hook_product = lambda lam: 7\n"
              "try:\n"
              "    p.dim_schur(p.Partition([2, 1]), 3)\n"
              "except ArithmeticError:\n"
              "    raise SystemExit(0)\n"
              "raise SystemExit(1)\n")
    result = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True)
    assert result.returncode == 0, result.stderr


def test_dim_mixed_examples():
    assert dim_mixed(EMPTY, EMPTY, 4) == 1
    assert dim_mixed(Partition([1]), Partition([1]), 3) == 8  # adjoint of sl(3)
    assert dim_mixed(Partition([2]), Partition([1]), 4) == 36


def test_dim_mixed_vector_modules():
    for n in range(1, 7):
        assert dim_mixed(Partition([1]), EMPTY, n) == n
        assert dim_mixed(EMPTY, Partition([1]), n) == n


def test_dim_mixed_covariant_is_schur_dimension():
    for n in range(1, 6):
        for lam in partitions_up_to(4):
            if len(lam) > n:
                continue
            assert dim_mixed(lam, EMPTY, n) == dim_schur(lam, n)


def test_dim_mixed_swap_symmetry():
    for n in range(1, 7):
        for total in range(6):
            for k in range(total + 1):
                for beta in partitions_of(k):
                    for gamma in partitions_of(total - k):
                        if len(beta) + len(gamma) > n:
                            continue
                        assert dim_mixed(beta, gamma, n) == dim_mixed(gamma, beta, n)


def weyl_product(beta, gamma, n):
    """Plain Weyl dimension formula over every pair of rows."""
    zeros = n - len(beta) - len(gamma)
    hw = list(beta.parts) + [0] * zeros + [-g for g in reversed(gamma.parts)]
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= hw[i] - hw[j] + j - i
            den *= j - i
    return num // den


def test_dim_mixed_matches_the_plain_weyl_product():
    cases = 0
    for beta in partitions_up_to(6):
        for gamma in partitions_up_to(6 - beta.size):
            for n in range(max(1, len(beta) + len(gamma)), 9):
                assert dim_mixed(beta, gamma, n) == weyl_product(beta, gamma, n), (beta, gamma, n)
                cases += 1
    assert cases == 810


def test_dim_mixed_time_does_not_grow_with_the_rank():
    start = time.monotonic()
    assert dim_mixed(Partition([1]), EMPTY, 10**9) == 10**9
    assert dim_mixed(EMPTY, Partition([1, 1]), 10**9) == 10**9 * (10**9 - 1) // 2
    assert dim_mixed(Partition([1]), Partition([1]), 10**9) == 10**18 - 1  # adjoint of sl(10^9)
    assert time.monotonic() - start < 1


def test_rank_too_small_is_an_error():
    with pytest.raises(ValueError, match="^rank 3 too small for bipartition with 2\\+2 rows$"):
        dim_mixed(Partition([1, 1]), Partition([1, 1]), 3)
    with pytest.raises(ValueError, match="^rank must be positive$"):
        dim_mixed(EMPTY, EMPTY, 0)


def test_partitions_of_counts():
    # partition numbers p(0)..p(20), the largest degree of the length workload;
    # each element is a Partition equal to its validated copy, and the
    # elements come in strictly decreasing lex order
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42,
                56, 77, 101, 135, 176, 231, 297, 385, 490, 627]
    for n, count in enumerate(expected):
        parts = partitions_of(n)
        assert len(parts) == count
        for lam in parts:
            assert type(lam) is Partition, lam
            assert lam == Partition(list(lam)), lam
        assert all(a > b for a, b in zip(map(tuple, parts), map(tuple, parts[1:]))), n


def test_text_form_round_trip():
    assert parse_partition("3,1") == Partition([3, 1])
    assert parse_partition("-") == EMPTY
    assert format_partition(Partition([3, 1])) == "3,1"
    assert format_partition(EMPTY) == "-"
    for lam in partitions_up_to(6):
        assert parse_partition(format_partition(lam)) == lam


def test_parse_rejects_garbage():
    # the second row: underscores, signs, leading zeros, non-ASCII digits
    # and inner spaces, most of which int() accepts
    for bad in ["", "1,2", "a", "2,,1", "0",
                "5_4", "+6", "09", "\u0663", "3,01", "1 1", "-1"]:
        with pytest.raises(ValueError):
            parse_partition(bad)


# near misses of the text form: digits (ASCII and not), signs, separators
PARTITION_ALPHABET = "0123456789,-+_ \t\n\u0663\u00b2\uff11\u3000\xa0"


@given(st.one_of(st.text(PARTITION_ALPHABET, max_size=12), st.text(max_size=12)))
def test_parse_is_strict(text):
    """Every text is rejected or reads back as itself, up to whitespace."""
    try:
        lam = parse_partition(text)
    except ValueError:
        return
    assert format_partition(lam) == "".join(text.split())


def test_a_partition_is_the_tuple_of_its_parts():
    for p in partitions_up_to(6):
        assert isinstance(p, tuple) and type(p.parts) is tuple
        assert p == p.parts and hash(p) == hash(p.parts)
    with pytest.raises(AttributeError):  # no per-instance __dict__
        Partition([2, 1]).extra = 1


def test_a_partition_indexes_and_slices_as_its_tuple():
    for p in partitions_up_to(6):
        if p:
            assert p[-1] == p.parts[-1] == min(p)
        assert p[1:] == p.parts[1:]
        with pytest.raises(IndexError):
            p[len(p)]


def test_a_partition_compares_as_its_tuple():
    shapes = list(partitions_up_to(6))
    assert sorted(shapes) == sorted(tuple(p) for p in shapes)
    # lexicographic, against a plain tuple too, with no degree first
    assert Partition([2, 1]) < (3,)
    assert not Partition([2]) < (1, 1, 1)
