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
    per-cell reference for the conjugate read by syt_count and dim_schur."""
    arm = lam[i] - j - 1
    leg = sum(1 for r in lam.parts[i + 1:] if r > j)
    return arm + leg + 1


def test_normalization_strips_zeros():
    assert Partition([3, 1, 0, 0]) == Partition([3, 1])
    assert Partition([0, 0]) == EMPTY
    assert Partition([3, 1]).parts == (3, 1)


def test_rejects_bad_parts():
    with pytest.raises(ValueError, match=r"weakly decreasing: \(1, 2\)$"):
        Partition([1, 2])
    # a generator is read once, and the message names the parts it gave
    with pytest.raises(ValueError, match=r"weakly decreasing: \(1, 2\)$"):
        Partition(x for x in [1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])
    with pytest.raises(TypeError):
        Partition([1.5])
    # bool is a subclass of int, but True is not a part
    with pytest.raises(TypeError):
        Partition([True])
    with pytest.raises(TypeError):
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
    for lam in partitions_up_to(12):
        hooks = prod(hook_length(lam, i, j) for i, j in cells(lam))
        assert syt_count(lam) == factorial(lam.size) // hooks, lam
        for n in range(15):
            expected = 0 if len(lam) > n else prod(n + j - i for i, j in cells(lam)) // hooks
            assert dim_schur(lam, n) == expected, (lam, n)


def test_dim_schur_vanishing():
    assert dim_schur(Partition([1, 1, 1]), 2) == 0
    assert dim_schur(Partition([1, 1]), 2) == 1


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
    # partition numbers p(0)..p(10)
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, count in enumerate(expected):
        assert len(partitions_of(n)) == count


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


def test_sort_key_orders_by_degree_then_lex():
    ordered = sorted([Partition([2]), Partition([1]), Partition([1, 1])])
    assert ordered == [Partition([1]), Partition([1, 1]), Partition([2])]


def test_comparisons_agree_with_sort_key():
    shapes = list(partitions_up_to(6))
    for lam in shapes:
        for mu in shapes:
            a, b = lam.sort_key(), mu.sort_key()
            assert (lam < mu, lam <= mu, lam > mu, lam >= mu) == (a < b, a <= b, a > b, a >= b), \
                (lam, mu)


def test_a_partition_is_the_tuple_of_its_parts():
    for p in partitions_up_to(6):
        assert isinstance(p, tuple) and type(p.parts) is tuple
        assert p == p.parts and hash(p) == hash(p.parts)
        assert p[len(p)] == 0
    with pytest.raises(AttributeError):  # no per-instance __dict__
        Partition([2, 1]).extra = 1
    with pytest.raises(TypeError):
        Partition([2, 1])[1:]
