import time

import pytest

from mackey.finrank import MixedWeight, branching_identity_check, dim_mixed
from mackey.partitions import EMPTY, Partition, partitions_of, partitions_up_to

P = Partition


def dm(beta, gamma, n):
    return dim_mixed(MixedWeight(beta, gamma, n))


def test_dim_mixed_examples():
    assert dm(EMPTY, EMPTY, 4) == 1
    assert dm(P([1]), P([1]), 3) == 8  # adjoint of sl(3)
    assert dm(P([2]), P([1]), 4) == 36


def test_dim_mixed_vector_modules():
    for n in range(1, 7):
        assert dm(P([1]), EMPTY, n) == n
        assert dm(EMPTY, P([1]), n) == n


def test_dim_mixed_covariant_is_schur_dimension():
    from mackey.partitions import dim_schur
    for n in range(1, 6):
        for lam in partitions_up_to(4):
            if len(lam) > n:
                continue
            assert dm(lam, EMPTY, n) == dim_schur(lam, n)


def test_dim_mixed_swap_symmetry():
    for n in range(1, 7):
        for total in range(6):
            for k in range(total + 1):
                for beta in partitions_of(k):
                    for gamma in partitions_of(total - k):
                        if len(beta) + len(gamma) > n:
                            continue
                        assert dm(beta, gamma, n) == dm(gamma, beta, n)


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
                assert dm(beta, gamma, n) == weyl_product(beta, gamma, n), (beta, gamma, n)
                cases += 1
    assert cases == 810


def test_dim_mixed_time_does_not_grow_with_the_rank():
    start = time.monotonic()
    assert dm(P([1]), EMPTY, 10**9) == 10**9
    assert dm(EMPTY, P([1, 1]), 10**9) == 10**9 * (10**9 - 1) // 2
    assert dm(P([1]), P([1]), 10**9) == 10**18 - 1  # adjoint of sl(10^9)
    assert time.monotonic() - start < 1


def test_rank_too_small_is_an_error():
    with pytest.raises(ValueError):
        MixedWeight(P([1, 1]), P([1, 1]), 3)
    with pytest.raises(ValueError):
        MixedWeight(EMPTY, EMPTY, 0)


def test_branching_examples():
    assert branching_identity_check(P([1]), 1, 1)
    assert branching_identity_check(P([2]), 2, 1)
    assert branching_identity_check(P([2, 1]), 2, 2)


def test_branching_rejects_empty_alphabet():
    with pytest.raises(ValueError):
        branching_identity_check(P([1]), 0, 2)
