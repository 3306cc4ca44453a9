"""Counting formulas the benchmark checks the program's outputs against.

Nothing here imports ``mackey``: partitions are plain tuples generated
here, and every count comes from a classical closed form (hook length,
hook content, the Weyl dimension formula, the involution recurrence),
so a wrong answer in the program cannot also be a wrong expectation here.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial, prod


@cache
def partitions(n: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Partitions of n as tuples, parts at most ``largest``, in decreasing
    lexicographic order."""
    if n == 0:
        return ((),)
    top = n if largest is None else min(n, largest)
    return tuple((first,) + rest
                 for first in range(top, 0, -1)
                 for rest in partitions(n - first, first))


@cache
def shape_table(n: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """Each partition of n with its position in ``partitions(n)`` and its f."""
    return {shape: (i, f(shape)) for i, shape in enumerate(partitions(n))}


def contains(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    return len(inner) <= len(outer) and all(b <= a for a, b in zip(outer, inner))


def _hooks(shape: tuple[int, ...]) -> list[int]:
    columns = [sum(1 for row in shape if row > j) for j in range(shape[0])] if shape else []
    return [(row - j - 1) + (columns[j] - i - 1) + 1
            for i, row in enumerate(shape) for j in range(row)]


@cache
def f(shape: tuple[int, ...]) -> int:
    """Standard Young tableaux of the shape: n! over the hook product."""
    return factorial(sum(shape)) // prod(_hooks(shape))


@cache
def dim_gl(shape: tuple[int, ...], rank: int) -> int:
    """dim S_shape(C^rank) by the hook content formula."""
    if len(shape) > rank:
        return 0
    contents = prod(rank + j - i for i, row in enumerate(shape) for j in range(row))
    return contents // prod(_hooks(shape))


@cache
def dim_mixed(beta: tuple[int, ...], gamma: tuple[int, ...], rank: int) -> int:
    """dim V_{beta,gamma}(C^rank), the traceless simple of gl(rank), by the
    Weyl dimension formula; 0 when it does not exist at this rank."""
    if len(beta) + len(gamma) > rank:
        return 0
    weight = (list(beta) + [0] * (rank - len(beta) - len(gamma))
              + [-g for g in reversed(gamma)])
    shifted = [w + rank - i for i, w in enumerate(weight)]
    num = prod(shifted[i] - shifted[j] for i in range(rank) for j in range(i + 1, rank))
    den = prod(j - i for i in range(rank) for j in range(i + 1, rank))
    return num // den


@cache
def involutions(k: int) -> int:
    """I(k) = I(k-1) + (k-1) I(k-2): the sum of f over partitions of k."""
    if k < 2:
        return 1
    return involutions(k - 1) + (k - 1) * involutions(k - 2)


def pairings(p: int, q: int, r: int) -> int:
    """Ways to contract r starred slots of p against r plain slots of q."""
    return comb(p, r) * comb(q, r) * factorial(r)


def mixed_length(p: int, q: int) -> int:
    """Composition length of V_*^(x)p (x) V^(x)q."""
    return sum(pairings(p, q, r) * involutions(p - r) * involutions(q - r)
               for r in range(min(p, q) + 1))


def tensor_length(m: int, n: int) -> int:
    """Composition length of (V*)^(x)m (x) V^(x)n: choose the m1 starred
    slots that leave V_*, split them into Schur pieces (I(m1) of them), and
    filter the rest as a mixed tensor power."""
    return sum(comb(m, m1) * involutions(m1) * mixed_length(m - m1, n)
               for m1 in range(m + 1))


def traceless_dim(rank: int, m: int, n: int) -> int:
    """dim of the traceless part of (C^rank*)^(x)m (x) (C^rank)^(x)n:
    sum of f_beta f_gamma dim V_{beta,gamma} over beta of m, gamma of n."""
    return sum(f(beta) * f(gamma) * dim_mixed(beta, gamma, rank)
               for beta in partitions(m) for gamma in partitions(n))


def grade_layer_dims(rank: int, b: int, m: int) -> list[int]:
    """Socle layer dimensions of (C^rank*)^(x)m over the parabolic at
    (rank, b): the words with k starred slots outside the b-block.
    Valid in the stable range m <= min(b, rank - b)."""
    return [comb(m, k) * (rank - b) ** k * b ** (m - k) for k in range(m + 1)]
