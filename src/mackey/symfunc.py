"""The ring of symmetric functions in the Schur basis.

LR coefficients, products and coproducts are all read off one cached skew
table: the LR tableaux of a skew shape (row-weak, column-strict fillings
whose reverse reading word is a lattice word), tallied by content and
enumerated once per skew diagram, however many pairs (outer, inner) draw
it. So a single set of oracle tests covers the structure constants
everywhere they appear.

Evaluation of Schur polynomials at exact rational points (Jacobi-Trudi
determinant in complete homogeneous polynomials) is provided for
cross-checking identities numerically without any combinatorics in common
with the tableau enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import zip_longest
from typing import Iterable, Iterator, Sequence

from .partitions import Partition, partitions_of


class SchurExpr:
    """Finitely supported integer combination of Schur basis keys: partitions
    (an element of Sym) or ordered pairs of them (an element of Sym (x) Sym).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | Iterable[tuple] = ()):
        items = terms.items() if isinstance(terms, dict) else dict(terms).items()
        self.terms = {key: c for key, c in items if c}

    def coefficient(self, key: Partition | tuple[Partition, Partition]) -> int:
        return self.terms.get(key, 0)

    def __iter__(self) -> Iterator[tuple]:
        """Terms in deterministic order: by degree, then lex on parts, of
        the partition, or of the left then the right one of a pair."""
        return iter(sorted(self.terms.items(), key=_term_order))

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, SchurExpr) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"SchurExpr({self.terms!r})"


def _term_order(term: tuple) -> tuple:
    """Degree first, then lexicographic on the parts, of the key or of each
    side of a pair, in plain tuples."""
    key = term[0]
    if isinstance(key, Partition):
        return (sum(key), tuple(key))
    left, right = key
    return (sum(left), tuple(left), sum(right), tuple(right))


# One Partition per content, validated once and shared by every skew table.
_shared = cache(Partition)


# functools.cache is safe for concurrent readers/writers under CPython's lock;
# a missed hit only recomputes a pure value. Callers only read the shared dict.
@cache
def _skew_table(outer: Partition, inner: Partition) -> dict[Partition, int]:
    """{nu: c^outer_{inner nu}}, the Schur expansion of s_{outer/inner}, empty
    when inner is not in outer: the _diagram_table of outer/inner with its
    empty rows dropped and each row shifted left past the empty columns
    below it. Neither move changes an LR tableau or the order they are found
    in, so each diagram is enumerated once, and all its (outer, inner) share
    one read-only dict. Cached on (outer, inner) too, so that the second
    read of a coefficient through lr_coefficient skips the pass below.
    """
    outs, skips = [], []
    gap = reach = 0  # the empty columns so far, and the columns the rows below reach
    for row, skip in reversed(list(zip_longest(outer, inner, fillvalue=0))):
        if skip > row:
            return {}
        if row > skip:
            if skip > reach:
                gap += skip - reach
            outs.append(row - gap)
            skips.append(skip - gap)
            reach = row
    return _diagram_table(tuple(outs[::-1]), tuple(skips[::-1]))


@cache
def _diagram_table(outer: tuple[int, ...], inner: tuple[int, ...]) -> dict[Partition, int]:
    """The skew table of a diagram with no empty row or column, given by its
    row ends and row starts: the LR tableaux of outer/inner, enumerated once
    per diagram in reverse reading order (rows weak, columns strict, each
    entry keeping the word read so far a lattice word, so at most one above
    the largest letter used: no content bound is needed) and tallied by
    content, each content listed where its first tableau was found. The
    cached dict is shared by every _skew_table of the diagram, read-only.

    The cells are numbered by arithmetic, with no table of cells: row i takes
    the next outer_i - inner_i positions from start_i, right to left, so
    column j of row i sits at end_i - j, end_i = start_i + outer_i - 1. The
    cell right of a position is the one before it, except in a row's last
    column; the cell above (i, j) is at end_{i-1} - j when i > 0 and
    j >= inner_{i-1}.
    """
    top, n = len(outer), sum(outer) - sum(inner)
    # each cell's filled neighbours by position; a missing one points past
    # the cells, at the bound top on the right or at 0 above
    right, above = list(range(-1, n - 1)), [n + 1] * n
    # end_{i-1} and inner_{i-1}; with no empty column the diagram is at most
    # n wide, so no column has a cell above row 0
    start, up_end, up_skip = 0, 0, n
    for row, skip in zip(outer, inner):
        right[start] = n
        mid = skip if skip > up_skip else up_skip  # the columns from mid on have a cell above
        if row > mid:
            above[start:start + row - mid] = range(up_end - row + 1, up_end - mid + 1)
        up_end, up_skip = start + row - 1, skip
        start += row - skip
    fill = [0] * n + [top, 0]  # the entry last tried at each cell, then the two bounds
    counts = [n + 1] + [0] * (top + 1)  # letter counts between two sentinels
    tally: dict[tuple[int, ...], int] = {}
    pos = 0
    while pos >= 0:
        if pos == n:  # a whole tableau
            content = tuple(counts[1:counts.index(0, 1)])
            tally[content] = tally.get(content, 0) + 1
        else:
            e, hi = fill[pos] + 1, fill[right[pos]]
            while e <= hi and counts[e] >= counts[e - 1]:
                e += 1
            if e <= hi:  # place e, and start the next cell below its bound
                fill[pos] = e
                counts[e] += 1
                pos += 1
                if pos < n:
                    fill[pos] = fill[above[pos]]
                continue
        pos -= 1  # back to the previous cell, taking its entry out
        counts[fill[pos]] -= 1  # at pos -1, fill[-1] is 0: only the sentinel moves
    return {_shared(content): c for content, c in tally.items()}


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The Littlewood-Richardson coefficient c^lam_{mu nu}, read off the skew
    table of lam/mu: zero when the sizes do not add up or mu is not in lam.
    """
    return _skew_table(lam, mu).get(nu, 0)


def schur_product(mu: Partition, nu: Partition) -> SchurExpr:
    """s_mu * s_nu in the Schur basis: the skew Schur function of mu and nu
    placed corner to corner, mu to the upper right of nu."""
    width = nu[0] if nu else 0
    outer = Partition([part + width for part in mu] + list(nu))
    inner = Partition([width] * len(mu))
    # each listed entry is read through lr_coefficient, as in coproduct:
    # it is the LR layer that perfbench's traced runs count
    return SchurExpr({lam: lr_coefficient(outer, inner, lam)
                      for lam in _skew_table(outer, inner)})


@cache
def coproduct(lam: Partition) -> SchurExpr:
    """Delta(s_lam) = sum over mu contained in lam of s_mu (x) s_{lam/mu},
    with the skew expansion read off the nonzero entries of the skew tables
    lam/mu with |mu| >= |nu|, and mirrored onto the rest by
    c^lam_{mu nu} = c^lam_{nu mu}.
    """
    out = {}
    for k in range((lam.size + 1) // 2, lam.size + 1):
        for mu in partitions_of(k):
            if lam.contains(mu):
                for nu in _skew_table(lam, mu):
                    out[(mu, nu)] = out[(nu, mu)] = lr_coefficient(lam, mu, nu)
    return SchurExpr(out)


def _complete_homogeneous(point: Sequence[Fraction], max_degree: int) -> list[Fraction]:
    """h_0, ..., h_max_degree evaluated at the point, by adding one variable
    at a time: h_k(x_1..x_m) = h_k(x_1..x_{m-1}) + x_m h_{k-1}(x_1..x_m).
    """
    h = [Fraction(1)] + [Fraction(0)] * max_degree
    for x in point:
        for k in range(1, max_degree + 1):
            h[k] += x * h[k - 1]
    return h


def _det(matrix: list[list[Fraction]]) -> Fraction:
    """Fraction-exact determinant by Gaussian elimination."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                for cc in range(c, n):
                    m[r][cc] -= f * m[c][cc]
    return det


def eval_schur(lam: Partition, point: Sequence) -> Fraction:
    """Schur polynomial s_lam at an exact rational point, via the
    Jacobi-Trudi determinant det(h_{lam_i - i + j}).

    Vanishes identically (as it must) when lam has more rows than there are
    variables.
    """
    xs = [Fraction(x) for x in point]
    ell = len(lam)
    if ell == 0:
        return Fraction(1)
    h = _complete_homogeneous(xs, lam[0] + ell)
    # row i holds h_{lam_i - i + j} for j = 0..ell-1, zero below degree 0
    return _det([[h[d] if d >= 0 else Fraction(0) for d in range(part - i, part - i + ell)]
                 for i, part in enumerate(lam)])
