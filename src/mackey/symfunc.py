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
from typing import Iterable, Iterator, Sequence

from .partitions import Partition


class SchurExpr:
    """Finitely supported integer combination of Schur basis keys: partitions
    (an element of Sym) or ordered pairs of them (an element of Sym (x) Sym).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | Iterable[tuple] = ()):
        if isinstance(terms, dict) and 0 not in terms.values():
            self.terms = dict(terms)
        else:
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

    The key pass reads the rows bottom up by index, inner_i taken as 0 below
    the last row of inner.
    """
    cut = len(inner)
    if cut > len(outer):
        return {}
    outs, skips = [], []
    gap = reach = 0  # the empty columns so far, and the columns the rows below reach
    for i in range(len(outer) - 1, -1, -1):
        row, skip = outer[i], inner[i] if i < cut else 0
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

    The top rows that start in row 0's column, each no wider than the one
    above, form a straight shape with one LR filling, the letter i + 1 in
    all of row i: each cell of row i has a cell above it, so reading the row
    right to left, above + 1 is the only letter that keeps the word a
    lattice word, and the row is weak. Those cells are filled at once and
    the search starts at the first cell below them; a diagram that is all
    top has the one content of its rows. The search closes each tableau at
    the last cell, tallying every entry allowed there with no step past it.
    The tally is keyed on the tuple of the letter counts, one C call per
    tableau, and each distinct key is cut to its content once, when the
    table is built.
    """
    top, n = len(outer), sum(outer) - sum(inner)
    # the forced top: its row lengths, and the cells they take
    t = 1 if top else 0
    while t < top and inner[t] == inner[0] and outer[t] <= outer[t - 1]:
        t += 1
    rows = [row - inner[0] for row in outer[:t]]
    first = sum(rows)
    if first == n:
        return {_shared(tuple(rows)): 1}
    # each cell's filled neighbours by position, from row t on; a missing one
    # points past the cells, at the bound top on the right or at 0 above
    right, above = list(range(-1, n - 1)), [n + 1] * n
    # start_i, end_{i-1} and inner_{i-1} at i = t
    start, up_end, up_skip = first, first + inner[0] - 1, inner[0]
    for row, skip in zip(outer[t:], inner[t:]):
        right[start] = n
        mid = skip if skip > up_skip else up_skip  # the columns from mid on have a cell above
        if row > mid:
            above[start:start + row - mid] = range(up_end - row + 1, up_end - mid + 1)
        up_end, up_skip = start + row - 1, skip
        start += row - skip
    # the entry last tried at each cell, then the two bounds; the top's
    # entries are in place
    fill = [letter for letter, length in enumerate(rows, 1) for _ in range(length)]
    fill += [0] * (n - first) + [top, 0]
    counts = [n + 1] + rows + [0] * (top + 1 - t)  # letter counts between two sentinels
    tally: dict[tuple[int, ...], int] = {}
    last = n - 1
    pos = first
    fill[pos] = fill[above[pos]]
    while pos >= first:
        e, hi = fill[pos] + 1, fill[right[pos]]
        if pos == last:  # a whole tableau for each entry allowed here
            for e in range(e, hi + 1):
                if counts[e] < counts[e - 1]:
                    counts[e] += 1
                    key = tuple(counts)
                    tally[key] = tally.get(key, 0) + 1
                    counts[e] -= 1
        else:
            while e <= hi and counts[e] >= counts[e - 1]:
                e += 1
            if e <= hi:  # place e, and start the next cell below its bound
                fill[pos] = e
                counts[e] += 1
                pos += 1
                fill[pos] = fill[above[pos]]
                continue
        pos -= 1  # back to the previous cell, taking its entry out; out of
        counts[fill[pos]] -= 1  # first, this ends the search
    return {_shared(key[1:key.index(0, 1)]): c for key, c in tally.items()}


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


def _sub_diagrams(lam: Partition, low: int) -> Iterator[Partition]:
    """The partitions mu contained in lam with |mu| >= low, each once and
    each the Partition that _shared holds for its parts. mu grows row by
    row, row i taking 1 to min(lam_i, mu_{i-1}) cells. When row i takes p
    cells, the rows from i on hold at most min(p (len(lam) - i),
    p + lam_{i+1} + ...), so row i takes at least the p that lets this
    bound reach low.
    """
    ell = len(lam)
    rest = [0] * (ell + 1)  # rest[i] = lam_i + ... + lam_{ell-1}
    for i in range(ell - 1, -1, -1):
        rest[i] = rest[i + 1] + lam[i]
    stack = [((), 0)]  # (parts of mu so far, their sum)
    while stack:
        parts, size = stack.pop()
        if size >= low:
            yield _shared(parts)
        i = len(parts)
        if i < ell:
            cap = parts[-1] if parts and parts[-1] < lam[i] else lam[i]
            need = low - size
            fewest = max(1, -(-need // (ell - i)), need - rest[i + 1])
            stack += [(parts + (p,), size + p) for p in range(fewest, cap + 1)]


@cache
def coproduct(lam: Partition) -> SchurExpr:
    """Delta(s_lam) = sum over mu contained in lam of s_mu (x) s_{lam/mu},
    with the skew expansion read off the nonzero entries of the skew tables
    lam/mu with |mu| >= |nu|, and mirrored onto the rest by
    c^lam_{mu nu} = c^lam_{nu mu}. Those mu are the sub-diagrams of lam
    walked by _sub_diagrams; no partition outside lam is looked at. A pair
    with |mu| = |nu| lies in both tables lam/mu and lam/nu; it is read from
    the table of the lesser of the two, in tuple order, once.
    """
    out = {}
    for mu in _sub_diagrams(lam, (lam.size + 1) // 2):
        middle = 2 * mu.size == lam.size
        for nu in _skew_table(lam, mu):
            if not middle or nu >= mu:
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
