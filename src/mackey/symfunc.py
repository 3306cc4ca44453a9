"""The ring of symmetric functions in the Schur basis.

Products and coproducts are computed through Littlewood-Richardson
coefficients, obtained by direct enumeration of LR skew tableaux
(row-weak, column-strict fillings whose reverse reading word is a lattice
word). One LR routine backs both the product and the coproduct, so a single
set of oracle tests covers the structure constants everywhere they appear.

Evaluation of Schur polynomials at exact rational points (Jacobi-Trudi
determinant in complete homogeneous polynomials) is provided for
cross-checking identities numerically without any combinatorics in common
with the tableau enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, Sequence

from .partitions import Partition, partitions_of


class SchurExpr:
    """Finitely supported integer combination of partitions (Schur basis)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Partition, int] | Iterable[tuple[Partition, int]] = ()):
        self.terms = {lam: c for lam, c in dict(terms).items() if c}

    def coefficient(self, lam: Partition) -> int:
        return self.terms.get(lam, 0)

    def __iter__(self) -> Iterator[tuple[Partition, int]]:
        """Terms in deterministic order: degree, then lex on parts."""
        return iter(sorted(self.terms.items(), key=lambda t: t[0].sort_key()))

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, SchurExpr) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"SchurExpr({self.terms!r})"

    def to_json(self) -> list[dict]:
        return [{"partition": list(lam.parts), "coeff": c} for lam, c in self]

    @classmethod
    def from_json(cls, data: list[dict]) -> "SchurExpr":
        return cls({Partition(item["partition"]): item["coeff"] for item in data})


class TensorSchurExpr:
    """Integer combination of ordered partition pairs (element of Sym (x) Sym)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[Partition, Partition], int]
                 | Iterable[tuple[tuple[Partition, Partition], int]] = ()):
        self.terms = {key: c for key, c in dict(terms).items() if c}

    def coefficient(self, mu: Partition, nu: Partition) -> int:
        return self.terms.get((mu, nu), 0)

    def __iter__(self) -> Iterator[tuple[tuple[Partition, Partition], int]]:
        return iter(sorted(
            self.terms.items(),
            key=lambda t: (t[0][0].sort_key(), t[0][1].sort_key()),
        ))

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, TensorSchurExpr) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"TensorSchurExpr({self.terms!r})"

    def to_json(self) -> list[dict]:
        return [{"left": list(mu.parts), "right": list(nu.parts), "coeff": c}
                for (mu, nu), c in self]

    @classmethod
    def from_json(cls, data: list[dict]) -> "TensorSchurExpr":
        return cls({(Partition(item["left"]), Partition(item["right"])): item["coeff"]
                    for item in data})


# functools.cache is safe for concurrent readers/writers under CPython's lock;
# a missed hit only recomputes a pure value.
@cache
def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The Littlewood-Richardson coefficient c^lam_{mu nu}.

    Counts skew tableaux of shape lam/mu and content nu that are weakly
    increasing along rows, strictly increasing down columns, and whose
    reverse reading word is a lattice word. Zero when the sizes do not add
    up or mu is not contained in lam.
    """
    if mu.size + nu.size != lam.size or not lam.contains(mu):
        return 0
    if not nu.parts:
        return 1  # lam == mu by the size check
    # cells of lam/mu in reverse reading order: top row first, right to left,
    # so the lattice condition can be enforced as cells are filled
    cells = []
    for i in range(len(lam)):
        row_start = mu[i]
        prev_row_has = lam[i - 1] if i > 0 else 0
        for j in range(lam[i] - 1, row_start - 1, -1):
            above = (i - 1, j) if i > 0 and j < prev_row_has else None
            cells.append((i, j, above))
    nrows = len(nu)
    counts = [0] * (nrows + 1)
    filling: dict[tuple[int, int], int] = {}
    total = 0

    def place(pos: int) -> None:
        nonlocal total
        if pos == len(cells):
            total += 1
            return
        i, j, above = cells[pos]
        right = filling.get((i, j + 1))
        hi = right if right is not None else nrows
        # the cell above may belong to mu (never filled): no constraint then
        over = filling.get(above) if above is not None else None
        lo = over + 1 if over is not None else 1
        for e in range(lo, hi + 1):
            if counts[e] >= nu[e - 1]:
                continue
            if e > 1 and counts[e] >= counts[e - 1]:
                continue  # would break the lattice condition
            counts[e] += 1
            filling[(i, j)] = e
            place(pos + 1)
            del filling[(i, j)]
            counts[e] -= 1

    place(0)
    return total


def schur_product(mu: Partition, nu: Partition) -> SchurExpr:
    """s_mu * s_nu expanded in the Schur basis."""
    out = {}
    for lam in partitions_of(mu.size + nu.size):
        c = lr_coefficient(lam, mu, nu)
        if c:
            out[lam] = c
    return SchurExpr(out)


@cache
def coproduct(lam: Partition) -> TensorSchurExpr:
    """Delta(s_lam) = sum over mu contained in lam of s_mu (x) s_{lam/mu},
    with the skew expansion read off from LR coefficients.
    """
    out = {}
    for k in range(lam.size + 1):
        for mu in partitions_of(k):
            if not lam.contains(mu):
                continue
            for nu in partitions_of(lam.size - k):
                c = lr_coefficient(lam, mu, nu)
                if c:
                    out[(mu, nu)] = c
    return TensorSchurExpr(out)


def homogeneous_component(f: TensorSchurExpr, k: int, side: str) -> TensorSchurExpr:
    """Terms of f whose chosen-side partition has size exactly k."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    pick = 0 if side == "left" else 1
    return TensorSchurExpr({key: c for key, c in f.terms.items()
                            if key[pick].size == k})


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
    matrix = []
    for i in range(ell):
        row = []
        for j in range(ell):
            d = lam[i] - (i + 1) + (j + 1)
            row.append(h[d] if d >= 0 else Fraction(0))
        matrix.append(row)
    return _det(matrix)
