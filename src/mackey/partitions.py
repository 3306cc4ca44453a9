"""Integer partitions, Young diagram arithmetic, the classical
hook-length / hook-content counting formulas, and the Weyl dimension of the
traceless mixed tensor modules of gl(n).

Everything here is exact: counts are Python ints (arbitrary precision),
partitions are tuples, normalized on construction.
"""

from __future__ import annotations

import operator
import re
from functools import cache
from math import comb, factorial
from typing import Iterable, Iterator


class Partition(tuple):
    """A weakly decreasing tuple of positive integers; ``Partition(())`` is the
    empty partition.

    A partition is the tuple of its parts: it equals and hashes as that tuple,
    and inherits its length, iteration and immutability. Trailing zeros are
    stripped on construction so each partition has a unique representative.
    It indexes, slices and compares as that tuple; ``parts`` is the plain
    tuple itself.

    Every input is validated. Plain ints, weakly decreasing and positive,
    are the common case and are checked by C loops over the tuple; any other
    input (zeros to strip, an int subclass, a bad part or order) is read part
    by part and raises the same errors.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        parts = tuple(parts)  # read once: a generator is consumed
        # the common case, plain ints weakly decreasing and positive, is
        # checked by C loops; every other input is read part by part
        if (parts and {int}.issuperset(map(type, parts)) and parts[-1] > 0
                and all(map(operator.ge, parts, parts[1:]))):
            return super().__new__(cls, parts)
        ps = []
        for p in parts:
            if isinstance(p, bool) or not isinstance(p, int):
                raise TypeError(f"partition parts must be integers, got {p!r}")
            if p < 0:
                raise ValueError(f"partition parts must be nonnegative, got {p}")
            if p == 0:
                continue
            ps.append(p)
        for a, b in zip(ps, ps[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        return super().__new__(cls, ps)

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def size(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return f"Partition({list(self)})"

    def __str__(self) -> str:
        return format_partition(self)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self:
            return Partition()
        cols = [0] * self[0]
        for row in self:
            for j in range(row):
                cols[j] += 1
        return Partition(cols)

    def contains(self, other: "Partition") -> bool:
        """True iff other's diagram fits inside self's (componentwise)."""
        return len(other) <= len(self) and all(map(int.__le__, other, self))


EMPTY = Partition()


def _hook_product(lam: Partition) -> int:
    """Product of the hook lengths of lam's cells, from the first-column
    hooks l_i = lam_i + len(lam) - 1 - i alone (Frobenius's form of the hook
    length formula): prod l_i! / prod_{i<j} (l_i - l_j). Row i's hooks are
    1..l_i without the differences l_i - l_j, j > i, so no conjugate and no
    loop over the cells is needed."""
    ell = len(lam)
    firsts = [row + ell - 1 - i for i, row in enumerate(lam)]
    num = den = 1
    for i, a in enumerate(firsts):
        num *= factorial(a)
        for b in firsts[i + 1:]:
            den *= a - b
    return num // den


@cache
def syt_count(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    return factorial(lam.size) // _hook_product(lam)


def dim_schur(lam: Partition, n: int) -> int:
    """Dimension of the Schur module S_lam(C^n) by the hook content formula.

    Zero exactly when the diagram has more rows than n.
    """
    if n < 0:
        raise ValueError(f"rank must be nonnegative, got {n}")
    if len(lam) > n:
        return 0
    num = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= n + j - i
    quotient, rest = divmod(num, _hook_product(lam))
    if rest:
        raise ArithmeticError("hook content formula produced a non-integer")
    return quotient


def dim_mixed(beta: Partition, gamma: Partition, n: int) -> int:
    """Dimension of the traceless mixed tensor module V_{beta,gamma} of gl(n),
    the simple of highest weight (beta_1..beta_s, 0..0, -gamma_t..-gamma_1),
    by the Weyl dimension formula.

    Exact integer arithmetic over the positive roots of gl(n); the final
    division is checked exact, which catches weight-construction mistakes
    immediately. Symmetric under swapping beta and gamma (the dual module).
    A pair of zero rows of the highest weight contributes 1, and a row of
    weight h against the zeros at distances lo..hi contributes
    prod_{d=lo}^{hi} (h + d) / d = C(h + hi, h) / C(h + lo - 1, h), so the
    time does not depend on the rank.
    """
    s, t = len(beta), len(gamma)
    if n < 1:
        raise ValueError("rank must be positive")
    if s + t > n:
        # not a vanishing Schur functor: the simple does not exist at
        # this rank, and a silent 0 would corrupt dimension sums
        raise ValueError(f"rank {n} too small for bipartition with {s}+{t} rows")
    zeros = n - s - t
    rows = list(enumerate(beta))
    rows += [(n - 1 - k, -g) for k, g in enumerate(gamma)]
    num = 1
    den = 1
    for i, a in rows:
        for j, c in rows:
            if i < j:
                num *= a - c + j - i
                den *= j - i
        # distances from row i to the zero rows s..s+zeros-1
        lo, hi = (s - i, s + zeros - 1 - i) if a > 0 else (i - s - zeros + 1, i - s)
        h = abs(a)
        num *= comb(h + hi, h)
        den *= comb(h + lo - 1, h)
    quotient, rest = divmod(num, den)
    if rest:
        raise ArithmeticError("Weyl dimension formula produced a non-integer")
    return quotient


@cache
def partitions_of(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n (optionally with parts bounded by max_part),
    in decreasing lex order starting from (n,).
    """
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    bound = n if max_part is None else min(max_part, n)
    if n == 0:
        return (EMPTY,)
    out = []
    for first in range(bound, 0, -1):
        for rest in partitions_of(n - first, first):
            # (first,) + rest has positive, weakly decreasing parts by
            # construction (rest's parts are at most first), so it skips
            # the validation of Partition.__new__
            out.append(tuple.__new__(Partition, (first,) + rest))
    return tuple(out)


def partitions_up_to(n: int) -> Iterator[Partition]:
    """All partitions of size 0, 1, ..., n."""
    for k in range(n + 1):
        yield from partitions_of(k)


_PART_TEXT = re.compile(r"[1-9][0-9]*")


def parse_partition(text: str) -> Partition:
    """Parse the CLI/text form: comma-separated decreasing positive integers,
    with "-" denoting the empty partition. Each part is written in ASCII
    digits without a sign, underscores or leading zeros, so the text reads
    back as format_partition of the result, up to whitespace.
    """
    text = text.strip()
    if text == "-":
        return Partition()
    if not text:
        raise ValueError("empty partition text (use '-' for the empty partition)")
    tokens = [tok.strip() for tok in text.split(",")]
    if not all(_PART_TEXT.fullmatch(tok) for tok in tokens):
        raise ValueError(f"malformed partition {text!r}: parts are positive integers "
                         "in ASCII digits, without leading zeros")
    return Partition([int(tok) for tok in tokens])


def format_partition(lam: Partition) -> str:
    """Inverse of parse_partition."""
    if not lam:
        return "-"
    return ",".join(str(p) for p in lam)
