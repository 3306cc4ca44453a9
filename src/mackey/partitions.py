"""Integer partitions, Young diagram arithmetic, and the classical
hook-length / hook-content counting formulas.

Everything here is exact: counts are Python ints (arbitrary precision),
partitions are immutable and normalized on construction.
"""

from __future__ import annotations

import re
from functools import cache
from math import factorial
from typing import Iterable, Iterator


class Partition:
    """A weakly decreasing tuple of positive integers; ``Partition(())`` is the
    empty partition.

    Trailing zeros are stripped on construction so each partition has a unique
    representative, suitable for hashing and dict keys.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts, ps = tuple(parts), []  # read once: a generator is consumed
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
                raise ValueError(f"parts not weakly decreasing: {tuple(parts)}")
        object.__setattr__(self, "parts", tuple(ps))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        """Row length at index i, with zero-padding past the last row."""
        if 0 <= i < len(self.parts):
            return self.parts[i]
        return 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __lt__(self, other: "Partition") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Partition") -> bool:
        return self.sort_key() <= other.sort_key()

    def sort_key(self) -> tuple:
        """Total order used for deterministic output: degree, then lex."""
        return (self.size, self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def __str__(self) -> str:
        return format_partition(self)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for row in self.parts:
            for j in range(row):
                cols[j] += 1
        return Partition(cols)

    def contains(self, other: "Partition") -> bool:
        """True iff other's diagram fits inside self's (componentwise)."""
        return (len(other.parts) <= len(self.parts)
                and all(map(int.__le__, other.parts, self.parts)))

    def cells(self) -> Iterator[tuple[int, int]]:
        """(row, col) coordinates of the diagram, 0-indexed."""
        for i, row in enumerate(self.parts):
            for j in range(row):
                yield (i, j)

    def hook_length(self, i: int, j: int) -> int:
        arm = self.parts[i] - j - 1
        leg = sum(1 for r in self.parts[i + 1:] if r > j)
        return arm + leg + 1


EMPTY = Partition()


@cache
def syt_count(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    hooks = 1
    for i, j in lam.cells():
        hooks *= lam.hook_length(i, j)
    return factorial(lam.size) // hooks


def dim_schur(lam: Partition, n: int) -> int:
    """Dimension of the Schur module S_lam(C^n) by the hook content formula.

    Zero exactly when the diagram has more rows than n.
    """
    if n < 0:
        raise ValueError(f"rank must be nonnegative, got {n}")
    if len(lam) > n:
        return 0
    num = 1
    den = 1
    for i, j in lam.cells():
        num *= n + j - i
        den *= lam.hook_length(i, j)
    assert num % den == 0
    return num // den


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
            out.append(Partition((first,) + rest.parts))
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
    if not lam.parts:
        return "-"
    return ",".join(str(p) for p in lam.parts)
