"""Socle filtrations and length bookkeeping for tensor modules over the
Mackey Lie algebra of a dual-basis pairing.

The socle filtration of the simple traceless-tensor module indexed by a
partition pair (lam, mu) is read off the Hopf coproduct of s_lam: layer k
collects the pairs (alpha, beta) with |alpha| = k, each contributing the
constituent S_alpha(V*/V_*) (x) V_{beta,mu} with multiplicity c^lam_{alpha beta}.

Length counts for full tensor powers (V*)^{(x)m} (x) V^{(x)n} follow the
binary-word filtration: choose which starred slots degenerate to V_*, split
the V*/V_* part into Schur pieces, and filter the remaining mixed tensor
power by simples.
"""

from __future__ import annotations

import gc
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache
from itertools import repeat
from math import comb, factorial
from operator import itemgetter

from .partitions import Partition, partitions_of, syt_count
from .symfunc import coproduct


@dataclass(slots=True)
class SimpleConstituent:
    """One simple summand S_alpha(V*/V_*) (x) V_{beta,mu} of a socle layer.
    Slotted and not frozen, so cheap to build: mutable and unhashable."""

    alpha: Partition
    beta: Partition
    mu: Partition
    multiplicity: int

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")


@dataclass(frozen=True)
class SocleReport:
    """Socle filtration layers, bottom-up: layers[0] is the socle."""

    lam: Partition
    mu: Partition
    layers: tuple[tuple[SimpleConstituent, ...], ...]

    def length(self) -> int:
        return sum(c.multiplicity for layer in self.layers for c in layer)


def socle_layers(lam: Partition, mu: Partition) -> SocleReport:
    """Socle filtration of the simple module W_{lam,mu} restricted to the
    Mackey Lie algebra. Layer k holds (alpha, beta, mu, c^lam_{alpha beta})
    over alpha of size k; there are |lam|+1 layers and each is nonempty.

    Within a layer the constituents come by alpha, then by beta, by parts:
    each |alpha| gets one bucket of coproduct terms, sorted once on one plain
    tuple per term, which within a layer is degree first, then lexicographic
    on the parts.
    """
    buckets: list[list] = [[] for _ in range(lam.size + 1)]
    for term in coproduct(lam).terms.items():  # ((alpha, beta), c)
        buckets[sum(term[0][0])].append(term)
    return SocleReport(lam, mu, tuple(
        tuple([SimpleConstituent(alpha, beta, mu, c)
               for (alpha, beta), c in sorted(bucket, key=_by_parts)])
        for bucket in buckets))


def _by_parts(term: tuple) -> tuple:
    """alpha's parts then beta's, in one plain tuple: within a bucket all
    alphas have one size, so none is a prefix of another and the tuple
    orders by alpha first, then by beta."""
    alpha, beta = term[0]
    return alpha + beta


def simple_length(lam: Partition, mu: Partition) -> int:
    """Length of W_{lam,mu} over the Mackey Lie algebra: the total number of
    coproduct terms of s_lam counted with multiplicity. Independent of mu.
    """
    return sum(coproduct(lam).terms.values())


def decompose_mixed_tensor(p: int, q: int) -> list[tuple[Partition, Partition, int]]:
    """Simple constituents (beta, gamma, multiplicity) of the filtration of
    V_*^{(x)p} (x) V^{(x)q} by simples, over all contraction depths r:

        N_{beta,gamma} = C(p,r) * C(q,r) * r! * f_beta * f_gamma,
        |beta| = p - r, |gamma| = q - r.

    The multiplicity formula is standard Schur-Weyl bookkeeping for mixed
    tensors; the verify suite re-derives it from contraction-kernel ranks at
    finite rank before anything downstream is trusted. Triples come by r,
    then beta, then gamma, in partitions_of order. A multiplicity depends
    only on r and the hook counts (f_beta, f_gamma), so each depth computes
    it once per pair of distinct hook counts and shares that one int among
    the triples of the pair: one row per distinct f_beta, its scale
    C(p,r) C(q,r) r! f_beta times each distinct f_gamma, spread into gamma
    order by the gather of _hook_classes.

    The cyclic garbage collector is paused while the triples are built and
    the caller's setting restored, also on an exception. The triples hold
    only cached Partitions and ints, so they form no cycles; unpaused, each
    full collection would re-walk the growing list.
    """
    if p < 0 or q < 0:
        raise ValueError("tensor degrees must be nonnegative")
    out = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for r in range(min(p, q) + 1):
            pairings = comb(p, r) * comb(q, r) * factorial(r)
            gammas = partitions_of(q - r)
            f_gammas, spread = _hook_classes(q - r)
            rows = {}
            for beta in partitions_of(p - r):
                f_beta = syt_count(beta)
                if f_beta not in rows:
                    scale = pairings * f_beta
                    rows[f_beta] = spread([scale * f_gamma for f_gamma in f_gammas])
                out.extend(zip(repeat(beta), gammas, rows[f_beta]))
    finally:
        if enabled:
            gc.enable()
    return out


@cache
def _hook_classes(n: int) -> tuple[tuple[int, ...], Callable[[list], tuple]]:
    """The distinct f_gamma over partitions_of(n), in the order first seen,
    and a gather that takes a list of one value per distinct f_gamma to a
    tuple of one value per gamma, in partitions_of(n) order. The gather is
    an itemgetter, which returns a bare item for one index, so the degrees 0
    and 1, with one partition each, gather with tuple instead.
    """
    counts = [syt_count(gamma) for gamma in partitions_of(n)]
    classes = tuple(dict.fromkeys(counts))
    if len(counts) == 1:
        return classes, tuple
    index = {f: i for i, f in enumerate(classes)}
    return classes, itemgetter(*[index[f] for f in counts])


def tensor_length(m: int, n: int) -> int:
    """Length of (V*)^{(x)m} (x) V^{(x)n} over the Mackey Lie algebra.

    This is the composition length: the number of simple constituents,
    counted with multiplicity, not the number of socle layers. For example
    (0, q) gives the involution numbers 1, 1, 2, 4, 10, ... since V^{(x)q}
    is the sum of the simple S_gamma(V), each f_gamma times.

    The lengths T(m, n) have the exponential generating function

        exp(2x + x^2) exp(y + y^2/2) exp(xy).

    exp(xy) pairs r starred slots with r plain ones; exp(y + y^2/2) gives the
    involution numbers I(k) = I(k-1) + (k-1) I(k-2), the sum of f_beta over
    the partitions beta of k; exp(2x + x^2), the square of that, gives
    A(k) = 2 A(k-1) + 2 (k-1) A(k-2) = 1, 2, 6, 20, 76, ... for the unpaired
    starred slots, which split between V*/V_* and V_*. So, with s = min(m, n),

        T(m, n) = sum_{r <= s} C(m, r) C(n, r) r! A(m - r) I(n - r),

    where C(m, r) C(n, r) r! counts the pairings of depth r, as in
    decompose_mixed_tensor. The sum walks r down from s, stepping A and I
    up by one each time, so it keeps two values of each.
    """
    if m < 0 or n < 0:
        raise ValueError("tensor degrees must be nonnegative")
    s = min(m, n)
    a, a_prev, i, i_prev = 1, 0, 1, 0  # A(0), A(-1), I(0), I(-1)
    for k in range(m - s):
        a, a_prev = 2 * a + 2 * k * a_prev, a
    for k in range(n - s):
        i, i_prev = i + k * i_prev, i
    total, pairings = 0, comb(m, s) * comb(n, s) * factorial(s)  # at r = s
    for r in range(s, -1, -1):
        total += pairings * a * i
        a, a_prev = 2 * a + 2 * (m - r) * a_prev, a
        i, i_prev = i + (n - r) * i_prev, i
        pairings = pairings * r // ((m - r + 1) * (n - r + 1))
    return total
