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
from dataclasses import dataclass
from itertools import repeat
from math import comb, factorial

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

    def to_json(self) -> dict:
        return {
            "alpha": list(self.alpha),
            "beta": list(self.beta),
            "mu": list(self.mu),
            "mult": self.multiplicity,
        }


@dataclass(frozen=True)
class SocleReport:
    """Socle filtration layers, bottom-up: layers[0] is the socle."""

    lam: Partition
    mu: Partition
    layers: tuple[tuple[SimpleConstituent, ...], ...]

    def length(self) -> int:
        return sum(c.multiplicity for layer in self.layers for c in layer)

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam),
            "mu": list(self.mu),
            "layers": [[c.to_json() for c in layer] for layer in self.layers],
        }


def socle_layers(lam: Partition, mu: Partition) -> SocleReport:
    """Socle filtration of the simple module W_{lam,mu} restricted to the
    Mackey Lie algebra. Layer k holds (alpha, beta, mu, c^lam_{alpha beta})
    over alpha of size k; there are |lam|+1 layers and each is nonempty.

    Within a layer the constituents come by alpha, then by beta, by parts:
    each |alpha| gets one bucket of coproduct terms, sorted once on one plain
    tuple per term, which within a layer is the order of Partition.sort_key.
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
    then beta, then gamma, in partitions_of order. Each depth folds the
    pairings into the gamma side once, pairings * f_gamma, and builds one
    multiplicity row per f_beta from it, one multiply per entry, shared by
    conjugate betas.

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
            scaled = [pairings * syt_count(gamma) for gamma in gammas]
            rows = {}
            for beta in partitions_of(p - r):
                f_beta = syt_count(beta)
                if f_beta not in rows:
                    rows[f_beta] = [f_beta * x for x in scaled]
                out.extend(zip(repeat(beta), gammas, rows[f_beta]))
    finally:
        if enabled:
            gc.enable()
    return out


def tensor_length(m: int, n: int) -> int:
    """Length of (V*)^{(x)m} (x) V^{(x)n} over the Mackey Lie algebra.

    This is the composition length: the number of simple constituents,
    counted with multiplicity, not the number of socle layers. For example
    (0, q) gives the involution numbers 1, 1, 2, 4, 10, ... since V^{(x)q}
    is the sum of the simple S_gamma(V), each f_gamma times.

    Sum over how many starred slots stay in V_*: each binary word with m1
    slots outside contributes the Schur pieces of (V*/V_*)^{(x)m1} tensored
    with every simple constituent of the remaining mixed tensor power; all
    such products are simple, so they count one each. With the involution
    numbers I(k), the sum of f_beta over the partitions beta of k, this is

        sum_m1 C(m, m1) I(m1) sum_r C(m - m1, r) C(n, r) r! I(m - m1 - r) I(n - r),

    the inner sum being the total multiplicity of decompose_mixed_tensor.
    """
    if m < 0 or n < 0:
        raise ValueError("tensor degrees must be nonnegative")
    involutions = [1, 1]
    for k in range(2, max(m, n) + 1):
        involutions.append(involutions[-1] + (k - 1) * involutions[-2])
    total, outer = 0, 1  # outer = C(m, m1), stepped along m1
    for m1 in range(m + 1):
        m2 = m - m1
        mixed_pieces, pairings = 0, 1  # pairings = C(m2, r) C(n, r) r!, stepped along r
        for r in range(min(m2, n) + 1):
            mixed_pieces += pairings * involutions[m2 - r] * involutions[n - r]
            pairings = pairings * (m2 - r) * (n - r) // (r + 1)
        total += outer * involutions[m1] * mixed_pieces
        outer = outer * m2 // (m1 + 1)
    return total
