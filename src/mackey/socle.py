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

from dataclasses import dataclass
from math import comb, factorial

from .partitions import Partition, partitions_of, syt_count
from .symfunc import coproduct


@dataclass(frozen=True)
class SimpleConstituent:
    """One simple summand S_alpha(V*/V_*) (x) V_{beta,mu} of a socle layer."""

    alpha: Partition
    beta: Partition
    mu: Partition
    multiplicity: int

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")

    def to_json(self) -> dict:
        return {
            "alpha": list(self.alpha.parts),
            "beta": list(self.beta.parts),
            "mu": list(self.mu.parts),
            "mult": self.multiplicity,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SimpleConstituent":
        return cls(Partition(data["alpha"]), Partition(data["beta"]),
                   Partition(data["mu"]), data["mult"])


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
            "lambda": list(self.lam.parts),
            "mu": list(self.mu.parts),
            "layers": [[c.to_json() for c in layer] for layer in self.layers],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SocleReport":
        return cls(
            Partition(data["lambda"]),
            Partition(data["mu"]),
            tuple(tuple(SimpleConstituent.from_json(c) for c in layer)
                  for layer in data["layers"]),
        )


def socle_layers(lam: Partition, mu: Partition) -> SocleReport:
    """Socle filtration of the simple module W_{lam,mu} restricted to the
    Mackey Lie algebra. Layer k holds (alpha, beta, mu, c^lam_{alpha beta})
    over alpha of size k; there are |lam|+1 layers and each is nonempty.
    """
    delta = coproduct(lam)
    layers: list[list[SimpleConstituent]] = [[] for _ in range(lam.size + 1)]
    for (alpha, beta), c in delta:
        layers[alpha.size].append(SimpleConstituent(alpha, beta, mu, c))
    return SocleReport(lam, mu, tuple(tuple(layer) for layer in layers))


def simple_length(lam: Partition, mu: Partition) -> int:
    """Length of W_{lam,mu} over the Mackey Lie algebra: the total number of
    coproduct terms of s_lam counted with multiplicity. Independent of mu.
    """
    return sum(c for _, c in coproduct(lam))


def decompose_mixed_tensor(p: int, q: int) -> list[tuple[Partition, Partition, int]]:
    """Simple constituents (beta, gamma, multiplicity) of the filtration of
    V_*^{(x)p} (x) V^{(x)q} by simples, over all contraction depths r:

        N_{beta,gamma} = C(p,r) * C(q,r) * r! * f_beta * f_gamma,
        |beta| = p - r, |gamma| = q - r.

    The multiplicity formula is standard Schur-Weyl bookkeeping for mixed
    tensors; the verify suite re-derives it from contraction-kernel ranks at
    finite rank before anything downstream is trusted.
    """
    if p < 0 or q < 0:
        raise ValueError("tensor degrees must be nonnegative")
    out = []
    for r in range(min(p, q) + 1):
        pairings = comb(p, r) * comb(q, r) * factorial(r)
        for beta in partitions_of(p - r):
            for gamma in partitions_of(q - r):
                out.append((beta, gamma,
                            pairings * syt_count(beta) * syt_count(gamma)))
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
    total = 0
    for m1 in range(m + 1):
        m2 = m - m1
        mixed_pieces = sum(comb(m2, r) * comb(n, r) * factorial(r)
                           * involutions[m2 - r] * involutions[n - r]
                           for r in range(min(m2, n) + 1))
        total += comb(m, m1) * involutions[m1] * mixed_pieces
    return total
