"""Finite-rank gl(n) dimension formulas used as independent numeric
cross-checks of the tableau combinatorics.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .partitions import Partition, dim_schur
from .symfunc import coproduct


@dataclass(frozen=True)
class MixedWeight:
    """Label (beta, gamma) of a traceless mixed-tensor simple of gl(n),
    realized by the highest weight (beta_1..beta_s, 0..0, -gamma_t..-gamma_1).
    """

    beta: Partition
    gamma: Partition
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("rank must be positive")
        if len(self.beta) + len(self.gamma) > self.n:
            # not a vanishing Schur functor: the simple does not exist at
            # this rank, and a silent 0 would corrupt dimension sums
            raise ValueError(
                f"rank {self.n} too small for bipartition with "
                f"{len(self.beta)}+{len(self.gamma)} rows")


def dim_mixed(w: MixedWeight) -> int:
    """Weyl dimension formula for the traceless mixed tensor module.

    Exact integer arithmetic over the positive roots of gl(n); the final
    division is asserted exact, which catches weight-construction mistakes
    immediately. Symmetric under swapping beta and gamma (the dual module).
    A pair of zero rows of the highest weight contributes 1, and a row of
    weight h against the zeros at distances lo..hi contributes
    prod_{d=lo}^{hi} (h + d) / d = C(h + hi, h) / C(h + lo - 1, h), so the
    time does not depend on the rank.
    """
    s, t = len(w.beta), len(w.gamma)
    zeros = w.n - s - t
    rows = list(enumerate(w.beta))
    rows += [(w.n - 1 - k, -g) for k, g in enumerate(w.gamma)]
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
    assert num % den == 0, "Weyl dimension formula produced a non-integer"
    return num // den


def branching_identity_check(lam: Partition, a: int, b: int) -> bool:
    """Finite-rank shadow of the coproduct identity: the dimension of
    S_lam(C^(a+b)) must match the coproduct expansion paired with dimensions
    over C^a and C^b.
    """
    if a < 1 or b < 1:
        raise ValueError("alphabet sizes must be positive")
    lhs = dim_schur(lam, a + b)
    rhs = sum(c * dim_schur(mu, a) * dim_schur(nu, b)
              for (mu, nu), c in coproduct(lam))
    return lhs == rhs
