"""Cross-checking suites wired to the CLI `verify` command.

Each check pits independently computed quantities against each other
(tableau combinatorics vs. rational evaluation vs. explicit finite-rank
linear algebra). A check is one row of CHECKS: a generator, called with
(budget, seed), that yields one outcome per case, None when the case passes
and otherwise its failure line. All equalities are exact; randomized point
checks draw from a fixed seed.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from . import brute, socle, symfunc
from .brute import DEFAULT_BUDGET, BudgetExceededError
from .linalg import SparseMatrix, Subspace, full_space, vec
from .partitions import (EMPTY, Partition, dim_mixed, dim_schur, partitions_of, partitions_up_to,
                         syt_count)

DEFAULT_SEED = 20259

SOCLE_SHADOW_GRID = [(4, 2), (5, 2), (5, 3), (6, 3)]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


Outcomes = Iterator[str | None]


def _result(name: str, outcomes: Outcomes) -> CheckResult:
    """Run one check: each outcome is one case, None when it passes,
    otherwise its failure line. A check that raises a ValueError, as the
    referee does on a module it finds inconsistent, fails with that message;
    a budget refusal is not a result and propagates."""
    try:
        cases = list(outcomes)
    except BudgetExceededError:
        raise
    except ValueError as exc:
        return CheckResult(name, False, f"raised: {exc}")
    failures = [case for case in cases if case is not None]
    if failures:
        return CheckResult(name, False,
                           f"{len(failures)}/{len(cases)} cases failed; first: {failures[0]}")
    return CheckResult(name, True, f"{len(cases)} cases")


def _random_point(rng: random.Random, size: int) -> list[Fraction]:
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)]


# ---------------------------------------------------------------------------
# Hopf suite

def _coassociativity(budget: int, seed: int) -> Outcomes:
    for lam in partitions_up_to(8):
        left: dict = {}
        right: dict = {}
        for (mu, nu), c in symfunc.coproduct(lam):
            for (a, b), d in symfunc.coproduct(mu):
                key = (a, b, nu)
                left[key] = left.get(key, 0) + c * d
            for (a, b), d in symfunc.coproduct(nu):
                key = (mu, a, b)
                right[key] = right.get(key, 0) + c * d
        left = {k: v for k, v in left.items() if v}
        right = {k: v for k, v in right.items() if v}
        yield None if left == right else f"lambda={lam}"


def _counit(budget: int, seed: int) -> Outcomes:
    for lam in partitions_up_to(8):
        from_left = {nu: c for (mu, nu), c in symfunc.coproduct(lam) if mu == EMPTY}
        from_right = {mu: c for (mu, nu), c in symfunc.coproduct(lam) if nu == EMPTY}
        yield None if from_left == from_right == {lam: 1} else f"lambda={lam}"


def _lr_symmetry(budget: int, seed: int) -> Outcomes:
    """c^lam_{mu nu} = c^lam_{nu mu} between the skew tables lam/mu and lam/nu,
    not in coproduct, which mirrors one half of its terms onto the other."""
    for lam in partitions_up_to(8):
        for mu in partitions_up_to(lam.size):
            for nu, c in symfunc._skew_table(lam, mu).items():
                yield (None if symfunc._skew_table(lam, nu).get(mu, 0) == c
                       else f"lambda={lam}, mu={mu}, nu={nu}")


def _duality(budget: int, seed: int) -> Outcomes:
    for total in range(7 + 1):
        for k in range(total + 1):
            for mu in partitions_of(k):
                for nu in partitions_of(total - k):
                    prod = symfunc.schur_product(mu, nu)
                    for lam in partitions_of(total):
                        yield (None if prod.coefficient(lam)
                               == symfunc.coproduct(lam).coefficient((mu, nu))
                               else f"lambda={lam}, mu={mu}, nu={nu}")


def _bialphabet(budget: int, seed: int) -> Outcomes:
    rng = random.Random(seed)
    alphabet_sizes = [(a, b) for a in range(1, 4) for b in range(1, 4)]
    for index in range(20):
        a, b = alphabet_sizes[index % len(alphabet_sizes)]
        xs = _random_point(rng, a)
        ys = _random_point(rng, b)
        # each s_mu(x) and s_nu(y) is evaluated once per point
        at_xs = {mu: symfunc.eval_schur(mu, xs) for mu in partitions_up_to(6)}
        at_ys = {nu: symfunc.eval_schur(nu, ys) for nu in partitions_up_to(6)}
        for lam in partitions_up_to(6):
            lhs = symfunc.eval_schur(lam, xs + ys)
            rhs = sum((c * at_xs[mu] * at_ys[nu] for (mu, nu), c in symfunc.coproduct(lam)),
                      Fraction(0))
            yield None if lhs == rhs else f"lambda={lam}, point #{index}"


def _product_evaluation(budget: int, seed: int) -> Outcomes:
    rng = random.Random(seed + 1)
    for index in range(20):
        xs = _random_point(rng, 3)
        total = rng.randint(0, 6)
        k = rng.randint(0, total)
        mus = partitions_of(k)
        nus = partitions_of(total - k)
        mu = mus[rng.randrange(len(mus))]
        nu = nus[rng.randrange(len(nus))]
        lhs = sum((c * symfunc.eval_schur(lam, xs)
                   for lam, c in symfunc.schur_product(mu, nu)), Fraction(0))
        rhs = symfunc.eval_schur(mu, xs) * symfunc.eval_schur(nu, xs)
        yield None if lhs == rhs else f"mu={mu}, nu={nu}, point #{index}"


def _layer_dimensions(budget: int, seed: int) -> Outcomes:
    """Restricting S^lam to S_k x S_{n-k}: sum over |alpha| = k of
    c^lam_{alpha beta} f^alpha f^beta = f^lam, one case per lam and k. Every
    term is positive, so one raised or lowered coefficient breaks its layer."""
    for lam in partitions_up_to(10):
        layers = [0] * (lam.size + 1)
        for (alpha, beta), c in symfunc.coproduct(lam).terms.items():
            layers[alpha.size] += c * syt_count(alpha) * syt_count(beta)
        for k, dim in enumerate(layers):
            yield None if dim == syt_count(lam) else f"lambda={lam}, k={k}: {dim}"


def _conjugation(budget: int, seed: int) -> Outcomes:
    """The involution omega: Delta(s_lam') is Delta(s_lam) with both sides
    conjugated, which compares the table lam/mu with lam'/mu', another shape."""
    for lam in partitions_up_to(10):
        conjugated = {(alpha.conjugate(), beta.conjugate()): c
                      for (alpha, beta), c in symfunc.coproduct(lam).terms.items()}
        yield None if symfunc.coproduct(lam.conjugate()).terms == conjugated else f"lambda={lam}"


# ---------------------------------------------------------------------------
# branching suite

def _branching(budget: int, seed: int) -> Outcomes:
    """Finite-rank shadow of the coproduct: dim S_lam(C^(a+b)) is the
    coproduct of lam paired with dimensions over C^a and C^b."""
    for lam in partitions_up_to(6):
        delta = symfunc.coproduct(lam)
        for a in range(1, 4):
            for b in range(1, 4):
                rhs = sum(c * dim_schur(mu, a) * dim_schur(nu, b) for (mu, nu), c in delta)
                yield (None if dim_schur(lam, a + b) == rhs
                       else f"lambda={lam}, a={a}, b={b}")


# ---------------------------------------------------------------------------
# brute suite

def _young_weyl(budget: int, seed: int) -> Outcomes:
    for n_rank in range(1, 5):
        for lam in partitions_up_to(3):
            module = brute.build_tensor_module(n_rank, lam.size, 0, budget)
            got = brute.young_project(module, lam, EMPTY).dim
            yield (None if got == dim_schur(lam, n_rank)
                   else f"N={n_rank}, lambda={lam}: {got}")
    for n_rank in range(1, 5):
        for total in range(4):
            for k in range(total + 1):
                for lam in partitions_of(k):
                    for mu in partitions_of(total - k):
                        if len(lam) + len(mu) > n_rank:
                            continue
                        module = brute.build_tensor_module(
                            n_rank, lam.size, mu.size, budget)
                        got = brute.young_project(module, lam, mu).dim
                        yield (None if got == dim_mixed(lam, mu, n_rank)
                               else f"N={n_rank}, lambda={lam}, mu={mu}: {got}")


def socle_shadow_layer_dims(lam: Partition, n_rank: int, b: int) -> list[int]:
    """Branching prediction for the layer dimensions of the finite-rank
    socle filtration of the Schur module of the dual at (N, b): each layer
    of socle_layers(lam, EMPTY) with alpha on the N-b and beta on the b
    coordinates.
    """
    return [sum(c.multiplicity * dim_schur(c.alpha, n_rank - b) * dim_schur(c.beta, b)
                for c in layer)
            for layer in socle.socle_layers(lam, EMPTY).layers]


def _socle_shadow(budget: int, seed: int) -> Outcomes:
    """The socle filtration of the Young image S_lam(C^N*) in (C^N*)^(x)m,
    read off the socle filtration of the whole tensor power."""
    for n_rank, b in SOCLE_SHADOW_GRID:
        para = brute.parabolic(n_rank, b)
        for m in range(min(b, n_rank - b) + 1):
            module = brute.build_tensor_module(n_rank, m, 0, budget)
            filtration = brute.socle_filtration_parabolic(module, para)
            for lam in partitions_of(m):
                got = brute.submodule_layer_dimensions(
                    filtration, brute.young_project(module, lam, EMPTY))
                expected = socle_shadow_layer_dims(lam, n_rank, b)
                yield (None if got == expected
                       else f"N={n_rank}, b={b}, lambda={lam}: {got} != {expected}")


def _essentiality(budget: int, seed: int) -> Outcomes:
    for n_rank, b in SOCLE_SHADOW_GRID:
        para = brute.parabolic(n_rank, b)
        for m in range(1, min(b, n_rank - b, 3) + 1):
            module = brute.build_tensor_module(n_rank, m, 0, budget)
            filtration = brute.grade_filtration(module, para)
            yield (None if brute.is_essential_filtration(module, filtration, para)
                   else f"grade filtration N={n_rank}, b={b}, m={m}")
            if m == 2:  # negative case: Sym^2 misses the antisymmetric socle part
                bad = brute.Filtration([brute.young_project(module, Partition([2]), EMPTY),
                                        full_space(module.dimension)])
                yield (f"[Sym^2, whole] N={n_rank}, b={b} reported essential"
                       if brute.is_essential_filtration(module, bad, para) else None)
                # negative case: only the Levi lowering labels (i, 1) move e1* (x) e1*
                line = Subspace(module.dimension, [{module.labels.index((1, 1)): 1}])
                try:
                    brute.is_essential_filtration(
                        module, brute.Filtration([line, full_space(module.dimension)]), para)
                except ValueError:
                    yield None
                else:
                    yield f"[e1*(x)e1*, whole] N={n_rank}, b={b} not refused as non-invariant"
    # designed negative case: a line inside trivial + trivial over the
    # zero algebra is not essential (the socle is everything)
    rng = random.Random(seed + 2)
    zero_module = brute.ExplicitModule(2, 1, lambda label: SparseMatrix(2))
    line = Subspace(2, [vec([rng.randint(1, 5), rng.randint(1, 5)])])
    bad = brute.Filtration([line, full_space(2)])
    yield ("trivial + trivial negative case reported essential"
           if brute.is_essential_filtration(zero_module, bad, []) else None)


def mixed_oracle_report(p: int, q: int, budget: int = DEFAULT_BUDGET) -> list[str]:
    """Mismatches between decompose_mixed_tensor(p, q) and the finite-rank
    contraction-kernel bookkeeping at rank n = p + q + 1. Empty means the
    multiplicity formula is confirmed at this degree.
    """
    n = p + q + 1
    problems = []
    decomposition = socle.decompose_mixed_tensor(p, q)
    dim_sum = sum(mult * dim_mixed(beta, gamma, n)
                  for beta, gamma, mult in decomposition)
    if dim_sum != n ** (p + q):
        problems.append(f"dimension sum {dim_sum} != {n}^{p + q}")
    traceless = {}
    for r in range(min(p, q) + 1):
        traceless[r] = brute.traceless_dimension(n, p - r, q - r, budget)
    pairing_sum = sum(comb(p, r) * comb(q, r) * factorial(r) * traceless[r]
                      for r in traceless)
    if pairing_sum != n ** (p + q):
        problems.append(f"pairing bookkeeping {pairing_sum} != {n}^{p + q}")
    for r, t_dim in traceless.items():
        expected = sum(syt_count(beta) * syt_count(gamma)
                       * dim_mixed(beta, gamma, n)
                       for beta in partitions_of(p - r)
                       for gamma in partitions_of(q - r))
        if t_dim != expected:
            problems.append(
                f"traceless dim at depth {r}: brute {t_dim} != formula {expected}")
    return problems


def _mixed_oracle(budget: int, seed: int) -> Outcomes:
    for total in range(6):
        for p in range(total + 1):
            q = total - p
            problems = mixed_oracle_report(p, q, budget)
            yield f"(p,q)=({p},{q}): {problems[0]}" if problems else None


def _constituent_counts(budget: int, seed: int) -> Outcomes:
    for n_rank, b in SOCLE_SHADOW_GRID:
        para = brute.parabolic(n_rank, b)
        for m in range(min(b, n_rank - b, 3) + 1):
            module = brute.build_tensor_module(n_rank, m, 0, budget)
            got = brute.constituent_count(module, para)
            expected = socle.tensor_length(m, 0)
            yield (None if got == expected
                   else f"N={n_rank}, b={b}, m={m}: {got} != {expected}")


# Every check once, as (suite, title, check), in the order `verify all` runs them.
CHECKS = [
    ("hopf", "coassociativity (size <= 8)", _coassociativity),
    ("hopf", "counit (size <= 8)", _counit),
    ("hopf", "LR symmetry (size <= 8)", _lr_symmetry),
    ("hopf", "product/coproduct duality (size <= 7)", _duality),
    ("hopf", "bi-alphabet evaluation (size <= 6)", _bialphabet),
    ("hopf", "product evaluation (degree <= 6)", _product_evaluation),
    ("hopf", "coproduct layers vs standard tableaux (size <= 10)", _layer_dimensions),
    ("hopf", "coproduct commutes with conjugation (size <= 10)", _conjugation),
    ("branching", "branching dimension identity", _branching),
    ("brute", "Young projector rank vs Weyl dimension", _young_weyl),
    ("brute", "finite-rank socle filtration vs branching", _socle_shadow),
    ("brute", "grade filtration essentiality", _essentiality),
    ("brute", "mixed tensor multiplicities vs contraction kernels", _mixed_oracle),
    ("brute", "parabolic constituent counts vs length formula", _constituent_counts),
]


def run_suite(name: str, budget: int = DEFAULT_BUDGET, seed: int = DEFAULT_SEED
              ) -> list[CheckResult]:
    """Run the checks of one suite, or of every suite for "all"."""
    if name != "all" and name not in {suite for suite, _, _ in CHECKS}:
        raise ValueError(f"unknown suite {name!r}")
    return [_result(title, check(budget, seed))
            for suite, title, check in CHECKS if name in (suite, "all")]
