"""Cross-checking suites wired to the CLI `verify` command.

Each suite pits independently computed quantities against each other
(tableau combinatorics vs. rational evaluation vs. explicit finite-rank
linear algebra) and reports one result per checked identity. All equalities
are exact; randomized point checks draw from a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from . import brute, finrank, socle, symfunc
from .brute import DEFAULT_BUDGET
from .linalg import SparseMatrix, Subspace, unit_vec, vec
from .partitions import EMPTY, Partition, dim_schur, partitions_of, partitions_up_to, syt_count

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


def _result(name: str, cases: int, failures: list[str]) -> CheckResult:
    if failures:
        return CheckResult(name, False,
                           f"{len(failures)}/{cases} cases failed; first: {failures[0]}")
    return CheckResult(name, True, f"{cases} cases")


def _random_point(rng: random.Random, size: int) -> list[Fraction]:
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)]


# ---------------------------------------------------------------------------
# Hopf suite

def _coassociativity_failures(max_size: int) -> tuple[int, list[str]]:
    cases = 0
    failures = []
    for lam in partitions_up_to(max_size):
        cases += 1
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
        if left != right:
            failures.append(f"lambda={lam}")
    return cases, failures


def _counit_failures(max_size: int) -> tuple[int, list[str]]:
    cases = 0
    failures = []
    for lam in partitions_up_to(max_size):
        cases += 1
        from_left = {nu: c for (mu, nu), c in symfunc.coproduct(lam) if mu == EMPTY}
        from_right = {mu: c for (mu, nu), c in symfunc.coproduct(lam) if nu == EMPTY}
        if from_left != {lam: 1} or from_right != {lam: 1}:
            failures.append(f"lambda={lam}")
    return cases, failures


def _symmetry_failures(max_size: int) -> tuple[int, list[str]]:
    cases = 0
    failures = []
    for lam in partitions_up_to(max_size):
        delta = symfunc.coproduct(lam)
        for (mu, nu), c in delta:
            cases += 1
            if delta.coefficient((nu, mu)) != c:
                failures.append(f"lambda={lam}, mu={mu}, nu={nu}")
    return cases, failures


def _duality_failures(max_size: int) -> tuple[int, list[str]]:
    cases = 0
    failures = []
    for total in range(max_size + 1):
        for k in range(total + 1):
            for mu in partitions_of(k):
                for nu in partitions_of(total - k):
                    prod = symfunc.schur_product(mu, nu)
                    for lam in partitions_of(total):
                        cases += 1
                        if prod.coefficient(lam) != symfunc.coproduct(lam).coefficient((mu, nu)):
                            failures.append(f"lambda={lam}, mu={mu}, nu={nu}")
    return cases, failures


def _bialphabet_failures(seed: int, points: int = 20, max_size: int = 6,
                         max_alpha: int = 3) -> tuple[int, list[str]]:
    rng = random.Random(seed)
    alphabet_sizes = [(a, b) for a in range(1, max_alpha + 1)
                      for b in range(1, max_alpha + 1)]
    cases = 0
    failures = []
    for index in range(points):
        a, b = alphabet_sizes[index % len(alphabet_sizes)]
        xs = _random_point(rng, a)
        ys = _random_point(rng, b)
        for lam in partitions_up_to(max_size):
            cases += 1
            lhs = symfunc.eval_schur(lam, xs + ys)
            rhs = sum(
                (c * symfunc.eval_schur(mu, xs) * symfunc.eval_schur(nu, ys)
                 for (mu, nu), c in symfunc.coproduct(lam)),
                Fraction(0))
            if lhs != rhs:
                failures.append(f"lambda={lam}, point #{index}")
    return cases, failures


def _product_eval_failures(seed: int, points: int = 20, max_size: int = 6
                           ) -> tuple[int, list[str]]:
    rng = random.Random(seed + 1)
    cases = 0
    failures = []
    for index in range(points):
        xs = _random_point(rng, 3)
        total = rng.randint(0, max_size)
        k = rng.randint(0, total)
        mus = partitions_of(k)
        nus = partitions_of(total - k)
        mu = mus[rng.randrange(len(mus))]
        nu = nus[rng.randrange(len(nus))]
        cases += 1
        lhs = sum((c * symfunc.eval_schur(lam, xs)
                   for lam, c in symfunc.schur_product(mu, nu)), Fraction(0))
        rhs = symfunc.eval_schur(mu, xs) * symfunc.eval_schur(nu, xs)
        if lhs != rhs:
            failures.append(f"mu={mu}, nu={nu}, point #{index}")
    return cases, failures


def hopf_suite(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    results = []
    results.append(_result("coassociativity (size <= 8)", *_coassociativity_failures(8)))
    results.append(_result("counit (size <= 8)", *_counit_failures(8)))
    results.append(_result("LR symmetry (size <= 8)", *_symmetry_failures(8)))
    results.append(_result("product/coproduct duality (size <= 7)", *_duality_failures(7)))
    results.append(_result("bi-alphabet evaluation (size <= 6)",
                           *_bialphabet_failures(seed)))
    results.append(_result("product evaluation (degree <= 6)",
                           *_product_eval_failures(seed)))
    return results


# ---------------------------------------------------------------------------
# branching suite

def branching_suite(max_size: int = 6, max_alpha: int = 3) -> list[CheckResult]:
    cases = 0
    failures = []
    for lam in partitions_up_to(max_size):
        for a in range(1, max_alpha + 1):
            for b in range(1, max_alpha + 1):
                cases += 1
                if not finrank.branching_identity_check(lam, a, b):
                    failures.append(f"lambda={lam}, a={a}, b={b}")
    return [_result("branching dimension identity", cases, failures)]


# ---------------------------------------------------------------------------
# brute suite

def _dim_mixed(beta: Partition, gamma: Partition, n: int) -> int:
    return finrank.dim_mixed(finrank.MixedWeight(beta, gamma, n))


def _young_weyl_failures(budget: int) -> tuple[int, list[str]]:
    cases = 0
    failures = []
    for n_rank in range(1, 5):
        for lam in partitions_up_to(3):
            module = brute.build_tensor_module(n_rank, lam.size, 0, budget)
            got = brute.young_project(module, lam, EMPTY).dim
            cases += 1
            if got != dim_schur(lam, n_rank):
                failures.append(f"N={n_rank}, lambda={lam}: {got}")
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
                        cases += 1
                        if got != _dim_mixed(lam, mu, n_rank):
                            failures.append(
                                f"N={n_rank}, lambda={lam}, mu={mu}: {got}")
    return cases, failures


def socle_shadow_layer_dims(lam: Partition, n_rank: int, b: int) -> list[int]:
    """Branching prediction for the layer dimensions of the finite-rank
    socle filtration of the Schur module of the dual at (N, b).
    """
    expected = []
    for k in range(lam.size + 1):
        total = 0
        for (alpha, beta), c in symfunc.coproduct(lam):
            if alpha.size == k:
                total += c * dim_schur(alpha, n_rank - b) * dim_schur(beta, b)
        expected.append(total)
    return expected


def _socle_shadow_failures(budget: int) -> tuple[int, list[str]]:
    cases = 0
    failures = []
    for n_rank, b in SOCLE_SHADOW_GRID:
        para = brute.parabolic(n_rank, b)
        for lam in partitions_up_to(min(b, n_rank - b)):
            cases += 1
            module = brute.build_tensor_module(n_rank, lam.size, 0, budget)
            projected = brute.young_project(module, lam, EMPTY)
            schur_module = brute.restrict_module(module, projected)
            filtration = brute.socle_filtration_parabolic(schur_module, para)
            got = filtration.layer_dimensions()
            expected = socle_shadow_layer_dims(lam, n_rank, b)
            if got != expected:
                failures.append(
                    f"N={n_rank}, b={b}, lambda={lam}: {got} != {expected}")
    return cases, failures


def _essential_failures(budget: int, seed: int) -> tuple[int, list[str]]:
    cases = 0
    failures = []
    for n_rank, b in SOCLE_SHADOW_GRID:
        para = brute.parabolic(n_rank, b)
        for m in range(1, min(b, n_rank - b, 3) + 1):
            cases += 1
            module = brute.build_tensor_module(n_rank, m, 0, budget)
            filtration = brute.grade_filtration(module, para)
            if not brute.is_essential_filtration(module, filtration, para):
                failures.append(f"grade filtration N={n_rank}, b={b}, m={m}")
    # designed negative case: a line inside trivial + trivial over the
    # zero algebra is not essential (the socle is everything)
    cases += 1
    rng = random.Random(seed + 2)
    zero_module = brute.ExplicitModule(2, 1, lambda label: SparseMatrix(2))
    line = Subspace(2, [vec([rng.randint(1, 5), rng.randint(1, 5)])])
    full = Subspace(2, [unit_vec(2, 0), unit_vec(2, 1)])
    bad = brute.Filtration([line, full])
    if brute.is_essential_filtration(zero_module, bad, []):
        failures.append("trivial + trivial negative case reported essential")
    return cases, failures


def mixed_oracle_report(p: int, q: int, budget: int = DEFAULT_BUDGET) -> list[str]:
    """Mismatches between decompose_mixed_tensor(p, q) and the finite-rank
    contraction-kernel bookkeeping at rank n = p + q + 1. Empty means the
    multiplicity formula is confirmed at this degree.
    """
    n = p + q + 1
    problems = []
    decomposition = socle.decompose_mixed_tensor(p, q)
    dim_sum = sum(mult * _dim_mixed(beta, gamma, n)
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
                       * _dim_mixed(beta, gamma, n)
                       for beta in partitions_of(p - r)
                       for gamma in partitions_of(q - r))
        if t_dim != expected:
            problems.append(
                f"traceless dim at depth {r}: brute {t_dim} != formula {expected}")
    return problems


def _mixed_oracle_failures(budget: int, max_degree: int = 5) -> tuple[int, list[str]]:
    cases = 0
    failures = []
    for total in range(max_degree + 1):
        for p in range(total + 1):
            q = total - p
            cases += 1
            problems = mixed_oracle_report(p, q, budget)
            if problems:
                failures.append(f"(p,q)=({p},{q}): {problems[0]}")
    return cases, failures


def _length_failures(budget: int) -> tuple[int, list[str]]:
    cases = 0
    failures = []
    for n_rank, b in SOCLE_SHADOW_GRID:
        para = brute.parabolic(n_rank, b)
        for m in range(min(b, n_rank - b, 3) + 1):
            cases += 1
            module = brute.build_tensor_module(n_rank, m, 0, budget)
            got = brute.constituent_count(module, para)
            expected = socle.tensor_length(m, 0)
            if got != expected:
                failures.append(f"N={n_rank}, b={b}, m={m}: {got} != {expected}")
    return cases, failures


def _vandermonde_failures() -> tuple[int, list[str]]:
    cases = 0
    failures = []
    for count in range(1, 7):
        cases += 1
        eigenvalues = [(count + 1) ** j for j in range(1, count + 1)]
        h = SparseMatrix.diagonal(eigenvalues)
        components = [unit_vec(count, i) for i in range(count)]
        if brute.vandermonde_span(components, h) != count:
            failures.append(f"count={count}")
    return cases, failures


def brute_suite(budget: int = DEFAULT_BUDGET, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    results = []
    results.append(_result("Young projector rank vs Weyl dimension",
                           *_young_weyl_failures(budget)))
    results.append(_result("finite-rank socle filtration vs branching",
                           *_socle_shadow_failures(budget)))
    results.append(_result("grade filtration essentiality",
                           *_essential_failures(budget, seed)))
    results.append(_result("mixed tensor multiplicities vs contraction kernels",
                           *_mixed_oracle_failures(budget)))
    results.append(_result("parabolic constituent counts vs length formula",
                           *_length_failures(budget)))
    results.append(_result("Vandermonde spans", *_vandermonde_failures()))
    return results


SUITES = {
    "hopf": lambda budget, seed: hopf_suite(seed),
    "branching": lambda budget, seed: branching_suite(),
    "brute": brute_suite,
}


def run_suite(name: str, budget: int = DEFAULT_BUDGET, seed: int = DEFAULT_SEED
              ) -> list[CheckResult]:
    if name == "all":
        results = []
        for key in ("hopf", "branching", "brute"):
            results.extend(SUITES[key](budget, seed))
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](budget, seed)
