"""The four workloads: their inputs, drawn from a seed, and the checks of
every output against ``oracle``.

A workload is a list of ``Op``. One round runs every op once, in order;
ops of the ``referee`` workload pass the module they build to the ops
after them through the round's ``state``. The function an op calls is
looked up by name at call time, so the traced run sees its wrappers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Any, Callable

import oracle


@dataclass
class Op:
    label: str
    module: Any  # the mackey module that holds the function
    function: str
    args: Callable[[dict], tuple]  # the arguments, from the round's state
    check: Callable[[Any, dict], bool]  # whether the output is right

    def call(self, args: tuple):
        return getattr(self.module, self.function)(*args)


def _given(*values) -> Callable[[dict], tuple]:
    return lambda state: values


# ---------------------------------------------------------------------------
# socle: a cold socle filtration of every partition of 13 and of 14

SOCLE_SIZES = (13, 14)
SOCLE_MU_MAX = 4  # mu is drawn from the partitions of 0..4
SOCLE_ALPHABETS = ((2, 3), (4, 5), (7, 7))


def _check_socle(lam: tuple, mu: tuple):
    n = sum(lam)
    restriction = oracle.f(lam)
    dims = {(a, b): oracle.dim_gl(lam, a + b) for a, b in SOCLE_ALPHABETS}

    def check(report, state) -> bool:
        if report.lam.parts != lam or report.mu.parts != mu:
            return False
        if len(report.layers) != n + 1:
            return False
        sums = dict.fromkeys(SOCLE_ALPHABETS, 0)
        seen = set()
        for k, layer in enumerate(report.layers):
            if not layer:
                return False
            branched = 0
            for c in layer:
                alpha, beta = c.alpha.parts, c.beta.parts
                if (sum(alpha) != k or sum(beta) != n - k or c.mu.parts != mu
                        or c.multiplicity < 1 or (alpha, beta) in seen):
                    return False
                seen.add((alpha, beta))
                branched += c.multiplicity * oracle.f(alpha) * oracle.f(beta)
                for a, b in SOCLE_ALPHABETS:
                    sums[(a, b)] += (c.multiplicity * oracle.dim_gl(alpha, a)
                                     * oracle.dim_gl(beta, b))
            # restriction of S^lam from S_n to S_k x S_(n-k)
            if branched != restriction:
                return False
        return sums == dims

    return check


def socle_ops(mackey, seed: int) -> list[Op]:
    rng = random.Random(seed)
    small = [mu for k in range(SOCLE_MU_MAX + 1) for mu in oracle.partitions(k)]
    queries = [(lam, rng.choice(small))
               for n in SOCLE_SIZES for lam in oracle.partitions(n)]
    rng.shuffle(queries)
    P = mackey.Partition
    return [Op(f"socle_layers {lam} {mu}", mackey.socle, "socle_layers",
               _given(P(lam), P(mu)), _check_socle(lam, mu))
            for lam, mu in queries]


# ---------------------------------------------------------------------------
# product: s_mu * s_nu for distinct pairs with |mu| + |nu| = 16..20

PRODUCT_DEGREES = range(16, 21)
PRODUCT_NU_SIZES = range(2, 9)
PRODUCT_RANKS = (2, 3, 5)


def product_pairs(seed: int) -> list[tuple[tuple, tuple]]:
    """For each degree n and each |nu| = k, every nu of k once, each with a
    mu of n - k taken by systematic sampling of the partitions of n - k in
    lexicographic order from a seeded offset. Spreading the mu over the
    whole list keeps the work of a round nearly the same for every seed."""
    rng = random.Random(seed)
    pairs = []
    for n in PRODUCT_DEGREES:
        for k in PRODUCT_NU_SIZES:
            mus = oracle.partitions(n - k)
            nus = list(oracle.partitions(k))
            rng.shuffle(nus)
            step = len(mus) / len(nus)
            offset = rng.random()
            pairs.extend((mus[int((i + offset) * step)], nu) for i, nu in enumerate(nus))
    rng.shuffle(pairs)
    return pairs


def _check_product(mu: tuple, nu: tuple):
    n = sum(mu) + sum(nu)
    standard = comb(n, sum(mu)) * oracle.f(mu) * oracle.f(nu)
    dims = {r: oracle.dim_gl(mu, r) * oracle.dim_gl(nu, r) for r in PRODUCT_RANKS}

    def check(product, state) -> bool:
        total = 0
        sums = dict.fromkeys(PRODUCT_RANKS, 0)
        for lam, c in product.terms.items():
            shape = lam.parts
            if (sum(shape) != n or c < 1 or not oracle.contains(shape, mu)
                    or not oracle.contains(shape, nu)):
                return False
            total += c * oracle.f(shape)
            for r in PRODUCT_RANKS:
                sums[r] += c * oracle.dim_gl(shape, r)
        return total == standard and sums == dims

    return check


def product_ops(mackey, seed: int) -> list[Op]:
    P = mackey.Partition
    return [Op(f"schur_product {mu} {nu}", mackey.symfunc, "schur_product",
               _given(P(mu), P(nu)), _check_product(mu, nu))
            for mu, nu in product_pairs(seed)]


# ---------------------------------------------------------------------------
# length: composition lengths and mixed tensor decompositions up to degree 20

DECOMPOSE_GRID = ([(p, q) for p in (4, 8, 12, 16, 20) for q in (4, 8, 12, 16, 20)]
                  + [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
LENGTH_GRID = [(m, n) for m in (2, 6, 10, 14, 18) for n in (2, 6, 10, 14, 18)]
DIMENSION_CHECK_MAX = 6  # the Weyl dimension identity is checked for p + q <= 6


def _check_decompose(p: int, q: int):
    def check(triples, state) -> bool:
        # per depth r: the expected betas and gammas with their index and f,
        # and one flag per (beta, gamma), so that a repeated pair is caught
        # without a set as large as the output
        depths = {}
        for r in range(min(p, q) + 1):
            betas, gammas = oracle.shape_table(p - r), oracle.shape_table(q - r)
            depths[p - r] = (betas, gammas, oracle.pairings(p, q, r),
                             bytearray(len(betas) * len(gammas)))
        total = 0
        for beta, gamma, mult in triples:
            b, g = beta.parts, gamma.parts
            depth = depths.get(sum(b))
            if depth is None:
                return False
            betas, gammas, pairs, seen = depth
            if b not in betas or g not in gammas:
                return False
            (ib, fb), (ig, fg) = betas[b], gammas[g]
            slot = ib * len(gammas) + ig
            if seen[slot] or mult != pairs * fb * fg:
                return False
            seen[slot] = 1
            total += mult
        if not all(all(depth[3]) for depth in depths.values()):
            return False
        if total != oracle.mixed_length(p, q):
            return False
        if p + q <= DIMENSION_CHECK_MAX:
            rank = p + q + 1
            dim = sum(mult * oracle.dim_mixed(beta.parts, gamma.parts, rank)
                      for beta, gamma, mult in triples)
            return dim == rank ** (p + q)
        return True

    return check


def length_ops(mackey, seed: int) -> list[Op]:
    ops = [Op(f"decompose_mixed_tensor {p} {q}", mackey.socle, "decompose_mixed_tensor",
              _given(p, q), _check_decompose(p, q))
           for p, q in DECOMPOSE_GRID]
    ops += [Op(f"tensor_length {m} {n}", mackey.socle, "tensor_length", _given(m, n),
               lambda value, state, m=m, n=n: value == oracle.tensor_length(m, n))
            for m, n in LENGTH_GRID]
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# referee: the brute-force phases on tensor modules of dimension 16 to 512

# (N, b, m): (C^N*)^(x)m over the parabolic at (N, b), all in the stable
# range m <= min(b, N - b) where the layer dimensions have a closed form.
FILTERED = [(n, b, 2) for n in range(4, 8) for b in range(2, n - 1)] + [(6, 3, 3)]
FILTERED_ONLY = [(7, 3, 3)]  # socle filtration alone: the other phases take 8 s
# (N, m, n): mixed modules for the traceless and Young phases.
MIXED = [(2, 2, 2), (3, 1, 2), (3, 2, 1), (3, 2, 2), (4, 1, 1), (4, 1, 2), (4, 2, 1),
         (5, 1, 2), (5, 2, 1), (4, 2, 2), (8, 1, 2)]


def _check_module(rank: int, m: int, n: int):
    def check(module, state) -> bool:
        state[(rank, m, n)] = module
        return (module.dimension == rank ** (m + n) and len(module.labels) == module.dimension
                and (module.star_slots, module.plain_slots) == (m, n))
    return check


def _module(key: tuple, *rest) -> Callable[[dict], tuple]:
    return lambda state: (state[key],) + rest


def _build(brute, rank: int, m: int, n: int) -> Op:
    def args(state):
        state.clear()  # the previous module's ops are done: free it and its matrices
        return rank, m, n
    return Op(f"build_tensor_module {rank} {m} {n}", brute, "build_tensor_module",
              args, _check_module(rank, m, n))


def _young_ops(brute, P, rank: int, m: int, n: int, rng: random.Random) -> list[Op]:
    shapes = [(lam, mu) for lam in oracle.partitions(m) for mu in oracle.partitions(n)
              if len(lam) + len(mu) <= rank]
    rng.shuffle(shapes)
    return [Op(f"young_project {rank} {lam} {mu}", brute, "young_project",
               _module((rank, m, n), P(lam), P(mu)),
               lambda sub, state, lam=lam, mu=mu:
                   sub.dim == oracle.dim_mixed(lam, mu, rank))
            for lam, mu in shapes]


def _filtered_ops(brute, P, rank: int, b: int, m: int, rng, full: bool) -> list[Op]:
    """Build, then the socle filtration; with ``full`` also the constituent
    count and essentiality, and the Young images once per module shape."""
    key = (rank, m, 0)
    layers = oracle.grade_layer_dims(rank, b, m)

    def with_parabolic(state):
        return state[key], brute.parabolic(rank, b)

    def with_grades(state):
        module, para = with_parabolic(state)
        return module, brute.grade_filtration(module, para), para

    ops = [_build(brute, rank, m, 0)]
    if full and m == 2 and b == 2:
        ops += _young_ops(brute, P, rank, m, 0, rng)
    ops.append(Op(f"socle_filtration_parabolic {rank} {b} {m}", brute,
                  "socle_filtration_parabolic", with_parabolic,
                  lambda filt, state: filt.layer_dimensions() == layers))
    if full:
        ops.append(Op(f"constituent_count {rank} {b} {m}", brute, "constituent_count",
                      with_parabolic,
                      lambda count, state: count == oracle.tensor_length(m, 0)))
        ops.append(Op(f"is_essential_filtration {rank} {b} {m}", brute,
                      "is_essential_filtration", with_grades,
                      lambda essential, state: essential is True))
    return ops


def _mixed_ops(brute, P, rank: int, m: int, n: int, rng) -> list[Op]:
    traceless = oracle.traceless_dim(rank, m, n)
    return ([_build(brute, rank, m, n),
             Op(f"traceless_subspace {rank} {m} {n}", brute, "traceless_subspace",
                _module((rank, m, n)), lambda sub, state: sub.dim == traceless),
             Op(f"traceless_dimension {rank} {m} {n}", brute, "traceless_dimension",
                _given(rank, m, n), lambda dim, state: dim == traceless)]
            + _young_ops(brute, P, rank, m, n, rng))


def referee_ops(mackey, seed: int) -> list[Op]:
    """Each module's ops stay in order (build first); the seed orders the
    modules and the Young shapes within each."""
    rng = random.Random(seed)
    brute, P = mackey.brute, mackey.Partition
    groups = ([_filtered_ops(brute, P, *key, rng, full=True) for key in FILTERED]
              + [_filtered_ops(brute, P, *key, rng, full=False) for key in FILTERED_ONLY]
              + [_mixed_ops(brute, P, *key, rng) for key in MIXED])
    rng.shuffle(groups)
    return [op for group in groups for op in group]


WORKLOADS = {"socle": socle_ops, "product": product_ops, "length": length_ops,
             "referee": referee_ops}
