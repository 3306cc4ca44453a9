"""Acceptance suite: one test per criterion, each printing its own
pass/fail line (run with -s to see the lines on success).

All comparisons are exact; the stated runtime bounds are asserted where a
criterion carries one.
"""

import time

from mackey import brute, verify
from mackey.brute import (
    build_tensor_module,
    constituent_count,
    grade_filtration,
    is_essential_filtration,
    parabolic,
    restrict_module,
    socle_filtration_parabolic,
    young_project,
)
from mackey.linalg import SparseMatrix, Subspace, unit_vec, vec
from mackey.partitions import EMPTY, Partition, partitions_of, partitions_up_to
from mackey.socle import socle_layers, tensor_length
from mackey.verify import SOCLE_SHADOW_GRID, socle_shadow_layer_dims

from gl_weights import gl_highest_weight_count
from oracles import lr_via_monomials

P = Partition


def _finish(num: int, description: str, failures: list[str],
            elapsed: float | None = None, bound: float | None = None) -> None:
    if bound is not None and elapsed is not None and elapsed > bound:
        failures = failures + [f"runtime {elapsed:.1f}s exceeds {bound:.0f}s"]
    status = "PASS" if not failures else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"CRITERION {num}: {status} - {description}{timing}")
    assert not failures, f"criterion {num}: " + "; ".join(failures[:5])


def test_criterion_1_hopf_suite():
    start = time.time()
    failures = []
    for runner, bound in ((verify._coassociativity_failures, 8),
                          (verify._counit_failures, 8),
                          (verify._symmetry_failures, 8)):
        _, bad = runner(bound)
        failures.extend(bad)
    _, bad = verify._duality_failures(7)
    failures.extend(bad)
    _finish(1, "coassociativity, counit, LR symmetry, duality",
            failures, time.time() - start, 60.0)


def test_criterion_2_bialphabet_identity():
    start = time.time()
    _, failures = verify._bialphabet_failures(verify.DEFAULT_SEED, points=20,
                                              max_size=6, max_alpha=3)
    _finish(2, "bi-alphabet evaluation identity at 20 seeded points",
            failures, time.time() - start)


def test_criterion_3_branching_dimensions():
    start = time.time()
    result = verify.branching_suite(max_size=6, max_alpha=3)[0]
    failures = [] if result.passed else [result.detail]
    _finish(3, "branching dimension identity", failures, time.time() - start, 10.0)


def test_criterion_4_socle_structure_against_oracle():
    start = time.time()
    failures = []
    for lam in partitions_up_to(6):
        for mu in (EMPTY, P([3, 1])):
            report = socle_layers(lam, mu)
            if len(report.layers) != lam.size + 1:
                failures.append(f"{lam}: wrong layer count")
                continue
            for k, layer in enumerate(report.layers):
                if not layer:
                    failures.append(f"{lam}: empty layer {k}")
                got = {}
                for c in layer:
                    if c.alpha.size != k or c.beta.size != lam.size - k:
                        failures.append(f"{lam}: inhomogeneous layer {k}")
                    if c.mu != mu:
                        failures.append(f"{lam}: wrong mu in layer {k}")
                    got[(c.alpha.parts, c.beta.parts)] = c.multiplicity
                expected = {}
                for alpha in partitions_of(k):
                    for beta in partitions_of(lam.size - k):
                        c = lr_via_monomials(lam.parts, alpha.parts, beta.parts)
                        if c:
                            expected[(alpha.parts, beta.parts)] = c
                if got != expected:
                    failures.append(f"{lam}: layer {k} multiplicities differ")
            bottom = report.layers[0]
            top = report.layers[-1]
            if not (len(bottom) == 1 and bottom[0].alpha == EMPTY
                    and bottom[0].beta == lam and bottom[0].multiplicity == 1):
                failures.append(f"{lam}: bad socle layer")
            if not (len(top) == 1 and top[0].alpha == lam
                    and top[0].beta == EMPTY and top[0].multiplicity == 1):
                failures.append(f"{lam}: bad top layer")
    _finish(4, "socle layer structure vs monomial-oracle LR coefficients",
            failures, time.time() - start)


def test_criterion_5_finite_rank_socle_shadow():
    start = time.time()
    failures = []
    for n_rank, b in SOCLE_SHADOW_GRID:
        para = parabolic(n_rank, b)
        for lam in partitions_up_to(min(b, n_rank - b)):
            module = build_tensor_module(n_rank, lam.size, 0)
            projected = young_project(module, lam, EMPTY)
            schur_module = restrict_module(module, projected)
            filtration = socle_filtration_parabolic(schur_module, para)
            got = filtration.layer_dimensions()
            expected = socle_shadow_layer_dims(lam, n_rank, b)
            if got != expected:
                failures.append(f"N={n_rank}, b={b}, {lam}: {got} != {expected}")
    _finish(5, "parabolic socle filtration layer dimensions vs branching",
            failures, time.time() - start, 300.0)


def test_criterion_6_essentiality_shadow():
    start = time.time()
    failures = []
    for n_rank, b in SOCLE_SHADOW_GRID:
        para = parabolic(n_rank, b)
        for m in range(1, min(b, n_rank - b, 3) + 1):
            module = build_tensor_module(n_rank, m, 0)
            filtration = grade_filtration(module, para)
            if not is_essential_filtration(module, filtration, para):
                failures.append(f"grade filtration N={n_rank}, b={b}, m={m}")
    zero_module = brute.ExplicitModule(2, 1, lambda label: SparseMatrix(2))
    line = Subspace(2, [vec([1, 3])])
    full = Subspace(2, [unit_vec(2, 0), unit_vec(2, 1)])
    if is_essential_filtration(zero_module, brute.Filtration([line, full]), []):
        failures.append("trivial + trivial line reported essential")
    _finish(6, "binary-word filtrations essential, designed negative rejected",
            failures, time.time() - start)


def test_criterion_7_mixed_tensor_oracle():
    start = time.time()
    failures = []
    for total in range(6):
        for p in range(total + 1):
            q = total - p
            problems = verify.mixed_oracle_report(p, q)
            for problem in problems:
                failures.append(f"(p,q)=({p},{q}): {problem}")
    _finish(7, "mixed-tensor multiplicities vs contraction-kernel bookkeeping",
            failures, time.time() - start)


def _involution_counts(k_max: int) -> list[int]:
    """I(0..k_max) from I(k) = I(k-1) + (k-1) I(k-2): the number of
    standard tableaux summed over all shapes of size k.
    """
    counts = [1, 1]
    for k in range(2, k_max + 1):
        counts.append(counts[k - 1] + (k - 1) * counts[k - 2])
    return counts[:k_max + 1]


def test_criterion_8_length_values():
    start = time.time()
    failures = []
    if tensor_length(1, 0) != 2:
        failures.append(f"tensor_length(1,0) = {tensor_length(1, 0)} != 2")
    # V^(x)q is the sum of the simple S_gamma(V), each f_gamma times, so its
    # length is the involution number I(q); at rank 4 >= q the same count is
    # the number of gl(4) highest weight vectors
    for q, expected in enumerate(_involution_counts(3)):
        got = tensor_length(0, q)
        if got != expected:
            failures.append(f"tensor_length(0,{q}) = {got} != {expected}")
        brute_count = gl_highest_weight_count(4, 0, q)
        if brute_count != expected:
            failures.append(
                f"gl(4) highest weight vectors of V^(x){q}: {brute_count} != {expected}")
    if tensor_length(1, 1) != 3:
        failures.append(f"tensor_length(1,1) = {tensor_length(1, 1)} != 3")
    for n_rank, b in SOCLE_SHADOW_GRID:
        para = parabolic(n_rank, b)
        for m in range(min(b, n_rank - b, 3) + 1):
            module = build_tensor_module(n_rank, m, 0)
            got = constituent_count(module, para)
            if got != tensor_length(m, 0):
                failures.append(
                    f"constituents N={n_rank}, b={b}, m={m}: {got} != {tensor_length(m, 0)}")
    _finish(8, "length values and brute-force constituent counts",
            failures, time.time() - start)


def test_criterion_9_young_weyl_agreement():
    start = time.time()
    _, failures = verify._young_weyl_failures(brute.DEFAULT_BUDGET)
    _finish(9, "Young projector ranks vs Weyl dimensions on the N<=4 grid",
            failures, time.time() - start, 120.0)


def test_criterion_10_vandermonde():
    start = time.time()
    failures = []
    for count in range(1, 7):
        eigenvalues = [(count + 1) ** j for j in range(1, count + 1)]
        h = SparseMatrix.diagonal(eigenvalues)
        components = [unit_vec(count, i) for i in range(count)]
        got = brute.vandermonde_span(components, h)
        if got != count:
            failures.append(f"count={count}: span {got}")
    _finish(10, "Vandermonde spans reach full component count",
            failures, time.time() - start)
