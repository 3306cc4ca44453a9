import dataclasses
import gc
import hashlib
import json
from math import comb, factorial

import pytest

from mackey import socle
from mackey.cli import main
from mackey.partitions import (
    EMPTY, Partition, format_partition, partitions_of, partitions_up_to, syt_count)
from mackey.socle import (
    SimpleConstituent,
    decompose_mixed_tensor,
    simple_length,
    socle_layers,
    tensor_length,
)
from mackey.symfunc import coproduct, lr_coefficient

P = Partition


def as_tuples(report):
    return [
        {(c.alpha, c.beta, c.mu, c.multiplicity) for c in layer}
        for layer in report.layers
    ]


def test_socle_of_dual_vector_module():
    # the socle of V* is V_*, the top is V*/V_*
    report = socle_layers(P([1]), EMPTY)
    assert as_tuples(report) == [
        {(EMPTY, P([1]), EMPTY, 1)},
        {(P([1]), EMPTY, EMPTY, 1)},
    ]


def test_socle_trivial_dual_side():
    mu = P([2])
    report = socle_layers(EMPTY, mu)
    assert as_tuples(report) == [{(EMPTY, EMPTY, mu, 1)}]


def test_socle_staircase():
    report = socle_layers(P([2, 1]), EMPTY)
    assert as_tuples(report) == [
        {(EMPTY, P([2, 1]), EMPTY, 1)},
        {(P([1]), P([2]), EMPTY, 1), (P([1]), P([1, 1]), EMPTY, 1)},
        {(P([2]), P([1]), EMPTY, 1), (P([1, 1]), P([1]), EMPTY, 1)},
        {(P([2, 1]), EMPTY, EMPTY, 1)},
    ]


def test_socle_layer_invariants():
    mu = P([3, 1])
    for lam in partitions_up_to(5):
        report = socle_layers(lam, mu)
        assert len(report.layers) == lam.size + 1
        for k, layer in enumerate(report.layers):
            assert layer, (lam, k)
            for c in layer:
                assert c.alpha.size == k
                assert c.beta.size == lam.size - k
                assert c.mu == mu
                assert c.multiplicity == lr_coefficient(lam, c.alpha, c.beta)
        assert as_tuples(report)[0] == {(EMPTY, lam, mu, 1)}
        assert as_tuples(report)[-1] == {(lam, EMPTY, mu, 1)}


def layers_by_sorted_coproduct(lam, mu):
    """Every coproduct term of s_lam in degree-then-lex order of alpha, then
    of beta, split by |alpha|: the reference order of socle_layers."""
    layers = [[] for _ in range(lam.size + 1)]
    terms = sorted(coproduct(lam).terms.items(),
                   key=lambda term: [(sum(a), tuple(a)) for a in term[0]])
    for (alpha, beta), c in terms:
        layers[alpha.size].append((alpha, beta, mu, c))
    return layers


def test_socle_layers_come_in_the_order_of_the_sorted_coproduct():
    # size 13 has the largest buckets that any test sorts
    cases = [(lam, mu) for lam in partitions_up_to(12) for mu in (EMPTY, P([2, 1]))]
    cases += [(lam, EMPTY) for lam in partitions_of(13)]
    for lam, mu in cases:
        report = socle_layers(lam, mu)
        assert [[(c.alpha, c.beta, c.mu, c.multiplicity) for c in layer]
                for layer in report.layers] == layers_by_sorted_coproduct(lam, mu), (lam, mu)


def test_simple_length_values():
    assert simple_length(P([1]), EMPTY) == 2
    assert simple_length(EMPTY, P([3, 1])) == 1
    assert simple_length(P([2, 1]), EMPTY) == 6


def test_simple_length_independent_of_mu():
    for lam in partitions_up_to(4):
        lengths = {simple_length(lam, mu) for mu in (EMPTY, P([1]), P([2, 2]))}
        assert len(lengths) == 1


def test_decompose_examples():
    assert decompose_mixed_tensor(0, 1) == [(EMPTY, P([1]), 1)]
    assert decompose_mixed_tensor(1, 1) == [
        (P([1]), P([1]), 1), (EMPTY, EMPTY, 1)]
    assert decompose_mixed_tensor(2, 1) == [
        (P([2]), P([1]), 1), (P([1, 1]), P([1]), 1), (P([1]), EMPTY, 2)]


def test_decompose_rejects_negative():
    with pytest.raises(ValueError):
        decompose_mixed_tensor(-1, 0)


def test_tensor_length_values():
    assert tensor_length(1, 0) == 2
    assert tensor_length(0, 1) == 1
    assert tensor_length(1, 1) == 3
    # cross-checked against the parabolic constituent count at finite rank
    assert tensor_length(2, 0) == 6
    assert tensor_length(3, 0) == 20
    # length of V^(x)q is the number of its Schur summands
    assert tensor_length(0, 0) == 1
    assert tensor_length(0, 2) == 2
    assert tensor_length(0, 3) == 4


def tensor_length_by_enumeration(m, n):
    """The enumerated sum the closed form replaces: the Schur pieces of each
    (V*/V_*)^(x)m1 times the total multiplicity of the mixed remainder."""
    return sum(comb(m, m1) * sum(syt_count(lam) for lam in partitions_of(m1))
               * sum(mult for _, _, mult in decompose_mixed_tensor(m - m1, n))
               for m1 in range(m + 1))


def test_tensor_length_closed_form_matches_enumeration():
    for m in range(10):
        for n in range(10):
            assert tensor_length(m, n) == tensor_length_by_enumeration(m, n), (m, n)


def tensor_length_by_binomials(m, n):
    """The closed form with every binomial C(m, m1) computed afresh, the
    reference for the stepped binomial of tensor_length."""
    involutions = [1, 1]
    for k in range(2, max(m, n) + 1):
        involutions.append(involutions[-1] + (k - 1) * involutions[-2])
    return sum(comb(m, m1) * involutions[m1]
               * sum(comb(m - m1, r) * comb(n, r) * factorial(r)
                     * involutions[m - m1 - r] * involutions[n - r]
                     for r in range(min(m - m1, n) + 1))
               for m1 in range(m + 1))


def test_tensor_length_matches_the_unstepped_closed_form():
    grid = [(m, n) for m in range(40) for n in range(40)]
    for m, n in grid + [(200, 0), (0, 200), (60, 60), (37, 5), (1, 300)]:
        assert tensor_length(m, n) == tensor_length_by_binomials(m, n), (m, n)


def test_tensor_length_follows_the_recurrences_of_its_generating_function():
    # d/dx and d/dy of exp(2x + x^2 + y + y^2/2 + xy), read coefficientwise
    for m, n in [(0, 0), (1, 0), (0, 1), (5, 7), (40, 3), (3, 40), (150, 150),
                 (300, 1), (1, 300), (299, 299)]:
        left = tensor_length(m - 1, n) if m else 0
        below = tensor_length(m, n - 1) if n else 0
        here = tensor_length(m, n)
        assert tensor_length(m + 1, n) == 2 * here + 2 * m * left + n * below, (m, n)
        assert tensor_length(m, n + 1) == here + n * below + m * left, (m, n)


def test_tensor_length_is_at_most_21_factorial_of_the_total_degree():
    # the work bound of `mackey length` rests on T(m, n) <= T(m + n, 0) <= e^3 (m + n)!
    for m in range(40):
        for n in range(40):
            assert tensor_length(m, n) <= tensor_length(m + n, 0) <= 21 * factorial(m + n), (m, n)


def decompose_by_nested_loops(p, q):
    """One triple at a time, f_beta and f_gamma looked up for each: the
    reference for the shared multiplicity rows of decompose_mixed_tensor."""
    out = []
    for r in range(min(p, q) + 1):
        pairings = comb(p, r) * comb(q, r) * factorial(r)
        for beta in partitions_of(p - r):
            for gamma in partitions_of(q - r):
                out.append((beta, gamma,
                            pairings * syt_count(beta) * syt_count(gamma)))
    return out


def test_decompose_matches_the_nested_loops_in_order():
    grid = [(p, q) for p in range(11) for q in range(11)] + [(16, 12), (12, 16), (20, 8), (8, 20)]
    for p, q in grid:
        assert decompose_mixed_tensor(p, q) == decompose_by_nested_loops(p, q), (p, q)


def test_decompose_at_degree_20_is_pinned():
    # the largest call of the length workload, one "beta|gamma|mult" line per
    # triple in output order, partitions in their text form
    out = decompose_mixed_tensor(20, 20)
    names = {lam: format_partition(lam) for lam in partitions_up_to(20)}
    text = "".join([f"{names[beta]}|{names[gamma]}|{mult}\n" for beta, gamma, mult in out])
    assert len(out) == 995_074
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "04e4df602ab56d6b9115aa5330b235b8766c528e47fed03df04a93b9be6edcac")


def test_decompose_shares_each_multiplicity_across_its_hook_count_class():
    # a multiplicity depends only on (r, f_beta, f_gamma): at (20, 20) one int
    # object per depth and pair of distinct hook counts, 190,903 in all
    out = decompose_mixed_tensor(20, 20)
    assert len({id(mult) for *_, mult in out}) <= 190_903


@pytest.fixture
def collector_setting():
    """Put the caller's garbage collector setting back after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def test_decompose_leaves_an_enabled_collector_enabled(collector_setting):
    gc.enable()
    assert decompose_mixed_tensor(6, 5) == decompose_by_nested_loops(6, 5)
    assert gc.isenabled()


def test_decompose_leaves_a_disabled_collector_disabled(collector_setting):
    gc.disable()
    assert decompose_mixed_tensor(6, 5) == decompose_by_nested_loops(6, 5)
    assert not gc.isenabled()


def test_decompose_restores_the_collector_when_the_build_raises(
        collector_setting, monkeypatch):
    # the 20th f_lambda is asked for at depth r = 1 of (6, 5), after the
    # 77 triples of depth 0 are built
    enabled_during_build = []

    def syt_count_failing_at_20(lam):
        enabled_during_build.append(gc.isenabled())
        if len(enabled_during_build) == 20:
            raise RuntimeError("20th f_lambda")
        return syt_count(lam)

    monkeypatch.setattr(socle, "syt_count", syt_count_failing_at_20)
    gc.enable()
    with pytest.raises(RuntimeError, match="20th f_lambda"):
        decompose_mixed_tensor(6, 5)
    assert gc.isenabled()
    assert len(enabled_during_build) == 20 and not any(enabled_during_build)


def test_socle_report_json_round_trip(capsys):
    assert main(["socle", "--lambda", "2,1", "--mu", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lambda"] == [2, 1] and data["mu"] == [2]
    assert data["layers"][1][0] == {"alpha": [1], "beta": [1, 1], "mu": [2], "mult": 1}


def test_constituent_rejects_zero_multiplicity():
    with pytest.raises(ValueError):
        SimpleConstituent(EMPTY, EMPTY, EMPTY, 0)


def test_constituents_and_reports_take_dataclasses_replace():
    report = socle_layers(P([2, 1]), P([1]))
    c = report.layers[1][0]
    bumped = dataclasses.replace(c, multiplicity=2)
    assert (bumped.alpha, bumped.beta, bumped.mu, bumped.multiplicity) == (
        c.alpha, c.beta, c.mu, 2)
    with pytest.raises(ValueError):
        dataclasses.replace(c, multiplicity=0)
    shorter = dataclasses.replace(report, layers=report.layers[:-1])
    assert (shorter.lam, shorter.mu, shorter.layers) == (
        report.lam, report.mu, report.layers[:-1])
