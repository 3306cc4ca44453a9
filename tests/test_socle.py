import json
from math import comb

import pytest

from mackey.partitions import EMPTY, Partition, partitions_of, partitions_up_to, syt_count
from mackey.socle import (
    SimpleConstituent,
    SocleReport,
    decompose_mixed_tensor,
    simple_length,
    socle_layers,
    tensor_length,
)
from mackey.symfunc import lr_coefficient

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
    assert set(decompose_mixed_tensor(1, 1)) == {
        (P([1]), P([1]), 1), (EMPTY, EMPTY, 1)}
    assert set(decompose_mixed_tensor(2, 1)) == {
        (P([2]), P([1]), 1), (P([1, 1]), P([1]), 1), (P([1]), EMPTY, 2)}


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


def test_socle_report_json_round_trip():
    report = socle_layers(P([2, 1]), P([2]))
    data = report.to_json()
    assert SocleReport.from_json(data) == report
    assert json.loads(json.dumps(data)) == data
    assert data["lambda"] == [2, 1] and data["mu"] == [2]
    assert data["layers"][1][0] == {"alpha": [1], "beta": [1, 1], "mu": [2], "mult": 1}


def test_constituent_rejects_zero_multiplicity():
    with pytest.raises(ValueError):
        SimpleConstituent(EMPTY, EMPTY, EMPTY, 0)
