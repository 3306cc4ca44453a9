from fractions import Fraction

from mackey.partitions import EMPTY, Partition, partitions_of, partitions_up_to
from mackey.symfunc import (
    SchurExpr,
    coproduct,
    eval_schur,
    lr_coefficient,
    schur_product,
)

from oracles import lr_via_monomials, schur_product_table

P = Partition


def test_lr_unit_axiom():
    for lam in partitions_up_to(5):
        assert lr_coefficient(lam, EMPTY, lam) == 1
        assert lr_coefficient(lam, lam, EMPTY) == 1


def test_lr_frozen_values():
    # computed with the monomial-expansion oracle
    assert lr_coefficient(P([2, 1]), P([1]), P([2])) == 1
    assert lr_coefficient(P([2, 1]), P([1]), P([1, 1])) == 1
    assert lr_coefficient(P([3, 2, 1]), P([2, 1]), P([2, 1])) == 2
    assert lr_coefficient(P([2, 2]), P([1]), P([2])) == 0


def test_lr_size_and_containment_guards():
    assert lr_coefficient(P([2, 1]), P([1]), P([1])) == 0
    assert lr_coefficient(P([1, 1, 1]), P([2]), P([1])) == 0
    assert lr_coefficient(P([2]), P([3]), EMPTY) == 0
    assert lr_coefficient(EMPTY, P([1]), P([1])) == 0
    lam = P([3, 2, 1])
    for mu in partitions_up_to(4):
        for nu in partitions_up_to(6):
            if not lam.contains(mu) or mu.size + nu.size != lam.size:
                assert lr_coefficient(lam, mu, nu) == 0, (mu, nu)


def test_lr_against_monomial_oracle():
    for total in range(6):
        for k in range(total + 1):
            for mu in partitions_of(k):
                for nu in partitions_of(total - k):
                    for lam in partitions_of(total):
                        assert lr_coefficient(lam, mu, nu) == \
                            lr_via_monomials(lam.parts, mu.parts, nu.parts), \
                            (lam, mu, nu)


def test_schur_product_examples():
    for nu in partitions_up_to(3):
        assert schur_product(EMPTY, nu) == SchurExpr({nu: 1})
    assert schur_product(P([1]), P([1])) == SchurExpr({P([2]): 1, P([1, 1]): 1})
    assert schur_product(P([2]), P([1, 1])) == \
        SchurExpr({P([3, 1]): 1, P([2, 1, 1]): 1})


def test_schur_product_against_monomial_oracle():
    for total in range(8):
        for k in range(total + 1):
            for mu in partitions_of(k):
                for nu in partitions_of(total - k):
                    assert {lam.parts: c for lam, c in schur_product(mu, nu)} == \
                        schur_product_table(mu.parts, nu.parts), (mu, nu)


def test_schur_product_commutes():
    # the two sides place different factors on top, so they enumerate
    # different skew shapes
    for total in range(11):
        for k in range(total // 2 + 1):
            for mu in partitions_of(k):
                for nu in partitions_of(total - k):
                    assert schur_product(mu, nu) == schur_product(nu, mu), (mu, nu)


def test_schur_product_support_degree():
    expr = schur_product(P([2, 1]), P([2]))
    assert all(lam.size == 5 for lam, _ in expr)
    table = schur_product_table((2, 1), (2,))
    assert {lam.parts: c for lam, c in expr} == table


def test_coproduct_group_like_unit():
    assert coproduct(EMPTY) == SchurExpr({(EMPTY, EMPTY): 1})


def test_coproduct_primitive_degree_one():
    assert coproduct(P([1])) == SchurExpr(
        {(P([1]), EMPTY): 1, (EMPTY, P([1])): 1})


def test_coproduct_staircase():
    expected = SchurExpr({
        (P([2, 1]), EMPTY): 1,
        (P([2]), P([1])): 1,
        (P([1, 1]), P([1])): 1,
        (P([1]), P([2])): 1,
        (P([1]), P([1, 1])): 1,
        (EMPTY, P([2, 1])): 1,
    })
    assert coproduct(P([2, 1])) == expected


def _full_probe_coproduct(lam):
    """Delta(s_lam) by definition: every mu of size at most |lam| and every
    nu of the complementary size, probed through lr_coefficient."""
    out = {}
    for k in range(lam.size + 1):
        for mu in partitions_of(k):
            for nu in partitions_of(lam.size - k):
                c = lr_coefficient(lam, mu, nu)
                if c:
                    out[(mu, nu)] = c
    return SchurExpr(out)


def test_coproduct_matches_the_full_probe():
    for lam in partitions_up_to(12):
        reference = _full_probe_coproduct(lam)
        assert coproduct(lam) == reference, lam
        assert list(coproduct(lam)) == list(reference), lam


def test_coassociativity_small():
    for lam in partitions_up_to(5):
        left: dict = {}
        right: dict = {}
        for (mu, nu), c in coproduct(lam):
            for (a, b), d in coproduct(mu):
                left[(a, b, nu)] = left.get((a, b, nu), 0) + c * d
            for (a, b), d in coproduct(nu):
                right[(mu, a, b)] = right.get((mu, a, b), 0) + c * d
        assert left == right, lam


def test_counit_small():
    for lam in partitions_up_to(5):
        delta = coproduct(lam)
        assert {nu: c for (mu, nu), c in delta if mu == EMPTY} == {lam: 1}
        assert {mu: c for (mu, nu), c in delta if nu == EMPTY} == {lam: 1}


def test_eval_schur_basics():
    assert eval_schur(EMPTY, (Fraction(7), Fraction(2))) == 1
    assert eval_schur(P([1]), (2, 3)) == 5
    assert eval_schur(P([1, 1]), (2, 3)) == 6
    assert eval_schur(P([2]), (2, 3)) == 4 + 6 + 9


def test_eval_schur_vanishes_beyond_alphabet():
    assert eval_schur(P([1, 1, 1]), (2, 3)) == 0
    assert eval_schur(P([2, 2, 1]), (Fraction(1, 2), Fraction(3))) == 0


def test_eval_schur_multiplicative():
    points = [(Fraction(1), Fraction(2), Fraction(-1)),
              (Fraction(1, 2), Fraction(3, 5), Fraction(2))]
    for point in points:
        for mu in partitions_up_to(3):
            for nu in partitions_up_to(2):
                lhs = sum((c * eval_schur(lam, point)
                           for lam, c in schur_product(mu, nu)), Fraction(0))
                assert lhs == eval_schur(mu, point) * eval_schur(nu, point)


def test_expr_iterates_by_degree_then_parts_on_either_key():
    expr = SchurExpr({P([1, 1]): 2, P([3]): 1, P([2]): 5, EMPTY: 4})
    assert list(expr) == [(EMPTY, 4), (P([1, 1]), 2), (P([2]), 5), (P([3]), 1)]
    assert expr.coefficient(P([2])) == 5 and expr.coefficient(P([1])) == 0
    pairs = SchurExpr({(P([1]), P([1])): 3, (EMPTY, P([2])): 1, (P([1]), EMPTY): 2,
                       (EMPTY, P([1, 1])): 6})
    assert [key for key, _ in pairs] == [(EMPTY, P([1, 1])), (EMPTY, P([2])),
                                         (P([1]), EMPTY), (P([1]), P([1]))]
    assert pairs.coefficient((P([1]), P([1]))) == 3
    assert pairs.coefficient((P([1]), P([2]))) == 0


def test_expr_drops_zero_coefficients():
    assert SchurExpr({P([1]): 0}) == SchurExpr()
    assert len(SchurExpr({(P([1]), EMPTY): 0})) == 0
