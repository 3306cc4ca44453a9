from collections import Counter
from fractions import Fraction
from itertools import zip_longest

from hypothesis import given, settings, strategies as st

from mackey import symfunc, verify
from mackey.partitions import EMPTY, Partition, partitions_of, partitions_up_to, syt_count
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


def _full_probe_product(mu, nu):
    """s_mu * s_nu by definition: every lam of size |mu| + |nu| probed
    through lr_coefficient on the skew shape of mu and nu placed corner to
    corner."""
    width = nu[0] if nu else 0
    outer = P([part + width for part in mu] + list(nu))
    inner = P([width] * len(mu))
    out = {}
    for lam in partitions_of(mu.size + nu.size):
        c = lr_coefficient(outer, inner, lam)
        if c:
            out[lam] = c
    return SchurExpr(out)


def test_schur_product_matches_the_full_probe():
    for total in range(11):
        for k in range(total + 1):
            for mu in partitions_of(k):
                for nu in partitions_of(total - k):
                    reference = _full_probe_product(mu, nu)
                    assert schur_product(mu, nu) == reference, (mu, nu)
                    assert list(schur_product(mu, nu)) == list(reference), (mu, nu)


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


def _scan_coproduct(lam):
    """Delta(s_lam) by the route coproduct took before it walked the
    sub-diagrams: every mu of each size k >= ceil(|lam|/2) tested against
    lam, each table read through lr_coefficient and mirrored."""
    out = {}
    for k in range((lam.size + 1) // 2, lam.size + 1):
        for mu in partitions_of(k):
            if lam.contains(mu):
                for nu in symfunc._skew_table(lam, mu):
                    out[(mu, nu)] = out[(nu, mu)] = lr_coefficient(lam, mu, nu)
    return out


def test_coproduct_matches_the_full_probe():
    for lam in partitions_up_to(12):
        reference = _full_probe_coproduct(lam)
        assert coproduct(lam) == reference, lam
        assert list(coproduct(lam)) == list(reference), lam
        assert coproduct(lam).terms == _scan_coproduct(lam), lam


def test_sub_diagrams_are_the_partitions_inside_lam_of_each_size():
    for lam in partitions_up_to(14):
        inside = sorted(mu for mu in partitions_up_to(lam.size) if lam.contains(mu))
        for low in range(lam.size + 2):
            walked = list(symfunc._sub_diagrams(lam, low))
            assert sorted(walked) == [mu for mu in inside if mu.size >= low], (lam, low)
            assert all(type(mu) is Partition and mu is symfunc._shared(mu) for mu in walked)


def test_coproduct_tests_no_partition_against_lam(monkeypatch):
    def refused(self, other):
        raise AssertionError(f"{self}.contains({other}) called")

    coproduct.cache_clear()
    monkeypatch.setattr(Partition, "contains", refused)
    for lam in partitions_up_to(8):
        coproduct(lam)
    assert not hasattr(symfunc, "partitions_of")


def test_each_coproduct_layer_splits_the_standard_tableaux():
    # sum over |alpha| = k of c^lam_{alpha beta} f^alpha f^beta = f^lam, for each k
    for size in (13, 14):
        for lam in partitions_of(size):
            layers = [0] * (size + 1)
            for (alpha, beta), c in coproduct(lam):
                layers[alpha.size] += c * syt_count(alpha) * syt_count(beta)
            assert layers == [syt_count(lam)] * (size + 1), lam


def test_coproduct_commutes_with_conjugation():
    # the involution omega: c^lam'_{alpha' beta'} = c^lam_{alpha beta}
    for size in (13, 14):
        for lam in partitions_of(size):
            conjugated = SchurExpr({(alpha.conjugate(), beta.conjugate()): c
                                    for (alpha, beta), c in coproduct(lam)})
            assert coproduct(lam.conjugate()) == conjugated, lam


def test_no_zero_coefficient_is_read(monkeypatch):
    # products and coproducts look up only the entries their skew tables list
    tables, misses, original = [], [], symfunc._skew_table

    class Recording(dict):
        def get(self, key, default=None):
            if key not in self:
                misses.append(key)
            return dict.get(self, key, default)

    def recording(outer, inner):
        tables.append(Recording(original(outer, inner)))
        return tables[-1]

    coproduct.cache_clear()
    monkeypatch.setattr(symfunc, "_skew_table", recording)
    for lam in partitions_up_to(10):
        coproduct(lam)
    for total in range(9):
        for k in range(total + 1):
            for mu in partitions_of(k):
                for nu in partitions_of(total - k):
                    schur_product(mu, nu)
    assert tables and not misses


def _reference_skew_table(outer, inner):
    """{nu: c^outer_{inner nu}} by the enumerator the skew tables had before
    their neighbours were found by arithmetic: the cells of outer/inner in
    reverse reading order, looked up by (row, column) in a dict, and the
    LR tableaux tallied in a Counter. Its entries come in the order of first
    tally."""
    if not outer.contains(inner):
        return {}
    top = len(outer)
    cells = [(i, j) for i, (row, skip) in enumerate(zip_longest(outer, inner, fillvalue=0))
             for j in range(row - 1, skip - 1, -1)]
    n, where = len(cells), {cell: pos for pos, cell in enumerate(cells)}
    right = [where.get((i, j + 1), n) for i, j in cells]
    above = [where.get((i - 1, j), n + 1) for i, j in cells]
    fill = [0] * n + [top, 0]
    counts = [n + 1] + [0] * (top + 1)
    tally = Counter()
    pos = 0
    while pos >= 0:
        if pos == n:
            tally[tuple(counts[1:counts.index(0, 1)])] += 1
        else:
            e, hi = fill[pos] + 1, fill[right[pos]]
            while e <= hi and counts[e] >= counts[e - 1]:
                e += 1
            if e <= hi:
                fill[pos] = e
                counts[e] += 1
                pos += 1
                if pos < n:
                    fill[pos] = fill[above[pos]]
                continue
        pos -= 1
        counts[fill[pos]] -= 1
    return dict(tally)


def _reference_grid():
    """(outer, inner) pairs: every outer of size at most 10 with every inner
    it contains; mu and nu of total size at most 10 placed corner to corner,
    as schur_product places them; and the tables lam/mu with
    |mu| >= ceil(|lam|/2) of every lam of size 13 and 14, the ones the
    coproduct builds there."""
    for lam in partitions_up_to(10):
        for mu in partitions_up_to(lam.size):
            if lam.contains(mu):
                yield lam, mu
    for total in range(11):
        for k in range(total + 1):
            for mu in partitions_of(k):
                for nu in partitions_of(total - k):
                    width = nu[0] if nu else 0
                    yield (P([part + width for part in mu] + list(nu)),
                           P([width] * len(mu)))
    for n in (13, 14):
        for lam in partitions_of(n):
            for k in range((n + 1) // 2, n + 1):
                for mu in partitions_of(k):
                    if lam.contains(mu):
                        yield lam, mu


def test_skew_tables_match_the_reference_enumerator_in_order():
    for outer, inner in _reference_grid():
        assert list(symfunc._skew_table(outer, inner).items()) == \
            list(_reference_skew_table(outer, inner).items()), (outer, inner)


def _zip_longest_skew_table(outer, inner):
    """The key pass of _skew_table as it read the rows before, bottom up
    over zip_longest of outer and inner, on the same _diagram_table."""
    outs, skips = [], []
    gap = reach = 0
    for row, skip in reversed(list(zip_longest(outer, inner, fillvalue=0))):
        if skip > row:
            return {}
        if row > skip:
            if skip > reach:
                gap += skip - reach
            outs.append(row - gap)
            skips.append(skip - gap)
            reach = row
    return symfunc._diagram_table(tuple(outs[::-1]), tuple(skips[::-1]))


def test_skew_table_keys_match_the_zip_longest_pass():
    # the grid holds inners not in outer: wider in one row, as 3 against
    # 2,1, and with more rows, as 1,1 against 1
    shapes = list(partitions_up_to(8))
    for outer in shapes:
        for inner in shapes:
            reference = _zip_longest_skew_table(outer, inner)
            table = symfunc._skew_table(outer, inner)
            if reference:
                assert table is reference, (outer, inner)
            else:
                assert table == {} and not outer.contains(inner), (outer, inner)


def test_skew_tables_of_one_diagram_are_one_table():
    table = symfunc._skew_table
    # a column gap under the top row, and an empty row on top
    assert table(P([5, 1]), P([3])) is table(P([3, 1]), P([1]))
    assert table(P([4, 3, 1]), P([4, 1])) is table(P([3, 1]), P([1]))
    for lam in partitions_up_to(4):
        assert table(lam, lam) == {EMPTY: 1}, lam
    # inner longer than outer, or wider in one row
    assert table(P([1]), P([1, 1])) == {}
    assert table(P([2]), P([1, 1])) == {}
    assert table(P([2, 1]), P([3])) == {}
    assert table(P([3, 1]), P([2, 2])) == {}


def test_cold_coproducts_of_13_and_14_enumerate_710_diagrams():
    # 10845 tables lam/mu, which are 710 diagrams
    for cached in (symfunc.coproduct, symfunc._skew_table, symfunc._diagram_table):
        cached.cache_clear()
    for n in (13, 14):
        for lam in partitions_of(n):
            coproduct(lam)
    assert symfunc._skew_table.cache_info().misses == 10845
    assert symfunc._diagram_table.cache_info().misses == 710


@st.composite
def padded_skew_shapes(draw, max_cells=16):
    """((outer, inner), (padded outer, padded inner)): a skew shape of at
    most max_cells cells, and the same diagram with empty rows and empty
    columns put in. The shape is a list of rows (end, start), top to bottom."""
    rows, budget = [], max_cells
    while budget and draw(st.integers(0, 5)):
        end = draw(st.integers(1, min(rows[-1][0], rows[-1][1] + budget) if rows else 8))
        start = draw(st.integers(max(0, end - budget), min(rows[-1][1], end) if rows else end))
        rows.append((end, start))
        budget -= end - start
    base = rows[:]
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            # an empty column at c, which no row straddles: the rows right of
            # it move one column right
            c = draw(st.sampled_from([c for c in range(rows[0][0] + 1 if rows else 1)
                                      if all(not start < c < end for end, start in rows)]))
            rows = [(end + 1, start + 1) if start >= c else (end, start)
                    for end, start in rows]
        else:
            # an empty row at r, between the columns its neighbours allow
            spots = [(0, rows[0][0] if rows else 1, (rows[0][0] if rows else 1) + 2)]
            spots += [(r, rows[r][0], rows[r - 1][1]) for r in range(1, len(rows))
                      if rows[r - 1][1] >= rows[r][0]]
            if rows and rows[-1][1]:
                spots.append((len(rows), 1, rows[-1][1]))
            r, low, high = draw(st.sampled_from(spots))
            c = draw(st.integers(low, high))
            rows.insert(r, (c, c))
    return tuple((P([end for end, _ in shape]), P([start for _, start in shape]))
                 for shape in (base, rows))


@settings(deadline=None)
@given(padded_skew_shapes())
def test_empty_rows_and_columns_keep_the_table(shapes):
    (outer, inner), (padded_outer, padded_inner) = shapes
    table = symfunc._skew_table(padded_outer, padded_inner)
    assert table is symfunc._skew_table(outer, inner)
    assert list(table.items()) == \
        list(_reference_skew_table(padded_outer, padded_inner).items())


def test_no_caller_writes_into_a_shared_table(monkeypatch):
    # each table the callers were handed still holds what its diagram
    # enumerates afresh, in the same order
    tables, original = {}, symfunc._diagram_table

    def recording(outer, inner):
        table = original(outer, inner)
        assert tables.setdefault((outer, inner), table) is table
        return table

    for cached in (symfunc.coproduct, symfunc._skew_table, symfunc._diagram_table):
        cached.cache_clear()
    monkeypatch.setattr(symfunc, "_diagram_table", recording)
    for lam in partitions_up_to(10):
        coproduct(lam)
    for total in range(9):
        for k in range(total + 1):
            for mu in partitions_of(k):
                for nu in partitions_of(total - k):
                    schur_product(mu, nu)
    assert all(r.passed for r in verify.run_suite("hopf"))
    monkeypatch.undo()
    assert tables
    for (outer, inner), table in tables.items():
        assert original(outer, inner) is table
        assert list(table.items()) == \
            list(original.__wrapped__(outer, inner).items()), (outer, inner)


def test_skew_tables_share_one_partition_per_content():
    seen = {}
    for lam in partitions_up_to(8):
        for mu in partitions_up_to(lam.size):
            if lam.contains(mu):
                for nu in symfunc._skew_table(lam, mu):
                    assert type(nu) is Partition, (lam, mu, nu)
                    assert seen.setdefault(nu, nu) is nu, (lam, mu, nu)


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
