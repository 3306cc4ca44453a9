"""Planted faults, each caught by a named check.

Each row of MUTANTS monkeypatches one fault into the package and runs
`verify.run_suite("all")` on it, from cold caches: every `functools` cache of
the package is cleared before the fault goes in and again after it comes out,
so that no value computed with the fault outlives the row. A row names the
`verify` checks that must fail; every other check passes the fault, which
makes the blind spot of `verify` explicit. A row that no `verify` check
catches is an escape: it names the tier-1 test that catches it instead, and
the README lists it.
"""

import sys
from itertools import zip_longest

import pytest

import test_socle
import test_symfunc
from mackey import socle, symfunc, verify

LAYERS = "coproduct layers vs standard tableaux (size <= 10)"
CONJUGATION = "coproduct commutes with conjugation (size <= 10)"
# every hopf check but the counit, which reads only the empty tables lam/lam,
# and the branching identity
LEFT_JUSTIFIED = {"coassociativity (size <= 8)", "LR symmetry (size <= 8)",
                  "product/coproduct duality (size <= 7)",
                  "bi-alphabet evaluation (size <= 6)",
                  "product evaluation (degree <= 6)", LAYERS, CONJUGATION,
                  "branching dimension identity"}


def clear_caches():
    for name, module in list(sys.modules.items()):
        if name == "mackey" or name.startswith("mackey."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def lr_raised_at(size):
    """_skew_table with the first coefficient of each table lam/mu, |lam| =
    size and |mu| = size - 2, raised by one. The cached table is copied, not
    changed."""
    real = symfunc._skew_table

    def raised(outer, inner):
        table = real(outer, inner)
        if outer.size == size and inner.size == size - 2 and table:
            table = dict(table)
            first = next(iter(table))
            table[first] += 1
        return table

    return raised


def left_justified_rows():
    """_skew_table with a diagram key that drops each row's column offset:
    every nonempty row of outer/inner starts in column 0."""

    def table(outer, inner):
        if not outer.contains(inner):
            return {}
        lengths = tuple(row - skip for row, skip in zip_longest(outer, inner, fillvalue=0)
                        if row > skip)
        return symfunc._diagram_table(lengths, (0,) * len(lengths))

    return table


# (row id, module, name, fault factory, verify checks that must fail, the
# tier-1 test that catches an escape or None)
MUTANTS = [
    ("lr_raised_at_9", symfunc, "_skew_table",
     lambda: lr_raised_at(9), {LAYERS, CONJUGATION}, None),
    # escapes verify, whose LR checks stop at size 10
    ("lr_raised_at_13", symfunc, "_skew_table",
     lambda: lr_raised_at(13), set(),
     test_symfunc.test_each_coproduct_layer_splits_the_standard_tableaux),
    ("diagram_key_left_justified", symfunc, "_skew_table",
     left_justified_rows, LEFT_JUSTIFIED, None),
    # escapes verify, which reads no order of the constituents of a layer:
    # beta's parts sort before alpha's
    ("socle_layer_order_swapped", socle, "_by_parts",
     lambda: lambda term: term[0][1] + term[0][0], set(),
     test_socle.test_socle_layers_come_in_the_order_of_the_sorted_coproduct),
]


@pytest.mark.parametrize("module, name, fault, failing, tier1_test",
                         [pytest.param(*row, id=row_id) for row_id, *row in MUTANTS])
def test_a_planted_fault_fails_its_named_checks(module, name, fault, failing, tier1_test):
    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, name, fault())
            results = verify.run_suite("all")
            assert {r.name for r in results if not r.passed} == failing
            if tier1_test is not None:
                with pytest.raises(AssertionError):
                    tier1_test()
    finally:
        clear_caches()
    assert [r.name for r in results] == [title for _, title, _ in verify.CHECKS]
