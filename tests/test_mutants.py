"""Planted faults, each caught by a named check.

Each row of MUTANTS monkeypatches one fault into the package and runs every
check of `verify all` on it, from cold caches: every `functools` cache of
the package is cleared before the fault goes in and again after it comes out,
so that no value computed with the fault outlives the row. A row names the
`verify` checks that must fail; every other check passes the fault, which
makes the blind spot of `verify` explicit. A check that raises a ValueError,
as the referee does on what it finds inconsistent, fails: `verify.run_suite`
records it as a failed result and runs the checks after it, as `mackey
verify` does before it exits 1. A row that no `verify` check
catches is an escape: it names the tier-1 test that catches it instead, and
the README lists it.
"""

import sys
from itertools import zip_longest

import pytest

import test_brute
import test_socle
import test_symfunc
from mackey import brute, linalg, socle, symfunc, verify
from mackey.linalg import SparseMatrix, Subspace

LAYERS = "coproduct layers vs standard tableaux (size <= 10)"
# every brute check but the mixed one: it reads only contraction ranks, and
# no weight block there has contraction rows of full column rank
BRUTE_BUT_MIXED = {"Young projector rank vs Weyl dimension",
                   "finite-rank socle filtration vs branching", "grade filtration essentiality",
                   "parabolic constituent counts vs length formula"}
CONJUGATION = "coproduct commutes with conjugation (size <= 10)"
# every hopf check but the counit, which reads only the empty tables lam/lam,
# and the branching identity
LEFT_JUSTIFIED = {"coassociativity (size <= 8)", "LR symmetry (size <= 8)",
                  "product/coproduct duality (size <= 7)",
                  "bi-alphabet evaluation (size <= 6)",
                  "product evaluation (degree <= 6)", LAYERS, CONJUGATION,
                  "branching dimension identity"}

# every check that reads a coproduct, but the conjugation check: conjugating
# both sides keeps sizes, so each lam and lam' lose the same layers
SHORT_WALK = {"coassociativity (size <= 8)", "counit (size <= 8)",
              "product/coproduct duality (size <= 7)",
              "bi-alphabet evaluation (size <= 6)", LAYERS,
              "branching dimension identity", "finite-rank socle filtration vs branching"}


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


def sub_diagrams_short_by_one():
    """_sub_diagrams with its size bound off by one: the walk prunes every
    mu with |mu| = low, which coproduct sets to ceil(|lam|/2)."""
    real = symfunc._sub_diagrams
    return lambda lam, low: real(lam, low + 1)


def transport_unpermuted(part, table):
    """_transport that copies the rows of the dominant part to the same
    local positions, without moving them by sigma."""
    return Subspace(len(table), [dict(row) for row in part.echelon.values()])


def kernel_without_high():
    """_block_kernel that drops its upper bound: the joint kernel on the
    whole module over low, not on high/low."""
    real = brute._block_kernel
    return lambda module, blocks, labels, b, low, upper=None: real(module, blocks, labels, b, low)


def raising_chamber_descending(para, blocks):
    """_raising_chamber that reads the descending chamber, w_i >= w_(i+1)
    for every Levi raising label (i, i+1)."""
    raising = para.levi_raising_labels()
    return [b for b, w in enumerate(blocks.weights)
            if all(w[i - 1] >= w[j - 1] for i, j in raising)]


def simple_labels_without_lowering(para):
    """ParabolicData.simple_labels without the Levi lowering labels
    (i+1, i): the raising labels (i, i+1) only."""
    return [(i, i + 1) for i in range(1, para.n_rank)]


def layer_count_without_stop():
    """submodule_layer_dimensions that counts on past the first step that
    holds the submodule: one layer 0 for each further step."""
    real = brute.submodule_layer_dimensions

    def counted(filtration, space):
        layers = real(filtration, space)
        return layers + [0] * (len(filtration.steps) - len(layers))

    return counted


def plain_sign_flipped(n_rank, m, n, weights, label):
    """_word_action with the sign of the plain slots flipped: e_i -> -e_j."""
    i, j = label
    dim = len(weights)
    if i == j:
        return SparseMatrix._of_cols(dim, {col: {col: w[i - 1]}
                                           for col, w in enumerate(weights) if w[i - 1]})
    cols = {}
    for slot in range(m + n):
        stride = n_rank ** (m + n - 1 - slot)
        old, new, sign = (j, i, -1) if slot < m else (i, j, -1)
        shift = (new - old) * stride
        for start in range((old - 1) * stride, dim, n_rank * stride):
            for col in range(start, start + stride):
                cols.setdefault(col, {})[col + shift] = sign
    return SparseMatrix._of_cols(dim, cols)


def echelon_one_pivot_short():
    """_echelon that stops reading rows one pivot short of the column count:
    rows that span Q^n give a span of dimension n - 1."""
    real = linalg._echelon
    return lambda rows, ncols: real(rows, ncols - 1)


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
    # the layers |mu| = ceil(|lam|/2) and their mirror images go missing
    ("sub_diagrams_short_by_one", symfunc, "_sub_diagrams",
     sub_diagrams_short_by_one, SHORT_WALK, None),
    # escapes verify, which reads no order of the constituents of a layer:
    # beta's parts sort before alpha's
    ("socle_layer_order_swapped", socle, "_by_parts",
     lambda: lambda term: term[0][1] + term[0][0], set(),
     test_socle.test_socle_layers_come_in_the_order_of_the_sorted_coproduct),
    # escapes verify, which takes socle steps of word modules only on dual
    # powers: there a word's grade is read off its weight, so each step is 0
    # or all of a block and the copy is right; the mixed modules catch it
    ("orbit_transport_unpermuted", brute, "_transport",
     lambda: transport_unpermuted, set(),
     test_brute.test_socle_steps_by_orbit_equal_the_kernel_over_every_block),
    ("kernel_without_high", brute, "_block_kernel", kernel_without_high,
     {"parabolic constituent counts vs length formula"}, None),
    ("raising_chamber_descending", brute, "_raising_chamber",
     lambda: raising_chamber_descending,
     {"parabolic constituent counts vs length formula"}, None),
    # essentiality over a parabolic that checks no socle containment
    ("essential_containment_skipped", brute, "_dominant_blocks",
     lambda: lambda module, para, blocks: [], {"grade filtration essentiality"}, None),
    # the negative case [e1* (x) e1*, whole], which only the lowering labels
    # (i, 1) move, is no longer refused
    ("simple_labels_without_lowering", brute.ParabolicData, "simple_labels",
     lambda: simple_labels_without_lowering, {"grade filtration essentiality"}, None),
    # escapes verify, whose shadows lie in the stable range: there each Young
    # image first fills at the last socle step of its tensor power
    ("layer_count_without_stop", brute, "submodule_layer_dimensions",
     layer_count_without_stop, set(),
     test_brute.test_young_image_layers_outside_the_stable_range_match_the_dense_ones),
    # escapes verify, which builds the action of no module with plain slots
    ("plain_slot_sign_flipped", brute, "_word_action", lambda: plain_sign_flipped, set(),
     test_brute.test_arithmetic_builder_matches_the_word_by_word_one),
    # the socle steps stop growing, and an essentiality step is no longer
    # closed: three of these checks raise ValueError
    ("echelon_one_pivot_short", linalg, "_echelon", echelon_one_pivot_short,
     BRUTE_BUT_MIXED, None),
]


def run_every_check():
    """The results of the checks of `verify all`, in its order, with its
    budget and seed, as `verify.run_suite` returns them: a check that raises
    a ValueError is a failed result."""
    return verify.run_suite("all", verify.DEFAULT_BUDGET, verify.DEFAULT_SEED)


@pytest.mark.parametrize("module, name, fault, failing, tier1_test",
                         [pytest.param(*row, id=row_id) for row_id, *row in MUTANTS])
def test_a_planted_fault_fails_its_named_checks(module, name, fault, failing, tier1_test):
    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, name, fault())
            results = run_every_check()
            assert {r.name for r in results if not r.passed} == failing
            if tier1_test is not None:
                with pytest.raises(AssertionError):
                    tier1_test()
    finally:
        clear_caches()
    assert [r.name for r in results] == [title for _, title, _ in verify.CHECKS]
