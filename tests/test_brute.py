import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from mackey.brute import (
    BudgetExceededError,
    ExplicitModule,
    Filtration,
    build_tensor_module,
    constituent_count,
    grade_filtration,
    is_essential_filtration,
    parabolic,
    socle_filtration_parabolic,
    traceless_dimension,
    traceless_subspace,
    young_project,
)
from mackey import brute
from mackey.brute import _WeightBlocks, _weight_blocks
from mackey.linalg import (
    SparseMatrix,
    Subspace,
    full_space,
    nullspace,
    rank,
    unit_vec,
    vec,
)
from mackey.partitions import EMPTY, Partition, partitions_of, partitions_up_to
from mackey.socle import tensor_length
from mackey.verify import SOCLE_SHADOW_GRID, socle_shadow_layer_dims

from gl_weights import gl_highest_weight_count
from matrix_ops import (add, apply, compose, coordinates, diagonal, diagonal_matrix,
                        dump_filtration, dump_matrix, from_entries, generator_labels,
                        intersection, reduce, scaled)

P = Partition
F = Fraction

# the mixed modules (N, m, n) of the referee benchmark workload
REFEREE_MIXED = [(2, 2, 2), (3, 1, 2), (3, 2, 1), (3, 2, 2), (4, 1, 1), (4, 1, 2), (4, 2, 1),
                 (5, 1, 2), (5, 2, 1), (4, 2, 2), (8, 1, 2)]


def bracket(x, y):
    """[x, y] expanded in generator labels by the rule of the brute module
    docstring: [x_ij, x_kl] = d_il x_kj - d_jk x_il."""
    (i, j), (k, l) = x, y
    terms = []
    if i == l:
        terms.append(((k, j), 1))
    if j == k:
        terms.append(((i, l), -1))
    return terms


# --- construction and the dual action convention ---------------------------

def test_dual_action_sign_convention_bit_exact():
    # on (C^2*): the generator labeled (1,2) sends e2* to -e1* and kills e1*
    module = build_tensor_module(2, 1, 0)
    a = module.action((1, 2))
    assert apply(a, vec([0, 1])) == vec([-1, 0])
    assert apply(a, vec([1, 0])) == vec([0, 0])
    b = module.action((2, 1))
    assert apply(b, vec([1, 0])) == vec([0, -1])


def test_plain_slot_action():
    # on C^2 (no stars): label (1,2) moves e1 to e2
    module = build_tensor_module(2, 0, 1)
    a = module.action((1, 2))
    assert apply(a, vec([1, 0])) == vec([0, 1])
    assert apply(a, vec([0, 1])) == vec([0, 0])


def test_diagonal_eigenvalues_on_square_of_dual():
    module = build_tensor_module(2, 2, 0)
    assert module.dimension == 4
    eigenvalues = sorted(diagonal(module.action((1, 1))))
    assert eigenvalues == vec([-2, -1, -1, 0])


def test_invariant_pairing_vector_is_killed():
    module = build_tensor_module(3, 1, 1)
    assert module.dimension == 9
    invariant = [F(0)] * 9
    for pos, (a, b) in enumerate(module.labels):
        if a == b:
            invariant[pos] = F(1)
    for i in range(1, 4):
        for j in range(1, 4):
            if i == j:
                continue
            assert not any(apply(module.action((i, j)), invariant)), (i, j)


def test_budget_is_enforced():
    with pytest.raises(BudgetExceededError):
        build_tensor_module(10, 3, 2, budget=1000)


def test_traceless_dimension_checks_its_input_like_the_builder():
    for args in [(0, 1, 1), (2, -1, 1), (2, 1, -1)]:
        with pytest.raises(ValueError):
            build_tensor_module(*args)
        with pytest.raises(ValueError):
            traceless_dimension(*args)
    with pytest.raises(BudgetExceededError):
        traceless_dimension(10, 3, 2, budget=1000)


def test_basis_labels_mark_starred_slots():
    module = build_tensor_module(2, 1, 1)
    assert module.labels[0] == (1, 1) and module.star_slots == 1


def test_action_respects_the_bracket_on_every_generator_pair():
    for n_rank in range(1, 5):
        for m in range(4):
            for n in range(4 - m):
                module = build_tensor_module(n_rank, m, n)
                labels = generator_labels(module)
                for x in labels:
                    a = module.action(x)
                    for y in labels:
                        b = module.action(y)
                        expected = SparseMatrix(module.dimension)
                        for label, sign in bracket(x, y):
                            expected = add(expected, scaled(module.action(label), sign))
                        commutator = add(compose(a, b), scaled(compose(b, a), -1))
                        assert commutator == expected, (n_rank, m, n, x, y)


def word_by_word_action(module, label):
    """The matrix of the generator on a word module, built word by word:
    each slot that the label moves is rewritten and the new word looked up.
    The reference for the engine's position arithmetic."""
    words, m = module.labels, module.star_slots
    index = {w: pos for pos, w in enumerate(words)}
    i, j = label
    entries = []
    for col, word in enumerate(words):
        for slot, idx in enumerate(word):
            if slot < m:
                # starred slot: e_j* -> -e_i*
                if idx == j:
                    tgt = word[:slot] + (i,) + word[slot + 1:]
                    entries.append((index[tgt], col, -1))
            else:
                # plain slot: e_i -> e_j
                if idx == i:
                    tgt = word[:slot] + (j,) + word[slot + 1:]
                    entries.append((index[tgt], col, 1))
    return from_entries(module.dimension, entries)


def test_arithmetic_builder_matches_the_word_by_word_one():
    cases = [(n_rank, m, n) for n_rank in range(1, 6) for m in range(4)
             for n in range(4 - m)] + [(8, 1, 2), (8, 4, 0)]
    cancelled = 0
    for n_rank, m, n in cases:
        module = build_tensor_module(n_rank, m, n)
        for label in generator_labels(module):
            mat, reference = module.action(label), word_by_word_action(module, label)
            assert mat == reference, (n_rank, m, n, label)
            # each column lists its entries in the same order, slot by slot
            assert all(list(col.items()) == list(reference.cols[j].items())
                       for j, col in mat.cols.items()), (n_rank, m, n, label)
            i, j = label
            if i == j:
                # a word with as many starred as plain slots of letter i has
                # entries -1 and 1 that cancel, and no column
                zeros = [col for col, word in enumerate(module.labels)
                         if 0 < word[:m].count(i) == word[m:].count(i)]
                assert not [col for col in zeros if col in mat.cols], (n_rank, m, n, label)
                cancelled += len(zeros)
    assert cancelled > 0


def test_word_modules_hold_integer_matrices():
    # the action entries are -1, 0 and 1, and reach the integer kernel as ints
    for n_rank, m, n in [(3, 2, 0), (3, 1, 2), (2, 2, 2)]:
        module = build_tensor_module(n_rank, m, n)
        blocks = _weight_blocks(module)
        for label in generator_labels(module):
            mat = module.action(label)
            assert all(type(x) is int for col in mat.cols.values()
                       for x in col.values()), (n_rank, m, n, label)
            for b, u in enumerate(blocks.targets(module, label)):
                if u is not None:
                    row = {k: k + 1 for k in range(len(blocks.positions[b]))}
                    image = blocks.image(mat, b, row)
                    assert all(type(x) is int for x in image.values()), (label, b)
    # any other number is kept as the Fraction of its exact value
    half = SparseMatrix(1, {0: {0: 0.5}}).cols[0][0]
    assert type(half) is Fraction and half == F(1, 2)


def test_matrices_are_built_on_first_use():
    module = build_tensor_module(4, 2, 1)
    assert module._cache == {} and module._derived == {}
    module.action((1, 2))
    assert list(module._cache) == [(1, 2)]


# --- traceless subspaces ----------------------------------------------------

def test_traceless_dimensions():
    assert traceless_subspace(build_tensor_module(3, 1, 1)).dim == 8
    assert traceless_subspace(build_tensor_module(2, 1, 1)).dim == 3
    # 27 minus the rank (6) of the two stacked contraction maps
    assert traceless_subspace(build_tensor_module(3, 2, 1)).dim == 21


def traceless_dimension_over_every_block(module):
    """The traceless dimension of a word module by the contraction-row ranks
    of every weight block: the reference for ranking one block per S_N
    orbit."""
    m, n = module.star_slots, module.plain_slots
    return sum(len(members) - rank(brute._contraction_rows(module.labels, m, n, members))
               for members in _weight_blocks(module).positions)


def test_traceless_dimension_matches_subspace():
    cases = [(n_rank, m, n) for n_rank in range(1, 7) for m in range(4)
             for n in range(4 - m)] + REFEREE_MIXED
    assert (4, 2, 2) in cases
    for n_rank, m, n in cases:
        module = build_tensor_module(n_rank, m, n)
        assert (traceless_dimension(n_rank, m, n) == traceless_dimension_over_every_block(module)
                == traceless_subspace(module).dim), (n_rank, m, n)


def test_traceless_subspace_is_invariant():
    module = build_tensor_module(3, 1, 1)
    t = traceless_subspace(module)
    for label in generator_labels(module):
        a = module.action(label)
        for v in t.basis:
            assert t.contains(apply(a, v))


# --- Young projectors -------------------------------------------------------

def test_young_project_dimensions():
    assert young_project(build_tensor_module(3, 1, 1), P([1]), P([1])).dim == 8
    m2 = build_tensor_module(3, 2, 0)
    assert young_project(m2, P([2]), EMPTY).dim == 6
    assert young_project(m2, P([1, 1]), EMPTY).dim == 3
    # W_{(1),(2)} at rank 4, Weyl dimension 36
    assert young_project(build_tensor_module(4, 1, 2), P([1]), P([2])).dim == 36


def test_young_project_size_mismatch():
    module = build_tensor_module(3, 2, 0)
    with pytest.raises(ValueError):
        young_project(module, P([1]), EMPTY)
    with pytest.raises(ValueError):
        young_project(module, P([2]), P([1]))


def test_young_project_vanishing_shape():
    # a column of height 3 cannot fit in C^2
    module = build_tensor_module(2, 3, 0)
    assert young_project(module, P([1, 1, 1]), EMPTY).dim == 0


# --- parabolic data ---------------------------------------------------------

def test_parabolic_block_sizes():
    p = parabolic(2, 1)
    assert sorted(p.levi_labels) == [(1, 1), (2, 2)]
    assert p.nilradical_labels == [(1, 2)]
    assert len(parabolic(3, 1).nilradical_labels) == 2
    p42 = parabolic(4, 2)
    assert len(p42.levi_labels) == 8
    assert len(p42.nilradical_labels) == 4


def test_parabolic_rejects_bad_split():
    with pytest.raises(ValueError):
        parabolic(3, 0)
    with pytest.raises(ValueError):
        parabolic(3, 3)


def test_parabolic_is_a_subalgebra_with_the_nilradical_as_ideal():
    for n_rank in range(2, 9):
        for b in range(1, n_rank):
            p = parabolic(n_rank, b)
            labels, nil = set(p.labels), set(p.nilradical_labels)
            # the stabilizer of span(e_1*..e_b*), as (i, j) moves e_j* to -e_i*
            assert len(labels) == len(p.labels)
            assert labels == {(i, j) for i in range(1, n_rank + 1)
                              for j in range(1, n_rank + 1) if not j <= b < i}
            for x in labels:
                for y in labels:
                    for label, _ in bracket(x, y):
                        assert label in labels, (n_rank, b, x, y)
                        if x in nil or y in nil:
                            assert label in nil, (n_rank, b, x, y)
            for i, j in nil:
                unit = SparseMatrix(n_rank, {i - 1: {j - 1: F(1)}})  # e_i -> e_j
                assert not compose(unit, unit).cols, (n_rank, b, (i, j))


def test_nilradical_maps_complement_into_distinguished_block():
    module = build_tensor_module(3, 1, 0)
    p = parabolic(3, 1)
    for label in p.nilradical_labels:
        a = module.action(label)
        image = apply(a, vec([0, 1, 1]))
        assert image[1] == 0 and image[2] == 0


# --- socle filtrations ------------------------------------------------------

def test_socle_filtration_of_dual_module():
    module = build_tensor_module(3, 1, 0)
    filtration = socle_filtration_parabolic(module, parabolic(3, 1))
    assert [s.dim for s in filtration] == [1, 3]
    assert filtration.steps[0].contains(unit_vec(3, 0))


def test_socle_filtration_of_trivial_module():
    module = build_tensor_module(4, 0, 0)
    filtration = socle_filtration_parabolic(module, parabolic(4, 2))
    assert [s.dim for s in filtration] == [1]


def test_socle_filtration_schur_square():
    # S_(2)(C^5*) against the parabolic at b=3: layers 6, 6, 3
    module = build_tensor_module(5, 2, 0)
    projected = young_project(module, P([2]), EMPTY)
    filtration = socle_filtration_parabolic(module, parabolic(5, 3))
    assert brute.submodule_layer_dimensions(filtration, projected) == [6, 6, 3]


def test_submodule_layers_need_sums_over_the_same_blocks():
    module = build_tensor_module(3, 1, 0)
    filtration = socle_filtration_parabolic(module, parabolic(3, 1))
    with pytest.raises(ValueError, match="same blocks"):
        brute.submodule_layer_dimensions(filtration, Subspace(3, [unit_vec(3, 0)]))


def test_socle_filtration_steps_are_parabolic_invariant():
    module = build_tensor_module(4, 2, 0)
    p = parabolic(4, 2)
    filtration = socle_filtration_parabolic(module, p)
    for step in filtration:
        for label in p.labels:
            a = module.action(label)
            for v in step.basis:
                assert step.contains(apply(a, v))


def test_filtration_must_ascend():
    line = Subspace(2, [unit_vec(2, 0)])
    other = Subspace(2, [unit_vec(2, 1)])
    with pytest.raises(ValueError):
        Filtration([line, other])


def test_filtration_of_sums_over_the_same_blocks_must_ascend():
    blocks = [[0, 2], [1]]
    line = Subspace.from_blocks(3, zip(blocks, [Subspace(2, [vec([1, 1])]), Subspace(1)]))
    other = Subspace.from_blocks(3, zip(blocks, [Subspace(2, [vec([0, 1])]), Subspace(1)]))
    with pytest.raises(ValueError):
        Filtration([line, other])
    Filtration([line, Subspace.from_blocks(3, zip(blocks, [full_space(2), Subspace(1)]))])


# --- essentiality -----------------------------------------------------------

def zero_module(dim):
    return ExplicitModule(dim, 1, lambda label: SparseMatrix(dim))


def test_single_step_filtration_is_essential():
    module = zero_module(2)
    full = Subspace(2, [unit_vec(2, 0), unit_vec(2, 1)])
    assert is_essential_filtration(module, Filtration([full]), [])


def test_socle_filtration_is_essential():
    module = build_tensor_module(4, 2, 0)
    p = parabolic(4, 2)
    filtration = socle_filtration_parabolic(module, p)
    assert is_essential_filtration(module, filtration, p)


def test_trivial_sum_line_is_not_essential():
    module = zero_module(2)
    line = Subspace(2, [vec([1, 2])])
    full = Subspace(2, [unit_vec(2, 0), unit_vec(2, 1)])
    assert not is_essential_filtration(module, Filtration([line, full]), [])
    # over the zero algebra every subspace is a submodule, also a line of a
    # word module that is no sum of weight vectors: the module is one block
    crooked = Subspace(2, [vec([1, 1])])
    assert not is_essential_filtration(build_tensor_module(2, 1, 0),
                                       Filtration([crooked, full]), [])


def test_essentiality_rejects_non_invariant_filtration():
    module = build_tensor_module(2, 1, 0)
    p = parabolic(2, 1)
    full = Subspace(2, [unit_vec(2, 0), unit_vec(2, 1)])
    # the crooked line is not a sum of weight vectors
    crooked = Subspace(2, [vec([1, 1])])
    with pytest.raises(ValueError, match="moved by a diagonal generator"):
        is_essential_filtration(module, Filtration([crooked, full]), p)
    # span{e2*} is a weight line, but (1, 2) sends e2* to -e1*
    line = Subspace(2, [unit_vec(2, 1)])
    with pytest.raises(ValueError, match="not action-invariant"):
        is_essential_filtration(module, Filtration([line, full]), p)


def test_essentiality_rejects_truncated_filtration():
    module = build_tensor_module(2, 1, 0)
    p = parabolic(2, 1)
    line = Subspace(2, [unit_vec(2, 0)])
    with pytest.raises(ValueError):
        is_essential_filtration(module, Filtration([line]), p)


def test_grade_filtration_essential_and_matches_word_counts():
    module = build_tensor_module(4, 2, 0)
    p = parabolic(4, 2)
    filtration = grade_filtration(module, p)
    assert [s.dim for s in filtration] == [4, 12, 16]
    assert is_essential_filtration(module, filtration, p)


def test_grade_filtration_meets_traceless():
    # intersecting the grade filtration with the traceless subspace still
    # gives an ascending invariant chain (the traceless variant)
    module = build_tensor_module(4, 1, 1)
    p = parabolic(4, 2)
    t = traceless_subspace(module)
    steps = [intersection(step, t) for step in grade_filtration(module, p)]
    assert [s.dim for s in steps] == [7, 15]
    chain = Filtration(steps)
    for step in chain:
        for label in p.labels:
            a = module.action(label)
            for v in step.basis:
                assert step.contains(apply(a, v))


# --- weight blocks ----------------------------------------------------------

def weight_dims(module):
    blocks = _weight_blocks(module)
    return {weight: len(members) for weight, members in zip(blocks.weights, blocks.positions)}


def test_weight_decompose_dual_vector_module():
    module = build_tensor_module(2, 1, 0)
    assert weight_dims(module) == {(-1, 0): 1, (0, -1): 1}


def test_weight_decompose_square():
    module = build_tensor_module(2, 2, 0)
    dims = weight_dims(module)
    assert dims == {(-2, 0): 1, (-1, -1): 2, (0, -2): 1}
    assert sum(dims.values()) == module.dimension


def test_weight_decompose_traceless_adjoint():
    module = build_tensor_module(3, 1, 1)
    blocks = _weight_blocks(module)
    parts = blocks.split(traceless_subspace(module))
    assert parts[blocks.weights.index((0, 0, 0))].dim == 2


def test_restrict_module_rejects_non_invariant_subspace():
    # restriction to a subspace now runs on its weight-block parts: the
    # split refuses what no diagonal generator keeps, the invariance check
    # what an off-diagonal one moves
    module = build_tensor_module(2, 1, 0)
    blocks = _weight_blocks(module)
    # the crooked line is not a sum of weight vectors
    with pytest.raises(ValueError, match="moved by a diagonal generator"):
        blocks.split(Subspace(2, [vec([1, 1])]))
    # span{e2*} is a weight line, but (1, 2) sends e2* to -e1*
    parts = blocks.split(Subspace(2, [unit_vec(2, 1)]))
    assert sorted(part.dim for part in parts) == [0, 1]
    assert brute._is_invariant(module, blocks, (2, 2), parts)
    assert brute._is_invariant(module, blocks, (2, 1), parts)
    assert not brute._is_invariant(module, blocks, (1, 2), parts)


# --- quotients, counting ------------------------------------------------------

def test_constituent_count_matches_length_formula():
    assert constituent_count(build_tensor_module(6, 2, 0), parabolic(6, 3)) == 6
    assert constituent_count(build_tensor_module(4, 1, 0), parabolic(4, 2)) == 2


def test_constituent_count_reuses_the_socle_steps():
    para = parabolic(6, 3)
    fresh = constituent_count(build_tensor_module(6, 2, 0), para)
    module = build_tensor_module(6, 2, 0)
    socle_filtration_parabolic(module, para)
    count, seen = recorded_kernel_blocks(lambda: constituent_count(module, para))
    assert count == fresh == 6
    assert seen and tuple(para.nilradical_labels) not in seen


def test_tensor_length_degree_four_against_semisimple_counts():
    # the parabolic at (8, 4) is past the dense-linear-algebra budget, but
    # the grade-layer counts it would produce factor through gl(4) highest
    # weight counts on each block, which are affordable directly
    from math import comb
    counts = {j: gl_highest_weight_count(4, j, 0) for j in range(5)}
    assert counts == {0: 1, 1: 1, 2: 2, 3: 4, 4: 10}
    expected = sum(comb(4, k) * counts[k] * counts[4 - k] for k in range(5))
    assert tensor_length(4, 0) == expected == 76


def test_dump_filtration_format():
    module = build_tensor_module(3, 1, 0)
    filtration = socle_filtration_parabolic(module, parabolic(3, 1))
    text = dump_filtration(filtration)
    lines = text.splitlines()
    assert lines[0] == "# step 0 dim 1"
    assert lines[1] == "1/1 0/1 0/1"
    assert "# step 1 dim 3" in lines


# --- the brute outputs, byte for byte ------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def young_bases_text():
    module = build_tensor_module(3, 2, 1)
    out = []
    for lam in (P([2]), P([1, 1])):
        space = young_project(module, lam, P([1]))
        out.append(f"# lambda {lam.parts} mu (1,) dim {space.dim}\n" + dump_matrix(space.basis))
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("name, text", [
    ("socle_filtration_4_2_2.txt", lambda: dump_filtration(
        socle_filtration_parabolic(build_tensor_module(4, 2, 0), parabolic(4, 2)))),
    ("traceless_3_1_1.txt", lambda: dump_matrix(
        traceless_subspace(build_tensor_module(3, 1, 1)).basis) + "\n"),
    ("young_3_2_1.txt", young_bases_text),
])
def test_brute_output_matches_the_golden_file(name, text):
    assert text() == (GOLDEN / name).read_text()


def test_socle_filtration_of_the_6_3_3_module_is_pinned():
    text = dump_filtration(socle_filtration_parabolic(build_tensor_module(6, 3, 0),
                                                      parabolic(6, 3)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9adac3afc3c8908a2230bc86659b82235f3f5734a428feb8a93e950f8dc1ba6d")


# --- the weight-graded engine against the dense algorithms -------------------
# Reference copies of the ungraded algorithms the graded engine replaced: the
# nilradical invariants over the whole module, the quotient-then-restrict
# layers, and the essentiality check on those layers.

def dense_invariance_rows(module, mats, base):
    free = [j for j in range(module.dimension) if j not in set(base.pivots)]
    rows = []
    for mat in mats:
        dense = mat.to_dense_rows()
        for q in free:
            row = list(dense[q])
            for pivot, bvec in zip(base.pivots, base.basis):
                if bvec[q]:
                    for col, val in enumerate(dense[pivot]):
                        if val:
                            row[col] -= bvec[q] * val
            if any(row):
                rows.append(row)
    return rows


def quotient_module(module, subspace):
    """Quotient by an invariant subspace, with the projection onto its
    coordinates (the non-pivot coordinates of the subspace's echelon basis).
    """
    free = [j for j in range(module.dimension) if j not in set(subspace.pivots)]

    def project(v):
        reduced = reduce(subspace, v)
        return [reduced[j] for j in free]

    def build(label):
        ambient = module.action(label)
        entries = []
        for col, j in enumerate(free):
            image = apply(ambient, unit_vec(module.dimension, j))
            entries.extend((row, col, c) for row, c in enumerate(project(image)) if c)
        return from_entries(len(free), entries)

    return ExplicitModule(len(free), module.rank_n, build), project


def test_quotient_module_dimensions_and_action():
    module = build_tensor_module(3, 1, 0)
    socle = Subspace(3, [unit_vec(3, 0)])
    quotient, project = quotient_module(module, socle)
    assert quotient.dimension == 2
    # the nilradical of (3,1) hits the socle, so it acts by zero downstairs
    for label in parabolic(3, 1).nilradical_labels:
        assert not quotient.action(label).cols
    assert project(vec([5, 1, 2])) == vec([1, 2])


def dense_socle_filtration(module, para):
    nil_mats = [module.action(label) for label in para.nilradical_labels]
    current = Subspace(module.dimension)
    steps = []
    while current.dim < module.dimension:
        rows = dense_invariance_rows(module, nil_mats, current)
        current = Subspace(module.dimension, nullspace(rows, module.dimension))
        steps.append(current)
    return Filtration(steps)


def dense_restrict(module, subspace):
    """The module induced on an invariant subspace, by applying each matrix
    to the whole ambient basis vectors and solving for their coordinates."""

    def build(label):
        ambient = module.action(label)
        entries = []
        for col, vector in enumerate(subspace.basis):
            coords = coordinates(subspace, apply(ambient, vector))
            entries.extend((row, col, c) for row, c in enumerate(coords) if c)
        return from_entries(subspace.dim, entries)

    return ExplicitModule(subspace.dim, module.rank_n, build)


def dense_layer(module, low, high):
    """high/low as a module, with the map from vectors of high to it."""
    big, project = quotient_module(module, low)
    high_q = Subspace(big.dimension, [project(v) for v in high.basis])
    return dense_restrict(big, high_q), lambda v: coordinates(high_q, project(v))


def dense_constituent_count(module, para):
    total = 0
    previous = Subspace(module.dimension)
    for step in dense_socle_filtration(module, para):
        layer, _ = dense_layer(module, previous, step)
        rows = [row for label in para.levi_raising_labels()
                for row in layer.action(label).to_dense_rows() if any(row)]
        total += len(nullspace(rows, layer.dimension))
        previous = step
    return total


def dense_is_essential(module, filtration, para):
    for step in filtration:
        for label in para.labels:
            for vector in step.basis:
                if not step.contains(apply(module.action(label), vector)):
                    raise ValueError("filtration step is not action-invariant")
    chain = [Subspace(module.dimension)] + list(filtration)
    chain = [s for k, s in enumerate(chain) if k == 0 or s.dim > chain[k - 1].dim]
    for low, mid, high in zip(chain, chain[1:], chain[2:]):
        layer, to_layer = dense_layer(module, low, high)
        nil_mats = [layer.action(label) for label in para.nilradical_labels]
        rows = dense_invariance_rows(layer, nil_mats, Subspace(layer.dimension))
        socle = Subspace(layer.dimension, nullspace(rows, layer.dimension))
        mid_in_layer = Subspace(layer.dimension, [to_layer(v) for v in mid.basis])
        if not mid_in_layer.contains_subspace(socle):
            return False
    return True


def assert_graded_matches_dense(module, para, filtrations=()):
    graded = socle_filtration_parabolic(module, para)
    assert dump_filtration(graded) == dump_filtration(dense_socle_filtration(module, para))
    assert constituent_count(module, para) == dense_constituent_count(module, para)
    for filtration in [graded, *filtrations]:
        assert (is_essential_filtration(module, filtration, para)
                == dense_is_essential(module, filtration, para))


def conjugated(module, u, u_inverse):
    """The module with every action matrix A replaced by u A u^-1."""
    return ExplicitModule(module.dimension, module.rank_n,
                          lambda label: compose(compose(u, module.action(label)), u_inverse))


def test_graded_engine_matches_dense_on_the_socle_grid():
    for n_rank, b in SOCLE_SHADOW_GRID:
        para = parabolic(n_rank, b)
        for m in range(1, min(b, n_rank - b, 3) + 1):
            module = build_tensor_module(n_rank, m, 0)
            extra = [grade_filtration(module, para)]
            if m == 2:  # the symmetric square is a submodule but not essential
                sym = young_project(module, P([2]), EMPTY)
                extra.append(Filtration([sym, full_space(module.dimension)]))
                assert not is_essential_filtration(module, extra[-1], para)
            assert_graded_matches_dense(module, para, extra)


def young_layers_against_dense(n_rank, b, m):
    """The socle layers of each Young image Y of (C^N*)^(x)m counted inside
    the word module, each asserted equal to those of the dense restriction
    to Y, with the number of socle steps of the whole module."""
    module, para = build_tensor_module(n_rank, m, 0), parabolic(n_rank, b)
    filtration = socle_filtration_parabolic(module, para)
    found = {}
    for lam in partitions_of(m):
        space = young_project(module, lam, EMPTY)
        layers = brute.submodule_layer_dimensions(filtration, space)
        dense = dense_socle_filtration(dense_restrict(module, space), para)
        assert layers == dense.layer_dimensions(), (n_rank, b, lam)
        found[lam] = layers
    return found, len(filtration.steps)


def test_graded_engine_matches_dense_on_young_images():
    cases = 0
    for n_rank, b in SOCLE_SHADOW_GRID:
        for m in range(min(b, n_rank - b) + 1):
            found, _ = young_layers_against_dense(n_rank, b, m)
            cases += len(found)
    assert cases == 19


def test_young_image_layers_outside_the_stable_range_match_the_dense_ones():
    # past m <= min(b, N - b) a Young image can fill before the last socle
    # step of the whole module, and its socle filtration is shorter
    shorter = 0
    for n_rank, b, m in [(3, 1, 2), (4, 1, 3), (5, 1, 3), (5, 2, 3), (6, 1, 3), (6, 2, 3),
                         (4, 3, 3), (5, 4, 2)]:
        found, steps = young_layers_against_dense(n_rank, b, m)
        shorter += sum(len(layers) < steps for layers in found.values())
        if (n_rank, b, m) == (4, 1, 3):
            assert found[P([1, 1, 1])] == [3, 1]
    assert shorter > 0


def test_graded_engine_matches_dense_on_a_mixed_module():
    module = build_tensor_module(4, 1, 1)
    para = parabolic(4, 2)
    assert_graded_matches_dense(module, para, [grade_filtration(module, para)])


def unipotent_twist(module):
    """The module conjugated by the unipotent u = 1 + (shift down by one),
    and u. Conjugating mixes the weight spaces, so no (i, i) acts diagonally
    and the whole module is one block."""
    dim = module.dimension
    shift = SparseMatrix(dim, {k + 1: {k: F(1)} for k in range(dim - 1)})
    identity = diagonal_matrix([1] * dim)
    u, u_inverse, term = add(identity, shift), identity, identity
    for _ in range(dim):
        term = scaled(compose(term, shift), -1)
        u_inverse = add(u_inverse, term)
    assert compose(u, u_inverse) == identity
    return conjugated(module, u, u_inverse), u


def test_graded_engine_matches_dense_without_diagonal_generators():
    module = build_tensor_module(4, 2, 0)
    dim = module.dimension
    twisted, u = unipotent_twist(module)
    assert twisted.weights is None
    assert all(diagonal(twisted.action((i, i))) is None for i in range(1, 5))
    para = parabolic(4, 2)
    sym = young_project(module, P([2]), EMPTY)
    moved = Filtration([Subspace(dim, [apply(u, v) for v in sym.basis]), full_space(dim)])
    assert not is_essential_filtration(twisted, moved, para)
    assert_graded_matches_dense(twisted, para, [moved])


def test_generator_that_breaks_the_grading_is_rejected():
    # (1, 1) acts as diag(1, 2), so (1, 2) must lower that weight by one,
    # but here it fixes the first basis vector
    mats = {(1, 1): diagonal_matrix([1, 2]), (1, 2): SparseMatrix(2, {0: {0: F(1)}})}
    module = ExplicitModule(2, 2, lambda label: mats.get(label, SparseMatrix(2)),
                            weights=[(1, 0), (2, 0)])
    with pytest.raises(ValueError, match="shift weights"):
        socle_filtration_parabolic(module, parabolic(2, 1))


# --- the word-module bypasses against the paths they bypass --------------------

def test_weights_read_off_the_words_match_the_diagonal_matrices():
    cases = [(n_rank, m, n) for n_rank in range(1, 5) for m in range(4)
             for n in range(4 - m)] + [(8, 1, 2)]
    for n_rank, m, n in cases:
        module = build_tensor_module(n_rank, m, n)
        diagonals = [diagonal(module.action((i, i))) for i in range(1, n_rank + 1)]
        # the weights the module carries are the eigenvalues of its (i, i)
        assert [list(w) for w in module.weights] == [list(d) for d in zip(*diagonals)]
        read, blocks = _WeightBlocks(list(zip(*diagonals))), _weight_blocks(module)
        assert blocks.weights == read.weights, (n_rank, m, n)
        assert blocks.positions == read.positions, (n_rank, m, n)


def test_word_modules_are_graded_without_diagonal_matrices():
    module = build_tensor_module(5, 2, 1)
    para = parabolic(5, 2)
    socle_filtration_parabolic(module, para)
    grade_filtration(module, para)
    young_project(module, P([1, 1]), P([1]))
    _weight_blocks(module)
    assert module._cache and not [label for label in module._cache if label[0] == label[1]]


def dense_copy(space):
    return Subspace(space.ambient, space.basis)


def test_part_wise_containment_agrees_with_the_dense_path():
    for n_rank, b, m, n in [(4, 2, 2, 0), (4, 2, 1, 1), (5, 2, 3, 0)]:
        module = build_tensor_module(n_rank, m, n)
        para = parabolic(n_rank, b)
        spaces = [traceless_subspace(module), *socle_filtration_parabolic(module, para),
                  *grade_filtration(module, para)]
        spaces += [young_project(module, lam, mu) for lam in partitions_up_to(m)
                   if lam.size == m for mu in partitions_up_to(n) if mu.size == n]
        outcomes = set()
        for a in spaces:
            for b_space in spaces:
                if a.blocks is not None and a.blocks == b_space.blocks:
                    got = a.contains_subspace(b_space)
                    assert got == dense_copy(a).contains_subspace(dense_copy(b_space))
                    outcomes.add(got)
        assert outcomes == {True, False}, (n_rank, b, m, n)


def dense_grade_filtration(module, para):
    grades = [sum(1 for idx in word[:module.star_slots] if idx > para.b)
              for word in module.labels]
    dim = module.dimension
    return Filtration([
        Subspace(dim, [unit_vec(dim, pos) for pos, g in enumerate(grades) if g <= k])
        for k in range(module.star_slots + 1)])


def test_grade_filtration_matches_the_dense_unit_vectors():
    cases = [(n_rank, b, m, 0) for n_rank, b in SOCLE_SHADOW_GRID
             for m in range(1, min(b, n_rank - b, 3) + 1)] + [(4, 2, 1, 1)]
    for n_rank, b, m, n in cases:
        module = build_tensor_module(n_rank, m, n)
        para = parabolic(n_rank, b)
        graded, dense = grade_filtration(module, para), dense_grade_filtration(module, para)
        assert dump_filtration(graded) == dump_filtration(dense), (n_rank, b, m, n)
        assert [s.pivots for s in graded] == [s.pivots for s in dense], (n_rank, b, m, n)


def test_shadow_outside_the_stable_range():
    # m = 4 > b = 3: the finite-rank shadow of (V*)^(x)4 breaks, so its socle
    # layers differ from the grade layers [81, 324, 486, 324, 81] and it has
    # 74 constituents, not tensor_length(4, 0) = 76
    module = build_tensor_module(6, 4, 0)
    para = parabolic(6, 3)
    assert socle_filtration_parabolic(module, para).layer_dimensions() == [84, 330, 480, 321, 81]
    assert constituent_count(module, para) == 74
    assert not is_essential_filtration(module, grade_filtration(module, para), para)


def test_essentiality_needs_a_parabolic_or_the_zero_algebra():
    module = build_tensor_module(2, 1, 0)
    full = full_space(2)
    with pytest.raises(ValueError):
        is_essential_filtration(module, Filtration([full]), [(1, 2)])


def test_degree_four_schur_shadow_at_the_stable_bound():
    # m = |lambda| = 4 = min(b, N - b): the largest degree the shadow at
    # (8, 4) can check
    module, para = build_tensor_module(8, 4, 0), parabolic(8, 4)
    filtration = socle_filtration_parabolic(module, para)
    for lam in partitions_of(4):
        space = young_project(module, lam, EMPTY)
        assert (brute.submodule_layer_dimensions(filtration, space)
                == socle_shadow_layer_dims(lam, 8, 4)), lam
    # the word module carries its weights, so no (i, i) is built on it
    assert module._cache and not [label for label in module._cache if label[0] == label[1]]


# --- socle steps by Levi orbit against every block ---------------------------

def orbit_cases():
    """The dual powers of the socle grid, the referee's mixed modules at
    every b, and the fourth dual power at (8, 4), each with its parabolic."""
    for n_rank, b in SOCLE_SHADOW_GRID:
        for m in range(1, min(b, n_rank - b, 3) + 1):
            yield build_tensor_module(n_rank, m, 0), parabolic(n_rank, b)
    for n_rank, m, n in REFEREE_MIXED:
        for b in range(1, n_rank):
            yield build_tensor_module(n_rank, m, n), parabolic(n_rank, b)
    yield build_tensor_module(8, 4, 0), parabolic(8, 4)


def kernel_over_every_block(module, blocks, labels, low, high=None):
    """Block parts of {v in high : A v in low for every generator A of the
    labels}, high the whole module when None, with the kernel run on every
    block: the reference the routes that skip blocks are held to."""
    return [brute._block_kernel(module, blocks, labels, b, low, None if high is None else high[b])
            for b in range(len(blocks.positions))]


def recorded_kernel_blocks(run):
    """The value of run(), and the blocks the kernel ran on with each set of
    labels meanwhile."""
    seen = {}
    block_kernel = brute._block_kernel

    def recorded(module, blocks, labels, b, *rest):
        seen.setdefault(tuple(labels), set()).add(b)
        return block_kernel(module, blocks, labels, b, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(brute, "_block_kernel", recorded)
        value = run()
    return value, seen


def kernel_blocks(module, para):
    """The socle steps of the module, and the blocks the nilradical kernel
    ran on to find them."""
    steps, seen = recorded_kernel_blocks(
        lambda: brute._socle_steps(module, para, _weight_blocks(module)))
    return steps, seen.get(tuple(para.nilradical_labels), set())


def test_socle_steps_by_orbit_equal_the_kernel_over_every_block():
    cases = 0
    for module, para in orbit_cases():
        blocks = _weight_blocks(module)
        steps, seen = kernel_blocks(module, para)
        assert seen == {b for b, (d, _) in enumerate(brute._levi_orbits(module, para, blocks))
                        if d == b}
        for low, step in zip(steps, steps[1:]):
            full = kernel_over_every_block(module, blocks, para.nilradical_labels, low)
            assert step == full, (module, para)
        cases += 1
    assert cases == 9 + 34 + 1


def test_dominant_blocks_are_the_weights_sorted_within_each_levi_block():
    for n_rank, b, m, dominant in [(7, 3, 3, 10), (8, 4, 4, 20)]:
        module, para = build_tensor_module(n_rank, m, 0), parabolic(n_rank, b)
        blocks = _weight_blocks(module)
        orbits = brute._levi_orbits(module, para, blocks)
        kept = [blocks.weights[d] for d, table in orbits if table is None]
        assert len(kept) == dominant
        assert all(list(w[:b]) == sorted(w[:b], reverse=True)
                   and list(w[b:]) == sorted(w[b:], reverse=True) for w in kept)
        # made once per module and b, and another b keeps orbits of its own
        assert brute._levi_orbits(module, para, blocks) is orbits
        fresh, other = build_tensor_module(n_rank, m, 0), parabolic(n_rank, b - 1)
        assert (brute._levi_orbits(module, other, blocks)
                == brute._levi_orbits(fresh, other, _weight_blocks(fresh)) != orbits)


def test_a_module_without_words_runs_the_kernel_on_every_block():
    word, para = build_tensor_module(6, 3, 0), parabolic(6, 3)
    # the word module's builder and weights, without its words
    module = ExplicitModule(word.dimension, 6, word.action, weights=word.weights)
    blocks = _weight_blocks(module)
    steps, seen = kernel_blocks(module, para)
    assert len(blocks.positions) > 1 and seen == set(range(len(blocks.positions)))
    for low, step in zip(steps, steps[1:]):
        assert step == kernel_over_every_block(module, blocks, para.nilradical_labels, low)
    assert steps == brute._socle_steps(word, para, _weight_blocks(word))


# --- counts and essentiality on chosen blocks against every block ---------------

def every_block(*args):
    """All the blocks, which come as the last argument."""
    return list(range(len(args[-1].positions)))


def over_every_block(run):
    """The value of run() with the count and the essentiality kernels run
    on every block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(brute, "_raising_chamber", every_block)
        patch.setattr(brute, "_dominant_blocks", every_block)
        return run()


def essentiality_cases(module, para):
    """The socle filtration of the module; on a dual power also its grade
    filtration, and on the second dual power [Sym^2, whole] too."""
    filtrations = [socle_filtration_parabolic(module, para)]
    if module.plain_slots == 0:
        filtrations.append(grade_filtration(module, para))
        if module.star_slots == 2:
            sym = young_project(module, P([2]), EMPTY)
            filtrations.append(Filtration([sym, full_space(module.dimension)]))
    return filtrations


def test_counts_and_essentiality_on_chosen_blocks_equal_every_block():
    cases, outcomes = 0, set()
    for module, para in orbit_cases():
        count = constituent_count(module, para)
        assert count == over_every_block(lambda: constituent_count(module, para)), (module, para)
        for filtration in essentiality_cases(module, para):
            essential = is_essential_filtration(module, filtration, para)
            assert essential == over_every_block(
                lambda: is_essential_filtration(module, filtration, para)), (module, para)
            outcomes.add(essential)
        cases += 1
    assert cases == 9 + 34 + 1 and outcomes == {True, False}


def test_raising_kernels_outside_the_ascending_chamber_are_low():
    skipped = 0
    for module, para in orbit_cases():
        blocks = _weight_blocks(module)
        chamber = brute._raising_chamber(para, blocks)
        # w_k <= w_(k+1) for k = 1..N-1 but b, with w_k at w[k - 1]
        assert chamber == [c for c, w in enumerate(blocks.weights)
                           if all(w[k - 1] <= w[k] for k in range(1, para.n_rank) if k != para.b)]
        steps = brute._socle_steps(module, para, blocks)
        raising = para.levi_raising_labels()
        for low, high in zip(steps, steps[1:]):
            for b in sorted(set(range(len(blocks.positions))) - set(chamber)):
                assert brute._block_kernel(module, blocks, raising, b, low, high[b]) == low[b]
                skipped += 1
    assert skipped > 0


def test_essentiality_runs_the_kernel_on_the_dominant_blocks_only():
    module, para = build_tensor_module(8, 4, 0), parabolic(8, 4)
    blocks = _weight_blocks(module)
    socle_filtration_parabolic(module, para)
    essential, seen = recorded_kernel_blocks(
        lambda: is_essential_filtration(module, grade_filtration(module, para), para))
    assert essential and list(seen) == [tuple(para.nilradical_labels)]
    dominant = {b for b, (d, _) in enumerate(brute._levi_orbits(module, para, blocks)) if d == b}
    assert seen[tuple(para.nilradical_labels)] == dominant
    assert (len(dominant), len(blocks.positions)) == (20, 330)


def test_an_ungraded_module_keeps_its_one_block():
    module, para = build_tensor_module(4, 2, 0), parabolic(4, 2)
    ungraded = ExplicitModule(module.dimension, 4, module.action)
    blocks = _weight_blocks(ungraded)
    assert brute._raising_chamber(para, blocks) == [0]
    assert brute._dominant_blocks(ungraded, para, blocks) == [0]
    assert constituent_count(ungraded, para) == constituent_count(module, para)
    assert constituent_count(module, para) == tensor_length(2, 0)


def test_degree_four_socle_filtration_and_count_at_the_stable_bound():
    module, para = build_tensor_module(8, 4, 0), parabolic(8, 4)
    assert socle_filtration_parabolic(module, para).layer_dimensions() == [
        256, 1024, 1536, 1024, 256]
    assert constituent_count(module, para) == tensor_length(4, 0) == 76
    assert is_essential_filtration(module, grade_filtration(module, para), para)


# --- invariance on the simple labels against every label ------------------------

def moving_labels(module, filtration, labels):
    """The labels that move some step of the filtration, by dense images of
    every basis vector: the reference for checking the simple labels only."""
    return [label for label in labels
            if any(not step.contains(apply(module.action(label), v))
                   for step in filtration for v in step.basis)]


def refused_as_not_invariant(module, filtration, para):
    """Whether is_essential_filtration refuses the filtration as moved by the
    action, through a label or a diagonal generator."""
    try:
        is_essential_filtration(module, filtration, para)
    except ValueError as error:
        assert "not action-invariant" in str(error) or "diagonal generator" in str(error)
        return True
    return False


def planted_steps():
    """Steps moved by one kind of label each, with the filtration they end,
    the parabolic and the labels that move them."""
    # the crooked line of C^2*: moved by the diagonal and the nilradical
    module = build_tensor_module(2, 1, 0)
    yield module, Subspace(2, [vec([1, 1])]), parabolic(2, 1), [(1, 1), (2, 2), (1, 2)]
    # e1* (x) e1*, a block part of (C^4*)^(x)2: (2, 1) lowers it to -(e2* (x) e1*
    # + e1* (x) e2*), and every other label of the parabolic keeps it
    module = build_tensor_module(4, 2, 0)
    yield (module, Subspace(16, [unit_vec(16, module.labels.index((1, 1)))]),
           parabolic(4, 2), [(2, 1)])
    # e4 in C^4: only (4, 3), the lowering label of the second Levi block, moves it
    module = build_tensor_module(4, 0, 1)
    yield module, Subspace(4, [unit_vec(4, 3)]), parabolic(4, 2), [(4, 3)]


def test_invariance_on_the_simple_labels_agrees_with_every_label():
    for n_rank, b in SOCLE_SHADOW_GRID:
        para = parabolic(n_rank, b)
        for m in range(1, min(b, n_rank - b, 3) + 1):
            module = build_tensor_module(n_rank, m, 0)
            for filtration in essentiality_cases(module, para):
                assert moving_labels(module, filtration, para.labels) == []
                assert not refused_as_not_invariant(module, filtration, para)
    for module, step, para, movers in planted_steps():
        filtration = Filtration([step, full_space(module.dimension)])
        assert moving_labels(module, filtration, para.labels) == movers
        assert refused_as_not_invariant(module, filtration, para), movers


def test_an_ungraded_module_checks_its_diagonal_labels():
    # the conjugated module of the dense comparison above: one block, so
    # every (i, i) stays among the labels the steps are checked against
    module = build_tensor_module(4, 2, 0)
    dim = module.dimension
    (twisted, u), para = unipotent_twist(module), parabolic(4, 2)
    sym = young_project(module, P([2]), EMPTY)
    lowered = Subspace(dim, [unit_vec(dim, module.labels.index((1, 1)))])
    checked = set()
    is_invariant = brute._is_invariant

    def recorded(module, blocks, label, parts):
        checked.add(label)
        return is_invariant(module, blocks, label, parts)

    for space in [sym, lowered]:
        filtration = Filtration([Subspace(dim, [apply(u, v) for v in space.basis]),
                                 full_space(dim)])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(brute, "_is_invariant", recorded)
            refused = refused_as_not_invariant(twisted, filtration, para)
        assert refused == bool(moving_labels(twisted, filtration, para.labels))
        assert refused == (space is lowered)
    assert {(i, i) for i in range(1, 5)} <= checked
    # a line of C^2* (x) C^2 that the one simple label (1, 2) kills but
    # (1, 1) moves: e1* (x) e2 + e1* (x) e1 + e2* (x) e2, of weights (-1, 1)
    # and (0, 0); without its weights the module is one block, and only the
    # diagonal labels refuse the line
    module = build_tensor_module(2, 1, 1)
    ungraded, para = ExplicitModule(4, 2, module.action), parabolic(2, 1)
    line = Subspace(4, [vec([1 if word in [(1, 2), (1, 1), (2, 2)] else 0
                             for word in module.labels])])
    filtration = Filtration([line, full_space(4)])
    assert para.simple_labels() == [(1, 2)]
    assert moving_labels(ungraded, filtration, para.labels) == [(1, 1), (2, 2)]
    assert refused_as_not_invariant(ungraded, filtration, para)
