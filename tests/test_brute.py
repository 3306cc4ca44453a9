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
    restrict_module,
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
    unit_vec,
    vec,
)
from mackey.partitions import EMPTY, Partition, partitions_up_to
from mackey.verify import SOCLE_SHADOW_GRID, socle_shadow_layer_dims

from gl_weights import gl_highest_weight_count
from matrix_ops import (add, compose, diagonal, dump_filtration, dump_matrix,
                        intersection, reduce, scaled)

P = Partition
F = Fraction


def word_indices(module):
    return [tuple(idx for idx, _ in label) for label in module.labels]


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
    assert a.apply(vec([0, 1])) == vec([-1, 0])
    assert a.apply(vec([1, 0])) == vec([0, 0])
    b = module.action((2, 1))
    assert b.apply(vec([1, 0])) == vec([0, -1])


def test_plain_slot_action():
    # on C^2 (no stars): label (1,2) moves e1 to e2
    module = build_tensor_module(2, 0, 1)
    a = module.action((1, 2))
    assert a.apply(vec([1, 0])) == vec([0, 1])
    assert a.apply(vec([0, 1])) == vec([0, 0])


def test_diagonal_eigenvalues_on_square_of_dual():
    module = build_tensor_module(2, 2, 0)
    assert module.dimension == 4
    eigenvalues = sorted(diagonal(module.action((1, 1))))
    assert eigenvalues == vec([-2, -1, -1, 0])


def test_invariant_pairing_vector_is_killed():
    module = build_tensor_module(3, 1, 1)
    assert module.dimension == 9
    invariant = [F(0)] * 9
    for pos, (a, b) in enumerate(word_indices(module)):
        if a == b:
            invariant[pos] = F(1)
    for i in range(1, 4):
        for j in range(1, 4):
            if i == j:
                continue
            assert not any(module.action((i, j)).apply(invariant)), (i, j)


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
    assert module.labels[0] == ((1, True), (1, False))


def test_action_respects_the_bracket_on_every_generator_pair():
    for n_rank in range(1, 5):
        for m in range(4):
            for n in range(4 - m):
                module = build_tensor_module(n_rank, m, n)
                labels = module.generator_labels()
                for x in labels:
                    a = module.action(x)
                    for y in labels:
                        b = module.action(y)
                        expected = SparseMatrix(module.dimension)
                        for label, sign in bracket(x, y):
                            expected = add(expected, scaled(module.action(label), sign))
                        commutator = add(compose(a, b), scaled(compose(b, a), -1))
                        assert commutator == expected, (n_rank, m, n, x, y)


def test_word_modules_hold_integer_matrices():
    # the action entries are -1, 0 and 1, and reach the integer kernel as ints
    for n_rank, m, n in [(3, 2, 0), (3, 1, 2), (2, 2, 2)]:
        module = build_tensor_module(n_rank, m, n)
        blocks = _weight_blocks(module, module.generator_labels())
        for label in module.generator_labels():
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


def test_traceless_dimension_matches_subspace():
    for n_rank in (2, 3):
        for m in range(3):
            for n in range(3):
                module = build_tensor_module(n_rank, m, n)
                assert traceless_dimension(n_rank, m, n) == \
                    traceless_subspace(module).dim


def test_traceless_subspace_is_invariant():
    module = build_tensor_module(3, 1, 1)
    t = traceless_subspace(module)
    for label in module.generator_labels():
        a = module.action(label)
        for v in t.basis:
            assert t.contains(a.apply(v))


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
        image = a.apply(vec([0, 1, 1]))
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
    schur_module = restrict_module(module, projected)
    filtration = socle_filtration_parabolic(schur_module, parabolic(5, 3))
    assert filtration.layer_dimensions() == [6, 6, 3]


def test_socle_filtration_steps_are_parabolic_invariant():
    module = build_tensor_module(4, 2, 0)
    p = parabolic(4, 2)
    filtration = socle_filtration_parabolic(module, p)
    for step in filtration:
        for label in p.labels:
            a = module.action(label)
            for v in step.basis:
                assert step.contains(a.apply(v))


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


def test_essentiality_rejects_non_invariant_filtration():
    module = build_tensor_module(2, 1, 0)
    p = parabolic(2, 1)
    crooked = Subspace(2, [vec([1, 1])])  # moved by the nilradical
    full = Subspace(2, [unit_vec(2, 0), unit_vec(2, 1)])
    with pytest.raises(ValueError):
        is_essential_filtration(module, Filtration([crooked, full]), p)


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
                assert step.contains(a.apply(v))


# --- weight blocks ----------------------------------------------------------

def weight_dims(module, labels):
    blocks = _weight_blocks(module, labels)
    return {weight: len(members) for weight, members in zip(blocks.weights, blocks.positions)}


def test_weight_decompose_dual_vector_module():
    module = build_tensor_module(2, 1, 0)
    assert weight_dims(module, [(1, 1), (2, 2)]) == {(-1, 0): 1, (0, -1): 1}


def test_weight_decompose_square():
    module = build_tensor_module(2, 2, 0)
    dims = weight_dims(module, [(1, 1), (2, 2)])
    assert dims == {(-2, 0): 1, (-1, -1): 2, (0, -2): 1}
    assert sum(dims.values()) == module.dimension


def test_weight_decompose_traceless_adjoint():
    module = build_tensor_module(3, 1, 1)
    sub = restrict_module(module, traceless_subspace(module))
    assert weight_dims(sub, [(1, 1), (2, 2), (3, 3)])[(0, 0, 0)] == 2


def test_weight_decompose_rejects_non_diagonal():
    # a label off the diagonal does not grade: the module stays one block
    module = build_tensor_module(2, 1, 0)
    blocks = _weight_blocks(module, [(1, 2)])
    assert blocks.indices == [] and blocks.positions == [[0, 1]]


# --- restriction, quotients, counting ---------------------------------------

def test_restrict_module_rejects_non_invariant_subspace():
    module = build_tensor_module(2, 1, 0)
    # the crooked line is not a sum of weight vectors
    with pytest.raises(ValueError, match="moved by a diagonal generator"):
        restrict_module(module, Subspace(2, [vec([1, 1])]))
    # span{e2*} is a weight line, but (1, 2) sends e2* to -e1*
    line = restrict_module(module, Subspace(2, [unit_vec(2, 1)]))
    assert line.action((2, 2)) == SparseMatrix(1, {0: {0: F(-1)}})
    with pytest.raises(ValueError, match=r"not invariant under generator \(1, 2\)"):
        line.action((1, 2))


def test_constituent_count_matches_length_formula():
    assert constituent_count(build_tensor_module(6, 2, 0), parabolic(6, 3)) == 6
    assert constituent_count(build_tensor_module(4, 1, 0), parabolic(4, 2)) == 2


def test_constituent_count_reuses_the_socle_steps(monkeypatch):
    para = parabolic(6, 3)
    fresh = constituent_count(build_tensor_module(6, 2, 0), para)
    module = build_tensor_module(6, 2, 0)
    socle_filtration_parabolic(module, para)
    passes = []
    kernel = brute._kernel

    def counted(module, blocks, labels, *rest):
        passes.append(list(labels))
        return kernel(module, blocks, labels, *rest)

    monkeypatch.setattr(brute, "_kernel", counted)
    assert constituent_count(module, para) == fresh == 6
    assert passes and para.nilradical_labels not in passes


def test_tensor_length_degree_four_against_semisimple_counts():
    # the parabolic at (8, 4) is past the dense-linear-algebra budget, but
    # the grade-layer counts it would produce factor through gl(4) highest
    # weight counts on each block, which are affordable directly
    from math import comb
    from mackey.socle import tensor_length
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
            image = ambient.apply(unit_vec(module.dimension, j))
            entries.extend((row, col, c) for row, c in enumerate(project(image)) if c)
        return SparseMatrix.from_entries(len(free), entries)

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
            coords = subspace.coordinates(ambient.apply(vector))
            entries.extend((row, col, c) for row, c in enumerate(coords) if c)
        return SparseMatrix.from_entries(subspace.dim, entries)

    return ExplicitModule(subspace.dim, module.rank_n, build)


def dense_layer(module, low, high):
    """high/low as a module, with the map from vectors of high to it."""
    big, project = quotient_module(module, low)
    high_q = Subspace(big.dimension, [project(v) for v in high.basis])
    return dense_restrict(big, high_q), lambda v: high_q.coordinates(project(v))


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
                if not step.contains(module.action(label).apply(vector)):
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


def test_graded_engine_matches_dense_on_young_images():
    for n_rank, b in SOCLE_SHADOW_GRID:
        para = parabolic(n_rank, b)
        for lam in partitions_up_to(min(b, n_rank - b)):
            module = build_tensor_module(n_rank, lam.size, 0)
            schur = restrict_module(module, young_project(module, lam, EMPTY))
            assert_graded_matches_dense(schur, para)


def test_graded_engine_matches_dense_on_a_mixed_module():
    module = build_tensor_module(4, 1, 1)
    para = parabolic(4, 2)
    assert_graded_matches_dense(module, para, [grade_filtration(module, para)])


def test_graded_engine_matches_dense_without_diagonal_generators():
    # conjugating by a unipotent u mixes the weight spaces, so no (i, i)
    # acts diagonally and the whole module is one block
    module = build_tensor_module(4, 2, 0)
    dim = module.dimension
    shift = SparseMatrix(dim, {k + 1: {k: F(1)} for k in range(dim - 1)})
    identity = SparseMatrix.diagonal([1] * dim)
    u, u_inverse, term = add(identity, shift), identity, identity
    for _ in range(dim):
        term = scaled(compose(term, shift), -1)
        u_inverse = add(u_inverse, term)
    assert compose(u, u_inverse) == identity
    twisted = conjugated(module, u, u_inverse)
    assert twisted.weights is None
    assert all(diagonal(twisted.action((i, i))) is None for i in range(1, 5))
    para = parabolic(4, 2)
    sym = young_project(module, P([2]), EMPTY)
    moved = Filtration([Subspace(dim, [u.apply(v) for v in sym.basis]), full_space(dim)])
    assert not is_essential_filtration(twisted, moved, para)
    assert_graded_matches_dense(twisted, para, [moved])


def test_generator_that_breaks_the_grading_is_rejected():
    # (1, 1) acts as diag(1, 2), so (1, 2) must lower that weight by one,
    # but here it fixes the first basis vector
    mats = {(1, 1): SparseMatrix.diagonal([1, 2]), (1, 2): SparseMatrix(2, {0: {0: F(1)}})}
    module = ExplicitModule(2, 2, lambda label: mats.get(label, SparseMatrix(2)),
                            weights=[(1, 0), (2, 0)])
    with pytest.raises(ValueError, match="shift weights"):
        socle_filtration_parabolic(module, parabolic(2, 1))


# --- the word-module bypasses against the paths they bypass --------------------

def assert_weights_are_the_diagonals(module):
    """The weights the module carries are the eigenvalues of its (i, i)."""
    for i in range(1, module.rank_n + 1):
        assert diagonal(module.action((i, i))) == [w[i - 1] for w in module.weights], i


def test_weights_read_off_the_words_match_the_diagonal_matrices():
    cases = [(n_rank, m, n) for n_rank in range(1, 5) for m in range(4)
             for n in range(4 - m)] + [(8, 1, 2)]
    for n_rank, m, n in cases:
        module = build_tensor_module(n_rank, m, n)
        assert_weights_are_the_diagonals(module)
        diagonals = {i: diagonal(module.action((i, i))) for i in range(1, n_rank + 1)}
        for labels in [module.generator_labels(), [(n_rank, n_rank), (1, 1), (1, n_rank)]]:
            indices = sorted({i for i, j in labels if i == j})
            read = _WeightBlocks(indices, [tuple(diagonals[i][pos] for i in indices)
                                           for pos in range(module.dimension)])
            blocks = _weight_blocks(module, labels)
            assert blocks.indices == read.indices, (n_rank, m, n)
            assert blocks.weights == read.weights, (n_rank, m, n)
            assert blocks.positions == read.positions, (n_rank, m, n)
    # restricted modules inherit the weights of their parents' blocks
    module = build_tensor_module(4, 1, 2)
    for space in [traceless_subspace(module), young_project(module, P([1]), P([2])),
                  young_project(module, P([1]), P([1, 1]))]:
        assert_weights_are_the_diagonals(restrict_module(module, space))


def test_word_modules_are_graded_without_diagonal_matrices():
    module = build_tensor_module(5, 2, 1)
    para = parabolic(5, 2)
    socle_filtration_parabolic(module, para)
    grade_filtration(module, para)
    young_project(module, P([1, 1]), P([1]))
    _weight_blocks(module, [(1, 1), (3, 3)])
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
              for word in word_indices(module)]
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


# --- graded restriction against the dense one ----------------------------------

def restriction_cases():
    """The Young images of the socle grid and of the mixed modules with
    N <= 4 and m + n <= 3, and the traceless subspaces of (3, 1, 1) and
    (4, 1, 1), each with its module."""
    for n_rank, b in SOCLE_SHADOW_GRID:
        for lam in partitions_up_to(min(b, n_rank - b)):
            module = build_tensor_module(n_rank, lam.size, 0)
            yield module, young_project(module, lam, EMPTY)
    for n_rank in range(1, 5):
        for lam in partitions_up_to(3):
            for mu in partitions_up_to(3 - lam.size):
                if len(lam) + len(mu) <= n_rank:
                    module = build_tensor_module(n_rank, lam.size, mu.size)
                    yield module, young_project(module, lam, mu)
    for n_rank in (3, 4):
        module = build_tensor_module(n_rank, 1, 1)
        yield module, traceless_subspace(module)


def test_graded_restriction_matches_the_dense_one():
    cases = 0
    for module, space in restriction_cases():
        graded, dense = restrict_module(module, space), dense_restrict(module, space)
        assert graded.dimension == dense.dimension == space.dim
        for label in module.generator_labels():
            assert graded.action(label) == dense.action(label), (module, space, label)
        assert_weights_are_the_diagonals(graded)
        cases += 1
    assert cases == 19 + 57 + 2


def test_restriction_of_an_ungraded_module_is_ungraded():
    line = restrict_module(zero_module(2), Subspace(2, [vec([1, 2])]))
    assert line.weights is None and line.dimension == 1
    assert line.action((1, 1)) == SparseMatrix(1)


def test_degree_four_schur_shadow_at_the_stable_bound():
    # m = |lambda| = 4 = min(b, N - b): the largest degree the shadow at
    # (8, 4) can check
    lam, para = P([2, 2]), parabolic(8, 4)
    module = build_tensor_module(8, 4, 0)
    schur = restrict_module(module, young_project(module, lam, EMPTY))
    filtration = socle_filtration_parabolic(schur, para)
    assert filtration.layer_dimensions() == socle_shadow_layer_dims(lam, 8, 4)
    # the restricted module carries its weights, so no (i, i) is built on it
    assert schur._cache and not [label for label in schur._cache if label[0] == label[1]]
