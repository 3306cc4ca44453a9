"""Exact finite-rank oracle: explicit tensor modules over gl(N) with
matrix-unit actions, traceless subspaces, Young symmetrizers, parabolic
socle filtrations, constituent counts, and essentiality checks, all run
block by block on the weight grading a module carries.

Everything is over exact rationals; the point of this module is to be an
independent numerical referee for the tableau combinatorics, so no result
here may depend on the formulas it is checking.

Conventions, fixed globally:

* Elements of the dual are row vectors and the algebra acts on them by
  minus right multiplication. A generator labeled (i, j) moves e_i to e_j
  on a plain tensor slot and e_j* to -e_i* on a starred slot. The label
  bracket rule is [x_ij, x_kl] = d_il x_kj - d_jk x_il.
* The parabolic at (N, b) stabilizes the span of e_1*..e_b* in the dual:
  Levi labels stay inside the two diagonal blocks, nilradical labels (i, j)
  with i <= b < j push the complement of that span into it.
* Young symmetrizers use the canonical row-reading tableau and apply the
  row symmetrizer first, then the signed column sum.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, combinations, permutations, product
from math import lcm
from typing import Callable, Iterable, Sequence

from .linalg import (
    SparseMatrix,
    Subspace,
    add_multiple,
    full_space,
    integer_rows,
    nullspace,
    rank,
)
from .partitions import Partition

GeneratorLabel = tuple[int, int]
WordLabel = tuple[tuple[int, bool], ...]

DEFAULT_BUDGET = 20000


class BudgetExceededError(ValueError):
    """A requested tensor module is larger than the configured budget."""


class ExplicitModule:
    """Finite-dimensional module with one action matrix per generator label.

    Matrices are built on first use and cached, since most computations only
    touch the parabolic generators; so are the weight blocks and the
    traceless subspace and socle steps built on them. Modules produced by
    restriction reuse this class with a different builder. The weights hold
    the weight of each basis vector under (1, 1)..(N, N), or are None for an
    ungraded module, which is one block.
    """

    def __init__(self, dimension: int, rank_n: int,
                 builder: Callable[[GeneratorLabel], SparseMatrix],
                 labels: tuple[WordLabel, ...] | None = None,
                 star_slots: int = 0, plain_slots: int = 0,
                 weights: Sequence[tuple[int, ...]] | None = None):
        self.dimension = dimension
        self.rank_n = rank_n
        self.labels = labels
        self.star_slots = star_slots
        self.plain_slots = plain_slots
        self.weights = weights
        self._builder = builder
        self._cache: dict[GeneratorLabel, SparseMatrix] = {}
        self._derived: dict = {}

    def action(self, label: GeneratorLabel) -> SparseMatrix:
        i, j = label
        if not (1 <= i <= self.rank_n and 1 <= j <= self.rank_n):
            raise ValueError(f"generator label {label} out of range for rank {self.rank_n}")
        mat = self._cache.get(label)
        if mat is None:
            mat = self._builder(label)
            self._cache[label] = mat
        return mat

    def generator_labels(self) -> list[GeneratorLabel]:
        n = self.rank_n
        return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]

    def __repr__(self) -> str:
        return f"ExplicitModule(dim={self.dimension}, rank={self.rank_n})"


def _tensor_words(n_rank: int, m: int, n: int, budget: int) -> list[tuple[int, ...]]:
    """The basis words of (C^N*)^(x)m (x) (C^N)^(x)n, once the rank, the
    degrees and the budget are checked."""
    if n_rank < 1 or m < 0 or n < 0:
        raise ValueError("rank must be positive, degrees nonnegative")
    if n_rank ** (m + n) > budget:
        raise BudgetExceededError(f"module dimension {n_rank}^{m + n} = "
                                  f"{n_rank ** (m + n)} exceeds budget {budget}")
    return list(product(range(1, n_rank + 1), repeat=m + n))


def _word_weight(word: tuple[int, ...], m: int, n_rank: int) -> tuple[int, ...]:
    """The eigenvalues of the generators (1, 1)..(N, N) on a basis word with
    m starred slots: each plain slot i counts 1, each starred -1."""
    return tuple(word[m:].count(i) - word[:m].count(i) for i in range(1, n_rank + 1))


def build_tensor_module(n_rank: int, m: int, n: int,
                        budget: int = DEFAULT_BUDGET) -> ExplicitModule:
    """The gl(N)-module (C^N*)^(x)m (x) (C^N)^(x)n on word basis, with the
    slot-wise derivation action of the generator labels, whose matrices
    have integer entries.
    """
    words = _tensor_words(n_rank, m, n, budget)
    dim = len(words)
    index = {w: pos for pos, w in enumerate(words)}
    labels: tuple[WordLabel, ...] = tuple(
        tuple((idx, pos < m) for pos, idx in enumerate(word)) for word in words)

    def build(label: GeneratorLabel) -> SparseMatrix:
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
        return SparseMatrix.from_entries(dim, entries)

    return ExplicitModule(dim, n_rank, build, labels, m, n,
                          [_word_weight(word, m, n_rank) for word in words])


def restrict_module(module: ExplicitModule, subspace: Subspace) -> ExplicitModule:
    """The module induced on an invariant subspace, in the coordinates and
    with the weights of the subspace basis. A generator maps block b into
    block targets(b), so coordinates are read in that block's part. Raises
    if the subspace is not a sum of weight vectors, or a generator moves it.
    """
    blocks = _weight_blocks(module, module.generator_labels())
    parts = blocks.split(subspace)
    # the restricted basis is the subspace's, numbered in its pivot order
    at = {pivot: col for col, pivot in enumerate(subspace.pivots)}
    number = [[at[members[p]] for p in part.pivots]
              for members, part in zip(blocks.positions, parts)]

    def build(label: GeneratorLabel) -> SparseMatrix:
        mat = module.action(label)
        entries = []
        for b, u in enumerate(blocks.targets(module, label)):
            if u is None:
                continue
            for col, pivot in zip(number[b], parts[b].pivots):
                # the basis vector is the echelon row divided by its pivot
                row = parts[b].echelon[pivot]
                try:
                    coords = parts[u].coordinates(blocks.image(mat, b, row))
                except ValueError:
                    raise ValueError(
                        f"subspace is not invariant under generator {label}") from None
                entries.extend((r, col, Fraction(c, row[pivot]))
                               for r, c in zip(number[u], coords) if c)
        return SparseMatrix.from_entries(subspace.dim, entries)

    weights = None if module.weights is None else [
        blocks.weights[blocks.block_of[pivot]] for pivot in subspace.pivots]
    return ExplicitModule(subspace.dim, module.rank_n, build, weights=weights)


# ---------------------------------------------------------------------------
# traceless tensors

def _require_words(module: ExplicitModule) -> list[tuple[int, ...]]:
    if module.labels is None:
        raise ValueError("operation needs a word-basis module from build_tensor_module")
    return [tuple(idx for idx, _ in label) for label in module.labels]


def _contraction_rows(words: Sequence[tuple[int, ...]], m: int, n: int,
                      members: Sequence[int]) -> list[list[int]]:
    """The contraction constraints restricted to one weight block of word
    positions. Contractions preserve weight, so the joint kernel splits over
    the blocks.
    """
    rows: dict[tuple, set[int]] = {}
    for local, pos in enumerate(members):
        word = words[pos]
        for a in range(m):
            for b in range(n):
                if word[a] != word[m + b]:
                    continue
                remaining = tuple(word[s] for s in range(len(word))
                                  if s != a and s != m + b)
                rows.setdefault((a, b, remaining), set()).add(local)
    return [[1 if k in rows[key] else 0 for k in range(len(members))]
            for key in sorted(rows)]


def _kernel_space(rows: Sequence, size: int) -> Subspace:
    """The joint kernel of the functionals on Q^size, as a subspace."""
    return Subspace(size, nullspace(rows, size)) if rows else full_space(size)


def traceless_subspace(module: ExplicitModule) -> Subspace:
    """Joint kernel of all m*n contraction maps, as a subspace of the word
    module. Computed once per module, as a sum over the gl(N) weight blocks,
    which also keeps the basis weight-homogeneous.
    """
    space = module._derived.get("traceless")
    if space is None:
        words = _require_words(module)
        space = module._derived["traceless"] = Subspace.from_blocks(module.dimension, [
            (members, _kernel_space(
                _contraction_rows(words, module.star_slots, module.plain_slots, members),
                len(members)))
            for members in _weight_blocks(module, module.generator_labels()).positions])
    return space


def traceless_dimension(n_rank: int, m: int, n: int,
                        budget: int = DEFAULT_BUDGET) -> int:
    """Dimension of the traceless subspace of (C^N*)^(x)m (x) (C^N)^(x)n,
    by contraction-constraint ranks per weight block. Never materializes
    action matrices, so it scales to the full budget.
    """
    words = _tensor_words(n_rank, m, n, budget)
    blocks = _WeightBlocks(range(1, n_rank + 1),
                           [_word_weight(word, m, n_rank) for word in words])
    return sum(len(members) - rank(_contraction_rows(words, m, n, members))
               for members in blocks.positions)


# ---------------------------------------------------------------------------
# Young symmetrizers

def _group_perms(groups: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """All permutations of the slots that keep each group (the groups
    partition the slots) in itself, as tuples of slot images."""
    slots = [s for group in groups for s in group]
    perms = []
    for arrangement in product(*map(permutations, groups)):
        perm = [0] * len(slots)
        for s, image in zip(slots, chain.from_iterable(arrangement)):
            perm[s] = image
        perms.append(tuple(perm))
    return perms


def _symmetrizer_terms(shape: Partition) -> list[tuple[tuple[int, ...], int]]:
    """The Young symmetrizer for the canonical tableau as a signed list of
    slot permutations: column-antisymmetrize after row-symmetrizing.
    """
    size = shape.size
    # the row-reading tableau: slots 0..|shape|-1 filled row by row
    rows = [range(start, start + length)
            for start, length in zip(accumulate(shape, initial=0), shape)]
    columns = [[row[j] for row in rows if j < len(row)] for j in range(shape[0])]
    row_perms = _group_perms(rows)
    terms = []
    for q in _group_perms(columns):
        sign = (-1) ** sum(a > b for a, b in combinations(q, 2))  # parity of inversions
        for p in row_perms:
            combined = tuple(q[p[s]] for s in range(size))
            terms.append((combined, sign))
    return terms


def _slot_table(module: ExplicitModule, blocks: _WeightBlocks,
                perm: tuple[int, ...]) -> list[int]:
    """The slot permutation acting on whole words, as a table from word
    positions to the positions of the moved words within their weight
    blocks; made once per module and permutation."""
    key = ("slots", perm)
    table = module._derived.get(key)
    if table is None:
        words = _require_words(module)
        index = module._derived.get("index")
        if index is None:
            index = module._derived["index"] = {w: pos for pos, w in enumerate(words)}
        table = module._derived[key] = []
        for word in words:
            moved = [0] * len(word)
            for s, target in enumerate(perm):
                moved[target] = word[s]
            table.append(blocks.local[index[tuple(moved)]])
    return table


def young_project(module: ExplicitModule, lam: Partition, mu: Partition) -> Subspace:
    """Image of the Young symmetrizer pair (lam on starred slots, mu on
    plain slots) applied to the traceless subspace of the module. Slot
    permutations keep the weight of a word, so the image is taken weight
    block by weight block, on the integer echelon rows of the traceless
    parts.
    """
    m, n = module.star_slots, module.plain_slots
    if lam.size != m or mu.size != n:
        raise ValueError(
            f"shape sizes ({lam.size}, {mu.size}) do not match slots ({m}, {n})")
    traceless = traceless_subspace(module)
    blocks = _weight_blocks(module, module.generator_labels())
    plain_terms = _symmetrizer_terms(mu)
    # combined slot permutations acting on whole words, with total signs
    terms = [(_slot_table(module, blocks, sp + tuple(m + s for s in pp)), ssign * psign)
             for sp, ssign in _symmetrizer_terms(lam) for pp, psign in plain_terms]
    projected = []
    for members, part in zip(traceless.blocks, traceless.parts):
        images = []
        for row in part.echelon.values():
            entries = [(members[k], c) for k, c in row.items()]
            image: dict[int, int] = {}
            for table, sign in terms:
                for pos, c in entries:
                    at = table[pos]
                    image[at] = image.get(at, 0) + (c if sign > 0 else -c)
            images.append(image)
        projected.append(Subspace(len(members), images))
    return Subspace.from_blocks(module.dimension, zip(traceless.blocks, projected))


# ---------------------------------------------------------------------------
# parabolic structure

class ParabolicData:
    """Stabilizer of the distinguished b-dimensional block of the dual,
    split into Levi and nilradical generator labels.
    """

    def __init__(self, n_rank: int, b: int):
        if not 0 < b < n_rank:
            raise ValueError(f"need 0 < b < N, got b={b}, N={n_rank}")
        self.n_rank = n_rank
        self.b = b
        self.levi_labels = [
            (i, j) for i in range(1, n_rank + 1) for j in range(1, n_rank + 1)
            if (i <= b) == (j <= b)]
        self.nilradical_labels = [
            (i, j) for i in range(1, b + 1) for j in range(b + 1, n_rank + 1)]

    @property
    def labels(self) -> list[GeneratorLabel]:
        return self.levi_labels + self.nilradical_labels

    def levi_raising_labels(self) -> list[GeneratorLabel]:
        """Simple positive generators of the Levi blocks, for counting
        constituents of semisimple Levi modules by highest weight vectors.
        """
        return [(i, i + 1) for i in range(1, self.n_rank) if i != self.b]

    def __repr__(self) -> str:
        return f"ParabolicData(N={self.n_rank}, b={self.b})"


def parabolic(n_rank: int, b: int) -> ParabolicData:
    return ParabolicData(n_rank, b)


class Filtration:
    """Ascending chain of subspaces of one module."""

    def __init__(self, steps: Sequence[Subspace]):
        steps = list(steps)
        if not steps:
            raise ValueError("filtration needs at least one step")
        for lower, upper in zip(steps, steps[1:]):
            if not upper.contains_subspace(lower):
                raise ValueError("filtration steps are not ascending")
        self.steps = steps

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def layer_dimensions(self) -> list[int]:
        dims = [step.dim for step in self.steps]
        return [upper - lower for lower, upper in zip([0] + dims, dims)]

    def __repr__(self) -> str:
        return f"Filtration(dims={[s.dim for s in self.steps]})"


class _WeightBlocks:
    """Coordinate blocks of a module: the joint eigenspaces of diagonal
    generators (i, i), given by the indices i and the weight of each basis
    vector under them, in sorted weight order (one block when there are no
    indices). As [x_ii, x_kl] = (d_il - d_ik) x_kl, the generator (k, l)
    maps the block of weight w into that of weight w + e_l - e_k, and a
    subspace invariant under the diagonal generators is the direct sum of
    its block parts; so kernels, socles and invariance checks run block by
    block in local coordinates.
    """

    def __init__(self, indices: Iterable[int], weights: Sequence[tuple]):
        self.indices = list(indices)
        groups: dict[tuple, list[int]] = {}
        for pos, weight in enumerate(weights):
            groups.setdefault(weight, []).append(pos)
        self.weights = sorted(groups)
        self.positions = [groups[w] for w in self.weights]
        self.block_of = [0] * len(weights)
        self.local = [0] * len(weights)
        for b, members in enumerate(self.positions):
            for k, pos in enumerate(members):
                self.block_of[pos], self.local[pos] = b, k
        self._number = {w: b for b, w in enumerate(self.weights)}
        self._targets: dict[GeneratorLabel, list[int | None]] = {}

    def zero(self) -> list[Subspace]:
        return [Subspace(len(members)) for members in self.positions]

    def targets(self, module: ExplicitModule, label: GeneratorLabel) -> list[int | None]:
        """For each block, the block the generator maps it into (None when
        that weight does not occur and the generator must kill the block).
        Raises, once per label, when the action breaks the grading.
        """
        found = self._targets.get(label)
        if found is None:
            k, l = label
            delta = [(i == l) - (i == k) for i in self.indices]
            found = [self._number.get(tuple(x + d if d else x for x, d in zip(w, delta)))
                     for w in self.weights]
            for j, col in module.action(label).cols.items():
                if any(self.block_of[i] != found[self.block_of[j]] for i in col):
                    raise ValueError(f"generator {label} does not shift weights")
            self._targets[label] = found
        return found

    def image(self, mat: SparseMatrix, b: int,
              row: dict[int, int]) -> dict[int, int | Fraction]:
        """The image under the matrix of a sparse integer row of block b,
        given and returned in local coordinates (of the block the matrix
        maps b into); integral where the matrix is."""
        image: dict[int, int | Fraction] = {}
        positions, local = self.positions[b], self.local
        for k, c in row.items():
            for i, x in mat.cols.get(positions[k], {}).items():
                at = local[i]
                image[at] = image.get(at, 0) + c * x
        return image

    def split(self, space: Subspace) -> list[Subspace]:
        """Block parts of a subspace: the parts it was built from when it is
        a sum over these blocks. Otherwise raises when an echelon row leaves
        its block, since the reduced echelon basis of a subspace invariant
        under the diagonal generators consists of weight vectors.
        """
        if space.blocks == self.positions:
            return space.parts
        block_of, local = self.block_of, self.local
        parts: list[dict] = [{} for _ in self.positions]
        for pivot, row in space.echelon.items():
            b = block_of[pivot]
            if any(block_of[k] != b for k in row):
                raise ValueError("subspace is moved by a diagonal generator")
            # positions increase within a block, so the row stays in echelon form
            parts[b][local[pivot]] = {local[k]: x for k, x in row.items()}
        return [Subspace._of_echelon(len(members), part)
                for members, part in zip(self.positions, parts)]


def _weight_blocks(module: ExplicitModule, labels: Iterable[GeneratorLabel]
                   ) -> _WeightBlocks:
    """The blocks of the module's weights under the algebra's diagonal
    generators, made once per module and set of diagonal labels; one block
    when the module is ungraded."""
    weights = module.weights
    diagonal = () if weights is None else tuple(sorted({i for i, j in labels if i == j}))
    blocks = module._derived.get(diagonal)
    if blocks is None:
        blocks = module._derived[diagonal] = _WeightBlocks(diagonal, [
            tuple(w[i - 1] for i in diagonal) for w in weights or [()] * module.dimension])
    return blocks


def _invariance_rows(rows: Sequence[dict[int, int]], base: Subspace) -> list[dict[int, int]]:
    """Functionals cutting out {v : A v in base}, A given by its sparse
    integer rows: the coordinates of A v modulo base that are not pivots of
    base, each scaled to integers. With base's basis vectors b_p = e_p / e_p[p]
    the functional of q is A_q - sum_p (e_p[q] / e_p[p]) A_p.
    """
    echelon = base.echelon
    terms: dict[int, list[tuple[int, int, int]]] = {}
    for p, e in echelon.items():
        for q, x in e.items():
            if q != p:
                terms.setdefault(q, []).append((p, x, e[p]))
    functionals = []
    for q, row in enumerate(rows):
        if q in echelon:
            continue
        if q in terms:
            scale = lcm(*[d for _, _, d in terms[q]])
            row = {k: scale * x for k, x in row.items()}
            for p, x, d in terms[q]:
                add_multiple(row, -(scale // d * x), rows[p])
        if row:
            functionals.append(row)
    return functionals


def _kernel(module: ExplicitModule, blocks: _WeightBlocks,
            labels: Sequence[GeneratorLabel], low: Sequence[Subspace],
            high: Sequence[Subspace] | None = None) -> list[Subspace]:
    """Block parts of {v in high : A v in low for every generator A of the
    labels}, high the whole module when None: the lift of the joint kernel
    on high/low. Low must lie in high and be invariant under the labels, so
    a block where low fills high is done.
    """
    actions = [(module.action(label), blocks.targets(module, label)) for label in labels]
    parts = []
    for b, members in enumerate(blocks.positions):
        size = len(members)
        upper = None if high is None else high[b]
        if low[b].dim == (size if upper is None else upper.dim):
            parts.append(low[b])
            continue
        rows = [] if upper is None else _invariance_rows(
            [{k: 1} for k in range(size)], upper)
        for mat, targets in actions:
            u = targets[b]
            if u is not None and low[u].dim < len(blocks.positions[u]):
                dense = mat.to_dense_rows(blocks.positions[u], members)
                rows.extend(_invariance_rows(integer_rows(dense), low[u]))
        parts.append(_kernel_space(rows, size))
    return parts


def _socle_steps(module: ExplicitModule, para: ParabolicData, blocks: _WeightBlocks
                 ) -> list[list[Subspace]]:
    """Block parts of the socle filtration, after a zero step, found once
    per module and nilradical."""
    key = ("socle", tuple(para.nilradical_labels))
    steps = module._derived.get(key)
    if steps is None:
        steps, dims = [blocks.zero()], [0]
        while dims[-1] < module.dimension:
            steps.append(_kernel(module, blocks, para.nilradical_labels, steps[-1]))
            dims.append(sum(part.dim for part in steps[-1]))
            if dims[-1] <= dims[-2]:
                raise ValueError("module is not closed under the parabolic action")
        module._derived[key] = steps
    return steps


def socle_filtration_parabolic(module: ExplicitModule, para: ParabolicData) -> Filtration:
    """Iterated nilradical-invariants filtration.

    The nilradical annihilates every finite-dimensional simple module of
    the parabolic, so its joint kernel on each successive quotient is the
    socle of that quotient; the chain this produces is the socle filtration.
    """
    blocks = _weight_blocks(module, para.labels)
    return Filtration([Subspace.from_blocks(module.dimension, zip(blocks.positions, step))
                       for step in _socle_steps(module, para, blocks)[1:]])


def _coordinate_subspace(ambient: int, positions: Sequence[int]) -> Subspace:
    """The span of the unit vectors at these increasing positions."""
    return Subspace.from_blocks(ambient, [(positions, full_space(len(positions)))])


def grade_filtration(module: ExplicitModule, para: ParabolicData) -> Filtration:
    """Binary-word grade filtration: step k spans the basis words with at
    most k starred tensorands outside the distinguished block.
    """
    grades = [sum(1 for idx in word[:module.star_slots] if idx > para.b)
              for word in _require_words(module)]
    blocks = _weight_blocks(module, para.labels)
    return Filtration([
        Subspace.from_blocks(module.dimension, [
            (members, _coordinate_subspace(len(members), [
                k for k, pos in enumerate(members) if grades[pos] <= step]))
            for members in blocks.positions])
        for step in range(module.star_slots + 1)])


# ---------------------------------------------------------------------------
# essentiality and counting

def _is_invariant(module: ExplicitModule, blocks: _WeightBlocks,
                  label: GeneratorLabel, parts: Sequence[Subspace]) -> bool:
    """Whether the generator maps the subspace with these block parts into
    itself."""
    mat = module.action(label)
    for b, u in enumerate(blocks.targets(module, label)):
        if u is None or parts[u].dim == len(blocks.positions[u]):
            continue
        for row in parts[b].echelon.values():
            if not parts[u].contains(blocks.image(mat, b, row)):
                return False
    return True


def is_essential_filtration(module: ExplicitModule, filtration: Filtration, algebra) -> bool:
    """Whether every step of the filtration is essential in the next.

    Uses the finite-length criterion: a submodule is essential iff it
    contains the socle, checked on each two-step quotient high/low of the
    chain (augmented with 0 at the bottom). The algebra is ParabolicData,
    whose nilradical n kills every simple module, so the socle of high/low
    lifts to {v in high : n v in low}; or the zero algebra (no labels).
    """
    if isinstance(algebra, ParabolicData):
        labels, radical = algebra.labels, algebra.nilradical_labels
    elif not list(algebra):
        labels = radical = []
    else:
        raise ValueError("essentiality is decided over a parabolic or the zero algebra")
    blocks = _weight_blocks(module, labels)
    # a sum of block parts is invariant under the (i, i) that grade the blocks
    moving = [(i, j) for i, j in labels if i != j or i not in blocks.indices]
    chain = [blocks.zero()]
    for step in filtration:
        parts = blocks.split(step)
        if not all(_is_invariant(module, blocks, label, parts) for label in moving):
            raise ValueError("filtration step is not action-invariant")
        if step.dim > sum(part.dim for part in chain[-1]):
            chain.append(parts)
    if filtration.steps[-1].dim != module.dimension:
        raise ValueError("filtration does not end at the whole module")
    for low, mid, high in zip(chain, chain[1:], chain[2:]):
        socle = _kernel(module, blocks, radical, low, high)
        if not all(m.contains_subspace(s) for m, s in zip(mid, socle)):
            return False
    return True


def constituent_count(module: ExplicitModule, para: ParabolicData) -> int:
    """Number of simple constituents of the module over the parabolic:
    socle-filtration layers are semisimple Levi modules, so each layer
    contributes the dimension of its joint kernel under the Levi raising
    generators (one highest weight line per constituent).
    """
    blocks = _weight_blocks(module, para.labels)
    steps = _socle_steps(module, para, blocks)
    raising = para.levi_raising_labels()
    return sum(k.dim - p.dim for low, high in zip(steps, steps[1:])
               for k, p in zip(_kernel(module, blocks, raising, low, high), low))

