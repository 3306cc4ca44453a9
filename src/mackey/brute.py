"""Exact finite-rank oracle: explicit tensor modules over gl(N) with
matrix-unit actions, traceless subspaces, Young symmetrizers, parabolic
socle filtrations, constituent counts, and essentiality checks, all run
block by block on the weight grading a module carries; the socle steps and
essentiality kernels of a word module run once per Levi orbit of blocks,
and the raising kernels of a constituent count on one chamber of weights.

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

from collections import Counter
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

DEFAULT_BUDGET = 20000


class BudgetExceededError(ValueError):
    """A requested tensor module is larger than the configured budget."""


class ExplicitModule:
    """Finite-dimensional module with one action matrix per generator label.

    Matrices are built on first use and cached, since most computations only
    touch the parabolic generators; so are the weight blocks and the
    traceless subspace and socle steps built on them. The labels of a
    word-basis module are its basis words, tuples of indices 1..N whose
    first star_slots slots are starred; other modules have None. The weights
    hold the weight of each basis vector under (1, 1)..(N, N), or are None
    for an ungraded module, which is one block.
    """

    def __init__(self, dimension: int, rank_n: int,
                 builder: Callable[[GeneratorLabel], SparseMatrix],
                 labels: Sequence[tuple[int, ...]] | None = None,
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

    def __repr__(self) -> str:
        return f"ExplicitModule(dim={self.dimension}, rank={self.rank_n})"


def _word_weight(word: tuple[int, ...], m: int, n_rank: int) -> tuple[int, ...]:
    """The eigenvalues of the generators (1, 1)..(N, N) on a basis word with
    m starred slots: each plain slot i counts 1, each starred -1."""
    weight = [0] * (n_rank + 1)
    for s, i in enumerate(word):
        weight[i] += 1 if s >= m else -1
    return tuple(weight[1:])


def _word_action(n_rank: int, m: int, n: int, weights: Sequence[tuple[int, ...]],
                 label: GeneratorLabel) -> SparseMatrix:
    """The matrix of the generator on the word basis of (C^N*)^(x)m (x)
    (C^N)^(x)n, given the word weights, by position arithmetic: the words are
    in lexicographic order, so the letter at slot s is the base-N digit of
    stride N^(m+n-1-s), and changing it from j to i moves the position by
    (i - j) * stride. Each column lists its entries in slot order.
    """
    i, j = label
    dim = len(weights)
    if i == j:
        # the starred and plain slots of letter i add up to its weight
        return SparseMatrix._of_cols(dim, {col: {col: w[i - 1]}
                                           for col, w in enumerate(weights) if w[i - 1]})
    cols: dict[int, dict[int, int]] = {}
    for slot in range(m + n):
        stride = n_rank ** (m + n - 1 - slot)
        # starred slot: e_j* -> -e_i*; plain slot: e_i -> e_j
        old, new, sign = (j, i, -1) if slot < m else (i, j, 1)
        shift = (new - old) * stride
        for start in range((old - 1) * stride, dim, n_rank * stride):
            for col in range(start, start + stride):
                entries = cols.get(col)
                if entries is None:
                    cols[col] = {col + shift: sign}
                else:
                    entries[col + shift] = sign
    return SparseMatrix._of_cols(dim, cols)


def build_tensor_module(n_rank: int, m: int, n: int,
                        budget: int = DEFAULT_BUDGET) -> ExplicitModule:
    """The gl(N)-module (C^N*)^(x)m (x) (C^N)^(x)n on word basis, with the
    slot-wise derivation action of the generator labels, whose matrices
    have integer entries.
    """
    if n_rank < 1 or m < 0 or n < 0:
        raise ValueError("rank must be positive, degrees nonnegative")
    if n_rank ** (m + n) > budget:
        raise BudgetExceededError(f"module dimension {n_rank}^{m + n} = "
                                  f"{n_rank ** (m + n)} exceeds budget {budget}")
    words = list(product(range(1, n_rank + 1), repeat=m + n))
    weights = [_word_weight(word, m, n_rank) for word in words]
    return ExplicitModule(len(words), n_rank,
                          lambda label: _word_action(n_rank, m, n, weights, label),
                          words, m, n, weights)


# ---------------------------------------------------------------------------
# traceless tensors

def _require_words(module: ExplicitModule) -> Sequence[tuple[int, ...]]:
    if module.labels is None:
        raise ValueError("operation needs a word-basis module from build_tensor_module")
    return module.labels


def _word_index(module: ExplicitModule) -> dict[tuple[int, ...], int]:
    """The position of each basis word, made once per module."""
    index = module._derived.get("index")
    if index is None:
        index = module._derived["index"] = {
            w: pos for pos, w in enumerate(_require_words(module))}
    return index


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


def _kernel_space(rows: Iterable, size: int) -> Subspace:
    """The joint kernel of the functionals on Q^size, as a subspace. They
    may come lazily: nullspace reads them only until they span the dual."""
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return full_space(size)
    return Subspace(size, nullspace(chain([first], rows), size))


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
            for members in _weight_blocks(module).positions])
    return space


def traceless_dimension(n_rank: int, m: int, n: int,
                        budget: int = DEFAULT_BUDGET) -> int:
    """Dimension of the traceless subspace of (C^N*)^(x)m (x) (C^N)^(x)n,
    by contraction-constraint ranks per weight block. A letter permutation
    in S_N moves the block of weight w onto that of the permuted weight and
    its contraction rows onto the other's, so the rank is found once per
    S_N orbit, on the block whose weight descends, and counted once per
    block of the orbit. Never materializes action matrices, so it scales
    to the full budget.
    """
    module = build_tensor_module(n_rank, m, n, budget)
    blocks = _weight_blocks(module)
    orbits = Counter(tuple(sorted(weight, reverse=True)) for weight in blocks.weights)
    members = dict(zip(blocks.weights, blocks.positions))
    return sum(size * (len(members[w]) - rank(_contraction_rows(module.labels, m, n, members[w])))
               for w, size in orbits.items())


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
    columns = [[row[j] for row in rows if j < len(row)]
               for j in range(shape[0] if shape else 0)]
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
        index = _word_index(module)
        table = module._derived[key] = []
        for word in module.labels:
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
    blocks = _weight_blocks(module)
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

    def simple_labels(self) -> list[GeneratorLabel]:
        """The simple Levi labels (i, i+1) and (i+1, i) for i != b, and the
        nilradical label (b, b+1). With the diagonal labels they generate
        the parabolic: the Levi from its simple roots, and the nilradical,
        one simple module of the Levi, from any of its labels.
        """
        labels = []
        for i in range(1, self.n_rank):
            labels.append((i, i + 1))
            if i != self.b:
                labels.append((i + 1, i))
        return labels

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

    def __iter__(self):
        return iter(self.steps)

    def layer_dimensions(self) -> list[int]:
        dims = [step.dim for step in self.steps]
        return [upper - lower for lower, upper in zip([0] + dims, dims)]

    def __repr__(self) -> str:
        return f"Filtration(dims={[s.dim for s in self.steps]})"


class _WeightBlocks:
    """Coordinate blocks of a module: the joint eigenspaces of the diagonal
    generators (1, 1)..(N, N), given by the weight of each basis vector
    under them, in sorted weight order (one block, of weight (), when each
    weight is ()). As [x_ii, x_kl] = (d_il - d_ik) x_kl, the generator
    (k, l) maps the block of weight w into that of weight w + e_l - e_k, and
    a subspace invariant under the diagonal generators is the direct sum of
    its block parts; so kernels, socles and invariance checks run block by
    block in local coordinates.
    """

    def __init__(self, weights: Sequence[tuple]):
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
        Raises, once per label, when the action breaks the grading: on the
        first call for it, which a kernel makes only when it reads that
        label's functionals.
        """
        found = self._targets.get(label)
        if found is None:
            k, l = label
            found = []
            for w in self.weights:
                shifted = list(w)
                if shifted:  # the one block of weight () maps into itself
                    shifted[l - 1] += 1
                    shifted[k - 1] -= 1
                found.append(self._number.get(tuple(shifted)))
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


def _weight_blocks(module: ExplicitModule) -> _WeightBlocks:
    """The blocks of the module's weights, made once per module; one block
    when the module is ungraded."""
    blocks = module._derived.get("blocks")
    if blocks is None:
        blocks = module._derived["blocks"] = _WeightBlocks(
            [()] * module.dimension if module.weights is None else module.weights)
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


def _block_kernel(module: ExplicitModule, blocks: _WeightBlocks,
                  labels: Sequence[GeneratorLabel], b: int, low: Sequence[Subspace],
                  upper: Subspace | None = None) -> Subspace:
    """The part in block b of {v in high : A v in low for every generator A
    of the labels}, upper the part of high in b, or None when high is the
    whole module. Low must lie in high and be invariant under the labels,
    so a block where low fills high is done.

    The functionals are made one label at a time, as the kernel reads them:
    the cut of upper first, then the invariance rows of each label's slice.
    Once they span the dual no later slice is built or grading-checked.
    """
    members = blocks.positions[b]
    size = len(members)
    if low[b].dim == (size if upper is None else upper.dim):
        return low[b]

    def functionals():
        if upper is not None:
            yield from _invariance_rows([{k: 1} for k in range(size)], upper)
        for label in labels:
            u = blocks.targets(module, label)[b]
            if u is not None and low[u].dim < len(blocks.positions[u]):
                dense = module.action(label).to_dense_rows(blocks.positions[u], members)
                yield from _invariance_rows(integer_rows(dense), low[u])

    return _kernel_space(functionals(), size)


def _levi_orbits(module: ExplicitModule, para: ParabolicData, blocks: _WeightBlocks
                 ) -> list[tuple[int, list[int] | None]]:
    """For each weight block, the dominant block d of its orbit under the
    letter permutations sigma in S_b x S_(N-b), and the table that takes
    each local position of d to the local position of the sigma-moved word;
    the table is None on a dominant block, whose weight descends within
    1..b and within b+1..N. A module without a word basis has trivial
    orbits: every block is dominant. Made once per module and b.
    """
    key = ("orbits", para.b)
    orbits = module._derived.get(key)
    if orbits is None:
        orbits = [(b, None) for b in range(len(blocks.positions))]
        if module.labels is not None:
            index, local = _word_index(module), blocks.local
            for b, weight in enumerate(blocks.weights):
                # sigma sends the k-th index of each Levi block to the index
                # holding the k-th largest weight there; sigma[0] pads 1..N
                sigma = [0]
                for levi in (range(1, para.b + 1), range(para.b + 1, para.n_rank + 1)):
                    sigma += sorted(levi, key=lambda i: -weight[i - 1])
                d = blocks._number[tuple(weight[i - 1] for i in sigma[1:])]
                if d != b:
                    orbits[b] = (d, [local[index[tuple(sigma[i] for i in module.labels[pos])]]
                                     for pos in blocks.positions[d]])
        module._derived[key] = orbits
    return orbits


def _transport(part: Subspace, table: Sequence[int]) -> Subspace:
    """The image of a block part under a letter permutation, given by the
    table of moved local positions."""
    return Subspace(len(table), [{table[k]: x for k, x in row.items()}
                                 for row in part.echelon.values()])


def _socle_steps(module: ExplicitModule, para: ParabolicData, blocks: _WeightBlocks
                 ) -> list[list[Subspace]]:
    """Block parts of the socle filtration, after a zero step, found once
    per module and nilradical.

    A letter permutation sigma in S_b x S_(N-b) moves word basis vectors by
    P_sigma, with P_sigma X_ij = X_(sigma i, sigma j) P_sigma on starred and
    plain slots alike, and sigma maps the nilradical labels onto
    themselves. So each step is P_sigma-stable when the one below is: the
    nilradical kernel runs on the dominant blocks of _levi_orbits, and every
    other block takes the part of its dominant block, moved by sigma.
    """
    key = ("socle", tuple(para.nilradical_labels))
    steps = module._derived.get(key)
    if steps is None:
        orbits = _levi_orbits(module, para, blocks)
        steps, dims = [blocks.zero()], [0]
        while dims[-1] < module.dimension:
            low = steps[-1]
            found = {b: _block_kernel(module, blocks, para.nilradical_labels, b, low)
                     for b, (_, table) in enumerate(orbits) if table is None}
            # a dominant part that did not grow leaves its whole orbit as it was
            steps.append([found[b] if table is None
                          else low[b] if found[d].dim == low[d].dim
                          else _transport(found[d], table)
                          for b, (d, table) in enumerate(orbits)])
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
    blocks = _weight_blocks(module)
    return Filtration([Subspace.from_blocks(module.dimension, zip(blocks.positions, step))
                       for step in _socle_steps(module, para, blocks)[1:]])


def submodule_layer_dimensions(filtration: Filtration, space: Subspace) -> list[int]:
    """Layer dimensions of the socle filtration of a submodule Y, the
    space, read off the socle filtration S_1 < S_2 < ... of the module.

    For v in Y, n v lies in Y, so {v in Y : n v in Y cap S} = Y cap {v : n v
    in S}, and the socle filtration of Y is Y cap S_k. Each dim (Y cap S_k) =
    dim S_k + dim Y - dim (S_k + Y) is counted block by block, up to the
    first step that holds Y. Raises when Y and the steps are not sums over
    the same blocks.
    """
    dims = [0]
    for step in filtration:
        if dims[-1] == space.dim:
            break
        if step.blocks is None or step.blocks != space.blocks:
            raise ValueError("subspace and filtration are not sums over the same blocks")
        meets = (s.dim + y.dim - Subspace(s.ambient, chain(s.echelon.values(),
                                                           y.echelon.values())).dim
                 for s, y in zip(step.parts, space.parts))
        dims.append(sum(meets))
    return [upper - lower for lower, upper in zip(dims, dims[1:])]


def grade_filtration(module: ExplicitModule, para: ParabolicData) -> Filtration:
    """Binary-word grade filtration: step k spans the basis words with at
    most k starred tensorands outside the distinguished block.
    """
    grades = [sum(1 for idx in word[:module.star_slots] if idx > para.b)
              for word in _require_words(module)]
    blocks = _weight_blocks(module)
    return Filtration([
        Subspace.from_blocks(module.dimension, [
            (members, Subspace._of_echelon(len(members), {
                k: {k: 1} for k, pos in enumerate(members) if grades[pos] <= step}))
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


def _dominant_blocks(module: ExplicitModule, para: ParabolicData,
                     blocks: _WeightBlocks) -> list[int]:
    """The dominant blocks of _levi_orbits."""
    return [b for b, (d, _) in enumerate(_levi_orbits(module, para, blocks)) if d == b]


def is_essential_filtration(module: ExplicitModule, filtration: Filtration, algebra) -> bool:
    """Whether every step of the filtration is essential in the next.

    Uses the finite-length criterion: a submodule is essential iff it
    contains the socle, checked on each two-step quotient high/low of the
    chain (augmented with 0 at the bottom). The algebra is ParabolicData,
    whose nilradical n kills every simple module, so the socle of high/low
    lifts to {v in high : n v in low}; or the zero algebra (no labels),
    whose submodules are all subspaces, taken in one block.

    Each step is checked invariant under the simple labels of the parabolic
    and, on an ungraded module, the diagonal labels, on every block; a sum
    of block parts is kept by the diagonal labels, and a subspace that
    generators keep is kept by the Lie algebra they generate, here the
    whole parabolic. So each step is stable under GL(b) x GL(N-b), whose
    permutation matrices act on words as P_sigma; so is each socle, as
    sigma keeps the nilradical labels. So the containment runs on the
    dominant blocks of _levi_orbits only.
    """
    if isinstance(algebra, ParabolicData):
        blocks, radical = _weight_blocks(module), algebra.nilradical_labels
        moving = algebra.simple_labels()
        if module.weights is None:
            moving += [(i, j) for i, j in algebra.labels if i == j]
    elif not list(algebra):
        blocks, radical, moving = _WeightBlocks([()] * module.dimension), [], []
    else:
        raise ValueError("essentiality is decided over a parabolic or the zero algebra")
    chain = [blocks.zero()]
    for step in filtration:
        parts = blocks.split(step)
        if not all(_is_invariant(module, blocks, label, parts) for label in moving):
            raise ValueError("filtration step is not action-invariant")
        if step.dim > sum(part.dim for part in chain[-1]):
            chain.append(parts)
    if filtration.steps[-1].dim != module.dimension:
        raise ValueError("filtration does not end at the whole module")
    dominant = _dominant_blocks(module, algebra, blocks) if radical else [0]  # one block
    return all(mid[b].contains_subspace(_block_kernel(module, blocks, radical, b, low, high[b]))
               for low, mid, high in zip(chain, chain[1:], chain[2:]) for b in dominant)


def _raising_chamber(para: ParabolicData, blocks: _WeightBlocks) -> list[int]:
    """The blocks whose weight has w_i <= w_(i+1) for each Levi raising
    label (i, i+1), and the one block of an ungraded module, of weight ()."""
    raising = para.levi_raising_labels()
    return [b for b, w in enumerate(blocks.weights)
            if not w or all(w[i - 1] <= w[j - 1] for i, j in raising)]


def constituent_count(module: ExplicitModule, para: ParabolicData) -> int:
    """Number of simple constituents of the module over the parabolic:
    socle-filtration layers are semisimple Levi modules, so each layer
    contributes the dimension of its joint kernel under the Levi raising
    generators (one highest weight line per constituent).

    Only blocks of _raising_chamber hold such lines: e = (i, i+1) and f =
    (i+1, i) span an sl2 with h = [e, f] = x_(i+1,i+1) - x_(i,i), and a
    vector that e kills has h-eigenvalue w_(i+1) - w_i >= 0.
    """
    blocks = _weight_blocks(module)
    steps = _socle_steps(module, para, blocks)
    raising, chamber = para.levi_raising_labels(), _raising_chamber(para, blocks)
    return sum(_block_kernel(module, blocks, raising, b, low, high[b]).dim - low[b].dim
               for low, high in zip(steps, steps[1:]) for b in chamber)
