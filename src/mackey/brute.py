"""Exact finite-rank oracle: explicit tensor modules over gl(N) with
matrix-unit actions, traceless subspaces, Young symmetrizers, parabolic
socle filtrations, weight decompositions, and essentiality checks.

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
from itertools import permutations, product
from typing import Callable, Iterable, Sequence

from .linalg import (
    ONE,
    ZERO,
    SparseMatrix,
    Subspace,
    Vec,
    add_scaled,
    dump_matrix,
    nullspace,
    rank,
    unit_vec,
    zero_vec,
)
from .partitions import Partition

GeneratorLabel = tuple[int, int]
WordLabel = tuple[tuple[int, bool], ...]

DEFAULT_BUDGET = 20000

NEG_ONE = Fraction(-1)


class BudgetExceededError(ValueError):
    """A requested tensor module is larger than the configured budget."""


class ExplicitModule:
    """Finite-dimensional module with one action matrix per generator label.

    Matrices are built on first use and cached, since most computations only
    touch the parabolic generators; so are the weight blocks and the
    traceless parts derived from them. Modules produced by restriction
    reuse this class with a different builder.
    """

    def __init__(self, dimension: int, rank_n: int,
                 builder: Callable[[GeneratorLabel], SparseMatrix],
                 labels: tuple[WordLabel, ...] | None = None,
                 star_slots: int = 0, plain_slots: int = 0):
        self.dimension = dimension
        self.rank_n = rank_n
        self.labels = labels
        self.star_slots = star_slots
        self.plain_slots = plain_slots
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


def _tensor_words(n_rank: int, m: int, n: int) -> list[tuple[int, ...]]:
    return list(product(range(1, n_rank + 1), repeat=m + n))


def _word_weight(word: tuple[int, ...], m: int, n_rank: int) -> tuple[int, ...]:
    w = [0] * n_rank
    for pos, idx in enumerate(word):
        w[idx - 1] += -1 if pos < m else 1
    return tuple(w)


def build_tensor_module(n_rank: int, m: int, n: int,
                        budget: int = DEFAULT_BUDGET) -> ExplicitModule:
    """The gl(N)-module (C^N*)^(x)m (x) (C^N)^(x)n on word basis, with the
    slot-wise derivation action of the generator labels.
    """
    if n_rank < 1 or m < 0 or n < 0:
        raise ValueError("rank must be positive, degrees nonnegative")
    dim = n_rank ** (m + n)
    if dim > budget:
        raise BudgetExceededError(
            f"module dimension {n_rank}^{m + n} = {dim} exceeds budget {budget}")
    words = _tensor_words(n_rank, m, n)
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
                        entries.append((index[tgt], col, NEG_ONE))
                else:
                    # plain slot: e_i -> e_j
                    if idx == i:
                        tgt = word[:slot] + (j,) + word[slot + 1:]
                        entries.append((index[tgt], col, ONE))
        return SparseMatrix.from_entries(dim, entries)

    return ExplicitModule(dim, n_rank, build, labels, m, n)


def restrict_module(module: ExplicitModule, subspace: Subspace) -> ExplicitModule:
    """The module structure induced on an invariant subspace, in the
    coordinates of the subspace basis. Raises if the subspace is moved.
    """

    def build(label: GeneratorLabel) -> SparseMatrix:
        ambient = module.action(label)
        entries = []
        for col, vector in enumerate(subspace.basis):
            image = ambient.apply(vector)
            try:
                coords = subspace.coordinates(image)
            except ValueError:
                raise ValueError(
                    f"subspace is not invariant under generator {label}") from None
            for row, c in enumerate(coords):
                if c:
                    entries.append((row, col, c))
        return SparseMatrix.from_entries(subspace.dim, entries)

    return ExplicitModule(subspace.dim, module.rank_n, build)


# ---------------------------------------------------------------------------
# traceless tensors

def _require_words(module: ExplicitModule) -> list[tuple[int, ...]]:
    if module.labels is None:
        raise ValueError("operation needs a word-basis module from build_tensor_module")
    return [tuple(idx for idx, _ in label) for label in module.labels]


def _contraction_blocks(words: Sequence[tuple[int, ...]], m: int, n: int,
                        n_rank: int) -> Iterable[tuple[list[int], list[Vec]]]:
    """Group word positions by diagonal weight and emit, per block, the
    contraction constraints restricted to that block. Contractions preserve
    weight, so the joint kernel splits over these blocks.
    """
    blocks: dict[tuple[int, ...], list[int]] = {}
    for pos, word in enumerate(words):
        blocks.setdefault(_word_weight(word, m, n_rank), []).append(pos)
    for weight in sorted(blocks):
        members = blocks[weight]
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
        yield members, [[ONE if k in rows[key] else ZERO for k in range(len(members))]
                        for key in sorted(rows)]


def _traceless_parts(module: ExplicitModule) -> list[tuple[list[int], Subspace]]:
    """The traceless subspace by weight block: each block's word positions
    with its part in local coordinates, computed once per module."""
    parts = module._derived.get("traceless")
    if parts is None:
        parts = []
        for members, rows in _contraction_blocks(_require_words(module), module.star_slots,
                                                 module.plain_slots, module.rank_n):
            size = len(members)
            parts.append((members, Subspace(size, nullspace(rows, size))))
        module._derived["traceless"] = parts
    return parts


def traceless_subspace(module: ExplicitModule) -> Subspace:
    """Joint kernel of all m*n contraction maps, as a subspace of the word
    module. Computed weight block by weight block, which also keeps the
    basis weight-homogeneous.
    """
    return Subspace.from_blocks(module.dimension, _traceless_parts(module))


def traceless_dimension(n_rank: int, m: int, n: int,
                        budget: int = DEFAULT_BUDGET) -> int:
    """Dimension of the traceless subspace of (C^N*)^(x)m (x) (C^N)^(x)n,
    by contraction-constraint ranks per weight block. Never materializes
    action matrices, so it scales to the full budget.
    """
    dim = n_rank ** (m + n)
    if dim > budget:
        raise BudgetExceededError(
            f"module dimension {n_rank}^{m + n} = {dim} exceeds budget {budget}")
    words = _tensor_words(n_rank, m, n)
    total = 0
    for members, rows in _contraction_blocks(words, m, n, n_rank):
        total += len(members) - rank(rows)
    return total


# ---------------------------------------------------------------------------
# Young symmetrizers

def _canonical_tableau(shape: Partition) -> list[list[int]]:
    """Row-reading tableau: slots 0..|shape|-1 filled row by row."""
    rows = []
    next_slot = 0
    for length in shape.parts:
        rows.append(list(range(next_slot, next_slot + length)))
        next_slot += length
    return rows


def _group_perms(cells_groups: list[list[int]], size: int) -> list[tuple[int, ...]]:
    """All slot permutations preserving each group (row or column group)."""
    perms = [tuple(range(size))]
    for group in cells_groups:
        if len(group) < 2:
            continue
        new_perms = []
        for base in perms:
            for arrangement in permutations(group):
                p = list(base)
                for src, dst in zip(group, arrangement):
                    p[src] = base[dst]
                new_perms.append(tuple(p))
        perms = new_perms
    return perms


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _symmetrizer_terms(shape: Partition) -> list[tuple[tuple[int, ...], int]]:
    """The Young symmetrizer for the canonical tableau as a signed list of
    slot permutations: column-antisymmetrize after row-symmetrizing.
    """
    size = shape.size
    tableau = _canonical_tableau(shape)
    columns = [[row[j] for row in tableau if j < len(row)] for j in range(shape[0])]
    row_perms = _group_perms(tableau, size)
    col_perms = _group_perms(columns, size)
    terms = []
    for q in col_perms:
        sign = _perm_sign(q)
        for p in row_perms:
            combined = tuple(q[p[s]] for s in range(size))
            terms.append((combined, sign))
    return terms


def young_project(module: ExplicitModule, lam: Partition, mu: Partition) -> Subspace:
    """Image of the Young symmetrizer pair (lam on starred slots, mu on
    plain slots) applied to the traceless subspace of the module. Slot
    permutations keep the weight of a word, so the image is taken weight
    block by weight block.
    """
    m, n = module.star_slots, module.plain_slots
    if lam.size != m or mu.size != n:
        raise ValueError(
            f"shape sizes ({lam.size}, {mu.size}) do not match slots ({m}, {n})")
    parts = _traceless_parts(module)
    star_terms = _symmetrizer_terms(lam)
    plain_terms = _symmetrizer_terms(mu)
    words = _require_words(module)
    index = {w: pos for pos, w in enumerate(words)}
    local = [0] * module.dimension
    for members, _ in parts:
        for k, pos in enumerate(members):
            local[pos] = k
    # combined slot permutations acting on whole words, with total signs,
    # each as a table from word positions to positions within their blocks
    perm_tables = []
    for sp, ssign in star_terms:
        for pp, psign in plain_terms:
            perm = list(sp) + [m + s for s in pp]
            table = []
            for word in words:
                moved = [0] * len(word)
                for s, target in enumerate(perm):
                    moved[target] = word[s]
                table.append(local[index[tuple(moved)]])
            perm_tables.append((table, ssign * psign))
    projected = []
    for members, part in parts:
        images = []
        for vector in part.basis:
            out = zero_vec(len(members))
            for table, sign in perm_tables:
                for k, c in enumerate(vector):
                    if c:
                        out[table[members[k]]] += c if sign > 0 else -c
            images.append(out)
        projected.append((members, Subspace(len(members), images)))
    return Subspace.from_blocks(module.dimension, projected)


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


def _group_by_weight(dimension: int, diagonal: Sequence[SparseMatrix]) -> dict[tuple, list[int]]:
    entries = [mat.diagonal_entries() for mat in diagonal]
    groups: dict[tuple, list[int]] = {}
    for pos in range(dimension):
        groups.setdefault(tuple(d[pos] for d in entries), []).append(pos)
    return groups


class _WeightBlocks:
    """Coordinate blocks of a module: the joint eigenspaces of those
    diagonal generators (i, i) of an algebra that act diagonally on it, in
    sorted weight order (one block when none does). As [x_ii, x_kl] =
    (d_il - d_ik) x_kl, the generator (k, l) maps the block of weight w into
    that of weight w + e_l - e_k, and a subspace invariant under the
    diagonal generators is the direct sum of its block parts; so kernels,
    socles and invariance checks run block by block in local coordinates.
    """

    def __init__(self, module: ExplicitModule, diagonal: Sequence[GeneratorLabel]):
        self.indices = [i for i, _ in diagonal if module.action((i, i)).is_diagonal()]
        groups = _group_by_weight(module.dimension,
                                  [module.action((i, i)) for i in self.indices])
        self.weights = sorted(groups)
        self.positions = [groups[w] for w in self.weights]
        self.block_of = [0] * module.dimension
        self.local = [0] * module.dimension
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

    def split(self, space: Subspace) -> list[Subspace]:
        """Block parts of a subspace. Raises when an echelon row leaves its
        block: the reduced echelon basis of a subspace invariant under the
        diagonal generators consists of weight vectors.
        """
        rows: list[list[Vec]] = [[] for _ in self.positions]
        for vector, pivot in zip(space.basis, space.pivots):
            b = self.block_of[pivot]
            local = [vector[pos] for pos in self.positions[b]]
            # every nonzero entry of the row must lie in its pivot's block
            if len(vector) - vector.count(ZERO) != len(local) - local.count(ZERO):
                raise ValueError("filtration step is moved by a diagonal generator")
            rows[b].append(local)
        return [Subspace(len(members), part) for members, part in zip(self.positions, rows)]


def _weight_blocks(module: ExplicitModule, labels: Iterable[GeneratorLabel]
                   ) -> _WeightBlocks:
    """The blocks of the algebra's diagonal generators, made once per module
    and set of diagonal labels."""
    diagonal = tuple(sorted({label for label in labels if label[0] == label[1]}))
    blocks = module._derived.get(diagonal)
    if blocks is None:
        blocks = module._derived[diagonal] = _WeightBlocks(module, diagonal)
    return blocks


def _invariance_rows(dense: Sequence[Vec], base: Subspace) -> list[Vec]:
    """Functionals cutting out {v : A v in base}, A given by its dense rows:
    the coordinates of A v modulo base that are not pivots of base.
    """
    pivots = set(base.pivots)
    rows = []
    for q, row in enumerate(dense):
        if q in pivots:
            continue
        row = list(row)
        for pivot, bvec in zip(base.pivots, base.basis):
            if bvec[q]:
                add_scaled(row, dense[pivot], -bvec[q])
        if any(row):
            rows.append(row)
    return rows


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
            [unit_vec(size, k) for k in range(size)], upper)
        for mat, targets in actions:
            u = targets[b]
            if u is not None and low[u].dim < len(blocks.positions[u]):
                dense = mat.to_dense_rows(blocks.positions[u], members)
                rows.extend(_invariance_rows(dense, low[u]))
        parts.append(Subspace(size, nullspace(rows, size)))
    return parts


def _socle_steps(module: ExplicitModule, para: ParabolicData, blocks: _WeightBlocks
                 ) -> list[list[Subspace]]:
    """Block parts of the socle filtration, after a zero step."""
    steps, dims = [blocks.zero()], [0]
    while dims[-1] < module.dimension:
        steps.append(_kernel(module, blocks, para.nilradical_labels, steps[-1]))
        dims.append(sum(part.dim for part in steps[-1]))
        if dims[-1] <= dims[-2]:
            raise ValueError("module is not closed under the parabolic action")
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


def grade_filtration(module: ExplicitModule, para: ParabolicData) -> Filtration:
    """Binary-word grade filtration: step k spans the basis words with at
    most k starred tensorands outside the distinguished block.
    """
    grades = [sum(1 for idx in word[:module.star_slots] if idx > para.b)
              for word in _require_words(module)]
    return Filtration([
        Subspace(module.dimension, [unit_vec(module.dimension, pos)
                                    for pos, g in enumerate(grades) if g <= k])
        for k in range(module.star_slots + 1)])


def weight_decompose(module: ExplicitModule, h_labels: Sequence[GeneratorLabel]
                     ) -> dict[tuple[Fraction, ...], Subspace]:
    """Simultaneous eigenspace decomposition under diagonal generators.
    The action matrices must literally be diagonal (true for diagonal labels
    on word modules), so they commute; anything else is rejected.
    """
    mats = []
    for label in h_labels:
        mat = module.action(label)
        if not mat.is_diagonal():
            raise ValueError(f"generator {label} does not act diagonally")
        mats.append(mat)
    groups = _group_by_weight(module.dimension, mats)
    return {
        weight: Subspace(module.dimension,
                         [unit_vec(module.dimension, pos) for pos in groups[weight]])
        for weight in sorted(groups)
    }


def vandermonde_span(components: Sequence[Sequence[Fraction]],
                     h: SparseMatrix) -> int:
    """Dimension of span{x, hx, ..., h^d x} for x the sum of the given
    eigenvector components, d+1 the component count. With distinct
    eigenvalues the Vandermonde matrix of the powers forces full dimension.
    """
    if not components:
        raise ValueError("need at least one component")
    eigenvalues = []
    for comp in components:
        comp = [Fraction(c) for c in comp]
        if not any(comp):
            raise ValueError("components must be nonzero")
        image = h.apply(comp)
        lead = next(i for i, c in enumerate(comp) if c)
        t = image[lead] / comp[lead]
        if image != [t * c for c in comp]:
            raise ValueError("component is not an eigenvector of h")
        eigenvalues.append(t)
    if len(set(eigenvalues)) != len(eigenvalues):
        raise ValueError("repeated eigenvalue among the components")
    x = zero_vec(h.dim)
    for comp in components:
        for i, c in enumerate(comp):
            x[i] += Fraction(c)
    powers = [x]
    for _ in range(len(components) - 1):
        powers.append(h.apply(powers[-1]))
    return rank(powers)


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
        for vector in parts[b].basis:
            image = zero_vec(len(blocks.positions[u]))
            for pos, c in zip(blocks.positions[b], vector):
                if c:
                    for i, x in mat.cols.get(pos, {}).items():
                        image[blocks.local[i]] += c * x
            if not parts[u].contains(image):
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
    chain = [blocks.zero()]
    for step in filtration:
        parts = blocks.split(step)
        if not all(_is_invariant(module, blocks, label, parts) for label in labels):
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


def dump_filtration(filtration: Filtration) -> str:
    """Plain-text dump: one step per block, basis rows as p/q entries."""
    blocks = []
    for k, step in enumerate(filtration):
        header = f"# step {k} dim {step.dim}"
        body = dump_matrix(step.basis)
        blocks.append(header + ("\n" + body if body else ""))
    return "\n".join(blocks) + "\n"
