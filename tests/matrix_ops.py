"""Linear algebra that only the tests need: products, sums and scalar
multiples of mackey.linalg.SparseMatrix, for checking brackets and
conjugating modules, matrices built from entries or a diagonal, and applied
to dense vectors, the diagonal of a matrix, for checking weights, every
generator label of a module, coordinates in a subspace's basis and the
intersection of two subspaces, the dense Fraction elimination that
mackey.linalg's integer kernel replaced, kept as its reference, the
Vandermonde rows of the powers of a diagonal matrix, and the p/q text dumps
of matrices and filtrations that the golden files hold.
"""

from fractions import Fraction

from mackey.linalg import ONE, SparseMatrix, Subspace, nullspace, zero_vec


def add_scaled(target, source, c) -> None:
    """target += c * source, in place."""
    if c == 0:
        return
    for i, s in enumerate(source):
        if s:
            target[i] += c * s


def dense_rref(rows):
    """Reduced row echelon form by Fraction arithmetic on dense rows.
    Returns (nonzero rows, pivot columns)."""
    echelon = []
    pivots = []
    for row in rows:
        r = list(row)
        for e, p in zip(echelon, pivots):
            if r[p]:
                add_scaled(r, e, -r[p])
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is None:
            continue
        pv = r[lead]
        if pv != 1:
            r = [x / pv for x in r]
        for e, p in zip(echelon, pivots):
            if e[lead]:
                add_scaled(e, r, -e[lead])
        # keep pivot columns sorted so bases are canonical
        at = next((k for k, p in enumerate(pivots) if p > lead), len(pivots))
        echelon.insert(at, r)
        pivots.insert(at, lead)
    return echelon, pivots


def dense_nullspace(rows, ncols):
    """Basis of {x : R x = 0}, read off the dense reduced echelon form."""
    echelon, pivots = dense_rref(rows)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = zero_vec(ncols)
        v[j] = ONE
        for e, p in zip(echelon, pivots):
            if e[j]:
                v[p] = -e[j]
        basis.append(v)
    return basis


def reduce(space: Subspace, v):
    """Residual of v modulo the subspace, by its dense basis (zero iff v is
    a member)."""
    r = list(v)
    for e, p in zip(space.basis, space.pivots):
        if r[p]:
            add_scaled(r, e, -r[p])
    return r


def generator_labels(module) -> list[tuple[int, int]]:
    """Every generator label (i, j) of gl(N), N the rank of the module."""
    n = module.rank_n
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


def from_entries(dim: int, entries) -> SparseMatrix:
    """The matrix of (row, col, value) triples, summing duplicates."""
    cols = {}
    for i, j, v in entries:
        col = cols.setdefault(j, {})
        col[i] = col[i] + v if i in col else v
    return SparseMatrix(dim, cols)


def diagonal_matrix(values) -> SparseMatrix:
    return SparseMatrix(len(values), {j: {j: v} for j, v in enumerate(values)})


def apply(a: SparseMatrix, v) -> list[Fraction]:
    """a v, for a dense vector v."""
    out = zero_vec(a.dim)
    for j, col in a.cols.items():
        x = v[j]
        if x:
            for i, m in col.items():
                out[i] += m * x
    return out


def coordinates(space: Subspace, v) -> list:
    """Coefficients in the basis of the subspace of v, dense or a dict
    {column: value} (where a missing column reads 0); raises if v is not a
    member."""
    if not space.contains(v):
        raise ValueError("vector not in subspace")
    if type(v) is dict:
        return [v.get(p, 0) for p in space.pivots]
    return [v[p] for p in space.pivots]


def compose(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """a @ b."""
    cols = {}
    for j, col in b.cols.items():
        acc = {}
        for k, v in col.items():
            for i, x in a.cols.get(k, {}).items():
                acc[i] = acc.get(i, 0) + x * v
        cols[j] = acc
    return SparseMatrix(a.dim, cols)


def add(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    cols = {j: dict(col) for j, col in a.cols.items()}
    for j, col in b.cols.items():
        acc = cols.setdefault(j, {})
        for i, v in col.items():
            acc[i] = acc.get(i, 0) + v
    return SparseMatrix(a.dim, cols)


def scaled(a: SparseMatrix, c) -> SparseMatrix:
    c = Fraction(c)
    return SparseMatrix(a.dim, {j: {i: c * v for i, v in col.items()}
                                for j, col in a.cols.items()})


def diagonal(a: SparseMatrix) -> list[Fraction] | None:
    """The diagonal entries of a, or None when a has an entry off the diagonal."""
    if any(set(col) != {j} for j, col in a.cols.items()):
        return None
    return [a.cols.get(j, {}).get(j, Fraction(0)) for j in range(a.dim)]


def intersection(a: Subspace, b: Subspace) -> Subspace:
    """a meet b, by the standard kernel construction on stacked coefficient
    vectors."""
    if not a.basis or not b.basis:
        return Subspace(a.ambient)
    # coefficients (y, z) with y.A = z.B, i.e. [A^T | -B^T] (y,z)^T = 0
    rows = [[ai[j] for ai in a.basis] + [-bi[j] for bi in b.basis]
            for j in range(a.ambient)]
    vecs = []
    for combo in nullspace(rows, a.dim + b.dim):
        w = zero_vec(a.ambient)
        for c, ai in zip(combo[:a.dim], a.basis):
            add_scaled(w, ai, c)
        vecs.append(w)
    return Subspace(a.ambient, vecs)


def vandermonde_powers(count: int) -> list[list[Fraction]]:
    """x, hx, ..., h^(count-1) x for h = diag((count+1)^j), j = 1..count, and
    x the sum of the unit vectors: the rows of a Vandermonde matrix in
    count distinct eigenvalues."""
    eigenvalues = [(count + 1) ** j for j in range(1, count + 1)]
    return [[Fraction(e ** k) for e in eigenvalues] for k in range(count)]


def format_rational(x) -> str:
    """Plain-text exchange format: always p/q."""
    return f"{x.numerator}/{x.denominator}"


def dump_matrix(rows) -> str:
    """One row per line, entries space-separated as p/q."""
    return "\n".join(" ".join(map(format_rational, row)) for row in rows)


def dump_filtration(filtration) -> str:
    """Plain-text dump: one step per block, basis rows as p/q entries."""
    blocks = []
    for k, step in enumerate(filtration):
        header = f"# step {k} dim {step.dim}"
        body = dump_matrix(step.basis)
        blocks.append(header + ("\n" + body if body else ""))
    return "\n".join(blocks) + "\n"
