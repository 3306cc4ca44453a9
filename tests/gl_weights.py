"""gl(N) highest weight counts of explicit tensor modules, shared by the
brute-force tests. Unlike oracles.py this goes through the package: it
builds the module with mackey.brute and eliminates with mackey.linalg.
"""

from mackey.brute import build_tensor_module
from mackey.linalg import nullspace


def gl_highest_weight_count(n_rank: int, m: int, n: int) -> int:
    """Highest weight vectors of the gl(N)-module (C^N*)^(x)m (x) (C^N)^(x)n:
    the dimension of the joint kernel of the simple root actions (i, i+1).
    On a semisimple module this counts the simple summands.
    """
    module = build_tensor_module(n_rank, m, n)
    rows = [row for i in range(1, n_rank)
            for row in module.action((i, i + 1)).to_dense_rows() if any(row)]
    return len(nullspace(rows, module.dimension))
