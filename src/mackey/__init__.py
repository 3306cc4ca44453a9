"""Socle filtrations, constituent multiplicities, and lengths of tensor
modules over Mackey Lie algebras, cross-checked by an exact-arithmetic
finite-rank engine.
"""

from .partitions import (
    EMPTY,
    Partition,
    dim_mixed,
    dim_schur,
    format_partition,
    parse_partition,
    partitions_of,
    syt_count,
)
from .symfunc import (
    SchurExpr,
    coproduct,
    eval_schur,
    lr_coefficient,
    schur_product,
)
from .socle import (
    SimpleConstituent,
    SocleReport,
    decompose_mixed_tensor,
    simple_length,
    socle_layers,
    tensor_length,
)

__version__ = "0.1.0"

__all__ = [
    "EMPTY",
    "Partition",
    "SchurExpr",
    "SimpleConstituent",
    "SocleReport",
    "coproduct",
    "decompose_mixed_tensor",
    "dim_mixed",
    "dim_schur",
    "eval_schur",
    "format_partition",
    "lr_coefficient",
    "parse_partition",
    "partitions_of",
    "schur_product",
    "simple_length",
    "socle_layers",
    "syt_count",
    "tensor_length",
]
