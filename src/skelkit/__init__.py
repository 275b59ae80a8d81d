"""skelkit: hierarchical kernel-matrix compression and fast direct solvers
built on recursive skeletonization."""

from . import bie  # noqa: F401  (driver namespace: skelkit.bie)
from .errors import (AccuracyWarning, InvalidInput, NotConverged,
                     RefusedTooLarge, SingularBlock, SkelkitError)
from .geom import OrthTree, PointSet, build_tree, neighbors
from .kernels import KernelSpec, bessel_h0, eval_block
from .lowrank import InterpDecomp, id_fixed_precision
from .skel import (CompressedMatrix, ProxyConfig, apply, compress,
                   compress_source, load_compressed, proxy_points,
                   save_compressed)
from .solver import (FactoredInverse, SparseEmbedding, assemble_embedding,
                     export_matrix_market, factor, gmres, load_factored,
                     save_factored, solve)

__version__ = "0.1.0"

__all__ = [
    "AccuracyWarning", "InvalidInput", "NotConverged", "RefusedTooLarge",
    "SingularBlock", "SkelkitError",
    "OrthTree", "PointSet", "build_tree", "neighbors",
    "KernelSpec", "bessel_h0", "eval_block",
    "InterpDecomp", "id_fixed_precision",
    "CompressedMatrix", "ProxyConfig", "apply", "compress", "compress_source",
    "load_compressed", "proxy_points", "save_compressed",
    "FactoredInverse", "SparseEmbedding", "assemble_embedding",
    "export_matrix_market", "factor", "gmres", "load_factored",
    "save_factored", "solve",
    "__version__",
]
