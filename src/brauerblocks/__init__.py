"""Exact-arithmetic block classification for the Brauer category over C.

The package decides block membership of simple modules, enumerates blocks,
splits weight classes, computes Brauer-algebra blocks and canonical central
characters, and cross-checks every fast criterion against an independent
brute-force oracle.  All arithmetic is exact (integers and Fractions).
"""

from .blocks import (
    BFS_RANK_CAP,
    BlockClassification,
    block_key,
    brauer_algebra_blocks,
    classify_weight_class,
    dot_orbit_member,
    enumerate_block_members,
    same_block,
    same_block_report,
)
from .central import (
    FactoredRational,
    brauer_gammas,
    central_character,
    centrally_equivalent,
    check_admissible,
    check_reflection_product,
)
from .partitions import (
    Partition,
    PartitionError,
    canonical_key,
    enumerate_partitions,
    half,
    parse_partition,
    partitions_of_size,
    twice,
)
from .sequences import WILDCARD, OrbitKey
from .wedge import (
    WedgeVector,
    apply_b,
    apply_lowering,
    apply_raising,
    relative_weight,
)
from .weights import (
    SymWeight,
    reduce_mod_qtheta,
    same_bar_weight,
    weight_alpha_part,
)

__version__ = "0.1.0"

__all__ = [
    "BFS_RANK_CAP",
    "BlockClassification",
    "FactoredRational",
    "OrbitKey",
    "Partition",
    "PartitionError",
    "SymWeight",
    "WILDCARD",
    "WedgeVector",
    "apply_b",
    "apply_lowering",
    "apply_raising",
    "block_key",
    "brauer_algebra_blocks",
    "brauer_gammas",
    "canonical_key",
    "central_character",
    "centrally_equivalent",
    "check_admissible",
    "check_reflection_product",
    "classify_weight_class",
    "dot_orbit_member",
    "enumerate_block_members",
    "enumerate_partitions",
    "half",
    "parse_partition",
    "partitions_of_size",
    "reduce_mod_qtheta",
    "relative_weight",
    "same_bar_weight",
    "same_block",
    "same_block_report",
    "twice",
    "weight_alpha_part",
    "__version__",
]
