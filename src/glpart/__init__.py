"""Connected vertex partitions with prescribed sizes or weights.

Given a k-connected graph, k terminals, and k demands that cover the whole
graph, the solvers split the vertex set into connected parts, one terminal
each. On chordal graphs the unweighted split is exact and the weighted one
lands strictly within one maximum vertex weight of every demand; on graphs
whose only non-chordality is a family of pairwise almost-disjoint induced
4-cycles, a chord-and-contract reduction gets within one vertex (or twice
the maximum weight) of every demand.
"""

from .almost_chordal import (
    ContractionPlan,
    PipelineResult,
    add_terminal_chords,
    build_contraction_plan,
    gl_partition_almost_chordal,
)
from .c4 import C4Catalog, enumerate_induced_c4
from .chordal import (
    ChordalityWitness,
    Peo,
    mcs_order,
    mcs_search,
    peo_violation,
)
from .connectivity import (
    ConnectivityResult,
    SeparatorWitness,
    vertex_connectivity_at_least,
)
from .errors import (
    CapError,
    DemandError,
    GlpartError,
    GraphFormatError,
    PipelineInvariantError,
    PreconditionError,
    SolverStallError,
)
from .generators import generate_almost_chordal, generate_ktree
from .graph import (
    Graph,
    MergeMap,
    WeightedGraph,
    components_within,
    contract_matching,
    induced_subgraph,
    is_connected_set,
)
from .instances import (
    Instance,
    format_instance,
    load_instance,
    parse_instance,
)
from .oracle import DEFAULT_ORACLE_CAP, brute_force_gl
from .partition import (
    GLPartition,
    PartitionRequest,
    gl_partition_chordal,
    gl_partition_chordal_weighted,
)
from .recognition import (
    ClassCheck,
    ClassViolation,
    find_hole,
    is_hh_i42_free,
)
from .verify import DeviationRule, VerificationReport, verify_partition

__version__ = "0.1.0"

__all__ = [
    "C4Catalog",
    "CapError",
    "ChordalityWitness",
    "ClassCheck",
    "ClassViolation",
    "ConnectivityResult",
    "ContractionPlan",
    "DEFAULT_ORACLE_CAP",
    "DemandError",
    "DeviationRule",
    "GLPartition",
    "GlpartError",
    "Graph",
    "GraphFormatError",
    "Instance",
    "MergeMap",
    "PartitionRequest",
    "Peo",
    "PipelineInvariantError",
    "PipelineResult",
    "PreconditionError",
    "SeparatorWitness",
    "SolverStallError",
    "VerificationReport",
    "WeightedGraph",
    "add_terminal_chords",
    "brute_force_gl",
    "build_contraction_plan",
    "components_within",
    "contract_matching",
    "enumerate_induced_c4",
    "find_hole",
    "format_instance",
    "generate_almost_chordal",
    "generate_ktree",
    "gl_partition_almost_chordal",
    "gl_partition_chordal",
    "gl_partition_chordal_weighted",
    "induced_subgraph",
    "is_connected_set",
    "is_hh_i42_free",
    "load_instance",
    "mcs_order",
    "mcs_search",
    "parse_instance",
    "peo_violation",
    "verify_partition",
    "vertex_connectivity_at_least",
]
