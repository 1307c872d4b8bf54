"""Connected vertex partitions with prescribed sizes or weights.

Given a k-connected graph, k terminals, and k demands that cover the whole
graph, the solvers split the vertex set into connected parts, one terminal
each. On chordal graphs the unweighted split is exact and the weighted one
lands strictly within one maximum vertex weight of every demand; on graphs
whose only non-chordality is a family of pairwise almost-disjoint induced
4-cycles, a chord-and-contract reduction gets within one vertex (or twice
the maximum weight) of every demand. ``solve`` picks between the two as
``glpart partition`` does; the stage functions stay in their modules.
"""

from .chordal import ChordalityWitness, mcs_search
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
from .graph import Graph, WeightedGraph
from .instances import Instance, load_instance
from .oracle import DEFAULT_ORACLE_CAP, brute_force_gl
from .partition import GLPartition, PartitionRequest, Solution, solve
from .recognition import ClassViolation, class_violation
from .verify import DeviationRule, VerificationReport, verify_partition

__version__ = "0.1.0"

__all__ = [
    "CapError",
    "ChordalityWitness",
    "ClassViolation",
    "ConnectivityResult",
    "DEFAULT_ORACLE_CAP",
    "DemandError",
    "DeviationRule",
    "GLPartition",
    "GlpartError",
    "Graph",
    "GraphFormatError",
    "Instance",
    "PartitionRequest",
    "PipelineInvariantError",
    "PreconditionError",
    "SeparatorWitness",
    "Solution",
    "SolverStallError",
    "VerificationReport",
    "WeightedGraph",
    "brute_force_gl",
    "class_violation",
    "generate_almost_chordal",
    "generate_ktree",
    "load_instance",
    "mcs_search",
    "solve",
    "verify_partition",
    "vertex_connectivity_at_least",
]
