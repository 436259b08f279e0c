"""Integer additive set-graceful labeling of graphs.

Sumset arithmetic over finite sets of non-negative integers, subset
classification over a ground set, the labeling verification ladder,
pruned backtracking existence search, constructive realisations, and a
desk-scale harness that re-checks the structural results behind it all.
"""

from .graphs import Graph, enumerate_free_trees, generate, is_bipartite, pendant_vertices
from .labeling import (
    GateReport,
    Labeling,
    Violation,
    graceful_targets,
    induced_edge_label,
    structural_gate,
    verify_iasgl,
    verify_iasi,
    verify_iasl,
    verify_ladder,
)
from .realisation import RealisationResult, build_realisation
from .search import (
    SearchConfig,
    SearchOutcome,
    SearchStats,
    SearchStatus,
    search_iasgl,
    sweep_ground_sets,
)
from .sets import (
    Classification,
    GroundSet,
    IntegerSet,
    SummandMode,
    ZERO_SET,
    classify_ground_set,
    enumerate_canonical_ground_sets,
    enumerate_nonempty_subsets,
    sumset,
)

__version__ = "0.1.0"
