"""Exact combinatorics of regular subgraph counts in sparse random graphs.

Counting, tilted independence roots, tail-rate formulas, dense-structure
extraction, edge-avoiding decompositions, Monte Carlo corroboration, and
a deterministic inequality checker suite, with a CLI wired over all of it.
"""

__version__ = "0.1.0"

from .graphs import (
    Graph,
    GraphInputError,
    PatternError,
    PatternGraph,
    SparsityContext,
    complete,
    complete_bipartite,
    cycle,
    from_edge_list,
    parse_edge_list,
    path,
    petersen,
    star,
    validate_pattern,
)
from .counting import (
    CountReport,
    count_hom,
    count_labelled,
    count_with_edges,
    expected_count,
)
from .independence import (
    fractional_independence,
    independence_polynomial,
    independent_set_counts,
    tilted_root,
)
from .structures import (
    CoreParams,
    EdgePartition,
    PredicateWitness,
    edge_partition,
    is_core,
    is_seed,
    is_strong_core,
    peel_to_core,
    peel_to_strong_core,
)
from .decompose import (
    CycleEdgeCover,
    OrderedCover,
    cycle_edge_cover_avoiding,
    double_cover,
    konig_coloring,
    matching_avoiding,
    ordered_cover,
)
from .ratefn import (
    Regime,
    UnsupportedRegimeError,
    classify_regime,
    exact_conditional_expectation,
    plant,
    rate_function,
    variational_upper_bound,
)
from .sim import McEstimate, RngSpec, mc_mean_count, sample_gnp
from .verify import CheckResult, run_all

__all__ = [
    "__version__",
    "Graph",
    "GraphInputError",
    "PatternError",
    "PatternGraph",
    "SparsityContext",
    "complete",
    "complete_bipartite",
    "cycle",
    "from_edge_list",
    "parse_edge_list",
    "path",
    "petersen",
    "star",
    "validate_pattern",
    "CountReport",
    "count_hom",
    "count_labelled",
    "count_with_edges",
    "expected_count",
    "fractional_independence",
    "independence_polynomial",
    "independent_set_counts",
    "tilted_root",
    "CoreParams",
    "EdgePartition",
    "PredicateWitness",
    "edge_partition",
    "is_core",
    "is_seed",
    "is_strong_core",
    "peel_to_core",
    "peel_to_strong_core",
    "CycleEdgeCover",
    "OrderedCover",
    "cycle_edge_cover_avoiding",
    "double_cover",
    "konig_coloring",
    "matching_avoiding",
    "ordered_cover",
    "Regime",
    "UnsupportedRegimeError",
    "classify_regime",
    "exact_conditional_expectation",
    "plant",
    "rate_function",
    "variational_upper_bound",
    "McEstimate",
    "RngSpec",
    "mc_mean_count",
    "sample_gnp",
    "CheckResult",
    "run_all",
]
