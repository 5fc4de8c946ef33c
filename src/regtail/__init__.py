"""Exact combinatorics of regular subgraph counts in sparse random graphs.

Counting, tilted independence roots, tail-rate formulas, dense-structure
extraction, edge-avoiding decompositions, Monte Carlo corroboration, and
a deterministic inequality checker suite, with a CLI wired over all of it.

The package loads its modules on first use (PEP 562): ``import regtail``
costs nothing beyond this file, and ``regtail.X`` or ``from regtail import
X`` imports only the module that defines X.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the names the package exports from it, in __all__ order
_EXPORTS = {
    "graphs": (
        "Graph",
        "GraphInputError",
        "PatternError",
        "PatternGraph",
        "SparsityContext",
        "complete",
        "complete_bipartite",
        "cycle",
        "double_cover",
        "from_edge_list",
        "parse_edge_list",
        "path",
        "petersen",
        "star",
        "validate_pattern",
    ),
    "counting": (
        "CountReport",
        "count_hom",
        "count_labelled",
        "count_with_edges",
        "expected_count",
    ),
    "independence": (
        "fractional_independence",
        "independence_polynomial",
        "independent_set_counts",
        "tilted_root",
    ),
    "structures": (
        "CoreParams",
        "EdgePartition",
        "PredicateWitness",
        "edge_partition",
        "is_core",
        "is_seed",
        "is_strong_core",
        "peel_to_core",
        "peel_to_strong_core",
    ),
    "decompose": (
        "CycleEdgeCover",
        "OrderedCover",
        "cycle_edge_cover_avoiding",
        "konig_coloring",
        "matching_avoiding",
        "ordered_cover",
    ),
    "ratefn": (
        "Regime",
        "UnsupportedRegimeError",
        "classify_regime",
        "exact_conditional_expectation",
        "plant",
        "rate_function",
        "variational_upper_bound",
    ),
    "sim": ("McEstimate", "RngSpec", "mc_mean_count", "sample_gnp"),
    "verify": ("CheckResult", "run_all"),
}

_SUBMODULES = {*_EXPORTS, "cli"}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
