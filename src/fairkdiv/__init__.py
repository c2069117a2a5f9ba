"""Fair k-division of items under conflict constraints.

Exact pseudo-polynomial solvers (convex bipartite, bounded clique-width,
bounded tree-independence number), a brute-force oracle, and an FPTAS
wrapper, plus instance file I/O and generators.

The names below are re-exported lazily (PEP 562): `import fairkdiv` loads
no submodule, and the first use of a name imports the module defining it.
"""
import sys

_EXPORTS = {
    "approx": ("FptasResult", "fptas", "scale_profits"),
    "chordal": ("clique_tree_of_chordal",),
    "cliquewidth": (
        "CliqueExpression",
        "ExpressionError",
        "check_expression_matches",
        "cliquewidth_profile_set",
        "evaluate_expression",
        "parse_k_expression",
        "solve_cliquewidth",
    ),
    "convex": ("convex_profile_set", "solve_convex"),
    "generators": ("gen_convex_bipartite", "gen_partial_ktree"),
    "model": (
        "CapError",
        "ConflictInstance",
        "InstanceFormatError",
        "InvalidColoringError",
        "SolveResult",
        "connected_components",
        "max_total_profit",
        "parse_instance",
        "profile_of",
        "satisfaction_level",
        "satisfaction_upper_bound",
        "serialize_instance",
        "validate_coloring",
    ),
    "oracle": ("EnumerationCapError", "brute_force_optimum", "brute_force_profiles"),
    "profiles": (
        "ProfileCapError",
        "ProfileSet",
        "best_satisfaction",
        "dominance_prune",
    ),
    "recognition": (
        "ConvexOrdering",
        "OrderingError",
        "consecutive_ones_order",
        "find_convex_ordering",
        "validate_convex_ordering",
    ),
    "treeindep": (
        "AlphaCapError",
        "DecompositionError",
        "NiceTreeDecomposition",
        "TreeDecomposition",
        "make_nice",
        "parse_tree_decomposition",
        "solve_tin",
        "tin_profile_set",
        "validate_td",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_MODULE_OF[name]}"
    __import__(module)
    # not cached here, so a name always reads its module's current attribute
    return getattr(sys.modules[module], name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
