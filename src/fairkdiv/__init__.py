"""Fair k-division of items under conflict constraints.

Exact pseudo-polynomial solvers (convex bipartite, bounded clique-width,
bounded tree-independence number), a brute-force oracle, and an FPTAS
wrapper, plus instance file I/O and generators.
"""
from .approx import FptasResult, fptas, scale_profits
from .cliquewidth import (
    CliqueExpression,
    ExpressionError,
    check_expression_matches,
    cliquewidth_profile_set,
    evaluate_expression,
    parse_k_expression,
    solve_cliquewidth,
)
from .convex import (
    ConvexOrdering,
    OrderingError,
    consecutive_ones_order,
    convex_profile_set,
    find_convex_ordering,
    solve_connected_convex,
    solve_convex,
    stage_structure,
    validate_convex_ordering,
)
from .generators import gen_convex_bipartite, gen_partial_ktree
from .model import (
    ConflictInstance,
    InstanceFormatError,
    InvalidColoringError,
    SolveResult,
    connected_components,
    max_total_profit,
    parse_instance,
    profile_of,
    satisfaction_level,
    serialize_instance,
    validate_coloring,
)
from .oracle import EnumerationCapError, brute_force_optimum, brute_force_profiles
from .profiles import (
    ProfileCapError,
    ProfileSet,
    best_satisfaction,
    dominance_prune,
    edgeless_profiles,
    merge_profile_sets,
    shift,
)
from .treeindep import (
    AlphaCapError,
    DecompositionError,
    NiceTreeDecomposition,
    TreeDecomposition,
    clique_tree_of_chordal,
    make_nice,
    parse_tree_decomposition,
    solve_tin,
    tin_profile_set,
    validate_td,
)

__version__ = "0.1.0"
