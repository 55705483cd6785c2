"""Exact-arithmetic workbench for the greedy algorithm on online Steiner Forest."""

from .errors import (
    CapExceededError,
    GreedysfError,
    InputError,
    InternalConsistencyError,
    ParseError,
    RunError,
)
from .graph import (
    Distances,
    PathResult,
    WeightedGraph,
    girth,
    open_ball,
    shortest_path,
    subdivide_edges,
)
from .instances import (
    Instance,
    MateMap,
    TerminalPair,
    gen_canonical_nested,
    gen_girth_lower_bound,
    gen_random_instance,
    make_instance,
    maximal_matching,
    parse_instance,
    serialize_instance,
    validate_instance,
)
from .greedy import (
    Rule,
    RunTrace,
    apply_contraction_rule,
    equal_cost_classes,
    pairs_below_contraction,
    run_greedy,
)
from .opt import (
    SteinerSolution,
    dual_lower_bound_audit,
    exact_optima,
    opt_weight_in_ball,
    steiner_forest_exact,
    steiner_tree_exact,
    tree_optimum,
)
from .dualfit import (
    build_class_duals,
    girth_audit,
    moore_bound_audit,
    verify_class_duals,
)
from .canonical import canonical_report
from .balanced import (
    BalancedDual,
    ball_neighborhood,
    build_balanced,
    charged_cost,
    induction_bound_audit,
    verify_balanced,
)
from .transforms import (
    augment_subdivided_solution,
    extract_sub_instance,
    forest_potential,
    subdivide_pairs_rule3,
    to_canonical,
)

__version__ = "0.1.0"
