"""Weighted Wiener indices on graphs, closed forms for the extremal unicyclic
families, and exhaustive verification of the sharp bounds at small n."""

from .closed_forms import (
    cycle_closed_form,
    path_closed_form,
    tadpole_closed_form,
    triangle_star_closed_form,
)
from .enumeration import (
    canonical_form,
    are_isomorphic,
    enumerate_unicyclic_labeled,
    enumerate_unicyclic_unlabeled,
    prufer_to_tree,
    random_unicyclic,
    scan_tree_path_property,
)
from .extremal import (
    ProofMove,
    ProofMoveError,
    VerificationReport,
    apply_tail_rebalance,
    apply_terminal_merge,
    check_f3_dominance,
    local_search_max,
    verify_theorem,
    verify_theorem_many,
)
from .families import cycle, path, star, tadpole, triangle_star
from .graphs import (
    CycleInfo,
    DisconnectedGraphError,
    DistanceDistribution,
    Graph,
    GraphError,
    MajorVertexReport,
    bfs_distances,
    distance_distribution,
    find_cycle,
    format_edge_list,
    is_connected,
    is_unicyclic,
    major_vertex_report,
    parse_edge_list,
    relabel,
)
from .indices import (
    IndexValue,
    generalized_wiener,
    harary,
    hyper_wiener,
    q_wiener,
    reciprocal_wiener,
    tsz_index,
    wiener,
)
from .weights import (
    Monotonicity,
    PowerWeight,
    QWienerWeight,
    TableWeight,
    WeightError,
    WeightFunction,
    classify_monotonicity,
    parse_weight_spec,
    q_bracket,
)

__version__ = "0.1.0"
