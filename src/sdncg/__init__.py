"""Exact engine for the social-distancing network creation game.

Agents on a host network benefit from incident edges (each worth ``alpha``)
and from large hop distances to everyone else. The package evaluates the
game exactly (utilities, welfare, improving moves, pairwise stability,
dynamics), maximizes spanning-tree routing cost (local search plus an exact
enumeration oracle), generates the named graph families, and computes exact
prices of anarchy and stability at desk scale.
"""

from .analysis import (
    CompleteOptimum,
    EquilibriumAtlas,
    OptimumResult,
    ThresholdTable,
    approximation_report,
    enumerate_stable_states,
    find_improving_cycle,
    host_census,
    host_corpus,
    list_suites,
    optimum_complete_closed_form,
    optimum_exact,
    poa_exact,
    pos_exact,
    random_connected_host,
    replay_validates_cycle,
    sweep_cell,
    sweep_host,
    theorem_campaign,
    threshold_table,
    write_sweep_csv,
)
from .constructions import (
    CONSTRUCTION_FAMILIES,
    clique,
    clique_network,
    closed_form_sw,
    cycle,
    embed_in_clique,
    hypercube,
    hypercube_clique_network,
    path,
    path_clique,
    path_of_cliques,
    path_of_cliques_middle,
    star,
    star_of_cliques,
    wheel_clique_network,
)
from .errors import (
    BudgetExceededError,
    CertificateError,
    GraphParseError,
    NoEquilibriumError,
    ParameterError,
    SdncgError,
    StructureError,
)
from .game import (
    ADD,
    REMOVE,
    DynamicsOutcome,
    Move,
    StabilityReport,
    addition_decreases,
    apply_move,
    as_alpha,
    improving_moves,
    is_pairwise_stable,
    parse_alpha,
    removal_increases,
    run_dynamics,
    social_welfare,
    stability_interval,
    stable_in_interval,
    utility,
)
from .graphio import (
    dump_json,
    dump_text,
    load_graph,
    parse_json,
    parse_text,
)
from .graphs import (
    GameState,
    HostGraph,
    TreeScaffold,
    bfs_all_pairs,
    edge,
    full_state,
    is_bridge,
    routing_cost,
)
from .spanning import (
    SmrcstResult,
    enumerate_spanning_trees,
    extend_to_spanning_tree,
    greedy_long_path,
    mrcst_exact,
    smrcst,
    smrcst_certificates,
)

__version__ = "0.1.0"
