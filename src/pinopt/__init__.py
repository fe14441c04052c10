"""Pinning-control effectiveness on undirected networks.

The central quantity is the smallest eigenvalue of the grounded
Laplacian: the principal submatrix left after deleting the rows and
columns of the pinned (directly controlled) nodes. The package builds
and grounds graphs, evaluates spectral bounds on that eigenvalue,
selects pin sets by several strategies, and simulates the controlled
network to validate the spectral criterion.
"""

from .graphs import (
    BudgetError,
    Graph,
    GroundedLaplacian,
    boundary_weights,
    build_graph,
    connected_components,
    format_edge_list,
    ground,
    laplacian,
    parse_edge_list,
    pin_set,
)
from .spectra import (
    complete_grounded_spectrum,
    eig_sym,
    lambda1,
    star_grounded_lambda1,
)
from .bounds import (
    BoundReport,
    bound_report,
    boundary_bounds,
    feedback_gain_bound,
    upper_by_min_degree,
    upper_by_spectrum,
    upper_single_pin,
)
from .strategies import (
    SelectionResult,
    StrategyConfig,
    betweenness_centrality,
    brute_force_max_lambda1,
    degree_mix_pins,
    dominating_partition,
    greedy_max_lambda1,
    select_betweenness,
    select_degree_mix,
)
from .generators import (
    gen_ba,
    gen_complete,
    gen_double_star,
    gen_erdos_renyi,
    gen_nw,
    gen_path,
    gen_star,
)
from .sync import (
    NodeDynamics,
    SimConfig,
    SimResult,
    check_criterion,
    chua,
    linear_stability_oracle,
    linear_unstable,
    simulate,
)
from .data import load_dolphins

__version__ = "0.1.0"
