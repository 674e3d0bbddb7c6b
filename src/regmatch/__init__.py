"""Exact matching partition functions of regular graphs.

Exact-arithmetic tools for the monomer-dimer partition function M_G(lambda),
its per-vertex free energy, and certified comparisons against the complete
graph K_{d+1} and the infinite d-regular tree, plus the supporting machinery:
path-tree walk counts, truncated series certificates, transfer matrices for
necklace covers, matching-polytope checks, and minimax approximation of
log(1+x).
"""

from .certified import Enclosure, Verdict
from .errors import (
    CapacityError,
    ConvergenceError,
    DomainError,
    Graph6ParseError,
    NoGraphsError,
    PrecisionError,
    RegmatchError,
)
from .graphs import (
    Graph,
    canonical_form,
    canonical_key,
    complete,
    complete_minus_edge,
    count_subgraphs,
    cycle,
    diamond,
    diamond_necklace,
    encode_graph6,
    generate_connected_regular,
    isomorphic,
    max_matching,
    necklace_cover,
    parse_graph6,
    petersen,
    prism,
)
from .matchpoly import (
    certify_root_bound,
    gen_poly_value,
    matching_counts,
    matching_gen_poly,
    matching_poly_mu,
    q_complete,
    q_complete_minus_edge,
)
from .minimax import cubic_theorem_check, ladder_verify, lambda_interval, remez_best_approx
from .necklace import (
    critical_constant,
    discriminant,
    necklace_partition_via_trace,
    pd_direct,
    qd_alternate,
    qd_direct,
    qd_recursive,
    transfer_matrix,
)
from .polynomials import Poly
from .polytope import edmonds_check, even_d_threshold, matching_lower_bound_check
from .series_bounds import (
    certificate_chain,
    complete_graph_densities,
    deficits,
    negative_lambda_sandwich,
    tree_closed_form,
    verify_grid,
    verify_inequality,
)
from .walks import (
    build_path_tree,
    graph_power_sums,
    infinite_tree_power_sums,
    power_sums_newton,
    tree_like_walk_total,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ConvergenceError",
    "DomainError",
    "Enclosure",
    "Graph",
    "Graph6ParseError",
    "NoGraphsError",
    "Poly",
    "PrecisionError",
    "RegmatchError",
    "Verdict",
    "build_path_tree",
    "canonical_form",
    "canonical_key",
    "certificate_chain",
    "certify_root_bound",
    "complete",
    "complete_graph_densities",
    "complete_minus_edge",
    "count_subgraphs",
    "critical_constant",
    "cubic_theorem_check",
    "cycle",
    "deficits",
    "diamond",
    "diamond_necklace",
    "discriminant",
    "edmonds_check",
    "encode_graph6",
    "even_d_threshold",
    "gen_poly_value",
    "generate_connected_regular",
    "graph_power_sums",
    "infinite_tree_power_sums",
    "isomorphic",
    "ladder_verify",
    "lambda_interval",
    "matching_counts",
    "matching_gen_poly",
    "matching_lower_bound_check",
    "matching_poly_mu",
    "max_matching",
    "necklace_cover",
    "necklace_partition_via_trace",
    "negative_lambda_sandwich",
    "parse_graph6",
    "pd_direct",
    "petersen",
    "power_sums_newton",
    "prism",
    "q_complete",
    "q_complete_minus_edge",
    "qd_alternate",
    "qd_direct",
    "qd_recursive",
    "remez_best_approx",
    "transfer_matrix",
    "tree_closed_form",
    "tree_like_walk_total",
    "verify_grid",
    "verify_inequality",
]
