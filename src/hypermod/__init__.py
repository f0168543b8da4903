"""Preferential-attachment hypergraphs with communities.

Generators for a general growth process and its community-partitioned
variant, hypergraph modularity scoring with a Louvain-style detector,
power-law tail estimation, closed-form exponent predictions and
modularity lower bounds, plus a CLI and experiment harness.
"""

from .hypergraph import DegreeHistogram, Hypergraph
from .sampling import CardinalityDistribution, PreferentialSelector, make_rng
from .genh import HParams, RunStats, generate_h, h_step
from .geng import (
    GParams,
    InterCommunityProfile,
    community_marginals,
    g_step,
    generate_g,
    reduce_community,
)
from .modularity import (
    CardinalityProfile,
    ModularityBreakdown,
    Partition,
    WeightedGraph,
    brute_force_modularity,
    cardinality_profile,
    flatten,
    graph_modularity_score,
    hypergraph_modularity_score,
    weighted_graph_modularity,
)
from .louvain import detect_communities
from .analysis import (
    BoundInputs,
    DegreeFractionTable,
    TailFit,
    TheoryPrediction,
    bound_inputs_from_profile,
    degree_fraction_oracle,
    empirical_bound_inputs,
    fit_tail_exponent,
    modularity_lower_bound_ab,
    modularity_lower_bound_general,
    predict_beta_g,
    predict_beta_h,
)

__version__ = "0.1.0"

__all__ = [
    "CardinalityDistribution",
    "CardinalityProfile",
    "BoundInputs",
    "DegreeFractionTable",
    "DegreeHistogram",
    "GParams",
    "HParams",
    "Hypergraph",
    "InterCommunityProfile",
    "ModularityBreakdown",
    "Partition",
    "PreferentialSelector",
    "RunStats",
    "TailFit",
    "TheoryPrediction",
    "WeightedGraph",
    "bound_inputs_from_profile",
    "brute_force_modularity",
    "cardinality_profile",
    "community_marginals",
    "degree_fraction_oracle",
    "detect_communities",
    "empirical_bound_inputs",
    "fit_tail_exponent",
    "flatten",
    "g_step",
    "generate_g",
    "generate_h",
    "graph_modularity_score",
    "h_step",
    "hypergraph_modularity_score",
    "make_rng",
    "modularity_lower_bound_ab",
    "modularity_lower_bound_general",
    "predict_beta_g",
    "predict_beta_h",
    "reduce_community",
    "weighted_graph_modularity",
]
