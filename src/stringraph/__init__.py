"""String graphs of curve families: exact construction, certified extraction.

The package builds intersection graphs of planar polyline strings with exact
rational predicates, finds balanced separators, runs the constructive
extraction procedures (neighborhood covers, clique-free subgraphs, dense
cores, multipartite covers, independent and q-independent sets, the
color-or-clique dichotomy), and analyzes drawings for quasiplanarity through
exact edge truncation. Every nontrivial output is a witness that is
re-checked against its defining property, and small instances can be
cross-validated against exhaustive oracles.
"""
from .errors import (BadSpec, DegenerateDrawing, DegenerateGraph, DomainError,
                     DuplicateId, ExtractorViolation, InternalBoundViolation,
                     NoCoverFound, ParseError, PreconditionViolated,
                     RefinementFailed, SchemaError, StringraphError, TooLarge,
                     UnknownVertex)
from .extract import (DEFAULT_PARAMS, AlgorithmParams, ExtractionWitness,
                      MultipartiteCover, choose_delta, color_or_clique,
                      dense_core, find_balanced_biclique,
                      half_clique_free_subgraph, independent_set,
                      kr1_free_subgraph, multipartite_cover,
                      q_independent_set, validate_multipartite_cover,
                      validate_witness)
from .generators import KINDS, GeneratorSpec, generate
from .geometry import (Point, Polyline, StringFamily, intersection_graph,
                       polylines_intersect, segments_intersect)
from .graph import (Coloring, Graph, find_clique, greedy_color,
                    induced_subgraph, is_independent, validate_coloring)
from .oracles import (max_balanced_biclique_exact, max_clique_exact,
                      max_independent_set_exact, max_kp_free_subset_exact,
                      min_balanced_separator_exact, pairwise_crossing_exact)
from .quasiplanar import (DrawnEdge, Drawing, crossing_graph, dense_threshold,
                          edge_bound, edge_bound_holds, is_r_quasiplanar,
                          sparse_subgraph, truncate_edges)
from .separator import (SeparatorPartition, balance_cap,
                        find_balanced_separator, fit_loglog_slope,
                        separator_size_survey,
                        validate_partition)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmParams", "BadSpec", "Coloring", "DEFAULT_PARAMS",
    "DegenerateDrawing", "DegenerateGraph", "DomainError", "Drawing",
    "DrawnEdge", "DuplicateId", "ExtractionWitness", "ExtractorViolation",
    "GeneratorSpec", "Graph", "InternalBoundViolation", "KINDS",
    "MultipartiteCover", "NoCoverFound", "ParseError", "Point", "Polyline",
    "PreconditionViolated", "RefinementFailed", "SchemaError",
    "SeparatorPartition", "StringFamily", "StringraphError", "TooLarge",
    "UnknownVertex", "balance_cap", "choose_delta", "color_or_clique",
    "crossing_graph", "dense_core",
    "dense_threshold", "edge_bound", "edge_bound_holds",
    "find_balanced_biclique", "find_balanced_separator", "find_clique",
    "generate", "greedy_color", "half_clique_free_subgraph",
    "independent_set", "induced_subgraph", "intersection_graph",
    "is_independent", "is_r_quasiplanar", "kr1_free_subgraph",
    "max_balanced_biclique_exact", "max_clique_exact",
    "max_independent_set_exact", "max_kp_free_subset_exact",
    "min_balanced_separator_exact", "multipartite_cover",
    "pairwise_crossing_exact", "polylines_intersect", "q_independent_set",
    "fit_loglog_slope", "segments_intersect", "separator_size_survey", "sparse_subgraph",
    "truncate_edges", "validate_coloring", "validate_multipartite_cover",
    "validate_partition", "validate_witness",
]
