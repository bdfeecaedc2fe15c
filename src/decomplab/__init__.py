"""decomplab: a laboratory for graph edge-decomposition questions.

Computes pattern-side invariants and decomposition thresholds, constructs
certified switcher/transformer/absorber gadgets, generates extremal families
with machine-checkable obstructions, and runs exact, fractional and greedy
decomposition on concrete hosts.
"""

from .graphs import (Graph, GraphMap, EmbeddedCopy, Decomposition,
                     complete_graph, complete_bipartite, complete_multipartite,
                     cycle_graph, path_graph, disjoint_union)
from .embeddings import enumerate_embeddings
from .hamilton import hamilton_cycle
from .graphio import parse_edge_list, serialize_edge_list
from .invariants import (degree_gcd, bipartite_invariants, colouring_invariants,
                         cn_tuples, rooted_degeneracy, chromatic_number)
from .divisibility import check_divisibility, make_degree_divisible, fix_edge_count
from .solver import (exact_decompose, verify_decomposition, fractional_decompose,
                     greedy_decompose, cover_vertex)
from .classifier import classify_bipartite, classify_vx, discretisation_candidates
from .extremal import generate_extremal, obstruction_check
from .pipeline import find_vortex, verify_vortex, cover_down

__version__ = "0.1.0"
