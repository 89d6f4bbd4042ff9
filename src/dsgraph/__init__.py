"""Proper edge colorings that dodge per-edge lists of forbidden colors.

The package builds d-regular graphs whose proper d-edge-colorings are rich in
two-colored 4-cycles, generates sparse or distance-2 forbidden-color lists,
and recolors by a color permutation followed by disjoint 4-cycle swaps until
no edge wears a forbidden color. Exact backtracking oracles and
arbitrary-precision threshold checks audit the fast path.
"""

from .bounds import (BoundReport, beta_threshold, fixed_ratio_constants, list_length_feasible,
                     permutation_union_bound, swap_choice_margin)
from .constructors import (CayleySpec, ColoredGraph, CyclicProduct, MulTable,
                           cartesian_product, cayley_abelian, cayley_involutions,
                           complete_bipartite_pow2, element_order, hypercube,
                           remove_standard_matchings)
from .errors import (CertificationFailed, ClaimDiscrepancyWarning, ColorOutOfRange,
                     DegenerateTau, DsgraphError, HypothesisViolated, IncompleteColoring,
                     InvalidBound, InvalidCayleySpec, InvalidInstance, InvalidK,
                     NotTwoColored, OracleBudgetExceeded, PermutationBudgetExceeded,
                     PermutationNotFound, PermutationSearchFailed, PreconditionViolated,
                     ResourceLimit, SwapPlanStuck)
from .graph_core import (EdgeColoring, FourCycle, Graph, apply_swaps, color_table, compute_s,
                         is_distance_t_matching, is_proper, properness_witness,
                         standard_matchings, swap_cycle, t_neighborhood,
                         two_colored_cycles_through)
from .instance_io import (Instance, from_colored_graph, load_instance, save_instance,
                          to_colored_graph)
from .list_assignments import (EMPTY, ListAssignment, SparsityReport, Violation,
                               conflict_edges, generate_distance2, generate_sparse,
                               support_is_distance2_matching, validate_beta_sparse)
from .oracle import OracleResult, oracle_avoidable
from .solver import (Exhaustive, FailureReport, Permutation, PermutationCheck,
                     RandomSearch, SelectionRecord, SolveResult, SolverParams, SwapPlan,
                     allowed_cycles, apply_permutation, check_permutation,
                     construct_swap_plan, default_params, find_permutation, find_violation,
                     solve_distance2, solve_sparse, verify_solution)

__version__ = "0.1.0"

