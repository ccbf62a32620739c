"""Exact arithmetic for weighted projective degenerations of projective space.

Spaces P(a_0, ..., a_n) that degenerate from ordinary projective space while
conserving anticanonical volume are cut out by a single Diophantine equation.
This package enumerates them, organizes the dimension-3 solutions into their
two mutation families, analyzes cyclic quotient singularities and rigidity,
and counts moduli and automorphism dimensions, all over exact integers and
rationals.
"""

__version__ = "0.1.0"

from .mutation import (
    Classification,
    Family,
    MarkovTriple,
    MutationEdge,
    MutationGraph,
    SumQuadruple,
    classify_solution,
    generate_tree,
    lift,
    markov_mutate,
    sum_mutate,
    sum_type_decompose,
)
from .records import (
    SolutionRecord,
    record_for_non_solution,
    record_for_solution,
    to_csv_row,
    to_json_obj,
)
from .search import (
    ORACLE_ITERATION_CUTOFF,
    brute_force_oracle,
    enumerate_solutions,
)
from .singular import (
    CyclicQuotient,
    SingularStratum,
    SmoothabilityReport,
    Verdict,
    isolated_rigid_points,
    reid_tai_classify,
    singular_strata,
    smoothability_report,
)
from .weights import (
    NonIntegralDegreeError,
    WeightTuple,
    anticanonical_volume,
    aut_dimension,
    denumerant,
    denumerants,
    is_well_formed,
    moduli_component_dimension,
    normalize,
    satisfies_degeneration_equation,
)

__all__ = [
    "__version__",
    "Classification",
    "CyclicQuotient",
    "Family",
    "MarkovTriple",
    "MutationEdge",
    "MutationGraph",
    "NonIntegralDegreeError",
    "ORACLE_ITERATION_CUTOFF",
    "SingularStratum",
    "SmoothabilityReport",
    "SolutionRecord",
    "SumQuadruple",
    "Verdict",
    "WeightTuple",
    "anticanonical_volume",
    "aut_dimension",
    "brute_force_oracle",
    "classify_solution",
    "denumerant",
    "denumerants",
    "enumerate_solutions",
    "generate_tree",
    "is_well_formed",
    "isolated_rigid_points",
    "lift",
    "markov_mutate",
    "moduli_component_dimension",
    "normalize",
    "record_for_non_solution",
    "record_for_solution",
    "reid_tai_classify",
    "satisfies_degeneration_equation",
    "singular_strata",
    "smoothability_report",
    "sum_mutate",
    "sum_type_decompose",
    "to_csv_row",
    "to_json_obj",
]
