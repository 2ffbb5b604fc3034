"""critdens: when do prescribed inter-cluster edge densities force a
transversal copy of a pattern graph in every blow-up?

Exact-rational toolkit for the density version of the Turan problem:
tree decision and critical densities, matching-polynomial certificates,
extremal weighted blow-up constructions, star-decomposition lower
bounds, closed-form bounds for general patterns, and brute-force search
oracles.
"""

from .blowup import (
    Transversal,
    WeightedBlowupGraph,
    assert_construction,
    blowup_without,
    bow_tie_densities,
    bow_tie_reconstruction,
    gacs_tree_construction,
    star_decomposition_cannot_match_bowtie,
    star_decomposition_construct,
)
from .bounds import (
    BoundsReport,
    bow_tie_counterexample_check,
    certify_triangle,
    compute_bounds,
    default_certifier,
    glue,
    glue_sufficiency,
    sufficiency_by_positivity,
    triangle_decide,
)
from .errors import (
    AlreadyEnsured,
    BadSplit,
    BudgetExhausted,
    CritdensError,
    DegenerateGraph,
    DisconnectedGraph,
    ImproperLabeling,
    NoRealRoot,
    NotAnHEdge,
    NotATree,
    ParseError,
    SizeLimit,
    ValidationError,
    VertexNotInGraph,
    ZeroPolynomial,
)
from .graphs import (
    AutomorphismGroup,
    Edge,
    PatternGraph,
    automorphisms,
    bow_tie_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    edge_assignment,
    is_proper_labeling,
    parse_graph,
    path_graph,
    proper_labelings,
    star_graph,
)
from .oracle import (
    SearchConfig,
    oracle_dcrit_estimate,
    oracle_find_transversal,
    oracle_search_construction,
)
from .polynomials import (
    AlgebraicNumber,
    RatPoly,
    largest_matching_root_squared,
    largest_real_root,
    matching_even_part,
    matching_polynomial,
    matching_weight_sums,
    multivariate_matching_eval,
    poly_from_strings,
    poly_to_strings,
    positive_on_unit_interval,
    square_free_part,
    sturm_chain,
)
from .stars import (
    MonotonePathTree,
    StarBound,
    monotone_path_tree,
    star_lower_bound,
    star_necessary_condition,
    tree_shape_key,
    verify_bt1,
)
from .tree_decision import (
    CriticalDensity,
    ReductionStep,
    TreeDecision,
    critical_scaling,
    dcrit_tree,
    decide_tree,
    decide_tree_equivalence,
)
from .verdict import Verdict

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
