"""Closed-form bounds, the triangle criterion, and vertex gluing."""

import math
from fractions import Fraction as F

import pytest

from critdens.bounds import (
    bow_tie_counterexample_check,
    certify_triangle,
    compute_bounds,
    default_certifier,
    glue,
    glue_sufficiency,
    sufficiency_by_positivity,
    triangle_decide,
)
from critdens.errors import BadSplit, DegenerateGraph, ValidationError
from critdens.graphs import (
    PatternGraph,
    bow_tie_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from critdens.verdict import Verdict


# -- triangle criterion ------------------------------------------------------


def test_triangle_homogeneous_flip():
    assert triangle_decide(F(4, 5), F(4, 5), F(4, 5)) == Verdict.ENSURED
    assert triangle_decide(F(62, 100), F(62, 100), F(62, 100)) == Verdict.ENSURED
    assert triangle_decide(F(61, 100), F(61, 100), F(61, 100)) == Verdict.NOT_ENSURED


def test_triangle_needs_all_three_rotations():
    assert triangle_decide(F(9, 10), F(9, 10), F(3, 10)) == Verdict.ENSURED
    # one rotation at exactly 1 is not strict
    assert triangle_decide(F(1, 2), F(1, 2), F(3, 4)) == Verdict.NOT_ENSURED
    assert triangle_decide(F(19, 20), F(19, 20), F(1, 20)) == Verdict.NOT_ENSURED


def test_triangle_extreme_values():
    assert triangle_decide(F(1), F(1), F(1)) == Verdict.ENSURED
    assert triangle_decide(F(1), F(1), F(0)) == Verdict.NOT_ENSURED
    assert triangle_decide(F(0), F(0), F(0)) == Verdict.NOT_ENSURED
    with pytest.raises(ValidationError):
        triangle_decide(F(11, 10), F(1, 2), F(1, 2))
    with pytest.raises(ValidationError):
        triangle_decide(F(-1, 10), F(1, 2), F(1, 2))


def test_certify_triangle_requires_3_cycle():
    assert certify_triangle(
        complete_graph(3),
        {(1, 2): F(4, 5), (1, 3): F(4, 5), (2, 3): F(4, 5)}) == Verdict.ENSURED
    with pytest.raises(ValidationError):
        certify_triangle(path_graph(3), {(1, 2): F(1, 2), (2, 3): F(1, 2)})


# -- positivity sufficiency --------------------------------------------------


def test_positivity_sufficient_for_high_densities():
    assert sufficiency_by_positivity(complete_graph(3), [F(4, 5)] * 3) == Verdict.SUFFICIENT
    assert sufficiency_by_positivity(cycle_graph(5), [F(9, 10)] * 5) == Verdict.SUFFICIENT


def test_positivity_unknown_when_polynomial_dips():
    gamma = {(1, 2): F(72, 100), (1, 3): F(72, 100), (2, 3): F(51, 100)}
    assert sufficiency_by_positivity(complete_graph(3), gamma) == Verdict.UNKNOWN


def test_positivity_matches_tree_decision_boundary():
    assert sufficiency_by_positivity(path_graph(3), [F(51, 100)] * 2) == Verdict.SUFFICIENT
    assert sufficiency_by_positivity(path_graph(3), [F(1, 2)] * 2) == Verdict.UNKNOWN


# -- bound report -------------------------------------------------------------


def test_bounds_on_triangle():
    b = compute_bounds(complete_graph(3))
    assert b.lower_delta == F(1, 2)
    assert b.upper_matching_root.exact == F(2, 3)
    assert b.upper_coarse == F(3, 4)
    assert abs(b.upper_lll - (1 - 1 / (math.e * 3))) < 1e-15
    lo, hi = b.lower_star.interval(F(1, 10**10))
    golden = F(61803398874989484820, 10**20)
    assert lo <= golden <= hi


def test_bounds_are_ordered_on_small_patterns():
    for H in [complete_graph(3), complete_graph(4), cycle_graph(4),
              cycle_graph(5), bow_tie_graph()]:
        b = compute_bounds(H)
        assert b.lower_star.compare_density(b.lower_delta) >= 0
        assert b.lower_star.s_star.compare(b.upper_matching_root.s_star) <= 0
        assert b.upper_matching_root.compare_density(b.upper_coarse) < 0
        assert float(b.upper_coarse) < b.upper_lll


def test_bounds_reject_degenerate_patterns():
    with pytest.raises(DegenerateGraph):
        compute_bounds(path_graph(2))
    with pytest.raises(DegenerateGraph):
        compute_bounds(PatternGraph(1, ()))


# -- gluing --------------------------------------------------------------------


def test_glue_shapes():
    G, relabel = glue(path_graph(2), path_graph(2), 2, 1)
    assert G == path_graph(3)
    assert relabel == {1: 2, 2: 3}
    B, relabel2 = glue(complete_graph(3), complete_graph(3), 1, 1)
    assert B == bow_tie_graph()
    assert relabel2 == {1: 1, 2: 4, 3: 5}


def test_glue_sufficiency_on_bow_tie():
    gamma = {(1, 2): F(86, 100), (1, 3): F(86, 100), (2, 3): F(52, 100),
             (1, 4): F(86, 100), (1, 5): F(86, 100), (4, 5): F(52, 100)}
    K3 = complete_graph(3)
    assert glue_sufficiency(K3, K3, 1, 1, F(1, 2), F(1, 2), gamma,
                            certify=certify_triangle) == Verdict.SUFFICIENT
    assert glue_sufficiency(K3, K3, 1, 1, F(1, 2), F(1, 2), gamma) == Verdict.SUFFICIENT
    # matching positivity alone cannot certify the scaled parts
    assert glue_sufficiency(K3, K3, 1, 1, F(1, 2), F(1, 2), gamma,
                            certify=sufficiency_by_positivity) == Verdict.UNKNOWN


def test_glue_sufficiency_tree_parts_use_reduction():
    gamma = {(1, 2): F(8, 10), (2, 3): F(6, 10)}
    P2 = path_graph(2)
    verdict = glue_sufficiency(P2, P2, 2, 1, F(1, 2), F(1, 2), gamma)
    # each part is one edge with r = 0.2 / 0.5 or 0.4 / 0.5, both < 1
    assert verdict == Verdict.SUFFICIENT


def test_glue_split_validation():
    gamma = {(1, 2): F(9, 10), (2, 3): F(9, 10)}
    P2 = path_graph(2)
    with pytest.raises(BadSplit):
        glue_sufficiency(P2, P2, 2, 1, F(0), F(1, 2), gamma)
    with pytest.raises(BadSplit):
        glue_sufficiency(P2, P2, 2, 1, F(3, 4), F(1, 2), gamma)


def test_glue_unknown_when_ratio_exceeds_share():
    # r = 0.6 on a glue edge cannot be covered by a half share
    gamma = {(1, 2): F(4, 10), (2, 3): F(9, 10)}
    P2 = path_graph(2)
    assert glue_sufficiency(P2, P2, 2, 1, F(1, 2), F(1, 2), gamma) == Verdict.UNKNOWN


def test_bow_tie_counterexample_check():
    assert bow_tie_counterexample_check()
    assert bow_tie_counterexample_check(eps=F(1, 500))
