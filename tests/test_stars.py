"""Monotone-path trees, star-decomposition bounds, and the bow-tie case."""

from fractions import Fraction as F

import pytest

from critdens import stars
from critdens.errors import ImproperLabeling, SizeLimit, ValidationError
from critdens.graphs import (
    bow_tie_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from critdens.stars import (
    bow_tie_reconstruction,
    monotone_path_tree,
    star_decomposition_cannot_match_bowtie,
    star_lower_bound,
    star_necessary_condition,
    tree_shape_key,
    verify_bt1,
)
from critdens.verdict import Verdict


GOLDEN_20 = F(61803398874989484820, 10**20)


# -- monotone-path trees ----------------------------------------------------


def test_triangle_path_tree_is_path4():
    mpt = monotone_path_tree(complete_graph(3), (1, 2, 3))
    assert mpt.legend == {1: (1,), 2: (1, 2), 3: (1, 2, 3), 4: (1, 3)}
    assert set(mpt.tree.edges) == {(1, 2), (2, 3), (1, 4)}
    assert tree_shape_key(mpt.tree) == tree_shape_key(path_graph(4))


def test_path_tree_of_a_tree_is_the_tree():
    from critdens.graphs import proper_labelings

    for T in [path_graph(5), star_graph(6)]:
        for f in proper_labelings(T):
            mpt = monotone_path_tree(T, f)
            assert mpt.tree.n == T.n
            assert tree_shape_key(mpt.tree) == tree_shape_key(T)


def test_edge_origin_maps_back_to_pattern_edges():
    H = complete_graph(3)
    mpt = monotone_path_tree(H, (2, 3, 1))
    for (a, b), origin in mpt.edge_origin.items():
        pa, pb = mpt.legend[a], mpt.legend[b]
        assert pb[:-1] == pa
        assert origin == tuple(sorted((pb[-2], pb[-1])))
        assert origin in H.edges


def test_lifted_weights_follow_edge_origin():
    H = complete_graph(3)
    gamma = {(1, 2): F(7, 10), (1, 3): F(3, 5), (2, 3): F(1, 2)}
    mpt = monotone_path_tree(H, (1, 2, 3))
    lifted = {e: gamma[he] for e, he in mpt.edge_origin.items()}
    assert lifted == {(1, 2): F(7, 10), (2, 3): F(1, 2), (1, 4): F(3, 5)}


def test_improper_labelings_rejected():
    with pytest.raises(ImproperLabeling):
        monotone_path_tree(path_graph(3), (1, 3, 2))
    with pytest.raises(ImproperLabeling):
        monotone_path_tree(complete_graph(3), (1, 2, 2))


def test_path_tree_size_cap():
    with pytest.raises(SizeLimit):
        monotone_path_tree(complete_graph(18), tuple(range(1, 19)))


def test_shape_key_separates_and_unifies():
    assert tree_shape_key(path_graph(4)) != tree_shape_key(star_graph(4))
    from critdens.graphs import PatternGraph

    relabeled_p4 = PatternGraph(4, ((1, 3), (2, 4), (3, 4)))
    assert tree_shape_key(relabeled_p4) == tree_shape_key(path_graph(4))


# -- star lower bounds ------------------------------------------------------


def test_star_bound_on_trees_recovers_critical_density():
    assert star_lower_bound(path_graph(3)).density.exact == F(1, 2)
    assert star_lower_bound(star_graph(4)).density.exact == F(2, 3)


def test_star_bound_triangle_hits_golden_ratio():
    bound = star_lower_bound(complete_graph(3), tol=F(1, 10**12))
    lo, hi = bound.density.interval(F(1, 10**12))
    assert lo <= GOLDEN_20 <= hi
    assert bound.best_labeling == (1, 2, 3)
    assert bound.labelings_examined == 6
    assert not bound.heuristic
    assert len(bound.shape_table) == 1
    (example, count, dc), = bound.shape_table.values()
    assert count == 6 and example == (1, 2, 3)


def test_star_bound_labeling_cap_marks_heuristic(monkeypatch):
    monkeypatch.setattr(stars, "LABELING_CAP", 5)
    bound = star_lower_bound(complete_graph(4))
    assert bound.heuristic
    assert bound.labelings_examined == 5


def test_star_bound_below_matching_root_on_cycles():
    from critdens.polynomials import largest_matching_root_squared

    for H in [cycle_graph(4), cycle_graph(5)]:
        bound = star_lower_bound(H)
        upper = largest_matching_root_squared(H)
        assert bound.density.s_star.compare(upper) <= 0


# -- necessary condition and complete bipartite identity --------------------


def test_necessary_condition_direction():
    K3 = complete_graph(3)
    assert star_necessary_condition(K3, [F(3, 5)] * 3, (1, 2, 3)) == Verdict.FAILS
    assert star_necessary_condition(K3, [F(63, 100)] * 3, (1, 2, 3)) == Verdict.PASSES


def test_necessary_condition_heterogeneous():
    # with both lifted 1-edges at 17/20, the far edge flips at 3/17
    K3 = complete_graph(3)
    g = {(1, 2): F(17, 20), (1, 3): F(17, 20), (2, 3): F(1, 4)}
    assert star_necessary_condition(K3, g, (1, 2, 3)) == Verdict.PASSES
    g[(2, 3)] = F(1, 6)
    assert star_necessary_condition(K3, g, (1, 2, 3)) == Verdict.FAILS
    g[(2, 3)] = F(3, 17)
    assert star_necessary_condition(K3, g, (1, 2, 3)) == Verdict.FAILS


def test_necessary_condition_range_checks_pattern_edges():
    # (1, 3) lifts to the path-tree edge (1, 4); the error names the former
    K3 = complete_graph(3)
    g = {(1, 2): F(1, 2), (1, 3): F(3, 2), (2, 3): F(1, 2)}
    with pytest.raises(ValidationError, match=r"density 3/2 on edge \(1, 3\) above 1"):
        star_necessary_condition(K3, g, (1, 2, 3))
    with pytest.raises(ValidationError, match="below 0"):
        star_necessary_condition(K3, [F(-1, 2), F(1, 2), F(1, 2)], (1, 2, 3))


def test_verify_bt1_small_cases():
    assert verify_bt1(2, 2)
    assert verify_bt1(2, 3)
    assert verify_bt1(3, 3)
    assert verify_bt1(2, 5)


def test_verify_bt1_size_cap():
    with pytest.raises(SizeLimit):
        verify_bt1(5, 5)


# -- bow-tie -----------------------------------------------------------------


def test_bow_tie_reconstruction_is_extremal():
    B = bow_tie_reconstruction()
    assert B.pattern == bow_tie_graph()
    assert B.weights[0] == (F(1, 2), F(1, 2))
    assert B.weights[1:] == ((F(3, 10), F(7, 10)),) * 4
    dens = B.densities()
    for e in [(1, 2), (1, 3), (1, 4), (1, 5)]:
        assert dens[e] == F(17, 20)
    assert dens[(2, 3)] == dens[(4, 5)] == F(51, 100)
    assert B.find_transversal() is None


def test_no_star_decomposition_reaches_bow_tie_densities():
    assert star_decomposition_cannot_match_bowtie()
