"""The star necessary condition, decided on the labeling's DAG, against
the leaf reduction on the built monotone-path tree with each tree edge's
density lifted through the legend.  Patterns are connected with at most
seven vertices; densities are 0, 1 and multiples of 1/40.  The examples
sit at homogeneous densities equal to a rational tree critical density,
where a rescaled ratio reaches 1 exactly (a zero pivot), at the root or
below it."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, example, given, settings, strategies as st

from critdens.graphs import (
    PatternGraph,
    canonical_edge,
    complete_bipartite,
    cycle_graph,
    star_graph,
)
from critdens.stars import monotone_path_tree, star_necessary_condition
from critdens.tree_decision import _decide_from_ratios
from critdens.verdict import Verdict


def _tree_verdict(H, gamma, f):
    mpt = monotone_path_tree(H, f)
    ratios = {(a, b): 1 - gamma[canonical_edge(*mpt.legend[b][-2:])]
              for a, b in mpt.tree.edges}
    return Verdict.PASSES if _decide_from_ratios(mpt.tree, ratios).ensured else Verdict.FAILS


@st.composite
def labeled_patterns(draw, max_vertices=7):
    """A connected pattern (a random tree plus random extra edges), a
    proper labeling drawn one frontier vertex at a time, and densities."""
    n = draw(st.integers(1, max_vertices))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    edges |= {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
              if draw(st.integers(0, 2)) == 0}
    H = PatternGraph(n, tuple(edges))
    f = [draw(st.integers(1, n))]
    while len(f) < n:
        frontier = sorted({w for v in f for w in H.adjacency[v]} - set(f))
        f.append(draw(st.sampled_from(frontier)))
    density = st.one_of(st.sampled_from([F(0), F(1)]),
                        st.integers(0, 40).map(lambda k: F(k, 40)))
    if draw(st.booleans()):
        gamma = dict.fromkeys(H.edges, draw(density))
    else:
        gamma = {e: draw(density) for e in H.edges}
    return H, tuple(f), gamma


def _homogeneous(H, f, d):
    return H, f, dict.fromkeys(H.edges, d)


@settings(max_examples=400, deadline=None)
@given(labeled_patterns())
# lambda^2 = 3 for the root's tree: the root sum is exactly 1
@example(_homogeneous(complete_bipartite(2, 2), (1, 3, 2, 4), F(2, 3)))
@example(_homogeneous(star_graph(4), (1, 2, 3, 4), F(2, 3)))
@example(_homogeneous(complete_bipartite(2, 3), (1, 3, 2, 4, 5), F(3, 4)))
# a subtree P_3 (lambda^2 = 2) below the root: a sum of exactly 1 there
@example(_homogeneous(complete_bipartite(2, 2), (1, 3, 2, 4), F(1, 2)))
@example(_homogeneous(cycle_graph(4), (1, 2, 3, 4), F(1, 2)))
def test_dag_verdict_matches_leaf_reduction_on_the_path_tree(case):
    H, f, gamma = case
    verdict = star_necessary_condition(H, gamma, f)
    event(str(verdict))
    assert verdict is _tree_verdict(H, gamma, f)
