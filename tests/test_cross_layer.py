"""The layers played against each other on hypothesis-drawn small
patterns and grid densities (multiples of 1/q, q <= 8): a gluing
certificate of sufficiency leaves the grid oracle nothing to find, a
labeling that fails the star condition yields a construction that the
unpruned transversal search confirms, and that construction matches a
reference copy of its cross-pair rule.  Many drawn cases share a
pattern, so the oracle's searches also reuse kept cover listings."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, event, example, given, settings, strategies as st

from critdens.blowup import WeightedBlowupGraph, star_decomposition_construct
from critdens.bounds import glue, glue_sufficiency
from critdens.graphs import (
    PatternGraph,
    canonical_edge,
    complete_graph,
    cycle_graph,
    path_graph,
    proper_labelings,
    star_graph,
)
from critdens.oracle import (
    SearchConfig,
    oracle_find_transversal,
    oracle_search_construction,
)
from critdens.stars import star_necessary_condition
from critdens.verdict import Verdict

PARTS = [path_graph(2), path_graph(3), complete_graph(3)]


@st.composite
def glued_densities(draw):
    """Two small parts glued at a vertex, a split of the glue cluster,
    and grid densities on the glued pattern, mostly high enough for the
    gluing certificate to have a chance."""
    H1, H2 = draw(st.sampled_from(PARTS)), draw(st.sampled_from(PARTS))
    u1, u2 = draw(st.integers(1, H1.n)), draw(st.integers(1, H2.n))
    m1 = draw(st.integers(1, 7))
    m2 = draw(st.integers(1, 8 - m1))
    q = draw(st.integers(2, 8))
    G, _ = glue(H1, H2, u1, u2)
    gamma = [F(draw(st.integers(q // 2, q)), q) for _ in G.edges]
    return H1, H2, u1, u2, F(m1, 8), F(m2, 8), q, gamma


@settings(max_examples=300, deadline=None)
@given(glued_densities())
@example((complete_graph(3), complete_graph(3), 1, 1, F(1, 2), F(1, 2), 8,
          [F(7, 8)] * 6))
@example((path_graph(3), complete_graph(3), 2, 1, F(1, 2), F(1, 2), 4,
          [F(1), F(3, 4), F(1), F(1), F(3, 4)]))
def test_gluing_sufficiency_leaves_the_grid_oracle_nothing(case):
    """Sufficient densities force a transversal in every blow-up, so no
    grid configuration meets them and no labeling fails the star
    condition."""
    H1, H2, u1, u2, m1, m2, q, gamma = case
    G, _ = glue(H1, H2, u1, u2)
    verdict = glue_sufficiency(H1, H2, u1, u2, m1, m2, gamma)
    event(str(verdict))
    if verdict is not Verdict.SUFFICIENT:
        return
    cfg = SearchConfig(cluster_size_bounds=[min(2, G.degree(v)) for v in G.vertices()],
                       weight_grid_denominator=q, density_floor=gamma)
    assert oracle_search_construction(G, cfg) is None
    assert all(star_necessary_condition(G, gamma, f) is Verdict.PASSES
               for f in proper_labelings(G))


@st.composite
def labeled_densities(draw):
    """A connected pattern on 2..6 vertices, one of its proper labelings
    and grid densities on its edges."""
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = tuple(e for e in pairs if draw(st.booleans()))
    assume(edges)
    H = PatternGraph(n, edges)
    assume(H.is_connected())
    f = draw(st.sampled_from(list(proper_labelings(H))))
    q = draw(st.integers(2, 8))
    gamma = [F(draw(st.integers(0, q)), q) for _ in H.edges]
    return H, f, gamma


@settings(max_examples=200, deadline=None)
@given(labeled_densities())
@example((complete_graph(3), (1, 2, 3), [F(1, 2)] * 3))
def test_failed_star_condition_yields_a_transversal_free_construction(case):
    """FailsThisLabeling certifies a construction: the star decomposition
    builds a blow-up meeting the densities with no transversal, by the
    unpruned search as well."""
    H, f, gamma = case
    verdict = star_necessary_condition(H, gamma, f)
    event(str(verdict))
    if verdict is not Verdict.FAILS:
        return
    B = star_decomposition_construct(H, f, gamma)
    assert B is not None
    assert oracle_find_transversal(B) is None
    dens = B.densities()
    assert all(dens[e] >= g for e, g in zip(H.edges, gamma))


def _reference_star_decomposition(H, f, gamma):
    """The star decomposition with its cross pairs listed one by one: the
    densities of every level k (the graph on f(1..k)) first, then, adding
    u = f(k) as the singleton {w_k}, w_k joins each earlier neighbour's
    older slots, and each neighbour's fresh slot joins every slot of its
    placed neighbours and of u except w_k."""
    if star_necessary_condition(H, gamma, f) is Verdict.PASSES:
        return None
    one, n = F(1), H.n
    level = [None] * (n + 1)
    level[n] = {e: F(g) for e, g in zip(H.edges, gamma)}
    for k in range(n, 1, -1):
        u = f[k - 1]
        level[k - 1] = {}
        for (i, j), g in level[k].items():
            if u in (i, j):
                continue
            divisor = one
            for a in (i, j):
                if a in H.adjacency[u]:
                    divisor *= level[k][canonical_edge(u, a)]
            r = one if divisor == 0 else min(one, (one - g) / divisor)
            level[k - 1][(i, j)] = one - r
    weights = {f[0]: [one]}
    cross = set()
    for k in range(2, n + 1):
        u, placed = f[k - 1], set(f[: k - 1])
        weights[u] = [one]
        old = {v: len(weights[v]) for v in H.adjacency[u] if v in placed}
        for v in old:
            g = level[k][canonical_edge(u, v)]
            weights[v] = [w * g for w in weights[v]] + [one - g]
        for v, count in old.items():
            cross |= {((u, 0), (v, a)) for a in range(count)}
            for c in H.adjacency[v]:
                if c in placed or c == u:
                    cross |= {((v, count), (c, b)) for b in range(len(weights[c]))
                              if (c, b) != (u, 0)}
    # slots of weight 0 left out, the others renumbered in order
    kept = {(v, a): len([w for w in weights[v][:a] if w]) for v in weights
            for a, w in enumerate(weights[v]) if w}
    cross = {((i, kept[i, a]), (j, kept[j, b])) for (i, a), (j, b) in cross
             if (i, a) in kept and (j, b) in kept}
    return WeightedBlowupGraph(H, [[w for w in weights[v] if w] for v in H.vertices()], cross)


@settings(max_examples=300, deadline=None)
@given(labeled_densities())
@example((path_graph(3), (1, 2, 3), [F(0), F(1, 2)]))
@example((path_graph(4), (1, 2, 3, 4), [F(1), F(1, 2), F(1, 2)]))
@example((star_graph(4), (1, 2, 3, 4), [F(1), F(0), F(1, 3)]))
@example((cycle_graph(4), (1, 2, 3, 4), [F(1), F(1, 2), F(0), F(3, 4)]))
def test_star_decomposition_matches_the_reference_cross_pairs(case):
    """One missing pair per earlier neighbour and step gives the same
    weights and the same cross pairs as the rule listed pair by pair."""
    H, f, gamma = case
    B = star_decomposition_construct(H, f, gamma)
    ref = _reference_star_decomposition(H, f, gamma)
    event("refused" if ref is None else "built")
    if ref is None:
        assert B is None
        return
    assert B.weights == ref.weights
    assert B.cross_edges == ref.cross_edges
