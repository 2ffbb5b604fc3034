"""Leaf-reduction decision procedure and critical tree densities."""

import random
from fractions import Fraction as F

import pytest

from critdens.errors import AlreadyEnsured, NotATree, ValidationError
from critdens.graphs import (
    PatternGraph,
    canonical_edge,
    complete_graph,
    path_graph,
    star_graph,
)
from critdens.tree_decision import (
    CriticalDensity,
    critical_scaling,
    dcrit_tree,
    decide_tree,
    decide_tree_equivalence,
    edge_assignment,
)


def _random_tree(rng, n):
    edges = tuple(sorted((rng.randint(1, i), i + 1) for i in range(1, n)))
    return PatternGraph(n, edges)


def _random_densities(rng, T, den=20):
    return {e: F(rng.randint(0, den), den) for e in T.edges}


# -- edge assignment -------------------------------------------------------


def test_edge_assignment_positional_and_keyed():
    T = path_graph(3)
    byl = edge_assignment(T, [F(1, 2), F(1, 3)])
    byd = edge_assignment(T, {(2, 3): F(1, 3), (1, 2): F(1, 2)})
    assert byl == byd == {(1, 2): F(1, 2), (2, 3): F(1, 3)}
    # reversed endpoints normalize
    assert edge_assignment(T, {(2, 1): F(1, 2), (3, 2): F(1, 3)}) == byl


def test_edge_assignment_errors():
    T = path_graph(3)
    with pytest.raises(ValidationError):
        edge_assignment(T, [F(1, 2)])
    with pytest.raises(ValidationError):
        edge_assignment(T, {(1, 3): F(1, 2), (1, 2): F(1, 2)})
    with pytest.raises(ValidationError):
        edge_assignment(T, [F(1, 2), F(3, 2)], low=F(0), high=F(1))
    with pytest.raises(ValidationError):
        edge_assignment(T, [F(-1, 2), F(1, 2)], low=F(0), high=F(1))
    # one edge named twice, in either orientation, is not "last one wins"
    with pytest.raises(ValidationError, match=r"edge \(1, 2\) given twice"):
        edge_assignment(T, {(1, 2): F(1, 2), (2, 1): F(9, 10), (2, 3): F(1, 2)})


# -- worked reductions -----------------------------------------------------


def test_path3_at_one_half_not_ensured():
    d = decide_tree(path_graph(3), [F(1, 2), F(1, 2)])
    assert d.verdict == "NotEnsured"
    assert not d.ensured
    assert d.violating_edge == (2, 3)
    assert len(d.reduction_trace) == 1
    step = d.reduction_trace[0]
    assert (step.leaf, step.neighbor) == (1, 2)
    assert step.updated == {(2, 3): F(1)}


def test_path3_just_above_one_half_ensured():
    d = decide_tree(path_graph(3), [F(51, 100), F(51, 100)])
    assert d.ensured
    assert d.violating_edge is None
    assert d.reduction_trace[0].updated == {(2, 3): F(49, 51)}


def test_density_one_edges_never_block():
    d = decide_tree(path_graph(4), [F(1), F(1), F(1)])
    assert d.ensured


def test_zero_density_fails_before_any_reduction():
    d = decide_tree(star_graph(4), {(1, 2): F(0), (1, 3): F(9, 10), (1, 4): F(9, 10)})
    assert not d.ensured
    assert d.violating_edge == (1, 2)
    assert d.reduction_trace == ()


def test_two_vertex_base_case():
    assert decide_tree(path_graph(2), [F(1, 10)]).ensured
    d = decide_tree(path_graph(2), [F(0)])
    assert not d.ensured and d.violating_edge == (1, 2)


def test_single_vertex_is_always_ensured():
    assert decide_tree(PatternGraph(1, ()), []).ensured


def test_star_critical_boundary_is_open():
    # d_crit(S_4) = 2/3: exactly critical densities do not ensure
    assert not decide_tree(star_graph(4), [F(2, 3)] * 3).ensured
    assert decide_tree(star_graph(4), [F(2, 3) + F(1, 10**9)] * 3).ensured


def test_decide_tree_rejects_non_trees():
    with pytest.raises(NotATree):
        decide_tree(complete_graph(3), [F(1, 2)] * 3)


def test_leaf_order_does_not_change_verdict():
    rng = random.Random(20260815)
    for _ in range(200):
        T = _random_tree(rng, rng.randint(2, 9))
        gamma = _random_densities(rng, T)
        base = decide_tree(T, gamma).verdict

        def shuffled(leaves, rng=rng):
            return rng.choice(sorted(leaves))

        assert decide_tree(T, gamma, pick_leaf=shuffled).verdict == base


@pytest.mark.parametrize("picked", [2, 9, 0, None, "1", 1.5])
def test_picker_returning_a_non_leaf_is_rejected(picked):
    """A pick_leaf hook that returns a non-leaf or a non-vertex raises
    ValidationError naming what it returned."""
    with pytest.raises(ValidationError, match=rf"pick_leaf returned {picked!r}, not "
                       r"one of the leaves \[1, 3\]"):
        decide_tree(path_graph(3), [F(9, 10)] * 2, pick_leaf=lambda leaves: picked)


def test_reduction_agrees_with_matching_positivity():
    rng = random.Random(777)
    for _ in range(150):
        T = _random_tree(rng, rng.randint(2, 8))
        assert decide_tree_equivalence(T, _random_densities(rng, T))


# -- single reduction steps ------------------------------------------------


def test_leaf_reduction_step_rescales_neighbor_edges():
    d = decide_tree(path_graph(3), {(1, 2): F(1, 2), (2, 3): F(2, 3)})
    assert d.ensured
    step, = d.reduction_trace
    assert (step.leaf, step.neighbor, step.updated) == (1, 2, {(2, 3): F(2, 3)})


def _reference_decision(T, gamma, pick_leaf=None):
    """Reference reduction: every step re-sorts the leaves and rescans
    every ratio.  Returns the verdict, the violating edge and the trace
    as (leaf, neighbor, updated) triples."""
    adj = {v: set(T.adjacency[v]) for v in T.vertices()}
    r = {e: 1 - g for e, g in gamma.items()}
    trace = []
    while True:
        violating = next((e for e in sorted(r) if r[e] >= 1), None)
        if violating is not None:
            return "NotEnsured", violating, trace
        if len(adj) <= 2:
            return "Ensured", None, trace
        leaves = sorted(v for v in adj if len(adj[v]) == 1)
        v = leaves[0] if pick_leaf is None else pick_leaf(leaves)
        (u,) = adj.pop(v)
        adj[u].discard(v)
        denom = 1 - r.pop(canonical_edge(u, v))
        updated = {}
        for w in adj[u]:
            e = canonical_edge(u, w)
            r[e] = updated[e] = r[e] / denom
        trace.append((v, u, updated))


def test_incremental_reduction_matches_full_rescan():
    """decide_tree keeps its leaf list between steps and checks only the
    rescaled ratios; verdict, violating edge and every trace step equal
    the full re-sort and rescan."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    densities = st.one_of(st.sampled_from([F(0), F(1)]),
                          st.integers(0, 40).map(lambda k: F(k, 40)),
                          st.integers(0, 1000).map(lambda k: F(k, 1000)))

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 60))
        label = draw(st.permutations(range(1, n + 1)))
        T = PatternGraph(n, tuple(
            (label[draw(st.integers(0, v - 1))], label[v]) for v in range(1, n)))
        return T, draw(st.fixed_dictionaries({e: densities for e in T.edges}))

    def picker(kind, seed):
        if kind == "lowest":
            return None
        if kind == "highest":
            return lambda leaves: leaves[-1]
        rng = random.Random(seed)
        return lambda leaves: rng.choice(leaves)

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(cases(), st.sampled_from(["lowest", "highest", "random"]),
                      st.integers(0, 2**32))
    @hypothesis.example((PatternGraph(1, ()), {}), "lowest", 0)
    @hypothesis.example((path_graph(2), {(1, 2): F(1, 40)}), "lowest", 0)
    @hypothesis.example((path_graph(2), {(1, 2): F(0)}), "highest", 0)
    # a violation before the first step, on an edge other than the first
    @hypothesis.example(
        (star_graph(4), {(1, 2): F(9, 10), (1, 3): F(0), (1, 4): F(0)}), "random", 7)
    def check(case, kind, seed):
        T, gamma = case
        d = decide_tree(T, gamma, pick_leaf=picker(kind, seed))
        got = (d.verdict, d.violating_edge,
               [(s.leaf, s.neighbor, s.updated) for s in d.reduction_trace])
        assert got == _reference_decision(T, gamma, picker(kind, seed))

    check()


# -- critical scaling and critical densities -------------------------------


def test_critical_scaling_path3():
    lo, hi = critical_scaling(path_graph(3), [F(1), F(1)], tol=F(1, 2**20))
    assert hi - lo <= F(1, 2**20)
    assert lo < F(1, 2) <= hi


def test_critical_scaling_already_ensured():
    with pytest.raises(AlreadyEnsured):
        critical_scaling(path_graph(3), [F(1, 4), F(1, 4)])


def test_dcrit_star_exact():
    for n in range(3, 9):
        assert dcrit_tree(star_graph(n)).exact == 1 - F(1, n - 1)


def test_dcrit_small_paths():
    assert dcrit_tree(path_graph(2)).exact == 0
    assert dcrit_tree(path_graph(3)).exact == F(1, 2)
    dc = dcrit_tree(path_graph(4), tol=F(1, 10**12))
    lo, hi = dc.interval(F(1, 10**12))
    golden = F(61803398874989484820, 10**20)
    assert lo <= golden <= hi
    assert hi - lo <= F(1, 10**12)


def test_dcrit_requires_tree():
    with pytest.raises(NotATree):
        dcrit_tree(complete_graph(3))


def test_critical_density_comparisons_are_exact():
    dc = dcrit_tree(path_graph(3))
    assert dc.compare_density(F(1, 2)) == 0
    assert dc.compare_density(F(1, 2) - F(1, 10**30)) > 0
    assert dc.compare_density(F(1, 2) + F(1, 10**30)) < 0
    assert CriticalDensity.zero().exact == 0


def test_decision_matches_dcrit_on_homogeneous_densities():
    rng = random.Random(424242)
    for _ in range(80):
        T = _random_tree(rng, rng.randint(2, 7))
        dc = dcrit_tree(T, tol=F(1, 10**15))
        d = F(rng.randint(0, 100), 100)
        # d ensures T iff d > d_crit
        assert decide_tree(T, [d] * len(T.edges)).ensured == (dc.compare_density(d) < 0)
