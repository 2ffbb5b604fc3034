"""The star necessary condition, decided on the labeling's DAG, against
the leaf reduction on the built monotone-path tree with each tree edge's
density lifted through the legend; the exact sign test, the reduction at
ratio 1/s once per interned rooted id, and the shared float margin
pass (polynomials.margin_inertia) just above and just below 1/s, against
the path tree's spectrum compared with s; and
leaf_up_inertia's pivots against a reference, in Fractions and in
floats.  Patterns are connected with at most seven vertices; densities
are 0, 1 and multiples of 1/40.  The examples sit at homogeneous
densities equal to a rational tree critical density, where a rescaled
ratio reaches 1 exactly (a zero pivot), at the root or below it; so do
the explicit sign tests."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, example, given, settings, strategies as st

from critdens.graphs import (
    PatternGraph,
    canonical_edge,
    complete_bipartite,
    cycle_graph,
    proper_labelings,
    rooted_id,
    star_graph,
)
from critdens.polynomials import largest_matching_root_squared, leaf_up_inertia, margin_inertia
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
# a zero pivot at 2, below a ratio-0 edge to the root: still FailsThisLabeling
@example((PatternGraph(4, ((1, 2), (2, 3), (2, 4))), (1, 2, 3, 4),
          {(1, 2): F(1), (2, 3): F(1, 2), (2, 4): F(1, 2)}))
def test_dag_verdict_matches_leaf_reduction_on_the_path_tree(case):
    H, f, gamma = case
    verdict = star_necessary_condition(H, gamma, f)
    event(str(verdict))
    assert verdict is _tree_verdict(H, gamma, f)


# -- the star bound's sign test ----------------------------------------------


def _nodes(keys):
    return [[(c, 1) for c in key] for key in keys]


def _below(H, f, s):
    """Every pivot of T_f's reduction at ratio 1/s is positive, reduced
    once per interned rooted id as the star bound does."""
    ids = {}
    rid = rooted_id(H, f, ids)
    top, count = leaf_up_inertia(_nodes(ids), 1 / s)[rid]
    return count == 0 and top is not None


def _screened(H, f, s):
    """The star bound's float test: every pivot positive just above 1/s,
    which proves lambda(T_f)^2 < s."""
    ids = {}
    rid = rooted_id(H, f, ids)
    top, count = margin_inertia(_nodes(ids), s, 1)[rid]
    return count == 0 and top is not None


def _exceeds(H, f, s):
    """The tree bracket's lower test: a negative pivot just below 1/s,
    which proves lambda(T_f)^2 > s."""
    ids = {}
    rid = rooted_id(H, f, ids)
    return margin_inertia(_nodes(ids), s, -1)[rid][1] > 0


def _pattern_keys(H):
    ids = {}
    roots = {rooted_id(H, f, ids) for f in proper_labelings(H)}
    return list(ids), roots


def _spectrum_below(H, f, s):
    tree = monotone_path_tree(H, f).tree
    return largest_matching_root_squared(tree).compare_fraction(s) < 0


@settings(max_examples=300, deadline=None)
@given(labeled_patterns(), st.data())
def test_sign_test_matches_the_path_tree_spectrum(case, data):
    H, f, _ = case
    lam2 = largest_matching_root_squared(monotone_path_tree(H, f).tree)
    # a rational s anywhere, or an end of lambda^2's isolating interval
    near = [x for x in lam2.interval() if x > 0]
    anywhere = st.integers(1, 320).map(lambda k: F(k, 8))
    s = data.draw(st.one_of(anywhere, st.sampled_from(near)) if near else anywhere)
    below = _below(H, f, s)
    event(f"below {below}")
    assert below == (lam2.compare_fraction(s) < 0)
    # the float tests claim only what the exact comparison says
    assert below or not _screened(H, f, s)
    assert lam2.compare_fraction(s) > 0 or not _exceeds(H, f, s)


def _subtrees(H, f):
    """Each node's subtree of T_f, as a tree of its own."""
    mpt = monotone_path_tree(H, f)
    for path in mpt.legend.values():
        nodes = [u for u, p in mpt.legend.items() if p[:len(path)] == path]
        index = {u: k for k, u in enumerate(nodes, start=1)}
        yield PatternGraph(len(nodes), tuple((index[a], index[b]) for a, b in mpt.tree.edges
                                             if a in index and b in index))


@pytest.mark.parametrize("H, f", [
    (star_graph(4), (2, 1, 3, 4)),             # K_{1,2} below the root
    (star_graph(5), (2, 1, 3, 4, 5)),          # K_{1,3} below the root
    (cycle_graph(4), (1, 2, 3, 4)),
    (cycle_graph(5), (1, 2, 3, 4, 5)),
    (complete_bipartite(2, 2), (1, 3, 2, 4)),
    (complete_bipartite(2, 3), (1, 3, 2, 4, 5)),
    (complete_bipartite(3, 3), (1, 4, 2, 5, 3, 6)),
    (PatternGraph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (3, 4))), (1, 2, 3, 4)),
])
def test_sign_test_at_a_subtree_spectrum_is_a_zero_pivot(H, f):
    # at s = lambda^2 of a subtree with a rational lambda^2 (K_{1,k} has
    # k), that subtree's top pivot is exactly 0: not below
    exact = {largest_matching_root_squared(T).exact for T in _subtrees(H, f)} - {None, 0}
    assert exact
    for s in exact:
        assert not _below(H, f, s) and not _screened(H, f, s)
        assert not _spectrum_below(H, f, s)


# K_{1,k} at 1/k among them
@pytest.mark.parametrize("n, m", [(1, 1), (1, 3), (1, 5), (2, 2), (2, 3), (3, 3), (2, 4)])
def test_sign_test_on_complete_bipartite_at_n_plus_m_minus_1(n, m):
    K = complete_bipartite(n, m)
    for f in proper_labelings(K):
        assert not _below(K, f, F(n + m - 1)) and not _screened(K, f, F(n + m - 1))
        assert _below(K, f, F(n + m - 1) + F(1, 1000))
        assert _screened(K, f, F(n + m - 1) + F(1, 1000))
        assert not _exceeds(K, f, F(n + m - 1))
        assert _exceeds(K, f, F(n + m - 1) - F(1, 1000))
    # every root pivot is exactly 0 there, and every pivot below positive
    keys, roots = _pattern_keys(K)
    pivots = leaf_up_inertia(_nodes(keys), F(1, n + m - 1))
    assert all(pivots[rid] == (None, 0) for rid in roots)


@pytest.mark.parametrize("m", range(1, 61))
def test_margin_pass_at_a_star_spectrum_claims_neither_side(m):
    """K_{1,m} has lambda^2 = m, and at 1/m rounding alone puts the root
    pivot of the tree rooted at a leaf on either side of 0 (for m = 3 and
    5 among others): the margin keeps both float tests from a claim."""
    S = star_graph(m + 1)
    for f in ((1, *range(2, m + 2)), (2, 1, *range(3, m + 2))):
        assert not _screened(S, f, F(m)) and not _exceeds(S, f, F(m))
        assert _screened(S, f, F(m) * (1 + F(1, 10**6)))
        assert _exceeds(S, f, F(m) * (1 - F(1, 10**6)))


# -- the elimination's pivots ------------------------------------------------


def _reference_pivots(keys, r):
    """The reduction once per id, in r's number type: S(id) = r * the sum
    of F(c) over key(id), None if some F(c) is; F(id) = 1/(1 - S(id)),
    None unless S(id) < 1."""
    memo = []
    for key in keys:
        Fs = [memo[c][1] for c in key]
        S = None if None in Fs else r * sum(Fs, F(0))
        memo.append((S, None if S is None or S >= 1 else 1 / (1 - S)))
    return memo


@st.composite
def interned_keys(draw):
    """Keys as rooted_id interns them: each key a sorted tuple of
    earlier ids."""
    keys = []
    for i in range(draw(st.integers(1, 12))):
        children = st.lists(st.integers(0, i - 1), max_size=4) if i else st.just([])
        keys.append(tuple(sorted(draw(children))))
    return keys


@settings(max_examples=300, deadline=None)
@given(interned_keys(), st.one_of(st.sampled_from([F(1), F(1, 2), F(1, 3), F(1, 4)]),
                                  st.fractions(F(1, 100), F(3, 2), max_denominator=100)),
       st.sampled_from([F, float]))
# exact zero pivots at the roots
@example(_pattern_keys(complete_bipartite(2, 3))[0], F(1, 4), F)
@example(_pattern_keys(complete_bipartite(3, 3))[0], F(1, 5), F)
@example(_pattern_keys(star_graph(5))[0], F(1, 4), F)
@example(_pattern_keys(star_graph(5))[0], F(1, 4), float)
def test_leaf_up_inertia_matches_the_reference(keys, r, number):
    """The kernel in Fractions, and in floats bit for bit, wherever the
    reference runs: where every pivot below is positive, its own pivot
    and F; otherwise a count of at least 1."""
    r = number(r)
    for (Fid, count), (S, want) in zip(leaf_up_inertia(_nodes(keys), r),
                                       _reference_pivots(keys, r), strict=True):
        if S is None:
            assert count >= 1
            continue
        if S < 1:
            assert (Fid, count) == (want, 0)
        elif S == 1:
            event("zero pivot")
            assert (Fid, count) == (None, 0)
        else:
            assert (Fid, count) == (1 / (1 - S), 1)
