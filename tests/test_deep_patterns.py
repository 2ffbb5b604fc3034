"""Patterns deeper than Python's recursion limit: the monotone-path tree,
the shape key, proper labelings and the transversal search walk them
with explicit stacks.  Each is checked against a recursive copy of its
earlier form on small graphs (same numbering, legend, shape string,
labeling order and transversal), then run on paths of 1,000 and 1,200
vertices, where the recursive forms raised RecursionError."""

import io
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from critdens.blowup import Transversal, blowup_without
from critdens.cli import run
from critdens.graphs import PatternGraph, path_graph, proper_labelings
from critdens.stars import monotone_path_tree, tree_shape_key


def _recursive_path_tree(H, f):
    """(legend, tree edges) by recursive depth-first extension, children
    in increasing position."""
    pos = {v: k for k, v in enumerate(f, start=1)}
    legend, edges = {1: (f[0],)}, []
    counter = [1]

    def expand(path, node):
        last = path[-1]
        for w in sorted(H.adjacency[last], key=pos.__getitem__):
            if pos[w] <= pos[last]:
                continue
            counter[0] += 1
            child = counter[0]
            legend[child] = path + (w,)
            edges.append((node, child))
            expand(path + (w,), child)

    expand((f[0],), 1)
    return legend, tuple(sorted(edges))


def _recursive_shape(adj, root, parent):
    return "(" + "".join(sorted(
        _recursive_shape(adj, c, root) for c in adj[root] if c != parent)) + ")"


def _recursive_shape_key(T):
    """AHU from the centres found by peeling leaves."""
    degree = {v: len(T.adjacency[v]) for v in T.vertices()}
    layer = [v for v in T.vertices() if degree[v] <= 1]
    remaining = T.n
    while remaining > 2:
        nxt = []
        for v in layer:
            degree[v] = 0
            for u in T.adjacency[v]:
                if degree[u] > 1:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        remaining -= len(layer)
        layer = nxt
    centers = layer if remaining else [1]
    return min(_recursive_shape(T.adjacency, c, 0) for c in centers)


def _recursive_labelings(H):
    def extend(prefix, used):
        if len(prefix) == H.n:
            yield tuple(prefix)
            return
        frontier = (sorted({u for v in prefix for u in H.adjacency[v]} - used)
                    if prefix else list(H.vertices()))
        for v in frontier:
            prefix.append(v)
            used.add(v)
            yield from extend(prefix, used)
            used.discard(v)
            prefix.pop()

    return extend([], set())


def _recursive_transversal(B):
    order = B.pattern.bfs_order(1)
    pos_of = {v: k for k, v in enumerate(order)}
    chosen = {}

    def backtrack(k):
        if k == len(order):
            return True
        v = order[k]
        earlier = [u for u in B.pattern.adjacency[v] if pos_of[u] < k]
        for s in range(len(B.weights[v - 1])):
            if all(B.has_cross_edge((v, s), (u, chosen[u])) for u in earlier):
                chosen[v] = s
                if backtrack(k + 1):
                    return True
                del chosen[v]
        return False

    return Transversal(dict(chosen)) if backtrack(0) else None


@st.composite
def connected_graphs(draw, max_vertices=6):
    """A connected graph: a random tree (each vertex joined to an earlier
    one) plus random extra edges."""
    n = draw(st.integers(1, max_vertices))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    edges |= {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
              if draw(st.integers(0, 3)) == 0}
    return PatternGraph(n, tuple(edges))


@settings(max_examples=150, deadline=None)
@given(connected_graphs(), st.data())
def test_walks_match_their_recursive_forms(H, data):
    labelings = list(proper_labelings(H))
    assert labelings == list(_recursive_labelings(H))
    for f in data.draw(st.lists(st.sampled_from(labelings), min_size=1, max_size=3)):
        mpt = monotone_path_tree(H, f)
        legend, edges = _recursive_path_tree(H, f)
        assert (mpt.legend, mpt.tree.edges) == (legend, edges)
        assert mpt.tree.n == len(legend)
        assert tree_shape_key(mpt.tree) == _recursive_shape_key(mpt.tree)
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=H.n, max_size=H.n))
    pairs = [((i, a), (j, b)) for i, j in H.edges
             for a in range(sizes[i - 1]) for b in range(sizes[j - 1])]
    missing = data.draw(st.sets(st.sampled_from(pairs))) if pairs else ()
    B = blowup_without(H, [[F(1, k)] * k for k in sizes], missing)
    assert B.find_transversal() == _recursive_transversal(B)


@st.composite
def labelled_trees(draw, max_vertices=40):
    """A random tree (each vertex joined to an earlier one) under a
    shuffled labelling, so neither vertex 1 nor label order is special."""
    n = draw(st.integers(1, max_vertices))
    label = draw(st.permutations(range(1, n + 1)))
    return PatternGraph(n, tuple((label[draw(st.integers(0, v - 1))], label[v])
                                 for v in range(1, n)))


@settings(max_examples=300, deadline=None)
@given(labelled_trees())
@example(PatternGraph(1, ()))
@example(PatternGraph(2, ((1, 2),)))
@example(PatternGraph(4, ((1, 3), (2, 3), (2, 4))))   # P4 relabelled: two centres
def test_shape_key_matches_leaf_peeling(T):
    assert tree_shape_key(T) == _recursive_shape_key(T)


_P1200, _F1200 = path_graph(1200), tuple(range(1, 1201))

DEEP_CALLS = {
    "proper_labelings": (lambda: next(proper_labelings(_P1200)), _F1200),
    "monotone_path_tree": (
        lambda: (lambda t: (t.tree.edges, t.legend[1200]))(
            monotone_path_tree(_P1200, _F1200)),
        (_P1200.edges, _F1200)),
    # rooted at either centre, a path of 1,000 vertices is a root with
    # paths of 500 and 499 vertices below it, the longer one first
    "tree_shape_key": (lambda: tree_shape_key(path_graph(1000)),
                       "(" + "(" * 500 + ")" * 500 + "(" * 499 + ")" * 499 + ")"),
    "find_transversal": (lambda: blowup_without(_P1200, [[F(1)]] * 1200).find_transversal(),
                         Transversal(dict.fromkeys(_F1200, 0))),
}


@pytest.mark.parametrize("call, want", DEEP_CALLS.values(), ids=DEEP_CALLS.keys())
def test_walks_run_past_the_recursion_limit(call, want):
    assert call() == want


def test_star_check_runs_on_a_path_past_the_recursion_limit(tmp_path):
    graph = tmp_path / "p1000.g"
    graph.write_text(path_graph(1000).to_text() + "\n")
    labeling = ",".join(map(str, range(1, 1001)))
    code = run(["star-check", str(graph), "--labeling", labeling,
                "--densities", "0.5"], out=io.StringIO())
    assert code in (0, 1)
