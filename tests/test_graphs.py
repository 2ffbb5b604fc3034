"""Pattern graph parsing, constructors, and labeling enumeration."""

import random
from collections import deque
from fractions import Fraction as F

import pytest

from critdens.errors import (
    DisconnectedGraph,
    ParseError,
    ValidationError,
    VertexNotInGraph,
)
from critdens.graphs import (
    PatternGraph,
    automorphisms,
    bow_tie_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    is_proper_labeling,
    parse_graph,
    path_graph,
    proper_labelings,
    rational,
    star_graph,
)


def test_parse_round_trip():
    H = parse_graph("3; 1-2 2-3")
    assert H.n == 3
    assert H.edges == ((1, 2), (2, 3))
    assert parse_graph(H.to_text()) == H


def test_parse_normalizes_edge_order():
    H = parse_graph("4; 3-1 4-2 2-1")
    assert H.edges == ((1, 2), (1, 3), (2, 4))


def test_parse_multiline():
    assert parse_graph("4;\n1-2 2-3\n3-4\n") == path_graph(4)


@pytest.mark.parametrize("text, fragment", [
    ("", "vertex count"),
    ("x; 1-2", "vertex count"),
    ("3 1-2", "missing ';'"),
    ("3; 1-2 2", "edge"),
    ("3; 1-2 2-x", "edge"),
])
def test_parse_syntax_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("text, fragment", [
    ("3; 1-4", "range"),
    ("3; 0-2", "range"),
    ("3; 2-2", "loop"),
    ("3; 1-2 2-1", "duplicate"),
    ("0;", ">= 1"),
])
def test_parse_content_errors(text, fragment):
    with pytest.raises(ValidationError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as err:
        parse_graph("4;\n1-2\n2-x\n")
    assert "line 3" in str(err.value)


def test_constructors():
    assert path_graph(4).edges == ((1, 2), (2, 3), (3, 4))
    assert cycle_graph(4).edges == ((1, 2), (1, 4), (2, 3), (3, 4))
    assert star_graph(4).edges == ((1, 2), (1, 3), (1, 4))
    assert complete_graph(3).edges == ((1, 2), (1, 3), (2, 3))
    assert complete_bipartite(2, 2).edges == ((1, 3), (1, 4), (2, 3), (2, 4))
    assert bow_tie_graph().edges == (
        (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (4, 5))


def test_degrees_and_neighbors():
    H = bow_tie_graph()
    assert H.degree(1) == 4
    assert H.degree(2) == 2
    assert H.max_degree() == 4
    assert H.neighbors(2) == (1, 3)
    assert H.has_edge(4, 5) and H.has_edge(5, 4)
    assert not H.has_edge(2, 4)
    with pytest.raises(VertexNotInGraph):
        H.degree(6)


def test_integer_like_vertex_labels():
    sympy = pytest.importorskip("sympy")
    H = path_graph(3)
    one, two = sympy.Integer(1), sympy.Integer(2)
    assert H.has_edge(one, two) and not H.has_edge(one, sympy.Integer(3))
    assert H.neighbors(two) == (1, 3)
    assert H.bfs_order(two) == [2, 1, 3]
    assert all(type(v) is int for v in H.bfs_order(two))
    with pytest.raises(VertexNotInGraph, match="not in 1..3"):
        H.has_edge(one, sympy.Integer(4))
    with pytest.raises(VertexNotInGraph, match="is not an integer"):
        H.has_edge(1.5, 2)
    with pytest.raises(VertexNotInGraph, match="is not an integer"):
        H.degree("1")


def test_tree_and_connectivity_predicates():
    assert path_graph(5).is_tree()
    assert star_graph(6).is_tree()
    assert not cycle_graph(4).is_tree()
    assert not PatternGraph(4, ((1, 2), (3, 4))).is_tree()
    assert cycle_graph(4).is_connected()
    assert not PatternGraph(3, ((1, 2),)).is_connected()
    assert PatternGraph(1, ()).is_connected()


def test_integer_like_images_and_vertex_counts():
    sympy = pytest.importorskip("sympy")
    one, two, four = sympy.Integer(1), sympy.Integer(2), sympy.Integer(4)
    assert path_graph(3).has_edge(one, two)
    assert not path_graph(3).has_edge(one, sympy.Integer(3))
    with pytest.raises(VertexNotInGraph, match="not in 1..3"):
        path_graph(3).has_edge(one, four)
    with pytest.raises(VertexNotInGraph, match="is not an integer"):
        path_graph(3).has_edge(1, 2.0)
    with pytest.raises(VertexNotInGraph, match="not in 1..3"):   # no edge reaches it
        PatternGraph(3, ()).neighbors(four)
    H = PatternGraph(sympy.Integer(3), ((1, 2),))
    assert type(H.n) is int and H == PatternGraph(3, ((1, 2),))
    for n in (2.5, 2.0, "2"):
        with pytest.raises(ValidationError, match="vertex count .* is not an integer"):
            PatternGraph(n, ((1, 2),))


def test_proper_labelings_triangle():
    assert sorted(proper_labelings(complete_graph(3))) == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]


def test_proper_labelings_path():
    # each prefix of the ordering must induce a connected subgraph
    assert sorted(proper_labelings(path_graph(3))) == [
        (1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1)]


def test_proper_labelings_star_count():
    # start at the center (3! tails) or at a leaf forced through it
    labelings = list(proper_labelings(star_graph(4)))
    assert len(labelings) == 12
    assert all(is_proper_labeling(star_graph(4), f) for f in labelings)


def test_proper_labelings_match_brute_force():
    from itertools import permutations

    rng = random.Random(411)
    for _ in range(40):
        n = rng.randint(2, 6)
        edges = {(i + 1, rng.randint(1, i)) for i in range(1, n)}
        T = PatternGraph(n, tuple(sorted((min(e), max(e)) for e in edges)))
        expected = [
            f for f in permutations(T.vertices())
            if all(any(T.has_edge(f[j], f[k]) for j in range(k))
                   for k in range(1, n))
        ]
        assert list(proper_labelings(T)) == expected
        assert all(is_proper_labeling(T, f) for f in expected)


def test_proper_labelings_need_connectivity():
    with pytest.raises(DisconnectedGraph):
        next(proper_labelings(PatternGraph(3, ((1, 2),))))


def _elements(group, n):
    """Every element of group, t_1∘...∘t_m over its chain, sorted."""
    out = [tuple(range(1, n + 1))]
    for _, transversal in reversed(group.chain):
        out = [tuple([t[x - 1] for x in g]) for t in transversal.values() for g in out]
    return sorted(out)


def test_automorphisms_take_colours_by_equality():
    """Colours need only compare with ==: mixed types and unhashable
    values work, and a wrong count is a ValidationError."""
    P3 = path_graph(3)
    assert (_elements(automorphisms(P3), 3) == _elements(automorphisms(P3, [1, "a", 1]), 3)
            == [(1, 2, 3), (3, 2, 1)])
    assert _elements(automorphisms(P3, [1, "a", "b"]), 3) == [(1, 2, 3)]
    assert _elements(automorphisms(P3, [[0], [1], [0]]), 3) == [(1, 2, 3), (3, 2, 1)]
    with pytest.raises(ValidationError, match="expected 3 colours, got 2"):
        automorphisms(P3, [1, 1])


def test_automorphisms_hold_a_large_group_by_its_chain():
    """S_13's 12! automorphisms and K_12's 12! come as 11 generators and
    a chain of transversals of 12, 11, ..., 2 elements, never listed."""
    for H in (star_graph(13), complete_graph(12)):
        group = automorphisms(H)
        assert len(group.generators) == 11
        assert [len(t) for _, t in group.chain] == list(range(12, 1, -1))
        for b, transversal in group.chain:
            assert all(t[b - 1] == w for w, t in transversal.items())


def test_automorphisms_keep_edge_colours():
    """An edge colouring keeps only the automorphisms that map each edge
    to one of its colour; a wrong count is a ValidationError."""
    H = bow_tie_graph()   # edges 1-2 1-3 1-4 1-5 2-3 4-5
    assert len(_elements(automorphisms(H), 5)) == 8
    assert len(_elements(automorphisms(H, edge_colours=[0, 0, 0, 0, 1, 1]), 5)) == 8
    assert _elements(automorphisms(H, edge_colours=[0, 0, 0, 0, 1, 2]), 5) == [
        (1, 2, 3, 4, 5), (1, 2, 3, 5, 4), (1, 3, 2, 4, 5), (1, 3, 2, 5, 4)]
    assert _elements(automorphisms(H, edge_colours=[0, 1, 0, 0, 0, 0]), 5) == [
        (1, 2, 3, 4, 5), (1, 2, 3, 5, 4)]
    with pytest.raises(ValidationError, match="expected 6 edge colours, got 2"):
        automorphisms(H, edge_colours=[1, 1])


def test_rational_returns_a_fraction_as_it_is():
    x = F(6, 7)
    assert rational(x) is x
    assert rational("6/7") == x
    with pytest.raises(ValidationError, match="floor 'nan' on edge"):
        rational("nan", "floor", "on edge")


def test_is_proper_labeling_rejects_non_bijection():
    assert not is_proper_labeling(path_graph(3), (1, 2, 2))
    assert not is_proper_labeling(path_graph(3), (1, 2))
    assert not is_proper_labeling(path_graph(3), (1, 3, 2))
    assert is_proper_labeling(path_graph(3), (2, 1, 3))


def _deque_bfs(H, root):
    """root's component in deque BFS order, and each vertex's parent: the
    neighbour that first reached it (0 for the root)."""
    order, parent = [], {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        order.append(v)
        for u in H.adjacency[v]:
            if u not in parent:
                parent[u] = v
                queue.append(u)
    return order, parent


def _deque_bfs_order(H, start):
    """BFS from start, then from each unreached vertex in label order."""
    order = []
    for root in [start, *H.vertices()]:
        if root not in order:
            order += _deque_bfs(H, root)[0]
    return order


def test_bfs_order_matches_a_deque_bfs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graph_and_start(draw):
        n = draw(st.integers(1, 8))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        edges = tuple(e for e in pairs if draw(st.booleans()))
        return PatternGraph(n, edges), draw(st.integers(1, n))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(graph_and_start())
    @hypothesis.example((PatternGraph(5, ((1, 2), (4, 5))), 4))
    def check(case):
        H, start = case
        assert H.bfs_order(start) == _deque_bfs_order(H, start)
        assert H.bfs_tree(start) == _deque_bfs(H, start)

    check()
