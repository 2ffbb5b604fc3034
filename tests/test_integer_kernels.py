"""The integer kernels of the matching-root pipeline against independent
references: _integer_gcd and square_free_part against sympy's gcd and
sqf_part, up to a nonzero factor, matching_weight_sums against a plain
Fraction enumeration of matchings, the tree DP on node lists against the
subset DP, and the short-rational isolation certificate of the
float-guided root against the full count it stands in for."""

import math
from fractions import Fraction as F
from itertools import combinations
from unittest import mock

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from critdens import polynomials
from critdens.graphs import PatternGraph, canonical_edge, path_graph, rooted_nodes, star_graph
from critdens.polynomials import (
    RatPoly,
    _integer_coeffs,
    _integer_gcd,
    largest_matching_root_squared,
    matching_weight_sums,
    square_free_part,
)

_X = sympy.Symbol("x")

_rationals = st.fractions(-6, 6, max_denominator=7)


def _poly(*coeffs):
    """The sympy polynomial over QQ with these coefficients, lowest power first."""
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)] or [0], _X, domain="QQ")


@st.composite
def factored_polys(draw, factors):
    """A nonzero rational constant, possibly negative, times some of the
    shared factors, each to a power 0-3: repeated factors, and degree 0 or
    1 when few are drawn."""
    p = _poly(draw(_rationals.filter(bool)))
    for f in factors:
        for _ in range(draw(st.integers(0, 3))):
            p = p * f
    return p


@st.composite
def poly_pairs(draw):
    factors = draw(st.lists(
        st.lists(_rationals, min_size=2, max_size=3).map(lambda cs: _poly(*cs)).filter(
            lambda f: f.degree() >= 1), max_size=3))
    return draw(factored_polys(factors)), draw(factored_polys(factors))


def _integers(P):
    """P's coefficients, lowest power first, times a positive integer."""
    return _integer_coeffs(RatPoly([F(int(c.p), int(c.q)) for c in reversed(P.all_coeffs())]))


def _is_multiple(c, P):
    """The integer polynomial c is a nonzero multiple of P, or both are zero."""
    if P.is_zero:
        return c == []
    return bool(c) and sympy.Poly(c[::-1], _X, domain="QQ").monic() == P.monic()


@settings(max_examples=150, deadline=None)
@given(poly_pairs())
@example((_poly(F(-3)), _poly(F(5, 2))))                 # two constants
@example((_poly(F(1), F(-2)), _poly(F(-1, 2), F(1))))   # 1 - 2x, x - 1/2
@example((_poly(F(-4), F(0), F(-4)) ** 2, _poly()))
def test_gcd_and_square_free_part_match_sympy(pair):
    P, Q = pair
    a, b = _integers(P), _integers(Q)
    want = sympy.gcd(P, Q)
    for g in (_integer_gcd(a, b), _integer_gcd(b, a)):
        assert _is_multiple(g, want)
        assert not g or math.gcd(*g) == 1    # primitive
    for c, R in ((a, P), (b, Q)):
        if c:
            assert _is_multiple(square_free_part(c), R.sqf_part())


def test_gcd_of_two_zero_polynomials_is_zero():
    assert _integer_gcd([], []) == []
    assert _integer_gcd([-2, 4], []) == [-1, 2]


def _enumerated_sums(H, weight):
    """Weight sums by matching size over every matching of H, listed one
    at a time in Fractions."""
    sums = [F(0)] * (H.n // 2 + 1)
    for k in range(len(sums)):
        for M in combinations(H.edges, k):
            if len({v for e in M for v in e}) == 2 * k:
                term = F(1)
                for e in M:
                    term *= weight[e]
                sums[k] += term
    while len(sums) > 1 and sums[-1] == 0:
        sums.pop()
    return sums


@st.composite
def weighted_graphs(draw):
    """A graph on at most 8 vertices (a tree half of the time) with
    nonnegative rational weights of mixed denominators, some zero."""
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if draw(st.booleans()):
        edges = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    else:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)
                     if pairs else st.just([]))
    H = PatternGraph(n, tuple(edges))
    weight = {e: draw(st.one_of(st.just(F(0)), st.fractions(0, 5, max_denominator=30)))
              for e in H.edges}
    return H, weight


@settings(max_examples=150, deadline=None)
@given(weighted_graphs())
@example((path_graph(4), {(1, 2): F(1, 3), (2, 3): F(5, 4), (3, 4): F(2, 7)}))
@example((PatternGraph(4, ((1, 2), (1, 3), (2, 3), (3, 4))),
          {(1, 2): F(1, 6), (1, 3): F(3, 10), (2, 3): F(7), (3, 4): F(5, 9)}))
def test_matching_weight_sums_match_enumeration(case):
    H, weight = case
    want = _enumerated_sums(H, weight)
    got = matching_weight_sums(H, weight.__getitem__)
    assert all(type(c) is F for c in got)
    assert got == want
    # The subset DP straight on the Fraction weights.
    assert polynomials._matching_weight_sums(H, weight.__getitem__) == want


def _vertex_nodes(T, root, weight):
    """T rooted at root as a node list, one node per vertex, children
    first, each child with the weight of the edge to it."""
    order, parent = T.bfs_tree(root)
    at = {v: i for i, v in enumerate(reversed(order))}
    return [[(at[u], weight[canonical_edge(v, u)]) for u in T.adjacency[v] if parent[u] == v]
            for v in reversed(order)]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 16).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, n), min_size=n, max_size=n),
    st.lists(st.one_of(st.just(F(0)), st.fractions(0, 5, max_denominator=30)),
             min_size=n, max_size=n))))
@example((4, [1, 1, 2, 3], [F(1, 3), F(5, 4), F(2, 7), F(1)]))
def test_tree_dp_on_node_lists_matches_the_subset_dp(case):
    """The forest DP from any root, on one node per vertex, against the
    subset DP on random weighted trees; at unit weights also on the
    tree's interned rooted shapes, where isomorphic subtrees share a node."""
    n, picks, ws = case
    T = PatternGraph(n, tuple((min(picks[v - 1], v - 1), v) for v in range(2, n + 1)))
    weight = dict(zip(T.edges, ws))
    want = polynomials._matching_weight_sums(T, weight.__getitem__)
    assert polynomials._tree_matching_sums(_vertex_nodes(T, picks[0], weight)) == want
    ones = polynomials._matching_weight_sums(T, lambda e: 1)
    assert polynomials._tree_matching_sums(rooted_nodes(T, T.bfs_tree(picks[0])[0])) == ones


def _fields(x):
    return x.lo, x.hi, x.exact, x.poly


@st.composite
def trees(draw, max_n=60):
    n = draw(st.integers(2, max_n))
    return PatternGraph(n, tuple((draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)))


@settings(max_examples=60, deadline=None)
@given(trees(), st.sampled_from([1.0, 0.9, 1.3]), st.sampled_from([1.0, 0.5, 3.0]))
@example(path_graph(60), 1.0, 1.0)
@example(star_graph(9), 1.0, 1.0)
@example(path_graph(7), 1.3, 0.5)
def test_isolation_certificates_never_change_the_root(T, factor1, factor2):
    """Each certificate holds only where the full count at its grid point
    agrees, also from float estimates s1 and s2 that are wrong (s1 scaled
    by factor1, s2 moved to s1 + factor2 (s2 - s1)), and with both
    patched to fail the root is the same."""
    one, two = polynomials._one_root_above, polynomials._two_roots_above
    real = polynomials._tree_top_roots_squared

    def skewed(T):
        s1, s2 = real(T)
        return s1 * factor1, s1 * factor1 + factor2 * (s2 - s1)

    def checked_one(c, up, x, s2):
        ok = one(c, up, x, s2)
        assert not ok or polynomials._roots_above(c, x) == 1
        return ok

    def checked_two(c, x, s2):
        ok = two(c, x, s2)
        assert not ok or polynomials._roots_above(c, x) >= 2
        return ok

    with mock.patch.object(polynomials, "_tree_top_roots_squared", skewed):
        with mock.patch.object(polynomials, "_one_root_above", checked_one), \
                mock.patch.object(polynomials, "_two_roots_above", checked_two):
            got = largest_matching_root_squared(T)
        with mock.patch.object(polynomials, "_one_root_above", lambda *args: False), \
                mock.patch.object(polynomials, "_two_roots_above", lambda *args: False):
            assert _fields(largest_matching_root_squared(T)) == _fields(got)


def test_isolation_certificates_hold_on_paths():
    # On paths the grid points have long digits (217 at n = 1000), so
    # these certificates are what keeps dcrit_tree fast there.
    calls = []

    def counted(real):
        def wrapper(*args):
            calls.append((real.__name__, real(*args)))
            return calls[-1][1]
        return wrapper

    with mock.patch.object(polynomials, "_one_root_above", counted(polynomials._one_root_above)), \
            mock.patch.object(polynomials, "_two_roots_above", counted(polynomials._two_roots_above)):
        for n in (10, 50, 200):
            largest_matching_root_squared(path_graph(n))
    assert {name for name, _ in calls} == {"_one_root_above", "_two_roots_above"}
    assert all(ok for _, ok in calls)
