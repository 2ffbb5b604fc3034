"""The pruned cover enumeration and weight searches against unpruned
references on hypothesis-drawn small patterns: every inclusion-minimal
blocking cover by brute force over all sets of slot pairs, the
lexicographically first weights by a DFS that only checks edges once
both ends are placed, and the maxmin optimum by the same plain DFS with
a last cluster of size <= 2 solved from its lines."""

import math
from fractions import Fraction as F
from itertools import combinations, permutations, product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from critdens.graphs import PatternGraph
from critdens.oracle import _Budget, _mass_ceilings, _minimal_covers, _WeightSearch

MAX_PAIRS = 14


@st.composite
def patterns_with_sizes(draw, max_vertices=5, max_pairs=MAX_PAIRS):
    """A pattern on 2..max_vertices vertices and cluster sizes in 1..3
    with at most max_pairs slot pairs over its edges."""
    n = draw(st.integers(2, max_vertices))
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    order = draw(st.permutations(
        [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]))
    edges, slot_pairs = [], 0
    for i, j in order:
        k = sizes[i - 1] * sizes[j - 1]
        if slot_pairs + k <= max_pairs and draw(st.booleans()):
            edges.append((i, j))
            slot_pairs += k
    assume(edges)
    return PatternGraph(n, tuple(edges)), sizes


def _canonical(cover, sizes):
    """Least sorted image of a cover under within-cluster slot
    permutations."""
    return min(
        tuple(sorted(((i, perms[i - 1][a]), (j, perms[j - 1][b]))
                     for (i, a), (j, b) in cover))
        for perms in product(*(permutations(range(k)) for k in sizes)))


def _brute_minimal_covers(H, sizes):
    transversals = list(product(*(range(k) for k in sizes)))
    pairs = [((i, a), (j, b)) for i, j in H.edges
             for a in range(sizes[i - 1]) for b in range(sizes[j - 1])]
    hits = [sum(1 << t for t, slots in enumerate(transversals)
                if slots[i - 1] == a and slots[j - 1] == b)
            for (i, a), (j, b) in pairs]
    full = (1 << len(transversals)) - 1

    def union(members):
        out = 0
        for p in members:
            out |= hits[p]
        return out

    covers = set()
    for subset in range(1 << len(pairs)):
        members = [p for p in range(len(pairs)) if subset >> p & 1]
        if union(members) != full:
            continue
        if any(union(members[:k] + members[k + 1:]) == full
               for k in range(len(members))):
            continue
        covers.add(_canonical([pairs[p] for p in members], sizes))
    return sorted(covers, key=lambda c: (len(c), c))


@settings(max_examples=60, deadline=None)
@given(patterns_with_sizes())
def test_minimal_covers_match_brute_force(case):
    H, sizes = case
    assert _minimal_covers(H, sizes, _Budget(10**9)) == _brute_minimal_covers(H, sizes)


def _unpruned_first_meeting_floor(H, sizes, cover, q, ceilings):
    """The lexicographically first weight matrix within the ceilings,
    clusters placed in vertex order and each edge checked once both of
    its clusters are placed."""
    comps = [_compositions(q, k) for k in sizes]
    weights = [None] * H.n

    def mass(i, j):
        return sum(weights[i - 1][a] * weights[j - 1][b]
                   for (ci, a), (cj, b) in cover if (ci, cj) == (i, j))

    def dfs(v):
        if v > H.n:
            return tuple(weights)
        for comp in comps[v - 1]:
            weights[v - 1] = comp
            if all(mass(i, j) <= ceilings[(i, j)] for i, j in H.edges if j == v):
                out = dfs(v + 1)
                if out is not None:
                    return out
        return None

    return dfs(1)


def _compositions(q, k):
    return [c for c in product(range(1, q + 1), repeat=k) if sum(c) == q]


@st.composite
def floor_searches(draw):
    """A pattern, sizes, q, per-edge floors, and a weight matrix whose
    masses on each cover give ceilings it meets with equality (and, one
    less, ceilings it misses by one)."""
    H, sizes = draw(patterns_with_sizes(max_vertices=4, max_pairs=8))
    q = draw(st.integers(2, 12))
    comps = [_compositions(q, k) for k in sizes]
    space = 1
    for c in comps:
        space *= len(c)
    assume(space <= 20_000)
    floor = {e: F(draw(st.integers(0, 100)), 100) for e in H.edges}
    weights = [draw(st.sampled_from(c)) if c else None for c in comps]
    return H, sizes, q, floor, weights


@settings(max_examples=150, deadline=None)
@given(floor_searches())
def test_first_meeting_floor_matches_unpruned_search(case):
    H, sizes, q, floor, weights = case
    drawn = _mass_ceilings(H, floor, q)
    for cover in _minimal_covers(H, sizes, _Budget(10**9)):
        tight = ({(i, j): sum(weights[i - 1][a] * weights[j - 1][b]
                              for (ci, a), (cj, b) in cover if (ci, cj) == (i, j))
                  for i, j in H.edges} if None not in weights else drawn)
        below = {e: c - 1 for e, c in tight.items()}
        for ceilings in (drawn, tight, below):
            search = _WeightSearch(H, sizes, cover, q, _Budget(10**9), {})
            want = _unpruned_first_meeting_floor(H, sizes, cover, q, ceilings)
            assert search.first_meeting_floor(ceilings) == want, (cover, ceilings)


def _unpruned_best_maxmin(H, sizes, cover, q, best_mass):
    """The maxmin search without pruning: every composition of every
    cluster in vertex order, a prefix kept while its closed edges stay
    below best, and a last cluster of size <= 2 solved at the crossings
    of its closed edges' lines.  Returns the result and the spend (one
    unit per composition tried and per last-cluster solve)."""
    n = H.n
    comps = [None] + [_compositions(q, k) for k in sizes]
    cover_on = {}
    for (i, a), (j, b) in cover:
        cover_on.setdefault((i, j), []).append((a, b))
    closing = [[e for e in H.edges if e[1] == v] for v in range(n + 1)]
    weights = [None] * (n + 1)
    state = {"best": best_mass, "weights": None, "spent": 0}

    def mass(e):
        i, j = e
        return sum(weights[i][a] * weights[j][b] for a, b in cover_on.get(e, ()))

    def last(cur):
        if sizes[-1] == 1:
            weights[n] = (q,)
            m = max([cur] + [mass(e) for e in closing[n]])
            weights[n] = None
            return (m, (q,)) if m < state["best"] else None
        lines = []
        for i, j in closing[n]:
            pairs = cover_on.get((i, j), ())
            lines.append((sum(weights[i][a] for a, b in pairs if b == 0),
                          sum(weights[i][a] for a, b in pairs if b == 1)))
        candidates = {1, q - 1}
        for (A1, B1), (A2, B2) in combinations(lines, 2):
            den = (A1 - B1) - (A2 - B2)
            if den != 0:
                x = F((B2 - B1) * q, den)
                candidates |= {c for c in (math.floor(x), math.ceil(x))
                               if 1 <= c <= q - 1}
        best_here = None
        for x in sorted(candidates):
            m = max([cur] + [A * x + B * (q - x) for A, B in lines])
            if m < state["best"] and (best_here is None or m < best_here[0]):
                best_here = (m, (x, q - x))
        return best_here

    def dfs(v, cur):
        if v == n and sizes[v - 1] <= 2:
            state["spent"] += 1
            hit = last(cur)
            if hit is not None:
                weights[v] = hit[1]
                state["best"], state["weights"] = hit[0], tuple(weights[1:])
                weights[v] = None
            return
        if v > n:
            if cur < state["best"]:
                state["best"], state["weights"] = cur, tuple(weights[1:])
            return
        for comp in comps[v]:
            state["spent"] += 1
            weights[v] = comp
            new = max([cur] + [mass(e) for e in closing[v]])
            if new < state["best"]:
                dfs(v + 1, new)
        weights[v] = None

    dfs(1, 0)
    out = None if state["weights"] is None else (state["best"], state["weights"])
    return out, state["spent"]


@st.composite
def maxmin_searches(draw):
    """A pattern, sizes in 1..3, q, and bounds to beat: none (q*q + 1),
    one drawn at random, and the largest mass of a drawn weight matrix
    on each cover (met with equality, so only strictly better leaves
    count) and one above it."""
    H, sizes = draw(patterns_with_sizes(max_vertices=4, max_pairs=8))
    q = draw(st.integers(2, 10))
    comps = [_compositions(q, k) for k in sizes]
    assume(all(comps))
    space = 1
    for c in comps:
        space *= len(c)
    assume(space <= 5_000)
    weights = [draw(st.sampled_from(c)) for c in comps]
    return H, sizes, q, weights, draw(st.integers(1, q * q))


@settings(max_examples=150, deadline=None)
@given(maxmin_searches())
def test_best_maxmin_matches_unpruned_search(case):
    H, sizes, q, weights, drawn = case
    for cover in _minimal_covers(H, sizes, _Budget(10**9)):
        tight = max(sum(weights[i - 1][a] * weights[j - 1][b]
                        for (ci, a), (cj, b) in cover if (ci, cj) == (i, j))
                    for i, j in H.edges)
        for best_mass in (q * q + 1, drawn, tight, tight + 1):
            budget = _Budget(10**9)
            got = _WeightSearch(H, sizes, cover, q, budget, {}).best_maxmin(best_mass)
            want, unpruned_spend = _unpruned_best_maxmin(H, sizes, cover, q, best_mass)
            assert got == want, (cover, best_mass)
            assert 10**9 - budget.left <= unpruned_spend, (cover, best_mass)
