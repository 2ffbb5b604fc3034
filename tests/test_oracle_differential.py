"""The pruned cover enumeration and weight searches against unpruned
references on hypothesis-drawn small patterns: every inclusion-minimal
blocking cover by brute force over all sets of slot pairs, the
lexicographically first weights by a DFS that only checks edges once
both ends are placed, the maxmin optimum and its witness by a one-pass
plain DFS that solves a last cluster of size <= 2 from its lines, the
spend of both against that first-weights DFS run over the same ceilings,
the weight tuples a placed cluster tries by the look-ahead rule
applied per tuple, the grid optimum searched one configuration per
automorphism orbit against every configuration, the automorphisms
against networkx's matcher, and the size vectors searched against
every image under the group's elements."""

import math
from fractions import Fraction as F
from itertools import combinations, permutations, product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from critdens.graphs import (
    PatternGraph,
    automorphisms,
    bow_tie_graph,
    complete_graph,
    cycle_graph,
    star_graph,
)
from critdens.oracle import (
    _Budget,
    _best_grid_density,
    _least_size_vectors,
    _list_minimal_covers,
    _mass_ceilings,
    _minimal_covers,
    _WeightSearch,
)

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
# two automorphisms of the bow-tie map one cover into the same slot orbit
@example((bow_tie_graph(), (2, 1, 1, 1, 1)))
def test_minimal_covers_match_brute_force(case):
    H, sizes = case
    assert list(_list_minimal_covers(H, sizes, _Budget(10**9))[0]) == (
        _brute_minimal_covers(H, sizes))


def _all_permutations_minimal_covers(H, sizes, budget):
    """The cover listing as it was before covers were canonicalised one
    orbit at a time: the same cover tree, then every raw cover mapped
    under all within-cluster slot permutations."""
    transversals = list(product(*(range(k) for k in sizes)))
    full = (1 << len(transversals)) - 1
    pairs, masks = [], []
    for i, j in H.edges:
        for a in range(sizes[i - 1]):
            for b in range(sizes[j - 1]):
                pairs.append(((i, a), (j, b)))
                masks.append(sum(1 << t for t, slots in enumerate(transversals)
                                 if slots[i - 1] == a and slots[j - 1] == b))
    by_transversal = [[p for p in range(len(pairs)) if masks[p] >> t & 1]
                      for t in range(len(transversals))]
    found = set()

    def branch(chosen, covered, banned):
        budget.spend()
        if covered == full:
            for p in chosen:
                rest = 0
                for r in chosen:
                    if r != p:
                        rest |= masks[r]
                if rest == full:
                    return
            found.add(frozenset(chosen))
            return
        first = ((~covered & full) & -(~covered & full)).bit_length() - 1
        for p in by_transversal[first]:
            if not banned >> p & 1:
                branch(chosen + (p,), covered | masks[p], banned)
                banned |= 1 << p

    branch((), 0, 0)
    canon = {_canonical([pairs[p] for p in c], sizes) for c in found}
    return sorted(canon, key=lambda c: (len(c), c))


@settings(max_examples=60, deadline=None)
@given(patterns_with_sizes(max_pairs=24))
@example((complete_graph(4), (1, 2, 3, 3)))
def test_orbit_canonicalisation_matches_all_permutations(case):
    """Canonicalising one orbit at a time lists the covers the
    all-permutations canonicalisation did, at the same spend."""
    H, sizes = case
    budget, reference = _Budget(10**9), _Budget(10**9)
    assert list(_list_minimal_covers(H, sizes, budget)[0]) == (
        _all_permutations_minimal_covers(H, sizes, reference))
    assert budget.left == reference.left


def _mass(cover, weights, e):
    """The missing mass of edge e under a weight matrix."""
    return sum(weights[e[0] - 1][a] * weights[e[1] - 1][b]
               for (i, a), (j, b) in cover if (i, j) == e)


def _unpruned_first_meeting_floor(H, sizes, cover, q, ceilings):
    """The lexicographically first weight matrix within the ceilings,
    clusters placed in vertex order and each edge checked once both of
    its clusters are placed, and the spend: one unit per composition
    tried."""
    comps = [_compositions(q, k) for k in sizes]
    weights = [None] * H.n
    spent = 0

    def dfs(v):
        nonlocal spent
        if v > H.n:
            return tuple(weights)
        for comp in comps[v - 1]:
            spent += 1
            weights[v - 1] = comp
            if all(_mass(cover, weights, (i, j)) <= ceilings[(i, j)]
                   for i, j in H.edges if j == v):
                out = dfs(v + 1)
                if out is not None:
                    return out
        return None

    return dfs(1), spent


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


# The drawn sizes stop at 3; a size-4 cluster is placed as a head of two
# slots before its last pair, at the centre of S5 or inside a triangle.
_S5, _K3 = star_graph(5), complete_graph(3)


@settings(max_examples=150, deadline=None)
@given(floor_searches())
@example((_S5, (4, 1, 1, 1, 1), 7, dict.fromkeys(_S5.edges, F(1, 2)),
          [(1, 2, 3, 1), (7,), (7,), (7,), (7,)]))
@example((_K3, (1, 4, 2), 7, dict.fromkeys(_K3.edges, F(3, 5)),
          [(7,), (2, 1, 3, 1), (3, 4)]))
def test_first_meeting_floor_matches_unpruned_search(case):
    H, sizes, q, floor, weights = case
    drawn = _mass_ceilings(H, floor, q)
    for cover in _minimal_covers(H, sizes, _Budget(10**9)).covers:
        tight = ({e: _mass(cover, weights, e) for e in H.edges}
                 if None not in weights else drawn)
        below = {e: c - 1 for e, c in tight.items()}
        for ceilings in (drawn, tight, below):
            budget = _Budget(10**9)
            search = _WeightSearch(H, sizes, cover, q, budget)
            want, unpruned_spend = _unpruned_first_meeting_floor(
                H, sizes, cover, q, ceilings)
            assert search.first_meeting_floor(ceilings) == want, (cover, ceilings)
            # the search skips edges without missing pairs, whose mass 0
            # is within any ceiling it is given (all >= 0); the reference
            # stops at them when below puts a ceiling at -1
            if min(ceilings.values()) >= 0:
                assert 10**9 - budget.left <= unpruned_spend, (cover, ceilings)


def _unpruned_best_maxmin(H, sizes, cover, q, best_mass):
    """The maxmin search without pruning: every composition of every
    cluster in vertex order, a prefix kept while its closed edges stay
    below best, and a last cluster of size <= 2 solved at the crossings
    of its closed edges' lines."""
    n = H.n
    comps = [None] + [_compositions(q, k) for k in sizes]
    cover_on = {}
    for (i, a), (j, b) in cover:
        cover_on.setdefault((i, j), []).append((a, b))
    closing = [[e for e in H.edges if e[1] == v] for v in range(n + 1)]
    weights = [None] * (n + 1)
    state = {"best": best_mass, "weights": None}

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
            weights[v] = comp
            new = max([cur] + [mass(e) for e in closing[v]])
            if new < state["best"]:
                dfs(v + 1, new)
        weights[v] = None

    dfs(1, 0)
    return None if state["weights"] is None else (state["best"], state["weights"])


def _unpruned_descent_spend(H, sizes, cover, q, best_mass):
    """The spend of the unpruned first-weights search over the ceilings
    of the maxmin descent: every edge at best - 1, best lowered to the
    largest mass of each matrix found, until a search finds none."""
    total = 0
    while True:
        found, spent = _unpruned_first_meeting_floor(
            H, sizes, cover, q, dict.fromkeys(H.edges, best_mass - 1))
        total += spent
        if found is None:
            return total
        best_mass = max(_mass(cover, found, e) for e in H.edges)


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
@example((_S5, (4, 1, 1, 1, 1), 7, [(1, 2, 3, 1), (7,), (7,), (7,), (7,)], 30))
@example((_K3, (1, 4, 2), 6, [(6,), (1, 1, 2, 2), (5, 1)], 20))
def test_best_maxmin_matches_unpruned_search(case):
    H, sizes, q, weights, drawn = case
    for cover in _minimal_covers(H, sizes, _Budget(10**9)).covers:
        tight = max(_mass(cover, weights, e) for e in H.edges)
        for best_mass in (q * q + 1, drawn, tight, tight + 1):
            budget = _Budget(10**9)
            got = _WeightSearch(H, sizes, cover, q, budget).best_maxmin(best_mass)
            want = _unpruned_best_maxmin(H, sizes, cover, q, best_mass)
            assert got == want, (cover, best_mass)
            unpruned_spend = _unpruned_descent_spend(H, sizes, cover, q, best_mass)
            assert 10**9 - budget.left <= unpruned_spend, (cover, best_mass)


class _Tries(_WeightSearch):
    """A weight search that records the weight tuples it tries at one
    cluster: each try that passes on to the next cluster stops there."""

    def _dfs(self, v):
        if v != self.stop:
            return super()._dfs(v)
        self.tried.append(self.weights[v - 1][:self.sizes[v - 2]])
        return False


@st.composite
def look_aheads(draw):
    """A pattern on 2..5 vertices with sizes in 1..3 and at most
    MAX_PAIRS slot pairs, a cluster v joined to a later one,
    a minimal cover or any sorted set of slot pairs (zero slopes come
    from a slot of a later cluster missing with both or neither slot of
    v), q, weights for the clusters before v, and per-edge ceilings that
    are drawn, within one of a drawn weight matrix's mass, or q*q, so
    intervals are often empty or tight."""
    n = draw(st.integers(2, 5))
    v = draw(st.integers(1, n - 1))
    sizes = [draw(st.sampled_from((2, 1, 3) if u == v else (2, 3, 1)))
             for u in range(1, n + 1)]
    first = (v, draw(st.integers(v + 1, n)))
    edges, slot_pairs = [first], sizes[v - 1] * sizes[first[1] - 1]
    for i, j in draw(st.permutations(
            [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])):
        k = sizes[i - 1] * sizes[j - 1]
        if (i, j) != first and slot_pairs + k <= MAX_PAIRS and draw(st.booleans()):
            edges.append((i, j))
            slot_pairs += k
    H = PatternGraph(n, tuple(sorted(edges)))
    if draw(st.booleans()):
        cover = draw(st.sampled_from(_minimal_covers(H, sizes, _Budget(10**9)).covers))
    else:
        # per edge (i, j) and slot b of j, the slots of i missing with b
        cover = tuple(sorted(
            ((i, a), (j, b)) for i, j in H.edges for b in range(sizes[j - 1])
            for a in draw(st.sets(st.integers(0, sizes[i - 1] - 1)))))
        assume(cover)
    q = draw(st.integers(3, 12))
    weights = [draw(st.sampled_from(_compositions(q, k))) for k in sizes]
    ceilings = {}
    for i, j in H.edges:
        mass = _mass(cover, weights, (i, j))
        ceilings[i, j] = draw(st.one_of(st.integers(0, q * q),
                                        st.integers(mass - 1, mass + 1),
                                        st.just(q * q)))
    return H, tuple(sizes), cover, q, v, weights[:v - 1], ceilings


def _old_ahead_tries(H, sizes, cover, q, v, placed, ceilings):
    """The weight tuples of v, in lexicographic order (head first, then
    x), that keep v's closed edges within their ceilings and pass the
    look-ahead rule tried per tuple: every later cluster j joined to v
    by a missing pair still has room, for k_j <= 2 some weights under
    all its missing edges from clusters up to v, for a larger k_j the
    least mass of (v, j) over j's compositions, sum c_b + (q - k_j) *
    min c_b, within the ceiling."""
    def mass(e, wi, wj):
        i, j = e
        return sum(wi[a] * wj[b] for (ci, a), (cj, b) in cover if (ci, cj) == e)

    missing = {(i, j) for (i, _), (j, _) in cover}
    weights = list(placed) + [None]
    closing = [(i, v) for i in range(1, v) if (i, v) in missing]
    later = sorted(j for i, j in missing if i == v)
    tries = []
    for wv in _compositions(q, sizes[v - 1]):
        weights[v - 1] = wv
        if any(mass(e, weights[e[0] - 1], weights[v - 1]) > ceilings[e]
               for e in closing):
            continue
        room = True
        for j in later:
            k = sizes[j - 1]
            if k <= 2:
                into = [(i, j) for i in range(1, v + 1) if (i, j) in missing]
                room = any(all(mass(e, weights[e[0] - 1], wj) <= ceilings[e]
                               for e in into)
                           for wj in _compositions(q, k))
            else:
                c = [sum(weights[v - 1][a] for (ci, a), (cj, b) in cover
                         if (ci, cj) == (v, j) and b == slot)
                     for slot in range(k)]
                room = sum(c) + (q - k) * min(c) <= ceilings[v, j]
            if not room:
                break
        if room:
            tries.append(wv)
    return tries


_C4 = PatternGraph(4, ((1, 2), (1, 4), (2, 3), (3, 4)))


@settings(max_examples=400, deadline=None)
@given(look_aheads())
# a gap inside v's interval: with slot b of cluster 4 missing with slot b
# of cluster 3, the mass of (3, 4) is x*y + (10-x)*(10-y), so cluster 4
# has room for x <= 2 (at y = 9) or x >= 8 (at y = 1) ...
@example((_C4, (2, 2, 2, 2), (((3, 0), (4, 0)), ((3, 1), (4, 1))), 10, 3,
          [(5, 5), (5, 5)], dict.fromkeys(_C4.edges, 30)))
# ... and, with the slots crossed, ceilings 40 and so y <= 8 under
# (1, 4), x <= 3 (at y = 1) or x >= 7 (at y = 8)
@example((_C4, (2, 2, 2, 2),
          (((1, 0), (4, 0)), ((3, 0), (4, 1)), ((3, 1), (4, 0))), 10, 3,
          [(5, 5), (5, 5)], dict.fromkeys(_C4.edges, 40)))
# a head slot in t_b: slot 2 of cluster 2 is missing with the head slot
# of cluster 1, so at ceiling 0 no weight tuple of cluster 1 leaves room
@example((PatternGraph(2, ((1, 2),)), (3, 3), (((1, 0), (2, 2)),), 3, 1, [],
          {(1, 2): 0}))
def test_look_ahead_gaps_skip_exactly_the_rejected_weights(case):
    H, sizes, cover, q, v, placed, ceilings = case
    search = _Tries(H, sizes, cover, q, _Budget(10**9))
    search.stop, search.tried = v + 1, []
    search.weights[1:v] = placed
    search.ceilings = ceilings
    search._dfs(v)
    assert search.tried == _old_ahead_tries(H, sizes, cover, q, v, placed, ceilings)


@settings(max_examples=60, deadline=None)
@given(patterns_with_sizes(), st.integers(2, 8))
# bounds kept by only part of Aut(K3): the whole group would map (1, 2, 1)
# to (1, 1, 2), which is out of bounds, and so skip its orbit
@example((_K3, (2, 2, 1)), 4)
@example((_K3, (1, 2, 2)), 5)
@example((_K3, (2, 1, 1)), 3)
@example((cycle_graph(4), (2, 2, 2, 1)), 6)
def test_orbit_reduced_grid_optimum_matches_every_configuration(case, q):
    """The grid optimum searched over one size vector per orbit of the
    automorphisms that keep the bounds, and one cover per orbit under its
    stabiliser with the slot permutations, is the best maxmin over every
    size vector within the bounds and every slot-canonical cover."""
    H, bounds = case
    best = q * q + 1
    for sizes in product(*(range(1, b + 1) for b in bounds)):
        if q < max(sizes):
            continue
        for cover in _list_minimal_covers(H, sizes, _Budget(10**9))[0]:
            out = _WeightSearch(H, sizes, cover, q, _Budget(10**9)).best_maxmin(best)
            if out is not None:
                best = out[0]
    want = F(0) if best > q * q else 1 - F(best, q * q)
    assert _best_grid_density(H, bounds, q, _Budget(10**9)) == want


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.sampled_from([(i, j) for i in range(1, n + 1)
                             for j in range(i + 1, n + 1)] or [(1, 2)])),
    st.lists(st.integers(1, 3), min_size=n, max_size=n))))
@example((4, set(cycle_graph(4).edges), [1, 1, 1, 1]))
@example((5, set(complete_graph(5).edges), [1, 2, 1, 2, 1]))
def test_automorphisms_match_networkx(case):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    n, edges, colours = case
    H = PatternGraph(n, tuple(e for e in edges if e[1] <= n))
    G = nx.Graph()
    G.add_nodes_from((v, {"colour": colours[v - 1]}) for v in H.vertices())
    G.add_edges_from(H.edges)
    matcher = GraphMatcher(G, G, node_match=lambda a, b: a["colour"] == b["colour"])
    want = sorted(tuple(m[v] for v in H.vertices()) for m in matcher.isomorphisms_iter())
    group = automorphisms(H, colours)
    assert _elements(group, n) == want   # so each element comes once
    assert sorted(_closure(group.generators, n)) == want


def _elements(group, n):
    """Every element of group, t_1∘...∘t_m over its chain, sorted."""
    out = [tuple(range(1, n + 1))]
    for _, transversal in reversed(group.chain):
        out = [tuple([t[x - 1] for x in g]) for t in transversal.values() for g in out]
    return sorted(out)


def _closure(generators, n):
    reached = {tuple(range(1, n + 1))}
    queue = list(reached)
    for p in queue:
        for g in generators:
            image = tuple([g[x - 1] for x in p])
            if image not in reached:
                reached.add(image)
                queue.append(image)
    return reached


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.sampled_from([(i, j) for i in range(1, n + 1)
                             for j in range(i + 1, n + 1)] or [(1, 2)])),
    st.lists(st.integers(1, 3), min_size=n, max_size=n))))
@example((5, set(star_graph(5).edges), [1, 3, 2, 3, 1]))
@example((3, set(_K3.edges), [2, 2, 1]))
@example((6, set(complete_graph(6).edges), [3] * 6))
def test_least_size_vectors_match_every_image(case):
    """The size vectors searched are those no element of the group maps
    to a smaller one, in product order, whatever prefixes are skipped."""
    n, edges, bounds = case
    H = PatternGraph(n, tuple(e for e in edges if e[1] <= n))
    group = automorphisms(H, bounds)
    elements = _elements(group, n)
    want = [s for s in product(*(range(1, b + 1) for b in bounds))
            if not any(tuple([s[v - 1] for v in g]) < s for g in elements)]
    assert list(_least_size_vectors(bounds, group)) == want
