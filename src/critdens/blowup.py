"""Weighted blow-up graphs, transversal search, and the three explicit
extremal constructions.

A blow-up replaces each pattern vertex i by a cluster A_i of weighted
slots (weights >= 0 summing to 1 per cluster) and places cross edges only
between clusters of pattern-adjacent vertices.  The density of a pattern
edge (i, j) is the total weight mass sum w(u) w(v) over present cross
pairs.  A transversal picks one slot per cluster so that every pattern
edge is realized; its existence never depends on the weights.

Weights are Fractions and every equality is exact.  Serialized objects
carry "mode": "exact"; objects in any other mode are refused.

Every construction emitted anywhere in the package is built by
blowup_without (every cross pair on a pattern edge except a missing set,
slots of weight 0 left out) and passes assert_construction: densities at
least the target, no transversal.

* gacs_tree_construction: for a tree T, clusters A_i = {v_ij : j ~ i},
  all cross pairs present except (v_ij, v_ji), weights w_ij = x_j /
  (lambda x_i) from the principal eigenvector; every density equals
  1 - 1/lambda^2 and no transversal exists.  A tree is bipartite, so
  the weight toward a child, r_v = x_v/(lambda x_parent), obeys
  r_v = (1/s) / (1 - sum of children r) in s = lambda^2 alone.  The
  recursion runs in rationals at s_lo, the lower end of s's certified
  interval (s_lo = s when s is rational); one split slot trims the root
  edge, so every density is exactly 1 - 1/s_lo.

* star_decomposition_construct: for any connected H, a proper labeling f,
  and densities gamma that fail the monotone-path tree condition, a
  recursive construction whose densities meet or exceed gamma with no
  transversal.  Each step k adds one missing pair per earlier neighbour
  of f(k).  Cluster sizes stay within the vertex degrees.

* bow_tie_reconstruction: the bow-tie's extremal blow-up, which no star
  decomposition reaches (star_decomposition_cannot_match_bowtie).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import NotAnHEdge, NotATree, SizeLimit, ValidationError
from .graphs import (
    Edge, PatternGraph, bow_tie_graph, canonical_edge, dag_nodes, edge_assignment, integer,
    parse_rational, proper_labelings, rational, rational_text)
from .polynomials import largest_matching_root_squared, leaf_up_inertia
from .stars import star_necessary_condition
from .verdict import Verdict

TRANSVERSAL_GUARD = 10**6

Slot = tuple[int, int]  # (pattern vertex, slot index within its cluster)

_ONE = Fraction(1)
_ZERO = Fraction(0)


@dataclass(frozen=True)
class Transversal:
    """One chosen slot index per pattern vertex."""

    choice: dict[int, int]


def _normalize_pair(a: Slot, b: Slot) -> tuple[Slot, Slot]:
    return (a, b) if a <= b else (b, a)


class WeightedBlowupGraph:
    """Immutable weighted blow-up of a pattern graph."""

    def __init__(
        self,
        pattern: PatternGraph,
        weights: Sequence[Sequence[Fraction]],
        cross_edges: Sequence[tuple[Slot, Slot]] | set[tuple[Slot, Slot]],
    ) -> None:
        if len(weights) != pattern.n:
            raise ValidationError(
                f"need one cluster per pattern vertex: {pattern.n}, "
                f"got {len(weights)}")
        self.pattern = pattern
        self.weights: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(rational(w, "weight", "in cluster", i) for w in cluster)
            for i, cluster in enumerate(weights, start=1))
        for i, cluster in enumerate(self.weights, start=1):
            if not cluster:
                raise ValidationError(f"cluster {i} is empty")
            if any(w < 0 for w in cluster):
                raise ValidationError(f"negative weight in cluster {i}")
            total = sum(cluster)
            if total != 1:
                raise ValidationError(f"cluster {i} weights sum to {total}, not 1")
        pairs: set[tuple[Slot, Slot]] = set()
        for a, b in cross_edges:
            (i, ai), (j, bj) = a, b
            i, j = integer(i, "cluster"), integer(j, "cluster")
            if not pattern.has_edge(i, j):
                raise ValidationError(
                    f"cross edge between clusters {i}, {j}: not a pattern edge")
            for v, s in ((i, ai), (j, bj)):
                if not (0 <= integer(s, "slot") < len(self.weights[v - 1])):
                    raise ValidationError(f"slot {s} out of range in cluster {v}")
            pairs.add(_normalize_pair((i, ai), (j, bj)))
        self.cross_edges: frozenset[tuple[Slot, Slot]] = frozenset(pairs)
        self._densities: dict[Edge, Fraction] | None = None

    def cluster_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.weights)

    def has_cross_edge(self, a: Slot, b: Slot) -> bool:
        return _normalize_pair(a, b) in self.cross_edges

    def density(self, i: int, j: int) -> Fraction:
        """Weight mass of present cross pairs between clusters i and j."""
        if not self.pattern.has_edge(i, j):
            raise NotAnHEdge(f"({i},{j}) is not an edge of the pattern")
        total = _ZERO
        for a, wa in enumerate(self.weights[i - 1]):
            for b, wb in enumerate(self.weights[j - 1]):
                if self.has_cross_edge((i, a), (j, b)):
                    total += wa * wb
        return total

    def densities(self) -> dict[Edge, Fraction]:
        """Every pattern edge's density, computed on the first call (the
        blow-up is immutable) and returned as a fresh dict."""
        if self._densities is None:
            self._densities = {e: self.density(*e) for e in self.pattern.edges}
        return dict(self._densities)

    def find_transversal(self) -> Transversal | None:
        """Backtracking search over clusters in BFS order of the pattern,
        pruning against already-chosen neighbors.  Exhaustive: None is a
        certificate.  Weights play no role.  SizeLimit after
        TRANSVERSAL_GUARD slot trials."""
        trials = 0
        order = self.pattern.bfs_order(1)
        pos_of = {v: k for k, v in enumerate(order)}
        earlier = [[u for u in self.pattern.adjacency[v] if pos_of[u] < k]
                   for k, v in enumerate(order)]
        chosen: dict[int, int] = {}
        # the cluster at position k tries its slots from start[k] on
        start = [0] * len(order)
        k = 0
        while k < len(order):
            v = order[k]
            for s in range(start[k], len(self.weights[v - 1])):
                trials += 1
                if trials > TRANSVERSAL_GUARD:
                    raise SizeLimit(f"search exceeds {TRANSVERSAL_GUARD} slot trials")
                if all(self.has_cross_edge((v, s), (u, chosen[u]))
                       for u in earlier[k]):
                    chosen[v], start[k] = s, s + 1
                    k += 1
                    break
            else:
                if k == 0:
                    return None
                chosen.pop(v, None)
                start[k] = 0
                k -= 1
        return Transversal(dict(chosen))

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "pattern": {"n": self.pattern.n,
                        "edges": [list(e) for e in self.pattern.edges]},
            "clusters": [
                [{"id": a, "weight": rational_text(w)} for a, w in enumerate(cluster)]
                for cluster in self.weights
            ],
            "cross_edges": sorted(
                [i, a, j, b] for (i, a), (j, b) in self.cross_edges),
            "mode": "exact",
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "WeightedBlowupGraph":
        try:
            pattern = PatternGraph(
                obj["pattern"]["n"],
                tuple(tuple(e) for e in obj["pattern"]["edges"]))
            if obj["mode"] != "exact":
                raise ValidationError(
                    f"mode {obj['mode']!r} is not supported: weights must be exact")
            clusters = []
            for cluster in obj["clusters"]:
                slots = sorted(cluster, key=lambda s: s["id"])
                if [integer(s["id"], "slot id") for s in slots] != list(range(len(slots))):
                    raise ValidationError("slot ids must be 0..k-1")
                clusters.append([parse_rational(s["weight"]) for s in slots])
            edges = [((i, a), (j, b)) for i, a, j, b in obj["cross_edges"]]
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise ValidationError(f"malformed blow-up object: {exc}") from None
        return WeightedBlowupGraph(pattern, clusters, edges)

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "WeightedBlowupGraph":
        try:
            obj = json.loads(text)
        except ValueError as exc:   # JSONDecodeError, or int()'s digit limit
            raise ValidationError(f"not valid JSON: {exc}") from None
        return WeightedBlowupGraph.from_json_obj(obj)


def blowup_without(
    H: PatternGraph,
    weights: Sequence[Sequence[Fraction]],
    missing: Iterable[tuple[Slot, Slot]] = (),
) -> WeightedBlowupGraph:
    """The blow-up with every cross pair on H's edges except the missing
    ones: the eigenvector, star-decomposition, bow-tie and grid
    constructions.  Slots of weight 0 are left out, and the others
    renumbered in order within their cluster; missing names the slots as
    given."""
    gone = {_normalize_pair(a, b) for a, b in missing}
    kept = [[a for a, w in enumerate(cluster) if w != 0] for cluster in weights]
    cross = [
        ((i, x), (j, y))
        for i, j in H.edges
        for x, a in enumerate(kept[i - 1])
        for y, b in enumerate(kept[j - 1])
        if ((i, a), (j, b)) not in gone
    ]
    return WeightedBlowupGraph(
        H, [[cluster[a] for a in k] for cluster, k in zip(weights, kept)], cross)


def assert_construction(
    B: WeightedBlowupGraph, target: Mapping[Edge, Fraction]
) -> None:
    """The certificate every emitted construction passes: each density
    meets its target exactly and no transversal exists."""
    dens = B.densities()
    for e, want in target.items():
        if dens[e] < want:
            raise ValidationError(
                f"density {dens[e]} on edge {e} below target {want}")
    if B.find_transversal() is not None:
        raise ValidationError("construction unexpectedly has a transversal")


def gacs_tree_construction(T: PatternGraph) -> WeightedBlowupGraph:
    """Transversal-free blow-up of a tree with every density exactly
    1 - 1/s_lo, where s_lo is the lower end of the certified interval
    (width <= 1e-24) of s = lambda^2, and s_lo = s when s is rational.

    Cluster A_i holds one slot per neighbor j of i (in sorted neighbor
    order); the only missing cross pair per edge (i, j) is (v_ij, v_ji).
    Rooted at the least leaf, the ratios r_v = x_v/(lambda x_parent) of
    the principal eigenvector x follow r_v = k / (1 - sum of children r)
    with k = 1/s, which stays well defined because lambda exceeds every
    proper subtree's spectral radius: r_v = k F(v) for leaf_up_inertia at
    ratio k.  Run in Fractions at k = 1/s_lo,
    w_ij = r_j toward a child and k/r_i toward the parent.  Every non-root
    cluster then sums to exactly 1, and every non-root edge misses mass
    exactly k, so its density is t = 1 - k.

    The root leaf gets one slot of weight 1.  Its edge (root, c) misses
    mass k/S, with S = r_c (S = 1 when s_lo = s), so its density exceeds
    t by delta = k(1 - 1/S).  Trim: split a copy b' of weight delta off
    the slot b of c toward its least other neighbour x; b' keeps all of
    b's pairs, so the edges at c other than the root edge keep their
    densities.  Dropping the pair (root slot, b') removes exactly delta.
    Removing pairs never creates a transversal, so every density is t and
    the blow-up has one slot more than the untrimmed one.  Positivity of
    the ratios and S >= 1 are checked, not proven: either failing raises
    ValidationError.
    """
    if not T.is_tree():
        raise NotATree("construction defined for trees")
    if T.n < 2:
        raise ValidationError("construction needs n >= 2")
    s_lo, _ = largest_matching_root_squared(T, Fraction(1, 10**24)).interval()
    k = _ONE / s_lo
    root = min(v for v in T.vertices() if len(T.adjacency[v]) == 1)
    order, parent = T.bfs_tree(root)
    pivots = leaf_up_inertia(dag_nodes(T, order), k)[::-1]   # in BFS order
    c = order[1]
    if pivots[1][1] or pivots[1][0] is None:
        raise ValidationError("eigenvector ratios are not all positive")
    r = {v: k * F for v, (F, _) in zip(order[1:], pivots[1:])}
    if r[c] < 1:
        raise ValidationError(f"root ratio {r[c]} is below 1")
    weights = [[r[j] if parent[j] == i else k / r[i] for j in T.adjacency[i]]
               for i in T.vertices()]
    weights[root - 1] = [_ONE]
    slot_of = {(i, j): a for i in T.vertices() for a, j in enumerate(T.adjacency[i])}
    missing = [((i, slot_of[i, j]), (j, slot_of[j, i])) for i, j in T.edges]
    delta = k - k / r[c]
    if delta:
        x = next(j for j in T.adjacency[c] if j != root)
        weights[c - 1][slot_of[c, x]] -= delta
        weights[c - 1].append(delta)
        split = (c, len(weights[c - 1]) - 1)
        missing += [(split, (x, slot_of[x, c])), (split, (root, 0))]
    B = blowup_without(T, weights, missing)
    t = _ONE - k
    assert_construction(B, {e: t for e in T.edges})
    return B


def star_decomposition_construct(
    H: PatternGraph,
    f: Sequence[int],
    gamma: Mapping[Edge, Fraction] | Sequence[Fraction],
) -> WeightedBlowupGraph | None:
    """Recursive transversal-free construction for densities that fail the
    monotone-path tree condition for the labeling f.

    Returns None if the lifted densities on the monotone-path tree already
    ensure the factor.  Otherwise the result has every density >= gamma
    and no transversal; both facts are asserted before returning.

    Down pass, u = f(n), ..., f(2): the edges at u keep their current
    densities as targets, and every edge left behind has its ratio divided
    by the target gamma_{u a} of each endpoint a adjacent to u; ratios cap
    at 1 (density 0), and a zero divisor caps the ratio at 1 outright (the
    rescale-by-zero step makes the higher-level density 1, so any target
    is met).  Up pass, u = f(2), ..., f(n): u gets a singleton cluster
    {w_k}, and each earlier neighbour v has its weights scaled by its
    target gamma_{uv} and gains a fresh slot of weight 1 - gamma_{uv}.
    The pairs (w_k, fresh slot) are the only missing cross pairs;
    blowup_without leaves slots of weight 0 out.
    """
    dens = edge_assignment(H, gamma, low=_ZERO, high=_ONE, what="density")
    if star_necessary_condition(H, dens, f) is Verdict.PASSES:
        return None

    labels = list(f)
    level = dict(dens)
    target: dict[Edge, Fraction] = {}
    for u in reversed(labels[1:]):
        at_u = {e: level.pop(e) for e in list(level) if u in e}
        target.update(at_u)
        for (i, j), g in level.items():
            divisor = _ONE
            for a in (i, j):
                if H.has_edge(u, a):
                    divisor *= at_u[canonical_edge(u, a)]
            r = (_ONE - g) / divisor if divisor else _ONE
            level[(i, j)] = _ONE - min(_ONE, r)

    weights: dict[int, list] = {labels[0]: [_ONE]}
    missing: list[tuple[Slot, Slot]] = []
    for u in labels[1:]:
        weights[u] = [_ONE]
        for v in H.adjacency[u]:
            if v in weights:
                g = target[canonical_edge(u, v)]
                weights[v] = [w * g for w in weights[v]] + [_ONE - g]
                missing.append(((u, 0), (v, len(weights[v]) - 1)))
    B = blowup_without(H, [weights[i] for i in H.vertices()], missing)
    assert_construction(B, dens)
    return B


BOW_TIE_CENTER_DENSITY = Fraction(17, 20)
BOW_TIE_OUTER_DENSITY = Fraction(51, 100)


def bow_tie_densities() -> dict[Edge, Fraction]:
    H = bow_tie_graph()
    return {
        e: BOW_TIE_OUTER_DENSITY if e in ((2, 3), (4, 5))
        else BOW_TIE_CENTER_DENSITY
        for e in H.edges
    }


def bow_tie_reconstruction() -> WeightedBlowupGraph:
    """The extremal bow-tie blow-up: center cluster {c1, c2} with weights
    (1/2, 1/2), outer clusters {a_i, b_i} with weights (3/10, 7/10);
    missing pairs c1-a2, c1-a3, c2-a4, c2-a5, b2-b3, b4-b5.

    Realized densities are exactly 17/20 on the four center edges and
    51/100 on the two outer ones, and no transversal exists: choosing c1
    forces b2 and b3 whose pair is missing, symmetrically for c2.
    """
    H = bow_tie_graph()
    half, small, big = Fraction(1, 2), Fraction(3, 10), Fraction(7, 10)
    weights = [[half, half], [small, big], [small, big], [small, big], [small, big]]
    missing = {
        ((1, 0), (2, 0)), ((1, 0), (3, 0)),
        ((1, 1), (4, 0)), ((1, 1), (5, 0)),
        ((2, 1), (3, 1)), ((4, 1), (5, 1)),
    }
    want = bow_tie_densities()
    B = blowup_without(H, weights, missing)
    assert_construction(B, want)
    # the certificate checks >=; the extremal densities are exact
    for e, d in B.densities().items():
        if d != want[e]:
            raise ValidationError(f"bow-tie density on {e} is {d}, expected {want[e]}")
    return B


def star_decomposition_cannot_match_bowtie() -> bool:
    """True iff every proper labeling of the bow-tie passes the star
    necessary condition at the reconstruction's densities, i.e. no star
    decomposition reaches them (star_decomposition_construct refuses
    exactly the labelings that pass)."""
    H = bow_tie_graph()
    gamma = bow_tie_densities()
    return all(star_necessary_condition(H, gamma, f) is Verdict.PASSES
               for f in proper_labelings(H))
