"""Monotone-path trees, star-decomposition lower bounds, the K_{n,m}
spectral check, and the reconstructed bow-tie extremal construction.

For a proper labeling f of a connected pattern H, the monotone-path tree
T_f(H) has one node per path f(i_1) f(i_2) ... f(i_k) with i_1 = 1 and
strictly increasing positions and consecutive vertices adjacent in H; a
path's parent is the path minus its last vertex.  Densities lift from H:
the edge into node P carries the density of the H-edge between P's last
two vertices.

Every proper labeling yields the necessary condition that the lifted
densities must ensure T_f(H); the best such condition over all labelings
is the star lower bound max_f (1 - 1/lambda(T_f)^2) on the critical
density of H.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .blowup import WeightedBlowupGraph, assert_construction, blowup_without
from .errors import ImproperLabeling, SizeLimit, ValidationError
from .graphs import (
    Edge,
    PatternGraph,
    bow_tie_graph,
    canonical_edge,
    complete_bipartite,
    edge_assignment,
    is_proper_labeling,
    proper_labelings,
    tolerance,
)
from .polynomials import (
    AlgebraicNumber,
    largest_matching_root_squared,
    matching_even_part,
    roots_above,
)
from .tree_decision import CriticalDensity, _decide_from_ratios
from .verdict import Verdict

NODE_CAP = 10**5
LABELING_CAP = 10**5
BT1_CAP = 8   # verify_bt1's largest n + m

_ONE = Fraction(1)
_ZERO = Fraction(0)


@dataclass(frozen=True)
class MonotonePathTree:
    """T_f(H) with its node legend and per-edge provenance."""

    tree: PatternGraph
    legend: dict[int, tuple[int, ...]]       # tree node -> path of H-vertices
    edge_origin: dict[Edge, Edge]            # tree edge -> underlying H-edge


def monotone_path_tree(H: PatternGraph, f: Sequence[int]) -> MonotonePathTree:
    """Enumerate monotone paths by depth-first extension (children in
    increasing position of the added vertex).  Node 1 is the root path
    (f(1),); parents precede children in the numbering."""
    f = tuple(f)
    if not is_proper_labeling(H, f):
        raise ImproperLabeling(f"{f} is not a proper labeling")
    pos = {v: k for k, v in enumerate(f, start=1)}

    legend: dict[int, tuple[int, ...]] = {}
    edges: list[Edge] = []
    edge_origin: dict[Edge, Edge] = {}

    # (parent node, path) pairs, each pushed after its later siblings so
    # that nodes are numbered in depth-first preorder; the root's parent is 0
    stack = [(0, (f[0],))]
    node = 0
    while stack:
        parent, path = stack.pop()
        node += 1
        if node > NODE_CAP:
            raise SizeLimit(f"monotone-path tree exceeds {NODE_CAP} nodes")
        legend[node] = path
        last = path[-1]
        if parent:
            e = (parent, node)
            edges.append(e)
            edge_origin[e] = canonical_edge(path[-2], last)
        for w in sorted(H.adjacency[last], key=pos.__getitem__, reverse=True):
            if pos[w] > pos[last]:
                stack.append((node, path + (w,)))
    tree = PatternGraph(node, tuple(edges))
    return MonotonePathTree(tree, legend, edge_origin)


def _rooted_shape(T: PatternGraph, root: int) -> str:
    """The tree rooted at root as nested parentheses, each node's
    children's strings sorted; built from the leaves up, in reverse
    breadth-first order."""
    order, parent = T.bfs_tree(root)
    subs: dict[int, list[str]] = {v: [] for v in order}
    for v in reversed(order):
        shape = "(" + "".join(sorted(subs[v])) + ")"
        if v == root:
            return shape
        subs[parent[v]].append(shape)


def tree_shape_key(T: PatternGraph) -> str:
    """Canonical encoding of the unlabeled shape (AHU from the centers),
    so spectral data can be memoized across isomorphic trees."""
    # The vertex last reached from 1 ends a longest path, and the vertex
    # last reached from it the other end; the centers are its middle.
    end = T.bfs_tree(1)[0][-1]
    order, parent = T.bfs_tree(end)
    path = [order[-1]]
    while path[-1] != end:
        path.append(parent[path[-1]])
    centers = {path[(len(path) - 1) // 2], path[len(path) // 2]}
    return min(_rooted_shape(T, c) for c in centers)


@dataclass
class StarBound:
    """max over proper labelings of the lifted-tree critical density."""

    density: CriticalDensity
    best_labeling: tuple[int, ...]
    labelings_examined: int
    heuristic: bool
    # shape of T_f -> (example labeling, labeling count, critical density);
    # automorphic labelings collapse here, which is reporting-only data.
    shape_table: dict[str, tuple[tuple[int, ...], int, CriticalDensity]]

    def interval(self, tol: Fraction | float = Fraction(1, 10**9)) -> tuple[Fraction, Fraction]:
        return self.density.interval(tol)


def star_lower_bound(
    H: PatternGraph,
    tol: Fraction | float = Fraction(1, 10**9),
) -> StarBound:
    """Maximize 1 - 1/lambda(T_f(H))^2 over proper labelings.

    lambda depends only on the shape of T_f, so spectra are memoized by
    canonical shape; every labeling is still enumerated (up to
    LABELING_CAP; past it the lexicographic prefix is scored and the
    result is flagged heuristic, i.e. still a valid lower bound but maybe
    not the max).
    Ties keep the lexicographically first labeling.
    """
    tol = tolerance(tol)
    if H.n == 1:
        zero = CriticalDensity.zero()
        return StarBound(zero, (1,), 1, False, {"()": ((1,), 1, zero)})
    spectra: dict[str, AlgebraicNumber] = {}
    table: dict[str, tuple[tuple[int, ...], int, CriticalDensity]] = {}
    best_s: AlgebraicNumber | None = None
    best_f: tuple[int, ...] | None = None
    examined = 0
    heuristic = False
    for f in proper_labelings(H):
        if examined >= LABELING_CAP:
            heuristic = True
            break
        examined += 1
        mpt = monotone_path_tree(H, f)
        shape = tree_shape_key(mpt.tree)
        if shape not in spectra:
            spectra[shape] = largest_matching_root_squared(mpt.tree)
            table[shape] = (f, 1, CriticalDensity(spectra[shape]))
        else:
            example, count, dc = table[shape]
            table[shape] = (example, count + 1, dc)
        s = spectra[shape]
        if best_s is None or s.compare(best_s) > 0:
            best_s, best_f = s, f
    assert best_s is not None and best_f is not None
    bound = StarBound(CriticalDensity(best_s), best_f, examined, heuristic, table)
    bound.interval(tol)
    return bound


def star_necessary_condition(
    H: PatternGraph,
    gamma: Mapping[Edge, Fraction] | Sequence[Fraction],
    f: Sequence[int],
) -> Verdict:
    """One labeling's necessary condition: the lifted densities must
    ensure the monotone-path tree.  FailsThisLabeling certifies that a
    transversal-free construction with densities >= gamma exists."""
    dens = edge_assignment(H, gamma, low=_ZERO, high=_ONE, what="density")
    mpt = monotone_path_tree(H, f)
    # gamma is range-checked on H, so skip decide_tree's check per tree edge.
    ratios = {te: _ONE - dens[he] for te, he in mpt.edge_origin.items()}
    decision = _decide_from_ratios(mpt.tree, ratios)
    return Verdict.PASSES if decision.ensured else Verdict.FAILS


def verify_bt1(n: int, m: int, tol: Fraction | float = Fraction(1, 10**9)) -> bool:
    """Check, for every proper labeling f of K_{n,m}, that the
    monotone-path tree's spectral radius squared is exactly n + m - 1.

    The check is exact (the even part of the matching polynomial vanishes
    at n+m-1, and Descartes counts no larger root: matching polynomials
    are real-rooted), which implies any positive tol."""
    tolerance(tol)
    if n + m > BT1_CAP:
        raise SizeLimit(f"n + m capped at {BT1_CAP}")
    K = complete_bipartite(n, m)
    target = Fraction(n + m - 1)
    seen: set[str] = set()
    for f in proper_labelings(K):
        mpt = monotone_path_tree(K, f)
        shape = tree_shape_key(mpt.tree)
        if shape in seen:
            continue
        seen.add(shape)
        q = matching_even_part(mpt.tree)
        if q(target) != 0 or roots_above(q, target) != 0:
            return False
    return True


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
