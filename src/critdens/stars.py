"""Monotone-path trees, the star-decomposition lower bound and necessary
condition, and the K_{n,m} spectral check.

For a proper labeling f of a connected pattern H, the monotone-path tree
T_f(H) has one node per path f(i_1) f(i_2) ... f(i_k) with i_1 = 1 and
strictly increasing positions and consecutive vertices adjacent in H; a
path's parent is the path minus its last vertex.  Densities lift from H:
the edge into node P carries the density of the H-edge between P's last
two vertices.

Every proper labeling yields the necessary condition that the lifted
densities must ensure T_f(H); the best such condition over all labelings
is the star lower bound max_f (1 - 1/lambda(T_f)^2) on the critical
density of H.  The condition, the star bound and the K_{n,m} check run
on D_f, the DAG that orients each H-edge forward along f, which T_f
unfolds from f(1), by polynomials.leaf_up_inertia: on the DAG's vertices
(graphs.dag_nodes) at the condition's per-edge ratios, else on T_f's
interned rooted shapes (graphs.id_nodes).  T_f depends on f only through
D_f, so the star bound and the K_{n,m} check walk H's single-source
acyclic orientations, one labeling each (graphs.single_source_orientations);
the star bound counts the labelings (graphs.proper_labeling_count), and
past LABELING_CAP of them walks their lexicographic prefix instead.  It
then certifies the rooted shapes best-first by a float hint; one float
elimination, on the safe side of the best's lambda^2 by more than
rounding can reach, sets aside each shape that cannot reach it, and the
others take their spectra from the rooted shapes too
(polynomials.matching_root_squared).  monotone_path_tree and
tree_shape_key build T_f only for the shape table and for export.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Mapping, Sequence

from .errors import ImproperLabeling, SizeLimit
from .graphs import (
    Edge,
    PatternGraph,
    complete_bipartite,
    dag_nodes,
    edge_assignment,
    id_nodes,
    integer,
    is_proper_labeling,
    linear_extension_count,
    proper_labeling_count,
    proper_labelings,
    rooted_id,
    rooted_nodes,
    single_source_orientations,
    tolerance,
)
from .polynomials import leaf_up_inertia, matching_root_squared, tree_even_part
from .tree_decision import CriticalDensity
from .verdict import Verdict

NODE_CAP = 10**5
LABELING_CAP = 10**5
BT1_CAP = 8   # verify_bt1's largest n + m

_ONE = Fraction(1)
_ZERO = Fraction(0)


@dataclass(frozen=True)
class MonotonePathTree:
    """T_f(H) with its node legend."""

    tree: PatternGraph
    legend: dict[int, tuple[int, ...]]  # node -> H-path; edge (a, b) lifts legend[b][-2:]


def _proper(H: PatternGraph, f: Sequence[int]) -> tuple[int, ...]:
    f = tuple(f)
    if not is_proper_labeling(H, f):
        raise ImproperLabeling(f"{f} is not a proper labeling")
    return f


def monotone_path_tree(H: PatternGraph, f: Sequence[int]) -> MonotonePathTree:
    """Enumerate monotone paths by depth-first extension (children in
    increasing position of the added vertex).  Node 1 is the root path
    (f(1),); parents precede children in the numbering."""
    f = _proper(H, f)
    pos = {v: k for k, v in enumerate(f, start=1)}

    legend: dict[int, tuple[int, ...]] = {}
    edges: list[Edge] = []

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
            edges.append((parent, node))
        for w in sorted(H.adjacency[last], key=pos.__getitem__, reverse=True):
            if pos[w] > pos[last]:
                stack.append((node, path + (w,)))
    tree = PatternGraph(node, tuple(edges))
    return MonotonePathTree(tree, legend)


def _rooted_shape(T: PatternGraph, root: int) -> str:
    """The tree rooted at root as nested parentheses, each node's children's strings sorted."""
    shapes: list[str] = []
    for node in dag_nodes(T, T.bfs_tree(root)[0]):
        shapes.append("(" + "".join(sorted([shapes[c] for c, _ in node])) + ")")
    return shapes[-1]


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


def _pivots_below(nodes: Sequence[Sequence[tuple[int, int]]],
                  s: Fraction) -> list[tuple[float | None, int]]:
    """leaf_up_inertia in floats just above ratio 1/s: where an id's
    pivots are all positive, so are its exact ones at 1/s: lambda^2 < s.
    With k the most children of a node and u = 2^-53, its roundings make
    it the exact elimination at per-edge ratios within 1 +- (k + 2)u of
    its ratio (that of 1 - t keeps the pivot's sign), and positive pivots
    only grow as ratios fall; 1 + 8(k + 8)u also covers 1/s's rounding."""
    k = max(map(len, nodes))
    return leaf_up_inertia(nodes, float(1 / s) * (1 + (k + 8) * 2.0**-50))


ShapeTable = dict[str, tuple[tuple[int, ...], int, CriticalDensity]]


@dataclass(eq=False)
class StarBound:
    """max over proper labelings of the lifted-tree critical density."""

    density: CriticalDensity
    best_labeling: tuple[int, ...]
    labelings_examined: int
    heuristic: bool
    # shape of T_f -> (example labeling, labeling count, critical density),
    # or a function that builds it when shape_table is first read;
    # automorphic labelings collapse here, which is reporting-only data.
    _table: ShapeTable | Callable[[], ShapeTable]

    @property
    def shape_table(self) -> ShapeTable:
        if callable(self._table):
            self._table = self._table()
        return self._table

    def __eq__(self, other: object) -> bool:
        # reading both tables first leaves every field a plain value
        return (isinstance(other, StarBound) and self.shape_table == other.shape_table
                and vars(self) == vars(other))

    def interval(self, tol: Fraction | float = Fraction(1, 10**9)) -> tuple[Fraction, Fraction]:
        return self.density.interval(tol)


def _subtree_sizes(nodes: Sequence[Sequence[tuple[int, object]]]) -> list[int]:
    """Each node's subtree size, for leaf_up_inertia's node list."""
    size: list[int] = []
    for node in nodes:
        size.append(1 + sum([size[c] for c, _ in node]))
    return size


def star_lower_bound(
    H: PatternGraph,
    tol: Fraction | float = Fraction(1, 10**9),
) -> StarBound:
    """Maximize 1 - 1/lambda(T_f(H))^2 over proper labelings.

    Count the labelings (proper_labeling_count).  Up to LABELING_CAP of
    them, walk the single-source acyclic orientations, each as its least
    labeling, so each rooted shape of T_f first meets its least; past the
    cap, the lexicographic prefix of LABELING_CAP labelings is scored and
    flagged heuristic: a valid lower bound, maybe not the max.  A tree's
    T_f is the tree.  Then certify the rooted shapes by descending hint,
    F of leaf_up_inertia at a ratio below every 1/lambda(T_f)^2;
    _pivots_below, s the lower end of the best's lambda^2, sets aside each
    with lambda(T_f)^2 < s, which can neither beat nor tie the best; the
    others get a spectrum from T_f's rooted shapes, compared exactly with
    the best.  Ties keep the lexicographically first labeling, so the
    order changes no output.  Spectra are memoised per matching even part,
    which isomorphic shapes share; shape_table builds T_f per rooted id
    when read, and counts its labelings as its orientations' linear
    extensions (linear_extension_count).
    """
    tol = tolerance(tol)
    if H.n == 1:
        zero = CriticalDensity.zero()
        return StarBound(zero, (1,), 1, False, {"()": ((1,), 1, zero)})
    spectra: dict[tuple[int, ...], CriticalDensity] = {}

    def spectrum(f: tuple[int, ...]) -> CriticalDensity:
        """T_f's, refused past NODE_CAP nodes as monotone_path_tree refuses it."""
        nodes = rooted_nodes(H, f)
        if _subtree_sizes(nodes)[-1] > NODE_CAP:
            raise SizeLimit(f"monotone-path tree exceeds {NODE_CAP} nodes")
        even = tree_even_part(nodes)
        if even not in spectra:
            spectra[even] = CriticalDensity(matching_root_squared(even, nodes=nodes))
        return spectra[even]

    def shape_table() -> ShapeTable:
        """By T_f's shape key, in the order of the rooted ids' first labelings."""
        table: ShapeTable = {}
        for f, count, pending in records.values():
            count += linear_extension_count(H, pending)
            shape = tree_shape_key(monotone_path_tree(H, f).tree)
            example, total, dc = table[shape] if shape in table else (f, 0, spectrum(f))
            table[shape] = (example, total + count, dc)
        return table

    best: CriticalDensity | None = None
    best_f: tuple[int, ...] | None = None
    labelings = proper_labeling_count(H, LABELING_CAP)
    examined, heuristic = min(labelings, LABELING_CAP), labelings > LABELING_CAP
    # rooted id -> [first labeling, labelings counted, orientations whose
    # labelings the shape table counts when read]
    records: dict[int, list] = {}
    if H.is_tree():
        # T_f is H for every f
        best_f = next(proper_labelings(H))
        best = spectrum(best_f)
        records[0] = [best_f, examined, ()]
    else:
        ids: dict[tuple[int, ...], int] = {}
        if heuristic:
            for f in islice(proper_labelings(H), LABELING_CAP):
                records.setdefault(rooted_id(H, f, ids), [f, 0, ()])[1] += 1
        else:
            for f, only in single_source_orientations(H):
                record = records.setdefault(rooted_id(H, f, ids), [f, 0, []])
                if only:
                    record[1] += 1
                else:
                    record[2].append(f)
        nodes = id_nodes(ids)
        # T_f has max degree <= Delta, so lambda(T_f)^2 < 4(Delta - 1)
        hint = leaf_up_inertia(nodes, 1 / (4 * (H.max_degree() - 1)))
        pivots: list[tuple[float | None, int]] | None = None
        for rid in sorted(records, key=lambda rid: -hint[rid][0]):
            f = records[rid][0]
            if best is not None:
                # every pivot positive: lambda(T_f)^2 < s <= best, s the
                # interval's lower end (> 1: a non-tree's path tree has
                # lambda^2 >= 2)
                if pivots is None:
                    pivots = _pivots_below(nodes, best.s_star.interval()[0])
                F, count = pivots[rid]
                if count == 0 and F is not None:
                    continue
            dc = spectrum(f)
            c = 1 if best is None else 0 if dc is best else dc.s_star.compare(best.s_star)
            if c > 0 or c == 0 and f < best_f:
                best, best_f, pivots = dc, f, None
    assert best is not None and best_f is not None
    bound = StarBound(best, best_f, examined, heuristic, shape_table)
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
    f = _proper(H, f)
    # T_f's leaf reduction on the DAG at ratio 1 - density: removing the
    # children one leaf at a time, the k-th rescaled ratio reaches 1 iff
    # the first k terms of the sum do, so the leaf order does not matter.
    F, count = leaf_up_inertia(dag_nodes(H, f, lambda e: _ONE - dens[e]), _ONE)[-1]
    return Verdict.PASSES if count == 0 and F is not None else Verdict.FAILS


def verify_bt1(n: int, m: int, tol: Fraction | float = Fraction(1, 10**9)) -> bool:
    """Check, for every proper labeling f of K_{n,m}, that the
    monotone-path tree's spectral radius squared is exactly n + m - 1:
    at ratio 1/(n + m - 1) each rooted shape's root pivot is exactly 0,
    and every pivot below it positive, one labeling per orientation D_f.
    Exact, so any positive tol holds."""
    tolerance(tol)
    n, m = integer(n, "part size"), integer(m, "part size")
    if n + m > BT1_CAP:
        raise SizeLimit(f"n + m capped at {BT1_CAP}")
    K = complete_bipartite(n, m)
    ids: dict[tuple[int, ...], int] = {}
    roots = {rooted_id(K, f, ids) for f, _ in single_source_orientations(K)}
    pivots = leaf_up_inertia(id_nodes(ids), Fraction(1, n + m - 1))
    return all(pivots[rid] == (None, 0) for rid in roots)

