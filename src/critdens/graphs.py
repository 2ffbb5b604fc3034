"""Pattern graphs and labelings.

A pattern graph H is a finite simple graph on vertices 1..n.  Edges are
stored as sorted pairs (i, j) with i < j, and the edge tuple itself is
kept sorted, so the edge order is canonical: density lists given
positionally always refer to this order.

The text format is a single declaration ``n; i-j i-j ...`` where n is the
vertex count and each token i-j is an edge.  Whitespace (including
newlines) separates tokens, so multi-line files are fine.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    DisconnectedGraph,
    ImproperLabeling,
    ParseError,
    ValidationError,
    VertexNotInGraph,
)

Edge = tuple[int, int]


def canonical_edge(i: int, j: int) -> Edge:
    """The edge {i, j} as the sorted pair used everywhere in the API."""
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class PatternGraph:
    """Simple graph on vertices 1..n with a canonical sorted edge list."""

    n: int
    edges: tuple[Edge, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", integer(self.n, "vertex count"))
        if self.n < 1:
            raise ValidationError(f"vertex count must be >= 1, got {self.n}")
        seen: set[Edge] = set()
        canon: list[Edge] = []
        for e in self.edges:
            try:
                i, j = e
            except (TypeError, ValueError):
                raise ValidationError(f"edge {e!r} is not a pair") from None
            i, j = integer(i, "vertex"), integer(j, "vertex")
            if i == j:
                raise ValidationError(f"loop at vertex {i}")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValidationError(
                    f"edge ({i},{j}) outside vertex range 1..{self.n}")
            a, b = canonical_edge(i, j)
            if (a, b) in seen:
                raise ValidationError(f"duplicate edge ({a},{b})")
            seen.add((a, b))
            canon.append((a, b))
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return {v: tuple(sorted(nb)) for v, nb in adj.items()}

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        return {e: k for k, e in enumerate(self.edges)}

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[self._check_vertex(v)]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def max_degree(self) -> int:
        return max(len(nb) for nb in self.adjacency.values())

    def has_edge(self, i: int, j: int) -> bool:
        return canonical_edge(self._check_vertex(i),
                              self._check_vertex(j)) in self.edge_index

    def is_connected(self) -> bool:
        return len(self.bfs_tree(1)[0]) == self.n

    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1 and self.is_connected()

    def bfs_tree(self, root: int = 1) -> tuple[list[int], dict[int, int]]:
        """root's component in breadth-first order, neighbours in label
        order, and each reached vertex's parent: the neighbour that first
        reached it (0 for the root).  Tree folds run on its dag_nodes."""
        root = self._check_vertex(root)
        order, parent = [root], {root: 0}
        for v in order:  # also visits what the loop appends
            for u in self.adjacency[v]:
                if u not in parent:
                    parent[u] = v
                    order.append(u)
        return order, parent

    def bfs_order(self, start: int = 1) -> list[int]:
        """Vertices in BFS order from start, then BFS from each unreached
        vertex in label order (so the result always covers the whole
        graph)."""
        order: list[int] = []
        reached: set[int] = set()
        for root in (self._check_vertex(start), *self.vertices()):
            if root not in reached:
                component = self.bfs_tree(root)[0]
                order += component
                reached.update(component)
        return order

    def _check_vertex(self, v: int) -> int:
        """v as a plain int; sympy and numpy integers pass too, bools do not."""
        try:
            if isinstance(v, bool):   # operator.index takes it as 0 or 1
                raise TypeError
            k = operator.index(v)
        except TypeError:
            raise VertexNotInGraph(f"vertex {v!r} is not an integer") from None
        if not 1 <= k <= self.n:
            raise VertexNotInGraph(f"vertex {v!r} not in 1..{self.n}")
        return k

    def to_text(self) -> str:
        body = " ".join(f"{i}-{j}" for i, j in self.edges)
        return f"{self.n}; {body}".rstrip()


def parse_graph(text: str) -> PatternGraph:
    """Parse the ``n; i-j i-j ...`` format.

    Raises ParseError for malformed tokens (with line numbers) and
    ValidationError for loops, duplicates, and out-of-range labels.
    """
    # line numbers count from the top of the text: the count's, then the edges'
    first = len(text[:len(text) - len(text.lstrip()) + 1].splitlines()) or 1
    if ";" not in text:
        raise ParseError(f"missing ';' after the vertex count (line {first})")
    semi = text.index(";")
    head = text[:semi].strip()
    n = natural(head)
    if n is None:
        raise ParseError(f"vertex count {head!r} is not a positive integer (line {first})")
    if n < 1:
        raise ValidationError(f"vertex count must be >= 1, got {n}")
    edges: set[Edge] = set()
    for lineno, line in enumerate(text[semi + 1:].splitlines() or [""],
                                  start=len(text[:semi + 1].splitlines())):
        for tok in line.split():
            i_str, sep, j_str = tok.partition("-")
            i, j = natural(i_str), natural(j_str)
            if not sep or i is None or j is None:
                raise ParseError(f"bad edge token {tok!r} (line {lineno})")
            if i == j:
                raise ValidationError(f"loop {tok!r} (line {lineno})")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValidationError(
                    f"edge {tok!r} outside vertex range 1..{n} (line {lineno})")
            e = canonical_edge(i, j)
            if e in edges:
                raise ValidationError(f"duplicate edge {tok!r} (line {lineno})")
            edges.add(e)
    return PatternGraph(n, tuple(edges))


def rational(x: object, what: str = "value", *where: object) -> Fraction:
    """x as an exact rational.  Fraction() turns NaN, infinities, malformed
    text and non-numbers away with bare ValueError, ArithmeticError or
    TypeError; this raises ValidationError, naming what x is and where
    it sits ("in cluster", 2), formatted only then.  A Fraction is
    returned as it is."""
    if type(x) is Fraction:
        return x
    try:
        return parse_rational(x)
    except (TypeError, ValueError, ArithmeticError):
        words = [what, repr(x), *map(str, where), "is not a finite rational"]
        raise ValidationError(" ".join(words)) from None


_DECIMAL_FORM = re.compile(r"\s*[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)"
                           r"(?:\.(\d*|\d+(?:_\d+)*))?(?:[eE]([-+]?\d+(?:_\d+)*))?\s*")


def parse_rational(x: object) -> Fraction:
    """Fraction(x), the one reader of rational text.  Text in Fraction's
    decimal form (_DECIMAL_FORM) that spells a numerator or denominator
    past int()'s digit limit, which needs an exponent or as many characters,
    is refused with ValueError before Fraction builds it, as is a bool, which
    Fraction takes as 0 or 1; else as Fraction."""
    if isinstance(x, bool):
        raise ValueError(f"{x!r} is not a rational")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()  # 3.10.7+
    m = (isinstance(x, str) and ("e" in x.lower() or len(x) > limit)
         and _DECIMAL_FORM.fullmatch(x))
    if m and limit:
        head, tail, exp = (g.replace("_", "") for g in m.groups(""))
        int(head or 0), int(tail or 0)  # int() refuses a long part as in Fraction
        e = int(exp or 0)
        if max(len(head + tail) + max(e, 0), len(tail) + max(-e, 0) + 1) > limit:
            raise ValueError(f"{x.strip()!r} has more than {limit} digits")
    return Fraction(x)


def rational_text(x: Fraction) -> str:
    """str(x), also past int()'s digit limit, which decimal does not have."""
    try:
        return str(x)
    except ValueError:
        num = str(Decimal(x.numerator))
        return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def tolerance(tol: object) -> Fraction:
    """A tolerance as a positive exact rational."""
    tol = rational(tol, "tolerance")
    if tol <= 0:
        raise ValidationError("tolerance must be positive")
    return tol


def natural(text: str) -> int | None:
    """text as an int when it is all decimal digits and within int()'s
    digit limit; None otherwise.  int() takes every str.isdecimal()
    string, but not every str.isdigit() one, such as '\u00b2'."""
    try:
        return int(text) if text.isdecimal() else None
    except ValueError:   # past int()'s limit on digits
        return None


def integer(x: object, what: str) -> int:
    """x as a plain int; sympy and numpy integers pass, floats and bools do not."""
    if isinstance(x, bool):   # operator.index takes it as 0 or 1
        raise ValidationError(f"{what} {x!r} is not an integer")
    try:
        return operator.index(x)
    except TypeError:
        raise ValidationError(f"{what} {x!r} is not an integer") from None


def sequence(x: object, what: str) -> list:
    """x as a list; a non-iterable raises ValidationError, not TypeError."""
    try:
        return list(x)
    except TypeError:
        raise ValidationError(f"{what} {x!r} is not a sequence") from None


def edge_assignment(
    H: PatternGraph,
    values: Mapping[Edge, Fraction] | Sequence[Fraction],
    low: Fraction | None = None,
    high: Fraction | None = None,
    what: str = "value",
) -> dict[Edge, Fraction]:
    """Resolve one value per edge of H, given positionally in H's
    canonical edge order or keyed by edge (either orientation, each edge
    exactly once), as exact rationals checked against [low, high]."""
    if isinstance(values, Mapping):
        out = {}
        for e, v in values.items():
            try:
                key = canonical_edge(*e)
            except TypeError:
                raise ValidationError(f"{e!r} is not an edge of the graph") from None
            if key not in H.edge_index:
                raise ValidationError(f"{key} is not an edge of the graph")
            if key in out:
                raise ValidationError(f"{what} for edge {key} given twice")
            out[key] = rational(v, what, "on edge", key)
        missing = set(H.edges) - set(out)
        if missing:
            raise ValidationError(f"missing {what} for edges {sorted(missing)}")
    else:
        vals = sequence(values, what)
        if len(vals) != len(H.edges):
            raise ValidationError(
                f"expected {len(H.edges)} {what} values in edge order "
                f"{list(H.edges)}, got {len(vals)}")
        out = {e: rational(v, what, "on edge", e) for e, v in zip(H.edges, vals)}
    for e, v in out.items():
        if low is not None and v < low:
            raise ValidationError(f"{what} {v} on edge {e} below {low}")
        if high is not None and v > high:
            raise ValidationError(f"{what} {v} on edge {e} above {high}")
    return out


def proper_labelings(H: PatternGraph) -> Iterator[tuple[int, ...]]:
    """Yield all proper labelings f = (f(1), ..., f(n)) lazily in
    lexicographic order.

    A labeling is proper when it is a bijection onto V(H) and every f(k),
    k >= 2, is adjacent to some earlier f(j).  Only connected graphs have
    one; DisconnectedGraph otherwise.
    """
    return (f for f, _ in _grow(_connected(H), False))


def single_source_orientations(H: PatternGraph) -> Iterator[tuple[tuple[int, ...], bool]]:
    """Yield each acyclic orientation of H with one source as (f, only):
    f its lexicographically least linear extension, in lexicographic order,
    and only whether f is its one extension, as it is iff consecutive
    vertices are all adjacent.  DisconnectedGraph when H is not connected.

    A proper labeling f orients each edge forward along f (D_f, source
    f(1)), and every such orientation comes from one: a linear extension
    of it is proper.  f is D_f's least extension iff each f(k) is the least
    vertex that D_f makes available there, so the walk refuses a vertex u
    that was next to the prefix when a larger non-neighbour of u was
    placed, until a neighbour of u has been placed since."""
    return _grow(_connected(H), True)


def _connected(H: PatternGraph) -> list[int]:
    """H's neighbourhoods as bit masks (bit v for vertex v), if H is connected."""
    if not H.is_connected():
        raise DisconnectedGraph("proper labelings exist only for connected graphs")
    return [0] + [sum(1 << w for w in H.adjacency[v]) for v in H.vertices()]


def _grow(adj: list[int], least: bool) -> Iterator[tuple[tuple[int, ...], bool]]:
    """Proper labelings (least: only the least of each orientation) in
    lexicographic order, each with whether its consecutive vertices are
    all adjacent, by depth-first growth of a proper prefix."""
    n = len(adj) - 1
    prefix = [0] * n
    # per position: the vertices left to try there, and the prefix before
    # it, its unplaced neighbours, the refused ones among them and whether
    # its consecutive vertices are all adjacent
    stack = [((1 << n + 1) - 2, 0, 0, 0, True)]
    while stack:
        choices, placed, near, refused, only = stack[-1]
        if not choices:
            stack.pop()
            continue
        low = choices & -choices
        stack[-1] = (choices ^ low, placed, near, refused, only)
        k, v = len(stack) - 1, low.bit_length() - 1
        prefix[k] = v
        only = only and (k == 0 or adj[v] >> prefix[k - 1] & 1)
        if k == n - 1:
            yield tuple(prefix), bool(only)
            continue
        placed |= low
        if least:
            refused = (refused | near & (low - 1)) & ~adj[v]
        near = (near | adj[v]) & ~placed
        stack.append((near & ~refused, placed, near, refused, only))


def proper_labeling_count(H: PatternGraph, cap: float = math.inf) -> int:
    """The number of proper labelings of H, or, once it passes cap, a
    number above cap.  Every prefix of a proper labeling covers a connected
    vertex set, so a DP over those sets, layer by size, counts the prefixes.
    Each prefix extends by each unplaced neighbour, so a layer's sum is read
    off the layer before, and sums never fall: the count stops at the first
    one above cap, and no layer it builds holds more than cap sets."""
    adj = _connected(H)
    # vertex set -> [prefixes covering it, its neighbourhood]
    layer = {1 << v: [1, adj[v]] for v in H.vertices()}
    total = H.n
    for _ in range(H.n - 1):
        total = sum([c * (near & ~s).bit_count() for s, (c, near) in layer.items()])
        if total > cap:
            break
        grown: dict[int, list[int]] = {}
        for s, (c, near) in layer.items():
            rest = near & ~s
            while rest:
                low = rest & -rest
                rest ^= low
                grown.setdefault(s | low, [0, near | adj[low.bit_length() - 1]])[0] += c
        layer = grown
    return total


def linear_extension_count(H: PatternGraph, labelings: Iterable[Sequence[int]]) -> int:
    """The number of proper labelings g with D_g = D_f (single_source_orientations),
    summed over f in labelings: D_f's linear extensions, by a DP over its
    down-sets, layer by size, which visits at most n + 1 sets per extension."""
    adj, total, every = _connected(H), 0, (1 << H.n + 1) - 2
    for f in labelings:
        before, placed = [], 0   # (bit, in-neighbours) per vertex
        try:
            for v in map(H._check_vertex, f):
                before.append((1 << v, adj[v] & placed))
                placed |= 1 << v
        except VertexNotInGraph:
            placed = 0
        # proper: each vertex once, each after the first next to an earlier one
        if placed != every or len(before) != H.n or not all([ins for _, ins in before[1:]]):
            raise ImproperLabeling(f"{tuple(f)} is not a proper labeling")
        layer = {0: 1}
        for _ in before:
            grown: dict[int, int] = {}
            for s, c in layer.items():
                for bit, ins in before:
                    if not s & bit and ins & ~s == 0:
                        grown[s | bit] = grown.get(s | bit, 0) + c
            layer = grown
        total += layer[placed]
    return total


def colour_ranks(colours: Sequence[object] | None, count: int, what: str
                 ) -> tuple[int, ...]:
    """count colours, each as the first place it takes (all alike when
    None), so equal colourings give equal ranks whatever the colours."""
    colours = [None] * count if colours is None else sequence(colours, what)
    if len(colours) != count:
        raise ValidationError(f"expected {count} {what}, got {len(colours)}")
    return tuple([colours.index(c) for c in colours])


@dataclass(frozen=True)
class AutomorphismGroup:
    """A group of permutations of 1..n, each as (σ(1), ..., σ(n)), held
    without listing its elements.

    generators generate it.  chain is a stabiliser chain: per level, a
    base point b and a transversal taking each point w of b's orbit, under
    the elements that fix the earlier base points, to one of them that
    maps b to w (b itself to the identity).  Every element is t_1∘...∘t_m
    for exactly one choice of one transversal element per level, and the
    elements that fix a level's base point and those before it fix every
    point below the next base point too."""

    generators: tuple[tuple[int, ...], ...]
    chain: tuple[tuple[int, dict[int, tuple[int, ...]]], ...]


def automorphisms(H: PatternGraph, colours: Sequence[object] | None = None,
                  edge_colours: Sequence[object] | None = None) -> AutomorphismGroup:
    """The automorphisms of H that keep every vertex's colour (colours[v - 1]
    for vertex v) and map every edge to one of the same colour
    (edge_colours[k] for H.edges[k]); all alike when None.  Colours are
    told apart by == alone, so they need not be hashable or ordered.

    Colour refinement splits the vertices into cells: two vertices share
    a cell while they share a colour and, cell by cell and edge colour by
    edge colour, a number of neighbours, and every automorphism keeps
    each cell.  The base points come from fixing the least vertex of a
    cell of two or more and refining again, until every cell is a single
    vertex.  Level by level from the last, each vertex of the base
    point's cell that the generators found so far do not reach from it
    gets a search for one automorphism fixing the earlier base points
    that maps the base point to it (fix one vertex of a cell and a
    candidate image, refine both, and go on while the refinements
    agree); each one found is a new generator.  The group is never
    listed: a star's or a clique's n! automorphisms take polynomial
    work."""
    n = H.n
    vertices = range(1, n + 1)
    identity = tuple(vertices)
    # each edge, both ways, with its colour times n + 1, which a cell (at
    # most n) added to it keeps apart from every other colour
    coloured = {}
    for (i, j), c in zip(H.edges, colour_ranks(edge_colours, len(H.edges), "edge colours")):
        coloured[i, j] = coloured[j, i] = c * (n + 1)
    adj = H.adjacency

    def refine(cell: list[int], fixed: int | None = None
               ) -> tuple[list[int], list[list]]:
        """The stable refinement of cell (by vertex - 1), with vertex fixed
        in a cell of its own first, each cell named by the rank of what
        split it off; and every round's sorted splits.  Two colourings
        that an automorphism maps onto each other give the same splits,
        and it maps each cell of one refinement onto the like-named cell
        of the other."""
        if fixed is not None:
            cell = cell[:]
            cell[fixed - 1] = n   # above every rank
        trace = []
        while True:
            keys = [(cell[v - 1], tuple(sorted([coloured[v, u] + cell[u - 1] for u in adj[v]])))
                    for v in vertices]
            splits = sorted(set(keys))
            trace.append(sorted(keys))
            rank = {key: r for r, key in enumerate(splits)}
            refined = [rank[key] for key in keys]
            if len(splits) == len(set(cell)):
                return refined, trace
            cell = refined

    def shared(cell: list[int]) -> int | None:
        """The least vertex whose cell has another vertex."""
        return next((v for v in vertices if cell.count(cell[v - 1]) > 1), None)

    def extend(domain: list[int], image: list[int]) -> tuple[int, ...] | None:
        """An automorphism mapping each cell of domain onto the like-named
        cell of image, two refinements whose splits agree; None if none."""
        v = shared(domain)
        if v is None:
            at = {c: w for w, c in enumerate(image, 1)}
            g = tuple([at[c] for c in domain])
            return g if all(coloured.get((g[w - 1], g[u - 1])) == c
                            for (w, u), c in coloured.items()) else None
        fixed, trace = refine(domain, v)
        for w in vertices:
            if image[w - 1] == domain[v - 1]:
                moved, splits = refine(image, w)
                if splits == trace:
                    g = extend(fixed, moved)
                    if g is not None:
                        return g
        return None

    def transversal(b: int, gens: list[tuple[int, ...]]) -> dict[int, tuple[int, ...]]:
        reached = {b: identity}
        queue = [b]
        for x in queue:   # also visits what the loop appends
            for g in gens:
                y = g[x - 1]
                if y not in reached:
                    reached[y] = tuple([g[p - 1] for p in reached[x]])
                    queue.append(y)
        return reached

    path = [refine(colour_ranks(colours, n, "colours"))]
    base: list[int] = []
    while (b := shared(path[-1][0])) is not None:
        base.append(b)
        path.append(refine(path[-1][0], b))
    gens: list[tuple[int, ...]] = []
    chain = []
    for level in reversed(range(len(base))):
        b, cell = base[level], path[level][0]
        fixed, trace = path[level + 1]
        orbit = transversal(b, gens)
        for w in vertices:
            if cell[w - 1] == cell[b - 1] and w not in orbit:
                moved, splits = refine(cell, w)
                g = extend(fixed, moved) if splits == trace else None
                if g is not None:
                    gens.append(g)
                    orbit = transversal(b, gens)
        chain.append((b, orbit))
    return AutomorphismGroup(tuple(gens), tuple(reversed(chain)))


def is_proper_labeling(H: PatternGraph, f: Sequence[int]) -> bool:
    try:
        f = [H._check_vertex(v) for v in f]
    except VertexNotInGraph:
        return False
    if sorted(f) != list(H.vertices()):
        return False
    pos = {v: k for k, v in enumerate(f)}
    return all(any(pos[u] < pos[v] for u in H.adjacency[v]) for v in f[1:])


def rooted_id(H: PatternGraph, f: Sequence[int], ids: dict[tuple[int, ...], int]) -> int:
    """The rooted shape of the monotone-path tree T_f(H) (critdens.stars;
    T itself for a tree T and its BFS order) as an id interned in ids,
    key -> id in id order (so list(ids)[id] is id's key): backwards along
    f, each vertex gets the id of the sorted ids of its later neighbours,
    as a node's subtree in T_f depends only on the node's last vertex.  A
    key's ids are interned before the key."""
    rid = [-1] * (H.n + 1)   # vertex -> id, once passed backwards
    for v in reversed(f):
        key = tuple(sorted([rid[w] for w in H.adjacency[v] if rid[w] >= 0]))
        rid[v] = ids.setdefault(key, len(ids))
    return rid[f[0]]


def id_nodes(ids: Mapping[tuple[int, ...], int]) -> list[list[tuple[int, int]]]:
    """rooted_id's interned keys as leaf_up_inertia's nodes, children at weight 1."""
    return [[(c, 1) for c in key] for key in ids]


def rooted_nodes(H: PatternGraph, f: Sequence[int]) -> list[list[tuple[int, int]]]:
    """T_f(H)'s rooted shapes (rooted_id) as id_nodes, the root last."""
    ids: dict[tuple[int, ...], int] = {}
    rooted_id(H, f, ids)
    return id_nodes(ids)


def dag_nodes(H: PatternGraph, f: Sequence[int], weight: Callable | None = None) -> list[list]:
    """H's vertices backwards along the order f as polynomials.leaf_up_inertia's
    node list, each with its later neighbours as children at weight(edge) (1
    when None); along a tree's bfs_tree order, the tree's own children."""
    at = {v: k for k, v in enumerate(reversed(f))}
    return [[(at[w], 1 if weight is None else weight(canonical_edge(v, w)))
             for w in H.adjacency[v] if at[w] < at[v]] for v in reversed(f)]


# Standard families, used throughout the tests and the CLI self-test.

def path_graph(n: int) -> PatternGraph:
    n = integer(n, "vertex count")
    return PatternGraph(n, tuple((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> PatternGraph:
    n = integer(n, "vertex count")
    if n < 3:
        raise ValidationError("cycles need n >= 3")
    return PatternGraph(n, tuple((i, i + 1) for i in range(1, n)) + ((1, n),))


def star_graph(n: int) -> PatternGraph:
    """S_n: n vertices, center 1, leaves 2..n."""
    n = integer(n, "vertex count")
    if n < 2:
        raise ValidationError("stars need n >= 2")
    return PatternGraph(n, tuple((1, j) for j in range(2, n + 1)))


def complete_graph(n: int) -> PatternGraph:
    n = integer(n, "vertex count")
    return PatternGraph(
        n, tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1)))


def complete_bipartite(n: int, m: int) -> PatternGraph:
    """K_{n,m} with parts 1..n and n+1..n+m."""
    n, m = integer(n, "part size"), integer(m, "part size")
    if n < 1 or m < 1:
        raise ValidationError("both parts must be nonempty")
    return PatternGraph(
        n + m, tuple((i, n + j) for i in range(1, n + 1) for j in range(1, m + 1)))


def bow_tie_graph() -> PatternGraph:
    """Two triangles sharing vertex 1: edges 12 13 14 15 23 45."""
    return PatternGraph(5, ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (4, 5)))
