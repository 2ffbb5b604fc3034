"""Independent brute-force cross-checks: an unpruned transversal search,
a construction search over degree-bounded weighted configurations, and
the best homogeneous density on the weight grid, a lower bound on the
critical density.

The construction search rests on one reduction: a configuration is
transversal-free iff its missing cross pairs contain a minimal blocking
cover (a set of slot pairs meeting every transversal, minimal under
inclusion), and dropping extra missing pairs only raises densities.  It
therefore suffices to enumerate minimal covers per cluster-size vector
and search grid weights for each; a full-enumeration None means no grid
configuration meets the floor.  That is evidence about the grid, not a
proof about real weights.

Weights are multiples of 1/q, so the search runs on integer numerators:
the missing mass of an edge is an integer out of q*q, and density floors
become integer mass ceilings.

The weight search holds each edge's mass to a ceiling and stops at the
first weights within them.  oracle-search sets the ceilings from its
density floor; oracle-dcrit descends, each search with every ceiling at
one below the largest mass of the weights the last one found, until a
search finds none.  Three rules keep the search off subtrees that hold no
result, so the configurations, their order, the weights found, the
optimum and every verdict are those of the plain enumeration:

* Banned siblings.  Covers are built by adding, for the first transversal
  not yet blocked, each slot pair that blocks it; once a pair has been
  tried, the subtrees of the later siblings exclude it.  Every set of
  pairs is then reached once instead of once per order of its pairs.
* Feasible intervals.  A cluster of size k takes its first k - 2 slot
  weights (its head, empty for k <= 2) in lexicographic order, then a
  last pair (x, rest - x) of what the head leaves of q; a size-1
  cluster's only weight is q.  With the head fixed, each closed edge's
  mass is linear in x; the search tries only the interval of x that
  keeps every closed edge within its ceiling.
* Look-ahead.  Once a cluster is placed, each later cluster joined to it
  must still have room: a size <= 2 cluster a non-empty interval under
  all its placed neighbours, a larger one the new edge's mass at its
  cheapest weights within the ceiling; a prefix failing either is cut.
  This is solved in closed form over the placed cluster's x: the new
  edge's mass is bilinear in x and a later size <= 2 cluster's first
  weight y, so that cluster has room iff the mass at one end of its
  interval in y is within the ceiling, and a larger one iff one of its
  slot terms is.  Each condition is linear in x, so each later cluster
  rules out one gap a < x < b, and only the x outside every gap are
  tried.

The budget counts nodes actually expanded (cover-tree nodes and weight
assignments tried), so the pruning spends less of it than the plain
enumeration would; an x outside the interval or in a look-ahead gap is
never tried and costs nothing.  A head with no x left to try costs one
unit, so a cluster spends at most one unit per weight tuple, as the
plain enumeration does.  An exhausted budget names the cluster-size vector
and the configuration index (the one --checkpoint counts) it stopped at;
oracle-dcrit also the best grid density reached so far.  Its descent
walks the weights before each improvement again, once per search.

oracle-dcrit searches one configuration per automorphism orbit.  An
automorphism σ of H maps a configuration, with any weights on it, to
one whose edges carry the same masses, permuted; so both have the same
best largest mass, and the grid optimum, a maximum over all
configurations, is the maximum over one per orbit.  The size vectors
searched are those least in their orbits under the automorphisms that
keep the size bounds (so every image stays within them); for each such
s, the covers searched are those least in their orbits under Aut(H)_s,
the automorphisms that keep s, together with the slot permutations.
The groups are held as generators and a stabiliser chain
(graphs.automorphisms), never listed: a size vector is tested by
walking its images down the chain, and a vector ruled out by its
first k sizes skips every vector with that prefix.  Its
exhausted-budget message counts configurations among those searched.
oracle-search keeps every configuration and does no automorphism work:
its floor need not be symmetric, so an image of a configuration that
misses the floor may meet it, and its --checkpoint indices count every
configuration.

A size vector's finished cover listing is kept for the process, and a
reuse charges the units the listing spent, so a search spends the same,
and stops at the same point, whether or not its covers were listed
before.  A kept listing also keeps, per q, the weight search built on
each of its covers, which a later search reruns with a fresh budget:
a process that repeats a (pattern, sizes, q), as a floor sweep does,
builds each search once.  The kept listings hold at most 50,000 units,
one per cover and, per weight search, one per pair of its cover and
per cluster (about 450 bytes a unit, so some 25 MB in all), the least
recently used listing dropped first with its searches; a listing
stopped by the budget is not kept.  Canonicalising the covers and, for
oracle-dcrit, picking the orbit representatives is outside the budget.
It is one walk over the raw covers the listing reached, each mapped
under two generators per cluster (a swap of two slots and the cycle of
all), and one member of each slot orbit under generators of Aut(H)_s,
so its cost is linear in those covers.  A listing kept by
oracle-search has no representatives; oracle-dcrit lists it again, at
the same spend.  K4 oracle-dcrit at q = 8 reaches its exit-3 point
at configuration 1,007 in 26 s, not at 8,660 in 43 s, at a peak RSS
of 40 MiB, not 160 MiB; C5 at q = 50 finishes in 0.6 s, not 6.4 s
(one run each, 2-core host).
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .blowup import (
    TRANSVERSAL_GUARD,
    Transversal,
    WeightedBlowupGraph,
    assert_construction,
    blowup_without,
)
from .errors import BudgetExhausted, ParseError, SizeLimit, ValidationError
from .graphs import (
    AutomorphismGroup,
    Edge,
    PatternGraph,
    automorphisms,
    edge_assignment,
    integer,
    sequence,
    tolerance,
)

CHECKPOINT_FORMAT = 1

_ZERO = Fraction(0)
_ONE = Fraction(1)

Pair = tuple[tuple[int, int], tuple[int, int]]   # ((i, a), (j, b)), i < j
Cover = tuple[Pair, ...]
# a covered edge (i, j) and, for each slot b of j, the slots a of i missing
# with it; a size-1 cluster's second list stays empty, so every cluster of
# size <= 2 has two
EdgeSlots = tuple[Edge, list[list[int]]]


@dataclass
class SearchConfig:
    """Knobs for the configuration search.

    cluster_size_bounds caps each cluster's size (None: the vertex
    degrees, which never lose a construction); weights range over
    positive multiples of 1/weight_grid_denominator; density_floor is
    the per-edge target (None: zero); budget caps node expansions.
    """

    cluster_size_bounds: Sequence[int] | None = None
    weight_grid_denominator: int = 10
    density_floor: Mapping[Edge, Fraction] | Sequence[Fraction] | None = None
    budget: int = 10**7

    def __post_init__(self) -> None:
        self.weight_grid_denominator = integer(
            self.weight_grid_denominator, "weight grid denominator")
        self.budget = integer(self.budget, "budget")
        if self.weight_grid_denominator < 1:
            raise ValidationError("weight grid denominator must be >= 1")
        if self.budget <= 0:
            raise ValidationError("budget must be positive")

    def resolved_bounds(self, H: PatternGraph) -> tuple[int, ...]:
        if self.cluster_size_bounds is None:
            return tuple(max(1, H.degree(v)) for v in H.vertices())
        bounds = tuple(integer(b, "cluster size bound") for b in
                       sequence(self.cluster_size_bounds, "cluster size bounds"))
        if len(bounds) != H.n:
            raise ValidationError(
                f"expected {H.n} cluster size bounds, got {len(bounds)}")
        if any(b < 1 for b in bounds):
            raise ValidationError("cluster size bounds must be >= 1")
        return bounds

    def resolved_floor(self, H: PatternGraph) -> dict[Edge, Fraction]:
        if self.density_floor is None:
            return {e: _ZERO for e in H.edges}
        return edge_assignment(
            H, self.density_floor, low=_ZERO, high=_ONE, what="density floor")


def oracle_find_transversal(B: WeightedBlowupGraph) -> Transversal | None:
    """Exhaustive nested-loop search with no pruning; the reference the
    pruned searcher is measured against."""
    sizes = B.cluster_sizes()
    space = 1
    for k in sizes:
        space *= k
    if space > TRANSVERSAL_GUARD:
        raise SizeLimit(f"{space} candidate transversals exceed {TRANSVERSAL_GUARD}")
    H = B.pattern
    for combo in itertools.product(*(range(k) for k in sizes)):
        choice = {v: combo[v - 1] for v in H.vertices()}
        if all(B.has_cross_edge((i, choice[i]), (j, choice[j]))
               for i, j in H.edges):
            return Transversal(choice)
    return None


class _Budget:
    """Node expansions left.  The searches keep sizes, config and phase
    at their position, so an exhausted budget says where it stopped:
    config is the index --checkpoint counts, and while a size vector's
    covers are listed it is the index of the first of them."""

    __slots__ = ("left", "sizes", "config", "phase")

    def __init__(self, amount: int) -> None:
        self.left = amount
        self.listing((), 0)

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExhausted(
                f"search budget exhausted at configuration {self.config}, "
                f"cluster sizes {list(self.sizes)}, {self.phase}")

    def charge(self, amount: int) -> None:
        """Spend amount units at once, failing where amount single spends
        would and with the same budget left."""
        if amount > self.left:
            self.left = 0
            self.spend()
        self.left -= amount

    def listing(self, sizes: tuple[int, ...], config: int) -> None:
        self.sizes, self.config, self.phase = sizes, config, "listing minimal covers"

    def searching(self, config: int) -> None:
        self.config, self.phase = config, "searching weights"


class _Listing:
    """A size vector's finished cover listing: its covers, canonical under
    within-cluster slot permutations and sorted; the units listing them
    spent; for oracle-dcrit, the indices of the covers it searches, the
    least of each orbit under Aut(H)_s with the slot permutations (None
    when listed for oracle-search); and, once the listing is kept, the
    weight searches built on its covers, by (q, index)."""

    __slots__ = ("covers", "spent", "orbit_reps", "searches")

    def __init__(self, covers: tuple[Cover, ...], spent: int,
                 orbit_reps: tuple[int, ...] | None) -> None:
        self.covers, self.spent, self.orbit_reps = covers, spent, orbit_reps
        self.searches: dict[tuple[int, int], _WeightSearch] = {}


def _held(listing: _Listing) -> int:
    """What a kept listing counts against the cap: one per cover, and per
    kept weight search its cover's pairs and its clusters, which its
    tables grow with (200-500 bytes each against ~100 for a cover)."""
    return len(listing.covers) + sum([len(search.cover) + search.n
                                      for search in listing.searches.values()])


class _KeptListings:
    """Finished cover listings kept for the process, least recently used
    first, by (H.n, H.edges, sizes): at most max_held in all, as _held
    counts them."""

    def __init__(self, max_held: int) -> None:
        self.max_held = max_held
        self.entries: OrderedDict[tuple, _Listing] = OrderedDict()
        self.held = 0

    def get(self, key: tuple) -> _Listing | None:
        kept = self.entries.get(key)
        if kept is not None:
            self.entries.move_to_end(key)
        return kept

    def keep(self, key: tuple, listing: _Listing) -> None:
        replaced = self.entries.pop(key, None)
        if replaced is not None:
            self.held -= _held(replaced)
        if len(listing.covers) <= self.max_held:
            self.entries[key] = listing
            self._grow(len(listing.covers))

    def keep_search(self, key: tuple, listing: _Listing, at: tuple[int, int],
                    search: _WeightSearch) -> None:
        """Keep search with listing, while the listing itself is kept."""
        if self.entries.get(key) is listing:
            listing.searches[at] = search
            self._grow(len(search.cover) + search.n)

    def _grow(self, amount: int) -> None:
        self.held += amount
        while self.held > self.max_held:
            self.held -= _held(self.entries.popitem(last=False)[1])

    def clear(self) -> None:
        self.entries.clear()
        self.held = 0


_LISTINGS = _KeptListings(max_held=50_000)


def _minimal_covers(H: PatternGraph, sizes: Sequence[int], budget: _Budget,
                    symmetric: bool = False) -> _Listing:
    """_list_minimal_covers, kept once a listing finishes: a repeated
    call returns the kept listing and charges the budget what the listing
    spent, failing where the listing itself would.  A kept listing
    without the orbit representatives a symmetric call asks for is
    listed again, at the same spend, and replaced."""
    key = (H.n, H.edges, tuple(sizes))
    kept = _LISTINGS.get(key)
    if kept is not None and (not symmetric or kept.orbit_reps is not None):
        budget.charge(kept.spent)
        return kept
    left = budget.left
    covers, orbit_reps = _list_minimal_covers(H, sizes, budget, symmetric)
    listing = _Listing(covers, left - budget.left, orbit_reps)
    _LISTINGS.keep(key, listing)
    return listing


def _list_minimal_covers(H: PatternGraph, sizes: Sequence[int], budget: _Budget,
                         symmetric: bool = False
                         ) -> tuple[tuple[Cover, ...], tuple[int, ...] | None]:
    """All minimal blocking covers, canonicalized under within-cluster
    slot permutations and sorted by (size, lexicographic order); when
    symmetric, also the indices of those least in their orbits under the
    automorphisms of H that keep the sizes together with the slot
    permutations, else None."""
    ranges = [range(k) for k in sizes]
    transversals = list(itertools.product(*ranges))
    index = {t: i for i, t in enumerate(transversals)}
    full = (1 << len(transversals)) - 1

    pairs: list[Pair] = []
    masks: list[int] = []
    for i, j in H.edges:
        for a in range(sizes[i - 1]):
            for b in range(sizes[j - 1]):
                mask = 0
                for t in transversals:
                    if t[i - 1] == a and t[j - 1] == b:
                        mask |= 1 << index[t]
                pairs.append(((i, a), (j, b)))
                masks.append(mask)

    by_transversal: list[list[int]] = [[] for _ in transversals]
    for p, mask in enumerate(masks):
        m = mask
        while m:
            low = m & -m
            by_transversal[low.bit_length() - 1].append(p)
            m ^= low

    # A raw cover is held as a mask with bit top - r for each of its pairs,
    # r being the pair's place in sorted order: of two covers with as many
    # pairs, the one whose sorted pairs come first has the larger mask, and
    # an int takes far less memory than a set.
    ranked = sorted(pairs)
    rank = {pair: r for r, pair in enumerate(ranked)}
    top = len(ranked) - 1
    bits = [1 << top - rank[pair] for pair in pairs]
    found: set[int] = set()

    def branch(chosen: tuple[int, ...], covered: int, banned: int) -> None:
        budget.spend()
        if covered == full:
            # keep only inclusion-minimal covers
            for p in chosen:
                rest = 0
                for r in chosen:
                    if r != p:
                        rest |= masks[r]
                if rest == full:
                    return
            found.add(sum([bits[p] for p in chosen]))
            return
        first = (~covered & full)
        first = (first & -first).bit_length() - 1
        # A pair tried here is banned from its later siblings' subtrees:
        # those subtrees hold exactly the covers without it, so every set
        # of pairs is reached once.
        for p in by_transversal[first]:
            if not banned >> p & 1:
                branch(chosen + (p,), covered | masks[p], banned)
                banned |= 1 << p

    branch((), 0, 0)

    # Generators, each a permutation of the pairs: per cluster of size
    # k >= 2 the swap of its slots 0 and 1 and the cycle of all k (the
    # same for k = 2), which generate its k! slot permutations; and
    # generators of Aut(H)_s, each moving slot a of cluster v to slot a
    # of its image.  A generator maps a mask 8 bits at a time: its tables
    # hold the image of every value of each 8-bit chunk.
    def moving(image) -> list[list[int]]:
        to = [1 << top - rank[tuple(sorted(image(i, a, j, b)))]
              for (i, a), (j, b) in reversed(ranked)]   # by bit
        tables = []
        for chunk in (to[c:c + 8] for c in range(0, top + 1, 8)):
            table = [0] * (1 << len(chunk))
            for x in range(1, len(table)):
                low = x & -x
                table[x] = table[x ^ low] | chunk[low.bit_length() - 1]
            tables.append(table)
        return tables

    swaps = []
    for v, k in enumerate(sizes, 1):
        for perm in [(1, 0, *range(2, k)), (*range(1, k), 0)][:k - 1]:
            swaps.append(moving(lambda i, a, j, b, v=v, perm=perm: (
                (i, perm[a] if i == v else a), (j, perm[b] if j == v else b))))
    symmetry = [moving(lambda i, a, j, b, g=g: ((g[i - 1], a), (g[j - 1], b)))
                for g in (automorphisms(H, sizes).generators if symmetric else ())]

    def mapped(tables: list[list[int]], mask: int) -> int:
        image = 0
        for table in tables:
            image |= table[mask & 255]
            mask >>= 8
        return image

    def walk(seed: int) -> int:
        """Take seed's orbit under the slot permutations out of found, by
        a walk over the swaps; its least cover, the largest mask."""
        orbit = [seed]
        for member in orbit:   # also visits what the loop appends
            for tables in swaps:
                image = mapped(tables, member)
                if image in found:
                    found.remove(image)
                    orbit.append(image)
        return max(orbit)

    def cover(mask: int) -> Cover:
        return tuple(ranked[top - t] for t in range(top, -1, -1) if mask >> t & 1)

    # One orbit under Aut(H)_s with the slot permutations at a time, as a
    # union of slot orbits: an automorphism g maps the slot orbit of a
    # cover c onto that of g(c), so the generators of Aut(H)_s need only
    # be applied to one member of each.  A slot orbit is walked as soon as
    # one member is taken out of found, so found holds every other slot
    # orbit whole, and every raw cover is walked once.
    canon, reps = [], set()
    while found:
        seeds = [found.pop()]
        least = [walk(seeds[0])]
        for seed in seeds:   # also visits what the loop appends
            for tables in symmetry:
                image = mapped(tables, seed)
                if image in found:
                    found.remove(image)
                    seeds.append(image)
                    least.append(walk(image))
        canon += least
        reps.add(max(least))
    covers = sorted(((cover(m), m) for m in canon), key=lambda c: (len(c[0]), c[0]))
    return (tuple(c for c, _ in covers),
            tuple(t for t, (_, m) in enumerate(covers) if m in reps)
            if symmetric else None)


class _WeightSearch:
    """Grid-weight DFS for one (size vector, cover) configuration, under
    the pruning rules of the module docstring.

    Clusters are assigned in vertex order, each edge's integer missing
    mass (out of q*q) held to a ceiling.  A cluster of size k is placed
    as a head, its first k - 2 slot weights in lexicographic order (one
    empty head for k <= 2), then a last pair (x, rest - x), rest being
    what the head leaves of q, with x run over its feasible interval less
    the look-ahead's gaps; so every cluster's weight tuples come in
    lexicographic order.  Each x tried costs one budget unit, and so does
    a head that leaves no x to try, which keeps the spend at or below one
    unit per weight tuple.  The first leaf is the lexicographically
    first weight matrix within the ceilings.
    """

    def __init__(self, H: PatternGraph, sizes: Sequence[int], cover: Cover,
                 q: int, budget: _Budget) -> None:
        self.n = n = H.n
        self.q = q
        self.budget = budget
        self.sizes = tuple(sizes)
        self.cover = cover
        # covered edges only: an edge without missing pairs has mass 0,
        # within every ceiling
        self.missing: dict[Edge, list[list[int]]] = {}
        for (i, a), (j, b) in cover:
            if (i, j) not in self.missing:
                self.missing[i, j] = [[] for _ in range(max(2, sizes[j - 1]))]
            self.missing[i, j][b].append(a)
        self.closing: list[list[EdgeSlots]] = [[] for _ in range(n + 1)]
        # look-ahead from cluster v: each later cluster j joined to it, its
        # size k, the edges to check, all covered edges (i, j), i <= v, for
        # k <= 2 and (v, j) alone for a larger k, the last being (v, j);
        # and per slot b of j the terms of c_b = s_b*x + t_b in v's last
        # pair weight x: (s_b, t_b) for a size <= 2 cluster v, (s_b, u_b,
        # head slots) for a larger one, whose t_b is u_b*rest plus the
        # weights of those head slots
        self.ahead: list[list[tuple[int, int, list[EdgeSlots], list[tuple]]]] = [
            [] for _ in range(n + 1)]
        # the cover is sorted, so edges arrive in order of their lower end
        for e, slots in self.missing.items():
            i, j = e
            self.closing[j].append((e, slots))
            k = sizes[j - 1]
            p = max(sizes[i - 1], 2) - 2   # i's last pair is its slots p, p + 1
            terms = [((p in s) - (p + 1 in s), p + 1 in s, [a for a in s if a < p])
                     for s in slots]
            if not p:
                terms = [(s, u * q) for s, u, _ in terms]
            self.ahead[i].append(
                (j, k, self.closing[j][:] if k <= 2 else [(e, slots)], terms))
        # a size <= 2 cluster's first slot weights before any edge narrows them
        self.span = [(1, q - 1) if k == 2 else (q, q) for k in (0,) + self.sizes]
        self.weights: list[tuple[int, ...] | None] = [None] * (n + 1)
        self.ceilings: Mapping[Edge, int] = {}
        self.best = q * q + 1   # the largest mass of the last leaf reached
        self.best_weights: tuple | None = None

    def feasible(self) -> bool:
        """Whether every cluster has a weight tuple: k positive parts of q."""
        return self.q >= max(self.sizes)

    def _coeffs(self, e: Edge, slots: list[list[int]]) -> list[int]:
        """The mass of e = (i, j) as sum c_b w_b over j's slot weights:
        c_b sums i's placed weights w_a over the slots a missing with b."""
        wi = self.weights[e[0]]
        return [sum([wi[a] for a in s]) for s in slots]

    def _interval(self, v: int, edges: Iterable[EdgeSlots],
                  head: tuple[int, ...] = ()) -> tuple[int, int]:
        """The weights x in [lo, hi] of the last pair (x, rest - x) of a
        cluster v after head that keep the given edges into it within
        their ceilings: with the head's mass F fixed, every constraint
        F + A*x + B*(rest-x) <= C is linear, so the feasible x form an
        interval of the grid (empty when lo > hi).  A size-1 cluster's x
        is q."""
        q, weights, ceilings = self.q, self.weights, self.ceilings
        if head:
            rest = q - sum(head)
            lo, hi = 1, rest - 1
        else:
            rest = q
            lo, hi = self.span[v]
        for e, slots in edges:
            # the sums of _coeffs, inline: this runs for every later cluster
            # at each node, and a call per edge here made oracle-dcrit
            # searches (C4, P5, K3) about 2.5x slower
            wi = weights[e[0]]
            A = B = 0
            for a in slots[-2]:
                A += wi[a]
            for a in slots[-1]:
                B += wi[a]
            # F + A*x + B*(rest-x) <= C  <=>  (A-B)*x <= C - F - B*rest
            d = A - B
            rhs = ceilings[e] - B * rest
            if head:
                for b, w in enumerate(head):
                    for a in slots[b]:
                        rhs -= wi[a] * w
            if d > 0:
                if rhs < d * hi:
                    hi = rhs // d
            elif d < 0:
                if rhs < d * lo:
                    lo = -(-rhs // d)
            elif rhs < 0:
                return 1, 0
        return lo, hi

    def _gaps(self, v: int, head: tuple[int, ...] = ()) -> list[tuple[int, int]]:
        """The weights x of cluster v's last pair, after head, that leave
        some later cluster no room, as gaps a < x < b sorted by a.

        Each c_b of an edge (v, j) is linear in x.  A later j of size
        <= 2 with interval [L, H] under its other placed neighbours has
        room iff L <= H and the edge's mass, bilinear in x and j's first
        weight y, is within the ceiling at y = L or y = H.  For a larger j
        the edge's mass is sum c_b w_b over j's slots; every w_b >= 1 and
        they sum to q, so its least value is sum c + (q - k_j) * min c,
        and j has room iff sum c + (q - k_j) * c_b is within the ceiling
        for some b.  Either way j has room iff one of a few linear
        constraints on x holds, which is x <= a or x >= b."""
        q, ceilings = self.q, self.ceilings
        if head:
            rest = q - sum(head)
        gaps = []
        for j, k, edges, terms in self.ahead[v]:
            if head:
                terms = [(s, u * rest + sum([head[a] for a in hs]))
                         for s, u, hs in terms]
            e = edges[-1][0]
            if k <= 2:
                L, H = self._interval(j, edges[:-1])
                if L > H:
                    return [(-1, q + 1)]
                (s0, t0), (s1, t1) = terms
                lines = ((s0 * L + s1 * (q - L), t0 * L + t1 * (q - L)),
                         (s0 * H + s1 * (q - H), t0 * H + t1 * (q - H)))
            else:
                S = sum(s for s, _ in terms)
                T = sum(t for _, t in terms)
                lines = [(S + (q - k) * s, T + (q - k) * t) for s, t in terms]
            # room for x <= a or x >= b; -1 and q + 1 lie off the grid
            a, b = -1, q + 1
            for slope, const in lines:
                rhs = ceilings[e] - const
                if slope > 0:
                    a = max(a, rhs // slope)
                elif slope < 0:
                    b = min(b, -(-rhs // slope))
                elif rhs >= 0:
                    break
            else:
                if b - a > 1:
                    gaps.append((a, b))
        gaps.sort()
        return gaps

    def first_meeting_floor(self, ceilings: Mapping[Edge, int]
                            ) -> tuple[tuple[int, ...], ...] | None:
        """The lexicographically first weight matrix within the ceilings;
        None when there is none."""
        self.ceilings = ceilings
        self.best_weights = None
        self._dfs(1)
        return self.best_weights

    def best_maxmin(self, best_mass: int) -> tuple[int, tuple] | None:
        """Smallest achievable maximum mass strictly below best_mass,
        with the lexicographically first weight matrix reaching it; None
        when the bound stands.  Each floor search with every ceiling at
        best - 1 that finds a matrix lowers best to its largest mass, so
        the last one to find a matrix found the optimum."""
        self.best, found = best_mass, None
        while self.first_meeting_floor(dict.fromkeys(self.missing, self.best - 1)):
            found = self.best_weights
        return None if found is None else (self.best, found)

    def _dfs(self, v: int) -> bool:
        """Place clusters v.. within the ceilings; True at the first leaf,
        which keeps its weights and makes its largest mass best."""
        if v > self.n:
            weights = self.weights
            self.best_weights = tuple([w[:k] for w, k in zip(weights[1:], self.sizes)])
            self.best = max(sum(map(operator.mul, self._coeffs(e, slots), weights[e[1]]))
                            for e, slots in self.missing.items())
            return True
        q, k, closing = self.q, self.sizes[v - 1], self.closing[v]
        # (head, what it leaves of q); a head must leave room for the pair
        heads = [((), q)] if k <= 2 else (
            (h, q - sum(h)) for h in itertools.product(range(1, q - 1), repeat=k - 2)
            if sum(h) <= q - 2)
        for head, rest in heads:
            # the last pair's x runs over its interval less the look-ahead's gaps
            lo, hi = self._interval(v, closing, head)
            gaps = self._gaps(v, head)
            tried = False
            x = lo
            while True:
                for a, b in gaps:
                    if a < x < b:
                        x = b
                if x > hi:
                    break
                self.budget.spend()
                tried = True
                # a size-1 cluster is held as (q, 0) until a leaf trims it;
                # the interval keeps every closed edge within its ceiling
                self.weights[v] = head + (x, rest - x)
                if self._dfs(v + 1):
                    return True
                x += 1
            if head and not tried:
                self.budget.spend()
        return False


def _beaten(sizes: tuple[int, ...], group: AutomorphismGroup) -> int | None:
    """None when sizes is the least vector of its orbit under group, the
    image under g being v -> sizes[g(v) - 1]; else a length k such that
    every vector starting with sizes[:k] has a smaller image.

    The images are walked down group's stabiliser chain: a level's
    transversal elements settle the image from its base point up to the
    next one, so only images equal to sizes so far go on, once each."""
    chain = group.chain
    reached = {sizes: tuple(range(1, len(sizes) + 1))}   # image -> element
    for level, (b, transversal) in enumerate(chain):
        end = chain[level + 1][0] if level + 1 < len(chain) else len(sizes) + 1
        images = list(reached.values())
        reached = {}
        for g in images:
            for t in transversal.values():
                h = tuple([g[p - 1] for p in t])
                for p in range(b, end):
                    d = sizes[h[p - 1] - 1] - sizes[p - 1]
                    if d:
                        break
                if d < 0:
                    return max(h[:p])   # the places the image's first p read
                if not d:
                    reached[tuple([sizes[v - 1] for v in h])] = h
    return None


def _least_size_vectors(bounds: Sequence[int], group: AutomorphismGroup
                        ) -> Iterator[tuple[int, ...]]:
    """The size vectors within bounds that are least in their orbits
    under group, in product order; a vector _beaten rules out skips every
    vector with the same prefix."""
    n = len(bounds)
    sizes = [1] * n
    while True:
        k = _beaten(tuple(sizes), group)
        if k is None:
            yield tuple(sizes)
            k = n
        del sizes[k:]
        while sizes and sizes[-1] == bounds[len(sizes) - 1]:
            sizes.pop()
        if not sizes:
            return
        sizes[-1] += 1
        sizes += [1] * (n - len(sizes))


def _configurations(H: PatternGraph, bounds: Sequence[int], q: int,
                    budget: _Budget, done: int = -1,
                    symmetry: AutomorphismGroup | None = None
                    ) -> Iterator[tuple[int, _WeightSearch]]:
    """Every configuration after index done (the one --checkpoint
    counts) with its weight search, in (size vector, cover) order; the
    budget keeps the position for an exhausted-budget message.  Given
    symmetry, the automorphisms of H that keep the bounds, only the least
    size vector of each orbit, each with its covers' orbit
    representatives (see _Listing).  A kept listing keeps the searches
    built on its covers, and a search run again starts afresh."""
    config_index = -1
    for sizes in (itertools.product(*(range(1, b + 1) for b in bounds))
                  if symmetry is None else _least_size_vectors(bounds, symmetry)):
        budget.listing(sizes, config_index + 1)
        listing = _minimal_covers(H, sizes, budget, symmetry is not None)
        for at in (range(len(listing.covers)) if symmetry is None
                   else listing.orbit_reps):
            config_index += 1
            if config_index <= done:
                continue
            budget.searching(config_index)
            search = listing.searches.get((q, at))
            if search is None:
                search = _WeightSearch(H, sizes, listing.covers[at], q, budget)
                _LISTINGS.keep_search((H.n, H.edges, sizes), listing, (q, at), search)
            else:
                search.budget = budget
            yield config_index, search


def _cover_record(cover: Cover) -> list[list[int]]:
    return [[i, a, j, b] for (i, a), (j, b) in cover]


def _mass_ceilings(H: PatternGraph, floor: Mapping[Edge, Fraction], q: int
                   ) -> dict[Edge, int]:
    # mass/q^2 <= 1 - floor, as an exact integer ceiling
    return {e: math.floor((_ONE - floor[e]) * q * q) for e in H.edges}


def _checkpoint_fingerprint(H: PatternGraph, bounds: Sequence[int], q: int,
                            floor: Mapping[Edge, Fraction]) -> dict:
    """What a checkpoint must match to be resumed: its format and every
    input that fixes the configuration order and the verdicts."""
    return {"format": CHECKPOINT_FORMAT, "pattern": H.to_text(),
            "sizes": list(bounds), "q": q,
            "floor": {f"{i}-{j}": str(d) for (i, j), d in sorted(floor.items())}}


def _read_checkpoint(path: str, fingerprint: dict) -> int:
    """Index of the last configuration an earlier run of the same search
    completed, -1 without a checkpoint file.  A corrupt file or one from
    another search is rejected: resuming from it could skip
    configurations that were never examined."""
    if not os.path.exists(path):
        return -1
    try:
        with open(path) as fh:
            state = json.load(fh)
    except ValueError as exc:
        raise ParseError(f"checkpoint {path} is corrupt: {exc}") from None
    if not isinstance(state, dict) or state.get("search") != fingerprint:
        raise ValidationError(
            f"checkpoint {path} belongs to another search or format; "
            "remove it to start over")
    done = state.get("completed")
    if type(done) is not int or done < -1:
        raise ValidationError(f"checkpoint {path} has no valid completed index")
    return done


def _write_checkpoint(path: str, fingerprint: dict, done: int) -> None:
    """Replace the checkpoint atomically, so an interrupted write leaves
    the previous one intact."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump({"search": fingerprint, "completed": done}, fh)
    os.replace(tmp, path)


def oracle_search_construction(
    H: PatternGraph,
    cfg: SearchConfig,
    progress_path: str | None = None,
    checkpoint_path: str | None = None,
) -> WeightedBlowupGraph | None:
    """First transversal-free grid configuration meeting the density
    floor, in deterministic (size vector, cover, weights) order; None
    once the whole bounded space is enumerated."""
    bounds = cfg.resolved_bounds(H)
    floor = cfg.resolved_floor(H)
    budget = _Budget(cfg.budget)
    q = cfg.weight_grid_denominator
    done = -1
    if checkpoint_path is not None:
        fingerprint = _checkpoint_fingerprint(H, bounds, q, floor)
        done = _read_checkpoint(checkpoint_path, fingerprint)
    progress = open(progress_path, "a") if progress_path is not None else None
    ceilings = _mass_ceilings(H, floor, q)
    try:
        for config_index, search in _configurations(H, bounds, q, budget, done):
            weights = (search.first_meeting_floor(ceilings)
                       if search.feasible() else None)
            if progress is not None:
                rec = {"record": "oracle-progress", "config": config_index,
                       "sizes": list(search.sizes),
                       "cover": _cover_record(search.cover),
                       "verdict": "found" if weights else "none"}
                progress.write(json.dumps(rec) + "\n")
                progress.flush()
            if weights is not None:
                B = blowup_without(
                    H, [[Fraction(c, q) for c in w] for w in weights], search.cover)
                assert_construction(B, floor)
                return B
            if checkpoint_path is not None:
                _write_checkpoint(checkpoint_path, fingerprint, config_index)
        return None
    finally:
        if progress is not None:
            progress.close()


def _best_grid_density(H: PatternGraph, bounds: Sequence[int], q: int,
                       budget: _Budget) -> Fraction:
    """Max over grid configurations of the min realized density: the
    highest homogeneous floor any transversal-free grid blow-up meets.
    An exhausted budget also reports the best density reached so far,
    which a transversal-free grid configuration meets."""
    best_mass = q * q + 1
    search: _WeightSearch | None = None   # the search under way, once started
    try:
        for _, search in _configurations(H, bounds, q, budget,
                                         symmetry=automorphisms(H, bounds)):
            if search.feasible():
                out = search.best_maxmin(best_mass)
                if out is not None:
                    best_mass = out[0]
    except BudgetExhausted as exc:
        if search is not None:
            best_mass = min(best_mass, search.best)
        reached = (f"best grid density so far {_ONE - Fraction(best_mass, q * q)}"
                   if best_mass <= q * q else "no grid density reached yet")
        raise BudgetExhausted(f"{exc}; {reached}") from None
    if best_mass > q * q:
        return _ZERO
    return _ONE - Fraction(best_mass, q * q)


def oracle_dcrit_estimate(
    H: PatternGraph,
    q: int = 50,
    tol: Fraction | float = Fraction(1, 64),
    cluster_size_bounds: Sequence[int] | None = None,
    budget: int = 10**7,
) -> tuple[Fraction, Fraction]:
    """The grid optimum, the largest homogeneous density any
    transversal-free grid configuration meets, rounded to the dyadic
    cell [lo, hi) of width 2^-k <= tol (smallest such k) that holds it.

    A grid construction meets lo, so lo is a lower bound on the critical
    density.  Full enumeration finds none at hi, so hi bounds the grid
    optimum only, not the critical density: real weights can do better
    than the grid (for C5 at q = 50 the cell is [43/64, 11/16), yet the
    star lower bound is about 0.6920).

    The optimum is below 1 (a cover with positive weights has positive
    missing mass), so [lo, hi) lies in [0, 1].
    """
    tol = tolerance(tol)
    cfg = SearchConfig(cluster_size_bounds=cluster_size_bounds,
                       weight_grid_denominator=q, budget=budget)
    bounds = cfg.resolved_bounds(H)
    tracker = _Budget(budget)
    best = _best_grid_density(H, bounds, q, tracker)
    cells = 1 << (math.ceil(1 / tol) - 1).bit_length()   # 2^k >= 1/tol
    lo = Fraction(math.floor(best * cells), cells)
    return lo, lo + Fraction(1, cells)
