"""Independent brute-force cross-checks: an unpruned transversal search,
a construction search over degree-bounded weighted configurations, and an
empirical bisection estimate of the critical density.

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

Three rules keep the floor search off subtrees that hold no result, so
the configurations, their order, the weights found and every verdict
are those of the plain enumeration:

* Banned siblings.  Covers are built by adding, for the first transversal
  not yet blocked, each slot pair that blocks it; once a pair has been
  tried, the subtrees of the later siblings exclude it.  Every set of
  pairs is then reached once instead of once per order of its pairs.
* Feasible intervals.  A size-2 cluster has one degree of freedom x, its
  first slot weight, and each closed edge's mass is linear in x; the
  search loops only over the interval of x that keeps every closed edge
  within its ceiling.
* Look-ahead.  Once a cluster is placed, an edge to a cluster not yet
  placed is bounded below by its mass at that cluster's cheapest
  composition; a prefix whose bound already exceeds a ceiling is cut.

The budget counts nodes actually expanded (cover-tree nodes and weight
assignments tried), so the pruning spends less of it than the plain
enumeration would.  An exhausted budget names the cluster-size vector
and the configuration index (the one --checkpoint counts) it stopped at.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .blowup import TRANSVERSAL_GUARD, Transversal, WeightedBlowupGraph
from .errors import BudgetExhausted, ParseError, SizeLimit, ValidationError
from .graphs import Edge, PatternGraph, edge_assignment

CHECKPOINT_FORMAT = 1

_ZERO = Fraction(0)
_ONE = Fraction(1)

Pair = tuple[tuple[int, int], tuple[int, int]]   # ((i, a), (j, b)), i < j
Cover = tuple[Pair, ...]


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
        if self.weight_grid_denominator < 1:
            raise ValidationError("weight grid denominator must be >= 1")
        if self.budget <= 0:
            raise ValidationError("budget must be positive")

    def resolved_bounds(self, H: PatternGraph) -> tuple[int, ...]:
        if self.cluster_size_bounds is None:
            return tuple(max(1, H.degree(v)) for v in H.vertices())
        bounds = tuple(int(b) for b in self.cluster_size_bounds)
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

    def listing(self, sizes: tuple[int, ...], config: int) -> None:
        self.sizes, self.config, self.phase = sizes, config, "listing minimal covers"

    def searching(self, config: int) -> None:
        self.config, self.phase = config, "searching weights"


def _minimal_covers(H: PatternGraph, sizes: Sequence[int], budget: _Budget
                    ) -> list[Cover]:
    """All minimal blocking covers, canonicalized under within-cluster
    slot permutations and sorted by (size, lexicographic order)."""
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

    found: set[frozenset[int]] = set()

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
            found.add(frozenset(chosen))
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

    perm_spaces = [list(itertools.permutations(range(k))) for k in sizes]

    def canonical(cover: frozenset[int]) -> Cover:
        raw = [pairs[p] for p in cover]
        best: Cover | None = None
        for perms in itertools.product(*perm_spaces):
            mapped = tuple(sorted(
                ((i, perms[i - 1][a]), (j, perms[j - 1][b]))
                for (i, a), (j, b) in raw))
            if best is None or mapped < best:
                best = mapped
        assert best is not None
        return best

    canon = {canonical(c) for c in found}
    return sorted(canon, key=lambda c: (len(c), c))


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Positive integer compositions of total into parts, lex ascending."""
    if parts == 1:
        return [(total,)] if total >= 1 else []
    out = []
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


class _WeightSearch:
    """Grid-weight DFS for one (size vector, cover) configuration.

    Clusters are assigned in vertex order; an edge's integer missing
    mass (out of q*q) is checked as soon as both endpoints are set.
    Floor mode finds the lexicographically first weight matrix whose
    masses stay within the per-edge ceilings, trying a size-2 cluster
    only on its feasible interval and cutting a prefix as soon as an
    edge to a later cluster cannot meet its ceiling.  Maxmin mode
    minimizes the maximum mass (i.e. maximizes the minimum density),
    strictly beating a known bound; a last cluster of size <= 2 has one
    degree of freedom, closed edges linear in it, so it is solved
    directly instead of enumerated.
    """

    def __init__(self, H: PatternGraph, sizes: Sequence[int], cover: Cover,
                 q: int, budget: _Budget) -> None:
        self.n = H.n
        self.q = q
        self.budget = budget
        self.cover_on: dict[Edge, list[tuple[int, int]]] = {}
        for (i, a), (j, b) in cover:
            self.cover_on.setdefault((i, j), []).append((a, b))
        self.closing: list[list[Edge]] = [[] for _ in range(H.n + 1)]
        for e in H.edges:
            self.closing[max(e)].append(e)
        self.comps: list[list[tuple[int, ...]]] = [[]] + [
            _compositions(q, sizes[v - 1]) for v in range(1, H.n + 1)]
        self.sizes = tuple(sizes)
        self.weights: list[tuple[int, ...] | None] = [None] * (H.n + 1)

    def feasible(self) -> bool:
        return all(self.comps[v] for v in range(1, self.n + 1))

    def _mass(self, e: Edge) -> int:
        i, j = e
        wi, wj = self.weights[i], self.weights[j]
        return sum(wi[a] * wj[b] for a, b in self.cover_on.get(e, ()))

    def _lines(self, v: int) -> list[tuple[Edge, int, int]]:
        """Closed-edge masses at a size-2 cluster v as linear functions
        A*x + B*(q-x) of its first slot weight x."""
        lines = []
        for e in self.closing[v]:
            i, j = e
            other = i if j == v else j
            wo = self.weights[other]
            A = B = 0
            for a, b in self.cover_on.get(e, ()):
                oa, vb = (a, b) if i == other else (b, a)
                if vb == 0:
                    A += wo[oa]
                else:
                    B += wo[oa]
            lines.append((e, A, B))
        return lines

    # -- floor mode ------------------------------------------------------

    def first_meeting_floor(self, ceilings: Mapping[Edge, int]
                            ) -> tuple[tuple[int, ...], ...] | None:
        self.ceilings = ceilings
        # per cluster v, its covered edges to later clusters j: (edge, k_j, pairs)
        self.ahead: list[list[tuple[Edge, int, list[tuple[int, int]]]]] = [
            [] for _ in range(self.n + 1)]
        for e, pairs in self.cover_on.items():
            self.ahead[e[0]].append((e, self.sizes[e[1] - 1], pairs))
        return self._floor_dfs(1)

    def _floor_dfs(self, v: int) -> tuple[tuple[int, ...], ...] | None:
        if v > self.n:
            return tuple(self.weights[1:])
        q = self.q
        if self.sizes[v - 1] == 2:
            lo, hi = self._floor_interval(v)
            comps: Iterable[tuple[int, ...]] = ((x, q - x) for x in range(lo, hi + 1))
            closed: list[Edge] = []   # the interval already keeps them
        else:
            comps, closed = self.comps[v], self.closing[v]
        for comp in comps:
            self.budget.spend()
            self.weights[v] = comp
            if (all(self._mass(e) <= self.ceilings[e] for e in closed)
                    and self._floor_ahead(v)):
                out = self._floor_dfs(v + 1)
                if out is not None:
                    return out
        self.weights[v] = None
        return None

    def _floor_interval(self, v: int) -> tuple[int, int]:
        """The first slot weights x in [lo, hi] of a size-2 cluster v that
        keep its closed edges within their ceilings: every constraint
        A*x + B*(q-x) <= C is linear, so the feasible x form an interval
        of the grid (empty when lo > hi)."""
        q = self.q
        lo, hi = 1, q - 1
        for e, A, B in self._lines(v):
            # A*x + B*(q-x) <= C  <=>  (A-B)*x <= C - B*q
            d = A - B
            rhs = self.ceilings[e] - B * q
            if d > 0:
                hi = min(hi, rhs // d)
            elif d < 0:
                lo = max(lo, -(-rhs // d))
            elif rhs < 0:
                return 1, 0
        return lo, hi

    def _floor_ahead(self, v: int) -> bool:
        """Whether each edge from cluster v to a later cluster j can still
        meet its ceiling.  With v placed the edge's mass is sum c_b w_b over
        j's slots; every w_b >= 1 and they sum to q, so its least value is
        sum c_b + (q - k_j) * min c_b."""
        wv = self.weights[v]
        for e, k, pairs in self.ahead[v]:
            c = [0] * k
            for a, b in pairs:
                c[b] += wv[a]
            if sum(c) + (self.q - k) * min(c) > self.ceilings[e]:
                return False
        return True

    # -- maxmin mode -----------------------------------------------------

    def best_maxmin(self, best_mass: int) -> tuple[int, tuple] | None:
        """Smallest achievable maximum mass strictly below best_mass,
        with a witness weight matrix; None when the bound stands."""
        self.best = best_mass
        self.best_weights: tuple | None = None
        self._maxmin_dfs(1, 0)
        if self.best_weights is None:
            return None
        return self.best, self.best_weights

    def _maxmin_dfs(self, v: int, cur: int) -> None:
        if v == self.n and self.sizes[v - 1] <= 2:
            self.budget.spend()
            hit = self._maxmin_last(cur)
            if hit is not None:
                mass, comp = hit
                self.weights[v] = comp
                self.best = mass
                self.best_weights = tuple(self.weights[1:])
                self.weights[v] = None
            return
        if v > self.n:
            if cur < self.best:
                self.best = cur
                self.best_weights = tuple(self.weights[1:])
            return
        for comp in self.comps[v]:
            self.budget.spend()
            self.weights[v] = comp
            new = cur
            for e in self.closing[v]:
                m = self._mass(e)
                if m > new:
                    new = m
            if new < self.best:
                self._maxmin_dfs(v + 1, new)
        self.weights[v] = None

    def _maxmin_last(self, cur: int) -> tuple[int, tuple[int, ...]] | None:
        q = self.q
        if self.sizes[-1] == 1:
            self.weights[self.n] = (q,)
            m = cur
            for e in self.closing[self.n]:
                m = max(m, self._mass(e))
            self.weights[self.n] = None
            return (m, (q,)) if m < self.best else None
        lines = self._lines(self.n)

        def value(x: int) -> int:
            m = cur
            for _, A, B in lines:
                m = max(m, A * x + B * (q - x))
            return m

        candidates = {1, q - 1}
        for (_, A1, B1), (_, A2, B2) in itertools.combinations(lines, 2):
            # crossing of A1*x + B1*(q-x) and A2*x + B2*(q-x)
            num = (B2 - B1) * q
            den = (A1 - B1) - (A2 - B2)
            if den != 0:
                x = Fraction(num, den)
                for c in (math.floor(x), math.ceil(x)):
                    if 1 <= c <= q - 1:
                        candidates.add(c)
        best_here: tuple[int, tuple[int, ...]] | None = None
        for x in sorted(candidates):
            m = value(x)
            if m < self.best and (best_here is None or m < best_here[0]):
                best_here = (m, (x, q - x))
        return best_here


def _size_vectors(bounds: Sequence[int]) -> Iterator[tuple[int, ...]]:
    yield from itertools.product(*(range(1, b + 1) for b in bounds))


def _build(H: PatternGraph, sizes: Sequence[int], cover: Cover, q: int,
           weights: Sequence[Sequence[int]]) -> WeightedBlowupGraph:
    missing = set(cover)
    cross = []
    for i, j in H.edges:
        for a in range(sizes[i - 1]):
            for b in range(sizes[j - 1]):
                if ((i, a), (j, b)) not in missing:
                    cross.append(((i, a), (j, b)))
    cluster_weights = [[Fraction(c, q) for c in w] for w in weights]
    return WeightedBlowupGraph(H, cluster_weights, cross, "exact")


def _assert_oracle_emission(B: WeightedBlowupGraph,
                            floor: Mapping[Edge, Fraction]) -> None:
    dens = B.densities()
    for e, want in floor.items():
        if dens[e] < want:
            raise ValidationError(
                f"search emitted density {dens[e]} < floor {want} on {e}")
    if B.find_transversal() is not None:
        raise ValidationError("search emitted a configuration with a transversal")


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
    config_index = -1
    try:
        for sizes in _size_vectors(bounds):
            budget.listing(sizes, config_index + 1)
            covers = _minimal_covers(H, sizes, budget)
            for cover in covers:
                config_index += 1
                if config_index <= done:
                    continue
                budget.searching(config_index)
                search = _WeightSearch(H, sizes, cover, q, budget)
                weights = (search.first_meeting_floor(ceilings)
                           if search.feasible() else None)
                if progress is not None:
                    rec = {"record": "oracle-progress", "config": config_index,
                           "sizes": list(sizes), "cover": _cover_record(cover),
                           "verdict": "found" if weights else "none"}
                    progress.write(json.dumps(rec) + "\n")
                    progress.flush()
                if weights is not None:
                    B = _build(H, sizes, cover, q, weights)
                    _assert_oracle_emission(B, floor)
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
    highest homogeneous floor any transversal-free grid blow-up meets."""
    best_mass = q * q + 1
    config_index = -1
    for sizes in _size_vectors(bounds):
        budget.listing(sizes, config_index + 1)
        for cover in _minimal_covers(H, sizes, budget):
            config_index += 1
            budget.searching(config_index)
            search = _WeightSearch(H, sizes, cover, q, budget)
            if not search.feasible():
                continue
            out = search.best_maxmin(best_mass)
            if out is not None:
                best_mass = out[0]
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
    """Bracket the critical density by the grid optimum: the largest
    homogeneous density any transversal-free grid configuration meets,
    rounded to the dyadic cell [lo, hi) of width 2^-k <= tol (smallest
    such k) that holds it.  A grid construction exists at lo and full
    enumeration finds none at hi, so the interval straddles the critical
    density up to grid discretization (the grid optimum sits below
    d_crit, within O(1/q) for the patterns exercised here).

    The optimum is below 1 (a cover with positive weights has positive
    missing mass), so [lo, hi) lies in [0, 1].
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValidationError("tolerance must be positive")
    cfg = SearchConfig(cluster_size_bounds=cluster_size_bounds,
                       weight_grid_denominator=q, budget=budget)
    bounds = cfg.resolved_bounds(H)
    tracker = _Budget(budget)
    best = _best_grid_density(H, bounds, q, tracker)
    cells = 1 << (math.ceil(1 / tol) - 1).bit_length()   # 2^k >= 1/tol
    lo = Fraction(math.floor(best * cells), cells)
    return lo, lo + Fraction(1, cells)
