"""Seeded query lists for the three benchmark workloads.

A run answers one list of queries, the same mix for every seed; its
inputs are drawn from ``random.Random(f"{seed}:{workload}")`` so the same
seed always gives the same files and arguments.  A query is one
``critdens`` command line
(always ``--format structured``, never ``--threads``) plus the facts its
output check needs.  The program only ever sees the generated ``.g``
files and the arguments.

Why each workload exists:

* ``spectral``: ``bounds`` on seeded connected patterns with 5-6 vertices,
  ``star-bound --dedupe`` on K5 and K6, and per pattern a few
  ``star-check`` and ``matchpoly --densities`` verdicts.  ``polynomials``
  (roots, ``AlgebraicNumber.compare`` on equal values) and
  ``stars``/``graphs`` (labelings, path trees, shape keys) do almost all
  the work; ``oracle`` does none.
* ``trees``: ``dcrit-tree`` on seeded trees with 20-90 vertices,
  ``decide-tree`` on those and on trees with 500-1000 vertices, and
  ``construct --method gacs`` followed by ``check-transversal --oracle``
  on trees with at most 9 vertices.  It uses ``polynomials`` through a
  few high-degree root isolations (cost grows ~9x per doubling of n) and
  loads ``tree_decision`` (leaf reduction, whose per-step re-sorting
  shows on large trees) and ``blowup``; ``stars`` and ``oracle`` stay
  idle.
* ``oracle``: ``oracle-search`` on K3, C4, P5 and S4 at q in {10, 20},
  with floors from a low band (Found, early exit) and from a band
  strictly above each pattern's matching-root upper bound (NoneFound,
  full enumeration); two bow-tie searches with ``--sizes 2,2,2,2,2``
  in the low band; and ``oracle-dcrit`` at q = 50 on P3, P4, S4, K3 and
  P5, at q = 30 on C4, plus K3 at q = 40, 60, 70 and S4 at q = 100, in
  seeded order.  ``oracle`` does nearly all the work and ``polynomials``
  none.  Searches on one pattern share every size vector, so a cover
  cache would show; floor mode and maxmin mode use the layer in two
  different ways.  Patterns keep their vertex names; the seed draws the
  floors below the bound and the order.

Left out because of run length (not to hide defects): ``star-bound`` K7
(~137 s), ``dcrit-tree`` on paths of 160+ vertices (~14 s at P_160),
``oracle-dcrit`` on K4 and C5 (exit 3 after 20-25 s at the default
budget, the documented limit), the bow-tie recovery-floor searches
(~12 s each), ``oracle-dcrit --q 50`` on C4 (~7 s; q = 30 brackets
the same value), and ``self-test`` (~80 s, fixed
inputs, already run by the test suite).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("spectral", "trees", "oracle")

# Yes/no queries; the rest (dcrit-tree, bounds, star-bound, construct,
# oracle-dcrit) answer with a value.
VERDICT_COMMANDS = frozenset(
    {"decide-tree", "star-check", "matchpoly", "check-transversal", "oracle-search"})

Graph = tuple[int, tuple[tuple[int, int], ...]]   # (n, sorted edges)


@dataclass
class Query:
    """One command line.  ``files`` maps a name in the list's directory to
    the text written there during set-up; ``{dir}`` in ``argv`` is
    replaced by that directory.  ``meta`` holds what the checker needs."""

    argv: list[str]
    meta: dict = field(default_factory=dict)
    files: dict[str, str] = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def kind(self) -> str:
        return "verdict" if self.command in VERDICT_COMMANDS else "value"


# -- graphs ---------------------------------------------------------------


def graph_text(g: Graph) -> str:
    n, edges = g
    return f"{n}; " + " ".join(f"{i}-{j}" for i, j in edges)


def _canon(n: int, edges) -> Graph:
    return n, tuple(sorted((i, j) if i < j else (j, i) for i, j in edges))


def relabel(g: Graph, rng: random.Random) -> Graph:
    n, edges = g
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return _canon(n, ((perm[i - 1], perm[j - 1]) for i, j in edges))


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform-attachment tree with shuffled labels."""
    edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
    return relabel(_canon(n, edges), rng)


def random_connected(n: int, m: int, rng: random.Random) -> Graph:
    """Connected graph with n vertices and m edges: a random tree plus
    random extra edges."""
    edges = set(random_tree(n, rng)[1])
    rest = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if (i, j) not in edges]
    rng.shuffle(rest)
    edges.update(rest[: m - (n - 1)])
    return _canon(n, edges)


def complete(n: int) -> Graph:
    return _canon(n, ((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)))


def path(n: int) -> Graph:
    return _canon(n, ((i, i + 1) for i in range(1, n)))


def star(n: int) -> Graph:
    return _canon(n, ((1, j) for j in range(2, n + 1)))


def cycle(n: int) -> Graph:
    return _canon(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


BOW_TIE = _canon(5, ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (4, 5)))
PAW = _canon(4, ((1, 2), (1, 3), (2, 3), (3, 4)))


def max_degree(g: Graph) -> int:
    n, edges = g
    deg = [0] * (n + 1)
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    return max(deg)


def random_proper_labeling(g: Graph, rng: random.Random) -> tuple[int, ...]:
    """Each next vertex is drawn from the unplaced neighbours of the
    placed ones, so the labeling is proper."""
    n, edges = g
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    order = [rng.randint(1, n)]
    placed = set(order)
    while len(order) < n:
        frontier = sorted({u for v in order for u in adj[v]} - placed)
        v = rng.choice(frontier)
        order.append(v)
        placed.add(v)
    return tuple(order)


def _hundredths(rng: random.Random, lo: float, hi: float) -> Fraction:
    return Fraction(rng.randint(round(lo * 100), round(hi * 100)), 100)


def _thousandths(rng: random.Random, lo: float, hi: float) -> Fraction:
    a = max(0, round(lo * 1000))
    b = min(1000, round(hi * 1000))
    return Fraction(rng.randint(a, b), 1000)


def _dec(x: Fraction) -> str:
    """Exact decimal literal for a fraction over a power of ten."""
    s = f"{float(x):.6f}".rstrip("0").rstrip(".")
    if Fraction(s) != x:
        raise ValueError(f"{x} has no short decimal form")
    return s


def _structured(*argv: str) -> list[str]:
    return [*argv, "--format", "structured"]


# -- spectral -------------------------------------------------------------

# (vertices, edges) strata for the `bounds` patterns.  Cost grows steeply
# with the edge count, so drawing one pattern per stratum keeps a list's
# cost nearly the same for every seed.  Ranked by cost, a list's 26 value
# queries are K6, the patterns with 9-11 edges, then fourteen with 6
# vertices and 8 edges and K5 (all 0.13-0.2 s), then six small ones, so
# value_p50_s falls in the middle of that group.  Eighteen verdicts per
# pattern (458 queries a list) put query_p90_s (rank ~46) among the
# verdicts (3-5 ms), where costs are dense, not on one seeded pattern.
SPECTRAL_STRATA = ((5, 6), (5, 7), (5, 8), (5, 9), (6, 6), (6, 7), *((6, 8),) * 14,
                   (6, 9), (6, 9), (6, 10), (6, 11))
TINY_SPECTRAL_STRATA = ((5, 5), (5, 6))


def _spectral_pattern_queries(g: Graph, name: str, rng: random.Random,
                              checks: int, polys: int) -> list[Query]:
    file = f"{name}.g"
    qs = [Query(_structured("bounds", "{dir}/" + file), {"graph": g},
                {file: graph_text(g)})]
    for _ in range(checks):
        f = random_proper_labeling(g, rng)
        d = _hundredths(rng, 0.40, 0.95)
        qs.append(Query(
            _structured("star-check", "{dir}/" + file,
                        "--labeling", ",".join(map(str, f)), "--densities", _dec(d)),
            {"graph": g, "labeling": f, "density": d}))
    for _ in range(polys):
        dens = [_hundredths(rng, 0.50, 0.99) for _ in g[1]]
        qs.append(Query(
            _structured("matchpoly", "{dir}/" + file,
                        "--densities", ",".join(_dec(d) for d in dens)),
            {"graph": g, "densities": dens}))
    return qs


def spectral_queries(rng: random.Random, tiny: bool = False) -> list[Query]:
    qs: list[Query] = []
    strata = TINY_SPECTRAL_STRATA if tiny else SPECTRAL_STRATA
    for k, (n, m) in enumerate(strata):
        g = random_connected(n, m, rng)
        qs += _spectral_pattern_queries(g, f"h{k}", rng, checks=9, polys=9)
    for n in ((4,) if tiny else (5, 6)):
        g = complete(n)
        qs.append(Query(_structured("star-bound", "{dir}/" + f"k{n}.g", "--dedupe"),
                        {"graph": g}, {f"k{n}.g": graph_text(g)}))
    rng.shuffle(qs)
    return qs


def spectral_warmup(rng: random.Random) -> list[Query]:
    """4-vertex patterns: never among the timed inputs."""
    g = relabel(PAW, rng)
    qs = _spectral_pattern_queries(g, "w", rng, checks=1, polys=1)
    qs.append(Query(_structured("star-bound", "{dir}/w.g", "--dedupe"), {"graph": g}))
    return qs


# -- trees ----------------------------------------------------------------

MID_TREE_SIZES = (20, 30, 40, 50, 60, 70, 80, 90)
LARGE_TREE_BANDS = ((500, 624), (625, 749), (750, 874), (875, 1000))
SMALL_TREE_SIZES = (5, 6, 7, 8, 9, 7, 9)


def _decide_density(g: Graph, rng: random.Random) -> Fraction:
    """Homogeneous density around the closed-form bracket
    [1 - 1/D, 1 - 1/(4(D-1))] of the critical density, D = max degree."""
    delta = max_degree(g)
    lower = 1 - 1 / delta
    upper = 1 - 1 / (4 * (delta - 1))
    return _thousandths(rng, lower - 0.04, upper + 0.02)


def _tree_queries(rng: random.Random, mid_sizes, large_bands, small_sizes,
                  decides: int) -> list[Query]:
    qs: list[Query] = []
    for k, n in enumerate(mid_sizes):
        g = random_tree(n, rng)
        file = f"m{k}.g"
        qs.append(Query(_structured("dcrit-tree", "{dir}/" + file),
                        {"graph": g}, {file: graph_text(g)}))
        for _ in range(decides):
            d = _decide_density(g, rng)
            qs.append(Query(_structured("decide-tree", "{dir}/" + file,
                                        "--densities", _dec(d)),
                            {"graph": g, "density": d}))
    for k, (lo, hi) in enumerate(large_bands):
        g = random_tree(rng.randint(lo, hi), rng)
        file = f"l{k}.g"
        for j in range(decides):
            d = _decide_density(g, rng)
            qs.append(Query(_structured("decide-tree", "{dir}/" + file,
                                        "--densities", _dec(d)),
                            {"graph": g, "density": d, "large": True},
                            {file: graph_text(g)} if j == 0 else {}))
    pairs = []
    for k, n in enumerate(small_sizes):
        g = random_tree(n, rng)
        file, out = f"s{k}.g", f"s{k}.json"
        pairs.append([
            Query(_structured("construct", "{dir}/" + file, "--method", "gacs",
                              "--out", "{dir}/" + out),
                  {"graph": g}, {file: graph_text(g)}),
            Query(_structured("check-transversal", "{dir}/" + out, "--oracle"),
                  {"graph": g, "blowup_file": out}),
        ])
    rng.shuffle(qs)
    # A construction's check-transversal query must follow it, so the
    # pairs are spliced in at seeded positions, in order.
    for pair in pairs:
        at = rng.randint(0, len(qs))
        qs[at:at] = pair
    return qs


def trees_queries(rng: random.Random, tiny: bool = False) -> list[Query]:
    if tiny:
        return _tree_queries(rng, (20,), ((100, 120),), (5,), decides=1)
    return _tree_queries(rng, MID_TREE_SIZES, LARGE_TREE_BANDS,
                         SMALL_TREE_SIZES, decides=2)


def trees_warmup(rng: random.Random) -> list[Query]:
    """4-vertex trees and one 200-vertex tree: never among the timed
    inputs."""
    return _tree_queries(rng, (), ((200, 200),), (4,), decides=1) + [
        Query(_structured("dcrit-tree", "{dir}/w4.g"), {"graph": path(4)},
              {"w4.g": graph_text(path(4))})]


# -- oracle ---------------------------------------------------------------

# Each searched pattern with the start of its high floor band, a
# hundredth strictly above its matching-root upper bound:
# K3, P5, S4 have bound 2/3, C4 has 1 - 1/(2 + sqrt 2) ~ 0.7071.
SEARCH_PATTERNS = (
    ("K3", complete(3), 0.68),
    ("C4", cycle(4), 0.72),
    ("P5", path(5), 0.68),
    ("S4", star(4), 0.68),
)
# oracle-dcrit patterns and grid sizes.  Like the searched patterns they
# keep their vertex names for every seed (only their place in the list
# is seeded): the oracle's cost depends on the names, by 2x for P5 and
# 1.8x for C4 in oracle-dcrit and by 1.7x for C4's NoneFound searches,
# and would otherwise decide wall_s.  C4 runs at q = 30, the smallest
# grid whose optimum brackets its critical density 2/3 (q = 20 and 25
# stop at 21/32).
# Ranked by cost (P3, P4, S4 below 0.05 s; P5 and C4 above 0.8 s) the two
# middle value queries of a list come from K3 at q = 40, 50, 60, 70 and
# S4 at q = 100 (0.1-0.3 s).
DCRIT_QUERIES = (("P3", path(3), 50), ("P4", path(4), 50), ("S4", star(4), 50),
                 ("K3", complete(3), 40), ("K3", complete(3), 50),
                 ("K3", complete(3), 60), ("S4", star(4), 100),
                 ("K3", complete(3), 70), ("P5", path(5), 50), ("C4", cycle(4), 30))
LOW_BAND = (0.20, 0.50)
HIGH_BAND_TOP = 0.95
# Fifty low floors and three high floors per pattern and q.  The high
# floors are the midpoints of three equal parts of the high band, the
# same for every seed: a NoneFound search's cost jumps with its floor
# (C4 at q = 20 took 0.95-1.84 s for its three seeded floors), and would
# otherwise decide wall_s.  The seed draws the low floors and the
# order.  The 24 NoneFound searches and the
# oracle-dcrit queries of a list have costs that jump with the floor or
# the pattern; with 436 queries a list query_p90_s (rank ~45) falls
# among the many Found searches instead, where costs are dense.
LOW_PER_Q = 50


def _search(name: str, g: Graph, floor: Fraction, q: int, sizes=None) -> Query:
    argv = ["oracle-search", "{dir}/" + f"{name}.g", "--floor", _dec(floor),
            "--q", str(q)]
    if sizes is not None:
        argv += ["--sizes", ",".join(map(str, sizes))]
    return Query(_structured(*argv), {"graph": g, "floor": floor, "q": q})


def oracle_queries(rng: random.Random, tiny: bool = False) -> list[Query]:
    qs: list[Query] = []
    files: dict[str, str] = {}
    for name, g, high in SEARCH_PATTERNS[:1] if tiny else SEARCH_PATTERNS:
        files[f"{name}.g"] = graph_text(g)
        step = (HIGH_BAND_TOP - high) / 3
        for q in (10,) if tiny else (10, 20):
            for _ in range(1 if tiny else LOW_PER_Q):
                qs.append(_search(name, g, _hundredths(rng, *LOW_BAND), q))
            for k in range(1 if tiny else 3):
                floor = Fraction(round((high + (k + 0.5) * step) * 100), 100)
                qs.append(_search(name, g, floor, q))
    g = BOW_TIE
    files["BT.g"] = graph_text(g)
    for _ in range(1 if tiny else 2):
        qs.append(_search("BT", g, _hundredths(rng, *LOW_BAND), 10, (2,) * 5))
    for name, g, q in DCRIT_QUERIES[:2] if tiny else DCRIT_QUERIES:
        files[f"D{name}-{q}.g"] = graph_text(g)
        qs.append(Query(_structured("oracle-dcrit", "{dir}/" + f"D{name}-{q}.g",
                                    "--q", str(q)),
                        {"graph": g, "name": name}))
    rng.shuffle(qs)
    qs[0].files.update(files)
    return qs


def oracle_warmup(rng: random.Random) -> list[Query]:
    """The paw (a triangle with a pendant edge): never among the timed
    inputs.  It keeps its vertex names, which set oracle-dcrit's cost, so
    set-up costs the same for every seed."""
    g = PAW
    return [
        Query(_structured("oracle-search", "{dir}/w.g", "--floor",
                          _dec(_hundredths(rng, *LOW_BAND)), "--q", "10"),
              {"graph": g}, {"w.g": graph_text(g)}),
        Query(_structured("oracle-dcrit", "{dir}/w.g", "--q", "10"), {"graph": g}),
    ]


QUERY_LISTS = {"spectral": spectral_queries, "trees": trees_queries, "oracle": oracle_queries}
WARMUPS = {"spectral": spectral_warmup, "trees": trees_warmup,
           "oracle": oracle_warmup}


def build_queries(workload: str, seed: int, tiny: bool = False) -> list[Query]:
    """The run's query list; ``tiny`` gives a short one for tests."""
    return QUERY_LISTS[workload](random.Random(f"{seed}:{workload}"), tiny)


def build_warmup(workload: str, seed: int) -> list[Query]:
    """Warm-up inputs come from a different random stream than any query
    list of any seed, and from patterns or sizes the lists never use."""
    return WARMUPS[workload](random.Random(f"{seed}:{workload}:warmup"))
