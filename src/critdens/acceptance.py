"""The acceptance suite: eleven exact, self-contained checks that the
package's decision procedures, bounds, constructions, and oracles agree
with each other and with closed-form values.

networkx is used here (and only here) to enumerate trees and small
connected graphs up to isomorphism; all verdicts come from this package.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, Iterator, Sequence

import networkx as nx

from .blowup import (
    WeightedBlowupGraph,
    bow_tie_reconstruction,
    gacs_tree_construction,
    star_decomposition_cannot_match_bowtie,
)
from .bounds import (
    compute_bounds,
    bow_tie_counterexample_check,
    triangle_decide,
)
from .errors import ValidationError
from .graphs import PatternGraph, complete_graph, cycle_graph, path_graph, star_graph
from .oracle import oracle_dcrit_estimate, oracle_find_transversal
from .stars import star_lower_bound, verify_bt1
from .tree_decision import dcrit_tree, decide_tree, decide_tree_equivalence
from .verdict import Verdict

SEED = 20260815

_ZERO = Fraction(0)
_ONE = Fraction(1)
_EPS6 = Fraction(1, 10**6)
_EPS9 = Fraction(1, 10**9)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _from_networkx(G: "nx.Graph") -> PatternGraph:
    order = {v: k for k, v in enumerate(sorted(G.nodes), start=1)}
    edges = tuple(sorted(
        (order[u], order[v]) if order[u] < order[v] else (order[v], order[u])
        for u, v in G.edges))
    return PatternGraph(len(order), edges)


def _all_trees(lo: int = 2, hi: int = 8) -> Iterator[PatternGraph]:
    for n in range(lo, hi + 1):
        for T in nx.nonisomorphic_trees(n):
            yield _from_networkx(T)


def _golden() -> tuple[Fraction, Fraction]:
    """(sqrt(5) - 1)/2 as a rational interval of width 1e-24."""
    p = 10**24
    r = isqrt(5 * p * p)
    return Fraction(r - p, 2 * p), Fraction(r + 1 - p, 2 * p)


def _homogeneous(T: PatternGraph, d: Fraction) -> dict:
    return {e: d for e in T.edges}


def check_tree_flip_at_critical() -> tuple[bool, str]:
    """decide_tree flips from NotEnsured to Ensured within 1e-6 of
    1 - 1/lambda(T)^2, for every tree on up to 8 vertices."""
    count = 0
    for T in _all_trees():
        lo, hi = dcrit_tree(T).interval(_EPS9)
        above = hi + _EPS6
        if not decide_tree(T, _homogeneous(T, above)).ensured:
            return False, f"not Ensured just above critical for {T.to_text()!r}"
        below = max(_ZERO, lo - _EPS6)
        if decide_tree(T, _homogeneous(T, below)).ensured:
            return False, f"Ensured just below critical for {T.to_text()!r}"
        count += 1
    return True, f"{count} trees, verdict flips within the 2e-6 window"


def _random_tree(rng: random.Random, n: int) -> PatternGraph:
    edges = tuple((rng.randint(1, v - 1), v) for v in range(2, n + 1))
    return PatternGraph(n, edges)


def check_reduction_matches_positivity() -> tuple[bool, str]:
    """The leaf-reduction verdict equals strict positivity of the
    matching generating polynomial on [0, 1], on 500 random instances."""
    rng = random.Random(SEED)
    for k in range(500):
        T = _random_tree(rng, rng.randint(2, 8))
        gamma = {}
        for e in T.edges:
            den = rng.randint(1, 20)
            gamma[e] = Fraction(rng.randint(0, den), den)
        if not decide_tree_equivalence(T, gamma):
            return False, f"disagreement on instance {k}: {T.to_text()!r} {gamma}"
    return True, "500/500 random tree instances agree"


def check_star_critical_densities() -> tuple[bool, str]:
    """dcrit(S_n) = 1 - 1/(n-1) exactly for n = 3..10."""
    for n in range(3, 11):
        got = dcrit_tree(star_graph(n)).exact
        want = _ONE - Fraction(1, n - 1)
        if got != want:
            return False, f"S_{n}: got {got}, want {want}"
    return True, "S_3..S_10 exact"


def check_bipartite_spectral_identity() -> tuple[bool, str]:
    """Every monotone-path tree of K_{n,m} has spectral radius squared
    exactly n+m-1, for all n, m >= 1 with n+m <= 7."""
    pairs = [(n, m) for n in range(1, 7) for m in range(1, 7) if n + m <= 7]
    for n, m in pairs:
        if not verify_bt1(n, m, _EPS9):
            return False, f"failed for K_{{{n},{m}}}"
    return True, f"{len(pairs)} (n, m) pairs verified exactly"


def check_triangle_threshold() -> tuple[bool, str]:
    """Bisection on the homogeneous triangle criterion localizes the
    Ensured flip to (sqrt(5)-1)/2 within 1e-9."""
    lo, hi = _ZERO, _ONE
    while hi - lo > Fraction(1, 10**12):
        mid = (lo + hi) / 2
        if triangle_decide(mid, mid, mid) is Verdict.ENSURED:
            hi = mid
        else:
            lo = mid
    g_lo, g_hi = _golden()
    if abs((lo + hi) / 2 - g_lo) > _EPS9:
        return False, f"flip at {float(lo):.12f}, not the golden ratio"
    return True, f"flip localized to {float(lo):.12f} within 1e-9"


def check_star_bound_on_triangle() -> tuple[bool, str]:
    """star_lower_bound(K_3) equals (sqrt(5)-1)/2 within 1e-9."""
    bound = star_lower_bound(complete_graph(3))
    lo, hi = bound.interval(Fraction(1, 10**12))
    g_lo, g_hi = _golden()
    if lo - _EPS9 <= g_lo and g_hi <= hi + _EPS9:
        return True, f"bound {float(lo):.12f}, labeling {bound.best_labeling}"
    return False, f"bound [{float(lo)}, {float(hi)}] misses the golden ratio"


def check_gacs_constructions() -> tuple[bool, str]:
    """For every tree on up to 8 vertices the eigenvector-weighted
    blow-up gives every edge one rational density t with t <= d_crit <
    t + 10^-20, and has no transversal (both searchers)."""
    count = 0
    for T in _all_trees():
        dc = dcrit_tree(T)
        B = gacs_tree_construction(T)
        densities = set(B.densities().values())
        if len(densities) != 1:
            return False, f"densities {sorted(densities)} differ on {T.to_text()!r}"
        (t,) = densities
        if dc.compare_density(t) < 0 or dc.compare_density(t + Fraction(1, 10**20)) >= 0:
            return False, f"density {t} not within 1e-20 below d_crit of {T.to_text()!r}"
        if B.find_transversal() is not None or oracle_find_transversal(B) is not None:
            return False, f"transversal found in construction for {T.to_text()!r}"
        count += 1
    return True, f"{count} trees, one density t per tree, t <= d_crit < t + 1e-20, transversal-free"


def check_bow_tie() -> tuple[bool, str]:
    """The bow-tie reconstruction is exact and extremal: densities
    (17/20, 51/100), no transversal, every +1/100 raise is sufficient,
    and no star decomposition matches it."""
    B = bow_tie_reconstruction()
    dens = B.densities()
    for e in B.pattern.edges:
        want = Fraction(51, 100) if e in ((2, 3), (4, 5)) else Fraction(17, 20)
        if dens[e] != want:
            return False, f"density on {e} is {dens[e]}"
    if B.find_transversal() is not None or oracle_find_transversal(B) is not None:
        return False, "reconstruction has a transversal"
    if not bow_tie_counterexample_check():
        return False, "a +1/100 raise was not certified Sufficient"
    if not star_decomposition_cannot_match_bowtie():
        return False, "a star decomposition matched the bow-tie densities"
    return True, "exact densities, transversal-free, all six raises Sufficient"


def _connected_atlas(lo: int = 3, hi: int = 6) -> Iterator[PatternGraph]:
    for G in nx.graph_atlas_g()[1:]:
        if lo <= G.number_of_nodes() <= hi and nx.is_connected(G):
            yield _from_networkx(G)


def check_bounds_ordering() -> tuple[bool, str]:
    """1 - 1/Delta <= star bound <= matching-root bound < coarse bound,
    exactly, for every connected pattern with 3..6 vertices and max
    degree >= 2."""
    count = 0
    for H in _connected_atlas():
        if H.max_degree() < 2:
            continue
        rep = compute_bounds(H)
        if rep.lower_star.compare_density(rep.lower_delta) < 0:
            return False, f"star bound below degree bound for {H.to_text()!r}"
        if rep.lower_star.s_star.compare(rep.upper_matching_root.s_star) > 0:
            return False, f"star bound above matching-root bound for {H.to_text()!r}"
        if rep.upper_matching_root.compare_density(rep.upper_coarse) >= 0:
            return False, f"matching-root bound not below coarse bound for {H.to_text()!r}"
        count += 1
    return True, f"{count} connected patterns ordered correctly"


def check_oracle_brackets() -> tuple[bool, str]:
    """Grid bisection brackets (q = 50, width <= 0.02) contain the known
    critical densities of P_3, S_4, K_3, and C_4."""
    g_lo, g_hi = _golden()
    cases = [
        ("P_3", path_graph(3), (Fraction(1, 2), Fraction(1, 2))),
        ("S_4", star_graph(4), (Fraction(2, 3), Fraction(2, 3))),
        ("K_3", complete_graph(3), (g_lo, g_hi)),
        ("C_4", cycle_graph(4), (Fraction(2, 3), Fraction(2, 3))),
    ]
    details = []
    for name, H, (t_lo, t_hi) in cases:
        lo, hi = oracle_dcrit_estimate(H, q=50)
        if hi - lo > Fraction(2, 100):
            return False, f"{name}: bracket width {float(hi - lo)} > 0.02"
        if not (lo <= t_lo and t_hi <= hi):
            return False, f"{name}: [{float(lo)}, {float(hi)}] misses the target"
        details.append(f"{name} [{float(lo):.4f}, {float(hi):.4f}]")
    return True, "; ".join(details)


def _random_connected(rng: random.Random, n: int) -> PatternGraph:
    edges = set((rng.randint(1, v - 1), v) for v in range(2, n + 1))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.35:
                edges.add((i, j))
    return PatternGraph(n, tuple(sorted(edges)))


def check_searcher_agreement() -> tuple[bool, str]:
    """The pruned and the unpruned transversal searchers agree on
    existence for 1000 random small blow-ups."""
    rng = random.Random(SEED + 1)
    for k in range(1000):
        H = _random_connected(rng, rng.randint(2, 5))
        sizes = [rng.randint(1, 3) for _ in range(H.n)]
        keep = rng.uniform(0.2, 0.9)
        cross = []
        for i, j in H.edges:
            for a in range(sizes[i - 1]):
                for b in range(sizes[j - 1]):
                    if rng.random() < keep:
                        cross.append(((i, a), (j, b)))
        weights = [[Fraction(1, s)] * s for s in sizes]
        B = WeightedBlowupGraph(H, weights, cross)
        fast = B.find_transversal()
        slow = oracle_find_transversal(B)
        if (fast is None) != (slow is None):
            return False, f"disagreement on instance {k}"
    return True, "1000/1000 blow-ups agree on existence"


CRITERIA: Sequence[tuple[str, Callable[[], tuple[bool, str]]]] = (
    ("tree verdict flips at the critical density", check_tree_flip_at_critical),
    ("leaf reduction matches polynomial positivity", check_reduction_matches_positivity),
    ("star critical densities are exact", check_star_critical_densities),
    ("bipartite path-tree spectral identity", check_bipartite_spectral_identity),
    ("triangle threshold at the golden ratio", check_triangle_threshold),
    ("star bound of K_3 equals the triangle threshold", check_star_bound_on_triangle),
    ("eigenvector tree constructions are extremal", check_gacs_constructions),
    ("bow-tie reconstruction and counterexample", check_bow_tie),
    ("bounds are ordered for all small patterns", check_bounds_ordering),
    ("oracle brackets contain known critical densities", check_oracle_brackets),
    ("transversal searchers agree", check_searcher_agreement),
)


def _criterion(index: int) -> tuple[str, Callable[[], tuple[bool, str]]]:
    if not 1 <= index <= len(CRITERIA):
        raise ValidationError(
            f"no criterion {index}: criteria are numbered 1..{len(CRITERIA)}")
    return CRITERIA[index - 1]


def run_criterion(index: int) -> CriterionResult:
    name, fn = _criterion(index)
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # report, never abort the suite
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return CriterionResult(index, name, passed, detail,
                           time.perf_counter() - start)


def run_all(indices: Sequence[int] | None = None) -> list[CriterionResult]:
    picked = indices if indices is not None else range(1, len(CRITERIA) + 1)
    for i in picked:   # reject a bad index before running any criterion
        _criterion(i)
    return [run_criterion(i) for i in picked]
