"""Leaf-reduction decision procedure for trees and exact tree critical
densities.

Densities gamma_e and ratios r_e = 1 - gamma_e are exact rationals.  The
decision loop follows the two-step reduction verbatim: stop NotEnsured the
moment any ratio reaches 1, stop Ensured once at most two vertices remain
with the last ratio below 1, otherwise delete a leaf v with neighbor u and
rescale every remaining edge at u by 1 / (1 - r_uv).

Conventions at the boundary: a ratio of exactly 1 (density 0) is
NotEnsured; a single-vertex tree is Ensured vacuously.  Critical densities
satisfy the open rule: homogeneous density d ensures the tree iff
d > 1 - 1/lambda^2.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import AlreadyEnsured, NotATree, ValidationError
from .graphs import (
    Edge,
    PatternGraph,
    canonical_edge,
    edge_assignment,
    rational,
    tolerance,
)
from .polynomials import (
    AlgebraicNumber,
    largest_matching_root_squared,
    multivariate_matching_eval,
    positive_on_unit_interval,
)
from .verdict import Verdict

_ONE = Fraction(1)
_ZERO = Fraction(0)


@dataclass(frozen=True)
class ReductionStep:
    """One leaf removal: the edges at the neighbor carry the new ratios."""

    leaf: int
    neighbor: int
    updated: dict[Edge, Fraction]


@dataclass(frozen=True)
class TreeDecision:
    verdict: Verdict
    violating_edge: Edge | None
    reduction_trace: tuple[ReductionStep, ...]

    @property
    def ensured(self) -> bool:
        return self.verdict is Verdict.ENSURED


def _decide_from_ratios(
    T: PatternGraph,
    ratios: dict[Edge, Fraction],
    pick_leaf: Callable[[list[int]], int] | None = None,
) -> TreeDecision:
    """Core reduction loop.  Vertices keep their original labels, so the
    violating edge and the trace refer to edges of the input tree.

    The leaf list stays sorted from step to step, and only the ratios the
    last step rescaled are checked: before that step none reached 1, so
    the smallest violating edge is among them."""
    adj: dict[int, set[int]] = {v: set(T.adjacency[v]) for v in T.vertices()}
    r = dict(ratios)
    leaves = sorted(v for v in adj if len(adj[v]) == 1)
    trace: list[ReductionStep] = []
    updated = r
    while True:
        violating = min((e for e, x in updated.items() if x >= 1), default=None)
        if violating is not None:
            return TreeDecision(Verdict.NOT_ENSURED, violating, tuple(trace))
        if len(adj) <= 2:
            return TreeDecision(Verdict.ENSURED, None, tuple(trace))
        picked = leaves[0] if pick_leaf is None else pick_leaf(list(leaves))
        try:
            v = leaves.pop(leaves.index(picked))
        except ValueError:
            raise ValidationError(
                f"pick_leaf returned {picked!r}, not one of the leaves {leaves}") from None
        # Delete the leaf and its edge's ratio r_vu, and rescale the ratio
        # of every other edge at its neighbor u by 1/(1 - r_vu).
        (u,) = adj.pop(v)
        adj[u].discard(v)
        denom = _ONE - r.pop(canonical_edge(u, v))
        updated = {}
        for w in adj[u]:
            e = canonical_edge(u, w)
            r[e] = updated[e] = r[e] / denom
        if len(adj[u]) == 1:
            bisect.insort(leaves, u)
        trace.append(ReductionStep(v, u, updated))


def decide_tree(
    T: PatternGraph,
    gamma: Mapping[Edge, Fraction] | Sequence[Fraction],
    pick_leaf: Callable[[list[int]], int] | None = None,
) -> TreeDecision:
    """Decide whether the edge densities force a transversal copy of T in
    every blow-up.  Deterministic lowest-index leaf choice unless a custom
    pick_leaf is supplied (used by order-invariance tests)."""
    if not T.is_tree():
        raise NotATree("decision procedure requires a tree")
    dens = edge_assignment(T, gamma, low=_ZERO, high=_ONE, what="density")
    ratios = {e: _ONE - g for e, g in dens.items()}
    return _decide_from_ratios(T, ratios, pick_leaf)


def decide_tree_equivalence(
    T: PatternGraph, gamma: Mapping[Edge, Fraction] | Sequence[Fraction]
) -> bool:
    """Cross-check the reduction verdict against strict positivity of the
    matching generating polynomial on [0, 1].  Always true."""
    decision = decide_tree(T, gamma)
    dens = edge_assignment(T, gamma, low=_ZERO, high=_ONE, what="density")
    ratios = {e: _ONE - g for e, g in dens.items()}
    positive = positive_on_unit_interval(multivariate_matching_eval(T, ratios))
    return decision.ensured == positive


def critical_scaling(
    T: PatternGraph,
    r: Mapping[Edge, Fraction] | Sequence[Fraction],
    tol: Fraction | float = Fraction(1, 10**9),
) -> tuple[Fraction, Fraction]:
    """Smallest scale t* in (0, 1] at which densities 1 - t r_e stop
    ensuring the tree, bracketed to width <= tol.

    Scaling all ratios by t <= 1 only shrinks every intermediate ratio of
    the reduction, so the verdict is monotone in t and exact-rational
    bisection on the decision procedure brackets t*.  The left endpoint is
    Ensured, the right NotEnsured, so t* lies in (lo, hi].
    """
    if not T.is_tree():
        raise NotATree("critical scaling requires a tree")
    ratios = edge_assignment(T, r, low=_ZERO, what="ratio")
    tol = tolerance(tol)
    if _decide_from_ratios(T, ratios).ensured:
        raise AlreadyEnsured("densities 1 - r_e already ensure the tree")
    lo, hi = _ZERO, _ONE
    while hi - lo > tol:
        mid = (lo + hi) / 2
        scaled = {e: mid * v for e, v in ratios.items()}
        if _decide_from_ratios(T, scaled).ensured:
            lo = mid
        else:
            hi = mid
    return lo, hi


@dataclass
class CriticalDensity:
    """Critical homogeneous density d = 1 - 1/s for s = lambda^2, kept in
    s-space so comparisons against rationals stay exact.

    Edgeless patterns get s = 1 directly (critical density 0: a single
    vertex appears in every blow-up).
    """

    s_star: AlgebraicNumber

    @staticmethod
    def zero() -> "CriticalDensity":
        return CriticalDensity(AlgebraicNumber.from_rational(1))

    @property
    def exact(self) -> Fraction | None:
        if self.s_star.exact is None:
            return None
        return _ONE - _ONE / self.s_star.exact

    def interval(self, tol: Fraction | float = Fraction(1, 10**9)) -> tuple[Fraction, Fraction]:
        tol = tolerance(tol)
        if self.exact is not None:
            return (self.exact, self.exact)
        self.s_star.refine(tol)
        while True:
            if self.s_star.exact is not None:
                return (self.exact, self.exact)
            lo, hi = self.s_star.lo, self.s_star.hi
            if lo > 0 and (hi - lo) / (lo * hi) <= tol:
                return (_ONE - _ONE / lo, _ONE - _ONE / hi)
            self.s_star.refine((hi - lo) / 4)

    def compare_density(self, d: Fraction | float) -> int:
        """Sign of (d_crit - d)."""
        d = rational(d, "density")
        if d >= 1:
            return -1
        return self.s_star.compare_fraction(_ONE / (_ONE - d))

    def ensures(self, d: Fraction | float) -> bool:
        """Homogeneous density d ensures the tree iff d > d_crit."""
        return self.compare_density(d) < 0


def dcrit_tree(
    T: PatternGraph, tol: Fraction | float = Fraction(1, 10**9)
) -> CriticalDensity:
    """Critical homogeneous density of a tree, 1 - 1/lambda(T)^2, exact
    when lambda^2 is rational and an interval of width <= tol otherwise."""
    tol = tolerance(tol)
    if not T.is_tree():
        raise NotATree("critical tree density requires a tree")
    if T.n == 1:
        return CriticalDensity.zero()
    s = largest_matching_root_squared(T, tol)
    dc = CriticalDensity(s)
    dc.interval(tol)
    return dc
