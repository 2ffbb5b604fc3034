"""Closed-form bounds on the critical density of a general pattern and
sufficiency certificates: matching-polynomial positivity, the triangle
criterion, and the density gluing lemma.

All bounds are for connected patterns with maximum degree at least 2
(below that every density above 0 trivially ensures the transversal, and
the closed forms degenerate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .blowup import bow_tie_densities, bow_tie_reconstruction
from .errors import BadSplit, DegenerateGraph, ValidationError
from .graphs import (
    Edge,
    PatternGraph,
    canonical_edge,
    edge_assignment,
    rational,
    tolerance,
)
from .polynomials import (
    largest_matching_root_squared,
    multivariate_matching_eval,
    positive_on_unit_interval,
)
from .stars import star_lower_bound
from .tree_decision import CriticalDensity, decide_tree
from .verdict import Verdict

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class BoundsReport:
    """Closed-form sandwich around the critical density.

    lower_delta <= lower_star <= d_crit <= upper_matching_root, and
    upper_coarse / upper_lll are the strict degree-only upper bounds
    1 - 1/(4(Delta-1)) and 1 - 1/(e(2*Delta-1)).
    """

    lower_delta: Fraction
    lower_star: CriticalDensity
    upper_matching_root: CriticalDensity
    upper_coarse: Fraction
    upper_lll: float


def compute_bounds(
    H: PatternGraph, tol: Fraction | float = Fraction(1, 10**9)
) -> BoundsReport:
    tol = tolerance(tol)
    delta = H.max_degree()
    if delta < 2:
        raise DegenerateGraph(
            "bounds need maximum degree >= 2; smaller patterns are ensured "
            "by any positive densities")
    star = star_lower_bound(H, tol)
    upper = CriticalDensity(largest_matching_root_squared(H))
    upper.interval(tol)
    return BoundsReport(
        lower_delta=_ONE - Fraction(1, delta),
        lower_star=star.density,
        upper_matching_root=upper,
        upper_coarse=_ONE - Fraction(1, 4 * (delta - 1)),
        upper_lll=1.0 - 1.0 / (math.e * (2 * delta - 1)),
    )


def sufficiency_by_positivity(
    H: PatternGraph, gamma: Mapping[Edge, Fraction] | Sequence[Fraction]
) -> Verdict:
    """Sufficient iff the matching generating polynomial at r_e = 1 - g_e
    stays strictly positive on [0, 1].  Exact for trees; for other
    patterns a vanish in [0, 1] proves nothing, hence Unknown."""
    dens = edge_assignment(H, gamma, low=_ZERO, high=_ONE, what="density")
    ratios = {e: _ONE - d for e, d in dens.items()}
    poly = multivariate_matching_eval(H, ratios)
    if positive_on_unit_interval(poly):
        return Verdict.SUFFICIENT
    return Verdict.UNKNOWN


def triangle_decide(
    alpha: Fraction | float,
    beta: Fraction | float,
    gamma: Fraction | float,
) -> Verdict:
    """Ensured iff ab+c > 1 for every rotation (a, b, c) of the three
    densities, strictly; equality anywhere leaves room for a
    transversal-free blow-up."""
    vals = []
    for x in (alpha, beta, gamma):
        x = rational(x, "density")
        if not _ZERO <= x <= _ONE:
            raise ValidationError(f"density {x} outside [0, 1]")
        vals.append(x)
    a, b, c = vals
    if a * b + c > 1 and b * c + a > 1 and c * a + b > 1:
        return Verdict.ENSURED
    return Verdict.NOT_ENSURED


def certify_triangle(
    H: PatternGraph, gamma: Mapping[Edge, Fraction] | Sequence[Fraction]
) -> Verdict:
    if H.n != 3 or len(H.edges) != 3:
        raise ValidationError("triangle certifier needs a 3-cycle pattern")
    dens = edge_assignment(H, gamma, low=_ZERO, high=_ONE, what="density")
    return triangle_decide(*(dens[e] for e in H.edges))


def default_certifier(
    H: PatternGraph, gamma: Mapping[Edge, Fraction] | Sequence[Fraction]
) -> Verdict:
    """Tree reduction when the part is a tree, the triangle criterion for
    a 3-cycle, matching-polynomial positivity otherwise."""
    if H.is_tree():
        return decide_tree(H, gamma).verdict
    if H.n == 3 and len(H.edges) == 3:
        return certify_triangle(H, gamma)
    return sufficiency_by_positivity(H, gamma)


def _certified(result: object) -> bool:
    """Whether a certifier's answer certifies its part: Ensured and
    Sufficient do, NotEnsured and Unknown do not."""
    if not isinstance(result, Verdict) or result not in (
            Verdict.ENSURED, Verdict.SUFFICIENT,
            Verdict.NOT_ENSURED, Verdict.UNKNOWN):
        raise ValidationError(f"certifier returned {result!r}")
    return result.exit_code == 0


def glue(H1: PatternGraph, H2: PatternGraph, u1: int, u2: int
         ) -> tuple[PatternGraph, dict[int, int]]:
    """Identify u2 of H2 with u1 of H1.  H1 keeps its labels; the other
    H2 vertices become n1+1, ... in increasing order.  Returns the glued
    pattern and the relabeling map for H2's vertices."""
    H1._check_vertex(u1)
    H2._check_vertex(u2)
    relabel = {u2: u1}
    nxt = H1.n + 1
    for v in H2.vertices():
        if v != u2:
            relabel[v] = nxt
            nxt += 1
    edges = set(H1.edges)
    for i, j in H2.edges:
        edges.add(canonical_edge(relabel[i], relabel[j]))
    return PatternGraph(H1.n + H2.n - 1, tuple(sorted(edges))), relabel


Certifier = Callable[[PatternGraph, Mapping[Edge, Fraction]], Verdict]


def glue_sufficiency(
    H1: PatternGraph,
    H2: PatternGraph,
    u1: int,
    u2: int,
    m1: Fraction | float,
    m2: Fraction | float,
    gamma: Mapping[Edge, Fraction] | Sequence[Fraction],
    certify: Certifier = default_certifier,
) -> Verdict:
    """Densities on the glued pattern ensure a transversal if, after
    scaling the glue-vertex edges of part k by r'_e = r_e / m_k, both
    parts are certified by the supplied procedure.

    m1, m2 split the glue cluster: both must be strictly positive with
    m1 + m2 <= 1.  A transformed density dropping below 0 (r_e > m_k)
    certifies nothing and yields Unknown.
    """
    m1, m2 = rational(m1, "split"), rational(m2, "split")
    if not (_ZERO < m1 and _ZERO < m2 and m1 + m2 <= 1):
        raise BadSplit(f"need 0 < m1, 0 < m2, m1 + m2 <= 1; got {m1}, {m2}")
    G, relabel = glue(H1, H2, u1, u2)
    dens = edge_assignment(G, gamma, low=_ZERO, high=_ONE, what="density")

    def part_densities(Hk: PatternGraph, uk: int, mk: Fraction,
                       to_glued: Mapping[int, int]) -> dict[Edge, Fraction] | None:
        out: dict[Edge, Fraction] = {}
        for i, j in Hk.edges:
            r = _ONE - dens[canonical_edge(to_glued[i], to_glued[j])]
            if i == uk or j == uk:
                r = r / mk
                if r > 1:
                    return None
            out[(i, j)] = _ONE - r
        return out

    ident = {v: v for v in H1.vertices()}
    for Hk, uk, mk, mapping in ((H1, u1, m1, ident), (H2, u2, m2, relabel)):
        part = part_densities(Hk, uk, mk, mapping)
        if part is None or not _certified(certify(Hk, part)):
            return Verdict.UNKNOWN
    return Verdict.SUFFICIENT


def bow_tie_counterexample_check(eps: Fraction = Fraction(1, 1000)) -> bool:
    """The bow-tie construction with densities (17/20 x4, 51/100 x2) is
    extremal: raising any single density by 1/100 makes the vector
    sufficient via gluing two triangle criteria.

    The raised edge's triangle takes the slightly smaller glue share
    m = 1/2 - eps, the other 1/2 + eps; the symmetric split would leave
    the untouched triangle exactly on the criterion's boundary.  Also
    re-verifies the base construction itself (exact densities, no
    transversal).
    """
    bow_tie_reconstruction()
    base = bow_tie_densities()
    K3 = PatternGraph(3, ((1, 2), (1, 3), (2, 3)))
    half = Fraction(1, 2)
    bump = Fraction(1, 100)
    part1 = {(1, 2), (1, 3), (2, 3)}
    for raised in base:
        dens = dict(base)
        dens[raised] = dens[raised] + bump
        if raised in part1:
            m1, m2 = half - eps, half + eps
        else:
            m1, m2 = half + eps, half - eps
        verdict = glue_sufficiency(
            K3, K3, 1, 1, m1, m2, dens, certify=certify_triangle)
        if verdict is not Verdict.SUFFICIENT:
            return False
    return True
