"""Output checks for every benchmark query, run after the timed region.

Each check takes the query, its exit code and its parsed structured
records, and raises CheckFailed when the answer is wrong.  Where an
independent route exists, the check takes it:

* path trees are rebuilt here, matchings are enumerated here, blow-up
  densities are summed here and transversals are searched by brute force
  here, none of it through the package;
* root counts come from sympy's exact real-root isolation (sympy is used
  nowhere else in the benchmark, and never while a query is timed);
* verdicts on trees are cross-checked with the leaf reduction run in the
  opposite leaf order, and critical densities with reductions just
  above and below them;
* the critical densities the oracle brackets must contain are closed
  forms: P_n has spectral radius 2 cos(pi/(n+1)), S_n has sqrt(n-1),
  K3 has the golden-ratio threshold of the triangle criterion and C4 has
  2/3.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

from critdens.blowup import WeightedBlowupGraph, star_decomposition_construct
from critdens.graphs import PatternGraph
from critdens.oracle import oracle_find_transversal
from critdens.tree_decision import decide_tree

from workloads import Graph, Query, max_degree

EPS6 = Fraction(1, 10**6)
EPS9 = Fraction(1, 10**9)


class CheckFailed(Exception):
    pass


def fail(msg: str) -> None:
    raise CheckFailed(msg)


def parse_records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _one(records: list[dict], kind: str, name: str | None = None) -> dict:
    hits = [r for r in records if r.get("record") == kind
            and (name is None or r.get("name") == name)]
    if len(hits) != 1:
        fail(f"expected one {kind} record{f' {name}' if name else ''}, got {len(hits)}")
    return hits[0]


def _verdict(records: list[dict], code: int, yes: str, no: str) -> bool:
    rec = _one(records, "verdict")
    want = {yes: 0, no: 1}
    if rec["verdict"] not in want:
        fail(f"unexpected verdict {rec['verdict']!r}")
    if code != want[rec["verdict"]] or rec["exit"] != code:
        fail(f"verdict {rec['verdict']} with exit {code}")
    return rec["verdict"] == yes


def _expect_exit(code: int, want: int) -> None:
    if code != want:
        fail(f"exit {code}, expected {want}")


def _interval(rec: dict) -> tuple[Fraction, Fraction]:
    if rec.get("exact") is not None:
        x = Fraction(rec["exact"])
        return x, x
    lo, hi = Fraction(rec["lo"]), Fraction(rec["hi"])
    if lo > hi:
        fail(f"empty interval [{lo}, {hi}]")
    return lo, hi


def _pattern(g: Graph) -> PatternGraph:
    return PatternGraph(g[0], g[1])


def _homogeneous_decide(T: PatternGraph, d: Fraction, opposite: bool = False) -> bool:
    d = min(max(d, Fraction(0)), Fraction(1))
    pick = (lambda leaves: leaves[-1]) if opposite else None
    return decide_tree(T, [d] * len(T.edges), pick_leaf=pick).ensured


def _check_flip(T: PatternGraph, lo: Fraction, hi: Fraction, what: str) -> None:
    """The critical density lies in [lo, hi]: the reduction is Ensured
    just above hi and NotEnsured just below lo."""
    if not _homogeneous_decide(T, hi + EPS6):
        fail(f"{what}: not Ensured at hi + 1e-6 = {float(hi + EPS6)}")
    if lo - EPS6 > 0 and _homogeneous_decide(T, lo - EPS6):
        fail(f"{what}: Ensured at lo - 1e-6 = {float(lo - EPS6)}")


# -- independent combinatorics --------------------------------------------


def monotone_path_tree(g: Graph, f) -> Graph:
    """Nodes are the paths f(1) = v1, v2, ... with consecutive vertices
    adjacent and strictly increasing positions in f; a path's parent is
    the path without its last vertex."""
    n, edges = g
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    pos = {v: k for k, v in enumerate(f)}
    tree_edges = []
    stack = [(f[0], 1)]
    count = 1
    while stack:
        last, node = stack.pop()
        for w in adj[last]:
            if pos[w] > pos[last]:
                count += 1
                tree_edges.append((node, count))
                stack.append((w, count))
    return count, tuple(tree_edges)


def matching_sums(g: Graph, weight=None) -> list[Fraction]:
    """c_k = sum over k-matchings of the product of edge weights, by
    enumerating matchings edge by edge."""
    n, edges = g
    weight = weight or (lambda k: Fraction(1))
    sums = [Fraction(0)] * (n // 2 + 1)

    def extend(start: int, used: int, size: int, prod: Fraction) -> None:
        sums[size] += prod
        for k in range(start, len(edges)):
            i, j = edges[k]
            bits = (1 << i) | (1 << j)
            if not used & bits:
                extend(k + 1, used | bits, size + 1, prod * weight(k))

    extend(0, 0, 0, Fraction(1))
    return sums


def _sympy_poly(coeffs_low_first):
    import sympy

    x = sympy.Symbol("x")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs_low_first)], x)


def _rational(x: Fraction):
    import sympy

    return sympy.Rational(x.numerator, x.denominator)


def matching_root_poly(g: Graph):
    """q(s) with M(t) = t^(n mod 2) q(t^2); its largest root is the square
    of the largest matching-polynomial root."""
    m = matching_sums(g)
    K = g[0] // 2
    coeffs = [Fraction(0)] * (K + 1)
    for k, c in enumerate(m):
        coeffs[K - k] = (-1) ** k * c
    return _sympy_poly(coeffs)


def _roots_at_or_above(poly, s: Fraction) -> int:
    return poly.count_roots(_rational(s), None)


def check_upper_root(g: Graph, lo: Fraction, hi: Fraction) -> None:
    """[lo, hi] contains 1 - 1/s for the largest root s of q."""
    poly = matching_root_poly(g)
    s_lo, s_hi = 1 / (1 - lo), 1 / (1 - hi)
    above_hi = _roots_at_or_above(poly, s_hi) - (poly.eval(_rational(s_hi)) == 0)
    if _roots_at_or_above(poly, s_lo) < 1 or above_hi != 0:
        fail(f"matching-root bound [{float(lo)}, {float(hi)}] misses the largest root")


def floor_above_upper_root(g: Graph, floor: Fraction) -> bool:
    """True iff the homogeneous floor is strictly above 1 - 1/t(H)^2."""
    if floor >= 1:
        return True
    return _roots_at_or_above(matching_root_poly(g), 1 / (1 - floor)) == 0


def blowup_densities(obj: dict) -> dict[tuple[int, int], Fraction | float]:
    parse = Fraction if obj["mode"] == "exact" else float
    weights = [[parse(s["weight"]) for s in sorted(c, key=lambda s: s["id"])]
               for c in obj["clusters"]]
    dens = {tuple(e): 0 for e in obj["pattern"]["edges"]}
    for i, a, j, b in obj["cross_edges"]:
        dens[(i, j)] += weights[i - 1][a] * weights[j - 1][b]
    return dens


def has_transversal(obj: dict) -> bool:
    """Brute force over every choice of one slot per cluster."""
    edges = [tuple(e) for e in obj["pattern"]["edges"]]
    cross = {(i, a, j, b) for i, a, j, b in obj["cross_edges"]}
    sizes = [len(c) for c in obj["clusters"]]
    for choice in itertools.product(*(range(k) for k in sizes)):
        if all((i, choice[i - 1], j, choice[j - 1]) in cross for i, j in edges):
            return True
    return False


def _check_pattern(obj: dict, g: Graph) -> None:
    got = (obj["pattern"]["n"], tuple(tuple(e) for e in obj["pattern"]["edges"]))
    if got != g:
        fail(f"blow-up pattern {got} is not the queried pattern {g}")


def _check_transversal_free(obj: dict) -> None:
    if has_transversal(obj):
        fail("witness has a transversal")
    B = WeightedBlowupGraph.from_json_obj(obj)
    if B.find_transversal() is not None or oracle_find_transversal(B) is not None:
        fail("a package searcher finds a transversal in the witness")


# -- per-command checks ---------------------------------------------------


def check_bounds(q: Query, code: int, recs: list[dict], ctx: dict) -> None:
    """Criterion-9 ordering lower_delta <= lower_star <= upper_matching_root
    < upper_coarse, the closed forms, and the matching root by sympy."""
    _expect_exit(code, 0)
    g = q.meta["graph"]
    delta = max_degree(g)
    rows = {r["name"]: r for r in recs if r.get("record") == "bound"}
    lower_delta = Fraction(rows["lower_delta"]["exact"])
    coarse = Fraction(rows["upper_coarse"]["exact"])
    if lower_delta != 1 - Fraction(1, delta):
        fail(f"lower_delta {lower_delta} is not 1 - 1/{delta}")
    if coarse != 1 - Fraction(1, 4 * (delta - 1)):
        fail(f"upper_coarse {coarse} is not 1 - 1/(4({delta}-1))")
    lll = 1.0 - 1.0 / (math.e * (2 * delta - 1))
    if abs(rows["upper_lll"]["decimal"] - lll) > 1e-12:
        fail("upper_lll is off its closed form")
    s_lo, s_hi = _interval(rows["lower_star"])
    u_lo, u_hi = _interval(rows["upper_matching_root"])
    if not (lower_delta <= s_hi and s_lo <= u_hi and u_hi < coarse):
        fail(f"bounds out of order: {float(lower_delta)}, [{float(s_lo)}, {float(s_hi)}], "
             f"[{float(u_lo)}, {float(u_hi)}], {float(coarse)}")
    check_upper_root(g, u_lo, u_hi)


def check_star_bound(q: Query, code: int, recs: list[dict], ctx: dict) -> None:
    """The bound is the table's maximum, and it flips the reduction on the
    best labeling's monotone-path tree."""
    _expect_exit(code, 0)
    g = q.meta["graph"]
    lo, hi = _interval(_one(recs, "value", "star_lower_bound"))
    lab = _one(recs, "labeling")
    if lab["heuristic"]:
        fail("labeling cap reached")
    best = tuple(lab["labeling"])
    shapes = [r for r in recs if r.get("record") == "shape"]
    if sum(r["count"] for r in shapes) != lab["examined"]:
        fail("shape counts do not add up to the labelings examined")
    for r in shapes:
        if _interval(r)[0] > hi:
            fail(f"shape {r['shape']} lies above the reported bound")
    own = [r for r in shapes if tuple(r["example"]) == best]
    if len(own) != 1:
        fail("best labeling is not the example of a shape")
    b_lo, b_hi = _interval(own[0])
    if b_lo > hi or lo > b_hi:
        fail("bound differs from its shape's critical density")
    T = _pattern(monotone_path_tree(g, best))
    _check_flip(T, lo, hi, "star bound")


def check_star_check(q: Query, code: int, recs: list[dict], ctx: dict) -> None:
    """Agrees with the opposite-order reduction on an independently built
    path tree; a Fails verdict has a verified construction."""
    g, f, d = q.meta["graph"], q.meta["labeling"], q.meta["density"]
    passes = _verdict(recs, code, "PassesThisLabeling", "FailsThisLabeling")
    T = _pattern(monotone_path_tree(g, f))
    if passes != _homogeneous_decide(T, d, opposite=True):
        fail("verdict disagrees with the reduction on the path tree")
    if passes:
        return
    B = star_decomposition_construct(_pattern(g), f, [d] * len(g[1]))
    if B is None:
        fail("Fails verdict but no star-decomposition construction")
    obj = B.to_json_obj()
    for e, got in blowup_densities(obj).items():
        if got < d:
            fail(f"construction density {got} below {d} on {e}")
    _check_transversal_free(obj)


def check_matchpoly(q: Query, code: int, recs: list[dict], ctx: dict) -> None:
    """Coefficients by matching enumeration; positivity on [0, 1] by
    sympy's exact root count."""
    _expect_exit(code, 0)
    g, dens = q.meta["graph"], q.meta["densities"]
    coeffs = [Fraction(c) for c in _one(recs, "polynomial")["coefficients"]]
    sums = matching_sums(g, lambda k: 1 - dens[k])
    want = [(-1) ** k * c for k, c in enumerate(sums)]
    while want and want[-1] == 0:
        want.pop()
    if coeffs != want:
        fail("matching generating function coefficients differ")
    positive = _one(recs, "value", "positive_on_unit_interval")["value"]
    poly = _sympy_poly(coeffs)
    truth = coeffs[0] > 0 and poly.count_roots(0, 1) == 0
    if positive is not truth:
        fail(f"positive_on_unit_interval is {positive}, sympy says {truth}")


def check_dcrit_tree(q: Query, code: int, recs: list[dict], ctx: dict) -> None:
    _expect_exit(code, 0)
    lo, hi = _interval(_one(recs, "value", "critical_density"))
    if hi - lo > EPS9:
        fail(f"bracket width {float(hi - lo)} above the tolerance")
    _check_flip(_pattern(q.meta["graph"]), lo, hi, "dcrit-tree")
    ctx.setdefault("dcrit", {})[q.meta["graph"]] = (lo, hi)


def check_decide_tree(q: Query, code: int, recs: list[dict], ctx: dict) -> None:
    """Agrees with the dcrit-tree bracket (mid-size trees) or the
    closed-form bracket [1 - 1/D, 1 - 1/(4(D-1))] (large trees); inside
    the bracket, with the reduction in the opposite leaf order."""
    g, d = q.meta["graph"], q.meta["density"]
    ensured = _verdict(recs, code, "Ensured", "NotEnsured")
    if q.meta.get("large"):
        delta = max_degree(g)
        lo, hi = 1 - Fraction(1, delta), 1 - Fraction(1, 4 * (delta - 1))
        inside = lo < d < hi
    else:
        if g not in ctx.get("dcrit", {}):
            fail("no checked dcrit-tree bracket for this tree")
        lo, hi = ctx["dcrit"][g]
        inside = lo < d <= hi
    if inside:
        want = _homogeneous_decide(_pattern(g), d, opposite=True)
    else:
        want = d > lo
    if ensured != want:
        fail(f"verdict {'Ensured' if ensured else 'NotEnsured'} at density {d}")


def check_construct(q: Query, code: int, recs: list[dict], ctx: dict) -> None:
    """GACS blow-up: every density is the critical density (the reduction
    flips across it) and neither searcher finds a transversal."""
    _expect_exit(code, 0)
    obj = _one(recs, "construction")["blowup"]
    g = q.meta["graph"]
    _check_pattern(obj, g)
    T = _pattern(g)
    slack = Fraction(0) if obj["mode"] == "exact" else 2 * EPS9
    for e, d in blowup_densities(obj).items():
        d = Fraction(d)
        if _homogeneous_decide(T, d - slack):
            fail(f"density {float(d)} on {e} is above the critical density")
        if not _homogeneous_decide(T, d + max(slack, EPS9)):
            fail(f"density {float(d)} on {e} is below the critical density")
    _check_transversal_free(obj)


def check_check_transversal(q: Query, code: int, recs: list[dict], ctx: dict) -> None:
    found = _verdict(recs, code, "TransversalFound", "NoTransversal")
    if _one(recs, "value", "oracle_agrees")["value"] is not True:
        fail("searchers disagree")
    obj = json.loads((Path(ctx["dir"]) / q.meta["blowup_file"]).read_text())
    if found != has_transversal(obj):
        fail("verdict disagrees with brute force")


def check_oracle_search(q: Query, code: int, recs: list[dict], ctx: dict) -> None:
    """Found: the witness meets the floor exactly and has no transversal.
    NoneFound: only accepted above the matching-root upper bound."""
    g, floor = q.meta["graph"], q.meta["floor"]
    found = _verdict(recs, code, "Found", "NoneFound")
    if not found:
        if not floor_above_upper_root(g, floor):
            fail(f"NoneFound at floor {floor}, not above the matching-root bound")
        return
    obj = _one(recs, "construction")["blowup"]
    _check_pattern(obj, g)
    if obj["mode"] != "exact":
        fail("oracle witness is not exact")
    for e, d in blowup_densities(obj).items():
        if d < floor:
            fail(f"witness density {d} below the floor {floor} on {e}")
    _check_transversal_free(obj)


GOLDEN = "golden"   # (sqrt 5 - 1)/2, the positive root of x^2 + x - 1

KNOWN_DCRIT = {
    "P3": Fraction(1, 2),      # 1 - 1/(2 cos(pi/4))^2
    "P4": GOLDEN,              # 1 - 1/(2 cos(pi/5))^2
    "P5": Fraction(2, 3),      # 1 - 1/(2 cos(pi/6))^2
    "S4": Fraction(2, 3),      # 1 - 1/sqrt(3)^2
    "K3": GOLDEN,              # triangle criterion d^2 + d > 1
    "C4": Fraction(2, 3),
}


def _contains(lo: Fraction, hi: Fraction, value) -> bool:
    if value == GOLDEN:
        below = lo < 0 or lo * lo + lo < 1
        above = hi >= 0 and hi * hi + hi > 1
        return below and above
    return lo <= value <= hi


def check_oracle_dcrit(q: Query, code: int, recs: list[dict], ctx: dict) -> None:
    _expect_exit(code, 0)
    rec = _one(recs, "interval", "dcrit_estimate")
    lo, hi = Fraction(rec["lo"]), Fraction(rec["hi"])
    if not _contains(lo, hi, KNOWN_DCRIT[q.meta["name"]]):
        fail(f"bracket [{lo}, {hi}] misses the critical density of {q.meta['name']}")


CHECKS = {
    "bounds": check_bounds,
    "star-bound": check_star_bound,
    "star-check": check_star_check,
    "matchpoly": check_matchpoly,
    "dcrit-tree": check_dcrit_tree,
    "decide-tree": check_decide_tree,
    "construct": check_construct,
    "check-transversal": check_check_transversal,
    "oracle-search": check_oracle_search,
    "oracle-dcrit": check_oracle_dcrit,
}

# dcrit-tree brackets feed the decide-tree checks of the same round.
CHECK_ORDER = {"dcrit-tree": 0}


def check(q: Query, code: int | None, stdout: str, ctx: dict) -> str | None:
    """None when the answer is right, else a one-line reason."""
    if code is None:
        return "uncaught exception"
    if code in (2, 3):
        return f"exit {code}"
    try:
        CHECKS[q.command](q, code, parse_records(stdout), ctx)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
