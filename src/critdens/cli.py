"""Command-line interface.

Exit codes: 0 affirmative verdict, 1 negative verdict (each Verdict
carries its code), 2 usage or input error, or an internal error
(reported with its traceback on stderr), 3 budget or size limit.  A
crash never exits with a verdict's code.

Densities on the command line accept exact rationals ("17/20") and
decimals, which are parsed as exact rationals over powers of ten
(0.85 == 17/20).  Reports show values both ways.  With
--format structured, every command emits line-delimited JSON records;
the field schema is documented in the README.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from decimal import Context
from fractions import Fraction
from typing import Sequence, TextIO

from .blowup import (
    WeightedBlowupGraph,
    bow_tie_reconstruction,
    gacs_tree_construction,
    star_decomposition_cannot_match_bowtie,
    star_decomposition_construct,
)
from .bounds import (
    bow_tie_counterexample_check,
    certify_triangle,
    compute_bounds,
    default_certifier,
    glue,
    glue_sufficiency,
    sufficiency_by_positivity,
    triangle_decide,
)
from .errors import BudgetExhausted, CritdensError, ParseError, SizeLimit
from .graphs import (Edge, PatternGraph, edge_assignment, natural, parse_graph,
                     parse_rational, rational_text, tolerance)
from .oracle import (
    SearchConfig,
    oracle_dcrit_estimate,
    oracle_find_transversal,
    oracle_search_construction,
)
from .polynomials import (
    matching_polynomial,
    multivariate_matching_eval,
    poly_to_strings,
    positive_on_unit_interval,
)
from .stars import (
    monotone_path_tree,
    star_lower_bound,
    star_necessary_condition,
    verify_bt1,
)
from .tree_decision import CriticalDensity, dcrit_tree, decide_tree
from .verdict import Verdict

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3

_ONE = Fraction(1)


# -- parsing helpers ------------------------------------------------------


def _rational(text: str, what: str = "rational") -> Fraction:
    try:
        return parse_rational(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot parse {what} {text.strip()!r}") from None


def _tolerance(text: str) -> Fraction:
    """A --tol value; commands check it before doing any work."""
    return tolerance(_rational(text, "tolerance"))


def _read_file(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _load_graph(path: str) -> PatternGraph:
    return parse_graph(_read_file(path))


def _density_entries(spec: str) -> list[tuple[str, str]]:
    """Split a --densities argument into (location, token) pairs.  A
    spec of the form @FILE reads one entry per line ('#' comments)."""
    if spec.startswith("@"):
        path = spec[1:]
        entries = []
        for lineno, raw in enumerate(_read_file(path).splitlines(), start=1):
            token = raw.split("#", 1)[0].strip()
            if token:
                entries.append((f"{path}:{lineno}", token))
        return entries
    return [(f"entry {k}", token.strip())
            for k, token in enumerate(spec.split(","), start=1)]


def _parse_densities(spec: str, H: PatternGraph):
    """Positional values in edge order, or keyed 'i-j=value' entries.
    A single positional value is broadcast to every edge."""
    entries = _density_entries(spec)
    if not entries:
        raise ParseError("empty density specification")
    keyed = ["=" in token for _, token in entries]
    if any(keyed) and not all(keyed):
        raise ParseError("cannot mix keyed and positional densities")
    if all(keyed):
        out: dict[Edge, Fraction] = {}
        for where, token in entries:
            edge_text, _, value_text = token.partition("=")
            parts = [natural(p.strip()) for p in edge_text.split("-")]
            if len(parts) != 2 or None in parts:
                raise ParseError(f"{where}: bad edge {edge_text.strip()!r}")
            i, j = sorted(parts)
            if (i, j) in out:
                raise ParseError(f"{where}: edge {i}-{j} given twice")
            out[(i, j)] = _rational(value_text, f"density at {where}")
        return out
    values = [_rational(token, f"density at {where}") for where, token in entries]
    if len(values) == 1 and len(H.edges) > 1:
        return [values[0]] * len(H.edges)
    return values


def _int_list(text: str, what: str) -> tuple[int, ...]:
    """A comma list of integers: a labeling, cluster sizes, criteria."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ParseError(f"cannot parse {what} {text!r}") from None


# -- report helpers -------------------------------------------------------


def _both(x) -> str:
    """Exact rational and decimal display; past the float range the ten
    significant digits come from Decimal."""
    try:
        approx = f"{float(x):.10g}"
    except OverflowError:
        approx = f"{Context(prec=10).divide(x.numerator, x.denominator).normalize():g}"
    return f"{rational_text(x)} ({approx})"


def _density_fields(dc: CriticalDensity, tol: Fraction) -> dict:
    lo, hi = dc.interval(tol)
    return {
        "exact": rational_text(dc.exact) if dc.exact is not None else None,
        "lo": rational_text(lo), "hi": rational_text(hi),
        "decimal": float((lo + hi) / 2),
    }


def _density_text(dc: CriticalDensity, tol: Fraction) -> str:
    if dc.exact is not None:
        return f"{_both(dc.exact)} exactly"
    lo, hi = dc.interval(tol)
    return f"in [{rational_text(lo)}, {rational_text(hi)}] ~ {float((lo + hi) / 2):.12g}"


class Reporter:
    def __init__(self, command: str, structured: bool, out: TextIO) -> None:
        self.command = command
        self.structured = structured
        self.out: TextIO | None = out

    def _write(self, line: str) -> None:
        """Write one line.  Once the reader has closed the pipe the rest
        is dropped: the exit code still carries the verdict."""
        if self.out is None:
            return
        try:
            print(line, file=self.out)
        except BrokenPipeError:
            self.out = None

    def text(self, line: str) -> None:
        if not self.structured:
            self._write(line)

    def record(self, kind: str, **fields) -> None:
        if self.structured:
            obj = {"record": kind, "command": self.command}
            obj.update(fields)
            self._write(json.dumps(obj))

    def verdict(self, verdict: Verdict, line: str | None = None, **fields) -> int:
        """Report the verdict (in text, as line when given) and return
        its exit code."""
        self.record("verdict", verdict=verdict, exit=verdict.exit_code, **fields)
        self.text(line or f"verdict: {verdict}")
        return verdict.exit_code


# -- commands -------------------------------------------------------------


def cmd_decide_tree(args, rep: Reporter) -> int:
    T = _load_graph(args.graph)
    dens = _parse_densities(args.densities, T)
    decision = decide_tree(T, dens)
    for k, step in enumerate(decision.reduction_trace, start=1):
        updated = {f"{i}-{j}": v for (i, j), v in sorted(step.updated.items())}
        rep.record("reduction-step", step=k, leaf=step.leaf, neighbor=step.neighbor,
                   updated={e: rational_text(v) for e, v in updated.items()})
        if not rep.structured:
            rep.text(f"step {k}: removed leaf {step.leaf} into {step.neighbor}; "
                     + "; ".join(f"r({e}) = {_both(v)}"
                                 for e, v in sorted(updated.items())))
    fields = {}
    if decision.violating_edge is not None:
        fields["violating_edge"] = list(decision.violating_edge)
        rep.text(f"violating edge: {decision.violating_edge[0]}-"
                 f"{decision.violating_edge[1]} (scaled ratio reached 1)")
    return rep.verdict(decision.verdict, **fields)


def cmd_dcrit_tree(args, rep: Reporter) -> int:
    tol = _tolerance(args.tol)
    T = _load_graph(args.graph)
    dc = dcrit_tree(T, tol)
    rep.record("value", name="critical_density", **_density_fields(dc, tol))
    if not rep.structured:
        rep.text(f"critical density: {_density_text(dc, tol)}")
    return EXIT_YES


def cmd_matchpoly(args, rep: Reporter) -> int:
    H = _load_graph(args.graph)
    if args.densities is None:
        poly = matching_polynomial(H)
        name = "matching_polynomial"
        rep.text("matching polynomial M(G, t), coefficients lowest degree first:")
    else:
        dens = _parse_densities(args.densities, H)
        resolved = edge_assignment(H, dens, low=Fraction(0), high=_ONE,
                                   what="density")
        ratios = {e: _ONE - d for e, d in resolved.items()}
        poly = multivariate_matching_eval(H, ratios)
        name = "matching_generating_function"
        rep.text("matching generating function F(r, t) at r = 1 - density, "
                 "coefficients lowest degree first:")
    coeffs = poly_to_strings(poly)
    rep.record("polynomial", name=name, coefficients=coeffs)
    rep.text("  [" + ", ".join(coeffs) + "]")
    if args.densities is not None:
        positive = positive_on_unit_interval(poly)
        rep.record("value", name="positive_on_unit_interval", value=positive)
        rep.text(f"strictly positive on [0, 1]: {'yes' if positive else 'no'}")
    return EXIT_YES


def cmd_bounds(args, rep: Reporter) -> int:
    tol = _tolerance(args.tol)
    H = _load_graph(args.graph)
    b = compute_bounds(H, tol)
    if not rep.structured:
        rows = [
            ("lower (max degree)", _both(b.lower_delta)),
            ("lower (star decomposition)", _density_text(b.lower_star, tol)),
            ("upper (matching root)", _density_text(b.upper_matching_root, tol)),
            ("upper (coarse degree)", _both(b.upper_coarse)),
            ("upper (local lemma)", f"{b.upper_lll:.10g}"),
        ]
        width = max(len(r[0]) for r in rows)
        rep.text(f"bounds on the critical density of {H.to_text()!r}:")
        for label, value in rows:
            rep.text(f"  {label:<{width}}  {value}")
    rep.record("bound", name="lower_delta", exact=rational_text(b.lower_delta),
               decimal=float(b.lower_delta))
    rep.record("bound", name="lower_star", **_density_fields(b.lower_star, tol))
    rep.record("bound", name="upper_matching_root",
               **_density_fields(b.upper_matching_root, tol))
    rep.record("bound", name="upper_coarse", exact=rational_text(b.upper_coarse),
               decimal=float(b.upper_coarse))
    rep.record("bound", name="upper_lll", decimal=b.upper_lll)
    return EXIT_YES


def cmd_triangle(args, rep: Reporter) -> int:
    vals = [_rational(v, "density") for v in (args.alpha, args.beta, args.gamma)]
    verdict = triangle_decide(*vals)
    if not rep.structured:
        rep.text("densities: " + ", ".join(_both(v) for v in vals))
    return rep.verdict(verdict)


_CERTIFIERS = {
    "auto": default_certifier,
    "triangle": certify_triangle,
    "positivity": sufficiency_by_positivity,
    "tree": lambda H, g: decide_tree(H, g).verdict,
}


def cmd_glue(args, rep: Reporter) -> int:
    H1 = _load_graph(args.graph1)
    H2 = _load_graph(args.graph2)
    G, _ = glue(H1, H2, args.u1, args.u2)
    dens = _parse_densities(args.densities, G)
    m1 = _rational(args.m1, "split share")
    m2 = _rational(args.m2, "split share")
    verdict = glue_sufficiency(H1, H2, args.u1, args.u2, m1, m2, dens,
                               certify=_CERTIFIERS[args.certify])
    if not rep.structured:
        rep.text(f"glued pattern: {G.to_text()!r}, split {_both(m1)} / {_both(m2)}")
    return rep.verdict(verdict)


def cmd_star_bound(args, rep: Reporter) -> int:
    tol = _tolerance(args.tol)
    H = _load_graph(args.graph)
    bound = star_lower_bound(H, tol)
    # the table is built when first read: a size limit there prints nothing
    table = sorted(bound.shape_table.items()) if args.dedupe else []
    rep.record("value", name="star_lower_bound",
               **_density_fields(bound.density, tol))
    rep.record("labeling", labeling=list(bound.best_labeling),
               examined=bound.labelings_examined, heuristic=bound.heuristic)
    if not rep.structured:
        rep.text(f"star lower bound: {_density_text(bound.density, tol)}")
        rep.text("best labeling: f = (" + ",".join(map(str, bound.best_labeling)) + ")")
        rep.text(f"labelings examined: {bound.labelings_examined}"
                 + (" (cap reached: certified lower bound only)" if bound.heuristic else ""))
    if args.dedupe:
        rep.text("path-tree shapes (automorphic labelings collapsed):")
        for shape, (example, count, dc) in table:
            rep.record("shape", shape=shape, example=list(example), count=count,
                       **_density_fields(dc, tol))
            if not rep.structured:
                rep.text(f"  f = ({','.join(map(str, example))}) and {count - 1} more: "
                         f"{_density_text(dc, tol)}")
    return EXIT_YES


def cmd_star_check(args, rep: Reporter) -> int:
    H = _load_graph(args.graph)
    f = _int_list(args.labeling, "labeling")
    dens = _parse_densities(args.densities, H)
    verdict = star_necessary_condition(H, dens, f)
    if args.export_tree is not None:
        mpt = monotone_path_tree(H, f)
        with open(args.export_tree, "w") as fh:
            fh.write(mpt.tree.to_text() + "\n")
        for node in sorted(mpt.legend):
            path = mpt.legend[node]
            rep.record("legend", node=node, path=list(path))
            rep.text(f"node {node} = path " + ">".join(map(str, path)))
        rep.text(f"monotone-path tree written to {args.export_tree}")
    return rep.verdict(verdict)


def _write_construction(B: WeightedBlowupGraph, path: str, rep: Reporter) -> None:
    """The --out file of construct and oracle-search."""
    with open(path, "w") as fh:
        fh.write(B.to_json() + "\n")
    rep.text(f"construction written to {path}")


def cmd_construct(args, rep: Reporter) -> int:
    H = _load_graph(args.graph)
    if args.method == "gacs":
        B = gacs_tree_construction(H)
    else:
        if args.labeling is None or args.densities is None:
            raise ParseError("star construction needs --labeling and --densities")
        f = _int_list(args.labeling, "labeling")
        dens = _parse_densities(args.densities, H)
        B = star_decomposition_construct(H, f, dens)
        if B is None:
            return rep.verdict(
                Verdict.NOT_PRODUCIBLE,
                "no construction: the lifted densities ensure the path tree")
    if args.out is not None:
        _write_construction(B, args.out, rep)
    elif not rep.structured:
        rep.text(B.to_json())
    dens = B.densities()
    rep.record("construction", blowup=B.to_json_obj(),
               densities={f"{i}-{j}": _both(d) for (i, j), d in dens.items()})
    if not rep.structured:
        for (i, j), d in sorted(dens.items()):
            rep.text(f"density {i}-{j}: {_both(d)}")
    return EXIT_YES


def cmd_check_transversal(args, rep: Reporter) -> int:
    B = WeightedBlowupGraph.from_json(_read_file(args.blowup))
    found = B.find_transversal()
    if args.oracle:
        slow = oracle_find_transversal(B)
        agree = (found is None) == (slow is None)
        rep.record("value", name="oracle_agrees", value=agree)
        rep.text(f"unpruned oracle agrees: {'yes' if agree else 'NO'}")
        if not agree:
            raise CritdensError("transversal searchers disagree")
    if found is None:
        return rep.verdict(Verdict.NO_TRANSVERSAL)
    rep.record("transversal", choice={str(v): s for v, s in found.choice.items()})
    rep.text("transversal: " + ", ".join(
        f"cluster {v} -> slot {s}" for v, s in sorted(found.choice.items())))
    return rep.verdict(Verdict.TRANSVERSAL_FOUND)


def cmd_oracle_search(args, rep: Reporter) -> int:
    H = _load_graph(args.graph)
    floor = _parse_densities(args.floor, H)
    cfg = SearchConfig(
        cluster_size_bounds=_int_list(args.sizes, "sizes") if args.sizes else None,
        weight_grid_denominator=args.q,
        density_floor=floor,
        budget=args.budget,
    )
    B = oracle_search_construction(
        H, cfg, progress_path=args.progress, checkpoint_path=args.checkpoint)
    if B is None:
        rep.text("no grid configuration meets the floor (full enumeration)")
        return rep.verdict(Verdict.NONE_FOUND)
    if args.out is not None:
        _write_construction(B, args.out, rep)
    dens = B.densities()
    rep.record("construction", blowup=B.to_json_obj(),
               densities={f"{i}-{j}": rational_text(d) for (i, j), d in dens.items()})
    if not rep.structured:
        rep.text(f"found: cluster sizes {list(B.cluster_sizes())}")
        for (i, j), d in sorted(dens.items()):
            rep.text(f"density {i}-{j}: {_both(d)}")
    return rep.verdict(Verdict.FOUND)


def cmd_oracle_dcrit(args, rep: Reporter) -> int:
    tol = _tolerance(args.tol)
    H = _load_graph(args.graph)
    lo, hi = oracle_dcrit_estimate(
        H, q=args.q, tol=tol,
        cluster_size_bounds=_int_list(args.sizes, "sizes") if args.sizes else None,
        budget=args.budget)
    rep.record("interval", name="dcrit_estimate", lo=rational_text(lo), hi=rational_text(hi),
               lo_decimal=float(lo), hi_decimal=float(hi))
    if not rep.structured:
        rep.text(f"critical density bracket: [{_both(lo)}, {_both(hi)}]")
    return EXIT_YES


def cmd_verify_bt1(args, rep: Reporter) -> int:
    tol = _tolerance(args.tol)
    ok = verify_bt1(args.n, args.m, tol)
    rep.text(f"checking every proper labeling of K_{{{args.n},{args.m}}} "
             f"against spectral radius squared {args.n + args.m - 1}")
    return rep.verdict(Verdict.VERIFIED if ok else Verdict.FAILED)


def cmd_verify_bowtie(args, rep: Reporter) -> int:
    if not rep.structured:
        B = bow_tie_reconstruction()
        rep.text("reconstruction densities: " + ", ".join(
            f"{i}-{j}: {_both(d)}" for (i, j), d in sorted(B.densities().items())))
    raises_ok = bow_tie_counterexample_check()
    rep.record("value", name="all_six_raises_sufficient", value=raises_ok)
    rep.text(f"all six +1/100 raises certified Sufficient: {'yes' if raises_ok else 'NO'}")
    unmatched = star_decomposition_cannot_match_bowtie()
    rep.record("value", name="no_star_decomposition_matches", value=unmatched)
    rep.text(f"no star decomposition reaches these densities: {'yes' if unmatched else 'NO'}")
    ok = raises_ok and unmatched
    return rep.verdict(Verdict.VERIFIED if ok else Verdict.FAILED)


def cmd_self_test(args, rep: Reporter) -> int:
    from . import acceptance

    indices = None
    if args.criteria:
        indices = _int_list(args.criteria, "criteria")
    results = acceptance.run_all(indices)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        rep.record("criterion", index=r.index, name=r.name, passed=r.passed,
                   seconds=round(r.seconds, 3), detail=r.detail)
        rep.text(f"criterion {r.index:2d} [{status}] ({r.seconds:6.2f}s) "
                 f"{r.name}: {r.detail}")
    all_passed = all(r.passed for r in results)
    rep.text(f"{'all criteria passed' if all_passed else 'FAILURES present'}")
    return EXIT_YES if all_passed else EXIT_NO


# -- wiring ---------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    later run() in the process; each parse fills a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="critdens",
        description="Critical edge densities for transversal copies of a "
                    "pattern graph in blow-ups.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "structured"),
                        default="text", help="report style")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide-tree", parents=[common],
                       help="decide whether densities ensure a tree transversal")
    p.add_argument("graph")
    p.add_argument("--densities", required=True,
                   help="comma list (edge order), i-j=value pairs, or @file")
    p.set_defaults(fn=cmd_decide_tree)

    p = sub.add_parser("dcrit-tree", parents=[common],
                       help="critical homogeneous density of a tree")
    p.add_argument("graph")
    p.add_argument("--tol", default="1e-9")
    p.set_defaults(fn=cmd_dcrit_tree)

    p = sub.add_parser("matchpoly", parents=[common],
                       help="matching polynomial, optionally at given densities")
    p.add_argument("graph")
    p.add_argument("--densities")
    p.set_defaults(fn=cmd_matchpoly)

    p = sub.add_parser("bounds", parents=[common],
                       help="closed-form bounds on the critical density")
    p.add_argument("graph")
    p.add_argument("--tol", default="1e-9")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("triangle", parents=[common],
                       help="triangle criterion for three densities")
    p.add_argument("alpha")
    p.add_argument("beta")
    p.add_argument("gamma")
    p.set_defaults(fn=cmd_triangle)

    p = sub.add_parser("glue", parents=[common],
                       help="sufficiency via gluing two patterns at a vertex")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--u1", type=int, required=True)
    p.add_argument("--u2", type=int, required=True)
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)
    p.add_argument("--densities", required=True,
                   help="densities on the glued pattern")
    p.add_argument("--certify", choices=sorted(_CERTIFIERS), default="auto")
    p.set_defaults(fn=cmd_glue)

    p = sub.add_parser("star-bound", parents=[common],
                       help="best star-decomposition lower bound")
    p.add_argument("graph")
    p.add_argument("--tol", default="1e-9")
    p.add_argument("--dedupe", action="store_true",
                   help="also list path-tree shape classes")
    p.set_defaults(fn=cmd_star_bound)

    p = sub.add_parser("star-check", parents=[common],
                       help="necessary condition for one labeling")
    p.add_argument("graph")
    p.add_argument("--labeling", required=True, help="comma list, e.g. 1,2,3")
    p.add_argument("--densities", required=True)
    p.add_argument("--export-tree", help="write the monotone-path tree here")
    p.set_defaults(fn=cmd_star_check)

    p = sub.add_parser("construct", parents=[common],
                       help="build a transversal-free weighted blow-up")
    p.add_argument("graph")
    p.add_argument("--method", choices=("gacs", "star"), default="gacs")
    p.add_argument("--labeling")
    p.add_argument("--densities")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("check-transversal", parents=[common],
                       help="search a blow-up file for a transversal")
    p.add_argument("blowup")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check with the unpruned searcher")
    p.set_defaults(fn=cmd_check_transversal)

    p = sub.add_parser("oracle-search", parents=[common],
                       help="grid search for a construction meeting a floor")
    p.add_argument("graph")
    p.add_argument("--floor", required=True, help="density floor (see --densities)")
    p.add_argument("--sizes", help="cluster size caps, comma list")
    p.add_argument("--q", type=int, default=10, help="weight grid denominator")
    p.add_argument("--budget", type=int, default=10**7)
    p.add_argument("--out")
    p.add_argument("--progress", help="append line-delimited progress records here")
    p.add_argument("--checkpoint", help="resume via this checkpoint file")
    p.set_defaults(fn=cmd_oracle_search)

    p = sub.add_parser("oracle-dcrit", parents=[common],
                       help="grid optimum bracket: lo is a lower bound on "
                            "the critical density, hi bounds the grid optimum only")
    p.add_argument("graph")
    p.add_argument("--q", type=int, default=50)
    p.add_argument("--tol", default="1/64")
    p.add_argument("--sizes")
    p.add_argument("--budget", type=int, default=10**7)
    p.set_defaults(fn=cmd_oracle_dcrit)

    p = sub.add_parser("verify-bt1", parents=[common],
                       help="spectral identity for complete bipartite path trees")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tol", default="1e-9")
    p.set_defaults(fn=cmd_verify_bt1)

    p = sub.add_parser("verify-bowtie", parents=[common],
                       help="bow-tie extremal construction and its raises")
    p.set_defaults(fn=cmd_verify_bowtie)

    p = sub.add_parser("self-test", parents=[common],
                       help="run the acceptance suite")
    p.add_argument("--criteria", help="comma list of criterion numbers")
    p.set_defaults(fn=cmd_self_test)

    return parser


def run(argv: Sequence[str] | None = None, out: TextIO = sys.stdout) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    rep = Reporter(args.command, args.format == "structured", out)
    try:
        return args.fn(args, rep)
    except (SizeLimit, BudgetExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (CritdensError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    try:
        code = run()
    except Exception:
        # Anything the commands do not map to an exit code is a bug; it
        # must not pass for a verdict (0/1) or a limit (3).
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        code = EXIT_USAGE
    finally:
        # also after --help, whose SystemExit passes through here
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed the pipe before the buffered output was
            # written.  Point stdout at os.devnull, so the flush at
            # shutdown cannot fail again and change the exit code.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
