"""The public API raises only CritdensError subclasses: numbers that
Fraction() or operator.index() refuse (NaN, infinities, non-numbers,
non-integers) and non-iterables where a sequence is expected surface as
ValidationError, never as a bare ValueError, OverflowError or TypeError;
text that the parsers refuse, arbitrary or mutated, surfaces as a
CritdensError too, and promptly even when its exponents are huge."""

import io
from fractions import Fraction as F

import pytest

from critdens.blowup import WeightedBlowupGraph, blowup_without, gacs_tree_construction
from critdens.bounds import compute_bounds, glue_sufficiency, triangle_decide
from critdens.cli import _parse_densities, run
from critdens.errors import CritdensError, ParseError, ValidationError
from critdens.graphs import (
    PatternGraph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    integer,
    parse_graph,
    path_graph,
    rational,
    star_graph,
)
from critdens.oracle import SearchConfig, oracle_dcrit_estimate
from critdens.polynomials import (
    AlgebraicNumber,
    RatPoly,
    largest_matching_root_squared,
    largest_real_root,
    poly_from_strings,
    poly_to_strings,
)
from critdens.stars import star_lower_bound, verify_bt1
from critdens.tree_decision import (
    CriticalDensity,
    critical_scaling,
    dcrit_tree,
    decide_tree,
)

NAN, INF = float("nan"), float("inf")
P2, P3, K3 = path_graph(2), path_graph(3), complete_graph(3)


def _root_of_two():
    return AlgebraicNumber([-2, 0, 1], F(1), F(2))


def _edited_blowup(weights, edit):
    """WeightedBlowupGraph.from_json_obj of the full blow-up of a path on
    len(weights) vertices, its JSON object changed by edit first."""
    obj = blowup_without(path_graph(len(weights)), weights).to_json_obj()
    edit(obj)
    return WeightedBlowupGraph.from_json_obj(obj)


CALLS = {
    "decide_tree nan density": lambda: decide_tree(P3, [NAN, 0.5]),
    "decide_tree inf density": lambda: decide_tree(P3, [INF, 0.5]),
    "decide_tree non-edge key": lambda: decide_tree(P3, {1: 0.5}),
    "decide_tree text density": lambda: decide_tree(P3, {(1, 2): "x", (2, 3): 0.5}),
    "decide_tree missing density": lambda: decide_tree(P3, [None, 0.5]),
    "decide_tree non-iterable densities": lambda: decide_tree(P3, 5),
    "dcrit_tree nan tol": lambda: dcrit_tree(path_graph(4), NAN),
    "dcrit_tree inf tol": lambda: dcrit_tree(path_graph(4), INF),
    "star_lower_bound nan tol": lambda: star_lower_bound(path_graph(4), NAN),
    "critical_scaling nan tol": lambda: critical_scaling(P3, [F(1, 2)] * 2, NAN),
    "critical_scaling nan ratio": lambda: critical_scaling(P3, [NAN, F(1, 2)]),
    "verify_bt1 nan tol": lambda: verify_bt1(2, 2, NAN),
    "oracle_dcrit_estimate nan tol": lambda: oracle_dcrit_estimate(P3, tol=NAN),
    "oracle_dcrit_estimate fractional q": lambda: oracle_dcrit_estimate(P3, q=2.5),
    "SearchConfig fractional budget": lambda: SearchConfig(budget=1.5),
    "SearchConfig non-iterable floor": lambda: SearchConfig(
        density_floor=5).resolved_floor(K3),
    "SearchConfig non-iterable bounds": lambda: SearchConfig(
        cluster_size_bounds=5).resolved_bounds(K3),
    "triangle_decide nan density": lambda: triangle_decide(NAN, 0.5, 0.5),
    "glue_sufficiency nan split": lambda: glue_sufficiency(
        P2, P2, 1, 1, NAN, 0.5, [0.5, 0.5]),
    "glue_sufficiency nan density": lambda: glue_sufficiency(
        P2, P2, 1, 1, 0.5, 0.5, [NAN, 0.5]),
    "CriticalDensity nan density": lambda: CriticalDensity(_root_of_two()).compare_density(NAN),
    "CriticalDensity nan tol": lambda: CriticalDensity(_root_of_two()).interval(NAN),
    "refine nan tol": lambda: _root_of_two().refine(NAN),
    "refine zero tol": lambda: _root_of_two().refine(0),
    "exact blow-up nan weight": lambda: WeightedBlowupGraph(P2, [[NAN], [1]], []),
    "fractional vertex count": lambda: PatternGraph(2.5, ((1, 2),)),
    "path_graph fractional size": lambda: path_graph(2.5),
    "cycle_graph text size": lambda: cycle_graph("4"),
    "star_graph missing size": lambda: star_graph(None),
    "complete_graph fractional size": lambda: complete_graph(3.0),
    "complete_bipartite fractional part": lambda: complete_bipartite(2, 1.5),
    "verify_bt1 fractional part": lambda: verify_bt1(2.5, 2),
    "verify_bt1 text part": lambda: verify_bt1("3", 2),
    "RatPoly nan coefficient": lambda: RatPoly([1, NAN]),
    "RatPoly inf coefficient": lambda: RatPoly([-INF]),
    "RatPoly text coefficient": lambda: RatPoly([1, "x"]),
    "RatPoly missing coefficient": lambda: RatPoly([None]),
    # operator.index and Fraction take a bool as 0 or 1, and nothing
    # converted a pattern's edge ends
    "fractional edge end": lambda: PatternGraph(3, ((1.5, 2),)),
    "text edge end": lambda: PatternGraph(3, (("1", 2),)),
    "float edge end": lambda: PatternGraph(3, ((1.0, 2),)),
    "bool vertex count": lambda: PatternGraph(True, ()),
    "bool integer": lambda: integer(False, "size"),
    "bool rational": lambda: rational(True),
    "bool weight": lambda: WeightedBlowupGraph(P2, [[True], [1]], []),
    "blow-up file bool vertex count": lambda: _edited_blowup(
        [[1]], lambda obj: obj["pattern"].update(n=True)),
    "blow-up file bool weight": lambda: _edited_blowup(
        [[1], [1]], lambda obj: obj["clusters"][0][0].update(weight=True)),
    "blow-up file bool slot id": lambda: _edited_blowup(
        [[1], [1]], lambda obj: obj["clusters"][0][0].update(id=False)),
    "blow-up file bool cross-edge slot": lambda: _edited_blowup(
        [[F(1, 2)] * 2, [1]], lambda obj: obj["cross_edges"][0].__setitem__(1, True)),
    "blow-up file bool cross-edge cluster": lambda: _edited_blowup(
        [[1], [1]], lambda obj: obj["cross_edges"][0].__setitem__(0, True)),
}
# t^2 + t has its largest root 0 at the first bisection midpoint, and 1 is
# exact from the start: neither needs refining, so the tolerance is checked
# before any shortcut.
for name, tol in {"zero": 0, "negative": -1, "nan": NAN, "text": "x"}.items():
    CALLS[f"largest_real_root {name} tol"] = (
        lambda tol=tol: largest_real_root(RatPoly([0, 1, 1]), tol))
    CALLS[f"exact refine {name} tol"] = (
        lambda tol=tol: AlgebraicNumber.from_rational(1).refine(tol))
for name, x in {"text": "x", "nan": NAN, "missing": None, "inf": INF}.items():
    CALLS[f"compare_fraction {name}"] = lambda x=x: _root_of_two().compare_fraction(x)
    CALLS[f"from_rational {name}"] = lambda x=x: AlgebraicNumber.from_rational(x)


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_bad_numbers_raise_validation_error(call):
    with pytest.raises(ValidationError):
        call()


# P1, P3 and S5 have exact answers, so the calls return before any
# refinement; P4's critical density is irrational and must be refined.
TOL_CALLS = {
    "dcrit_tree": dcrit_tree,
    "star_lower_bound": star_lower_bound,
    "compute_bounds": compute_bounds,
    "largest_matching_root_squared": largest_matching_root_squared,
    "CriticalDensity.interval": lambda H, tol: dcrit_tree(H).interval(tol),
    "StarBound.interval": lambda H, tol: star_lower_bound(H).interval(tol),
}
TOL_GRAPHS = {"P1": path_graph(1), "P3": P3, "S5": star_graph(5), "P4": path_graph(4)}


@pytest.mark.parametrize("tol", [0, -1, NAN], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("graph", TOL_GRAPHS.values(), ids=TOL_GRAPHS.keys())
@pytest.mark.parametrize("call", TOL_CALLS.values(), ids=TOL_CALLS.keys())
def test_bad_tolerance_raises_on_exact_and_refined_inputs(call, graph, tol):
    with pytest.raises(ValidationError, match="tolerance"):
        call(graph, tol)


@pytest.mark.parametrize("items", [[None], ["x"], ["1/0"], [True]],
                         ids=["missing", "text", "zero denominator", "bool"])
def test_poly_from_strings_raises_parse_error(items):
    # Fraction(None) raises a bare TypeError
    with pytest.raises(ParseError, match="bad coefficient"):
        poly_from_strings(items)


def test_messages_name_the_value():
    with pytest.raises(ValidationError, match=r"density nan on edge \(1, 2\) is not a finite rational"):
        decide_tree(P3, [NAN, 0.5])
    with pytest.raises(ValidationError, match="weight nan in cluster 1 is not a finite rational"):
        WeightedBlowupGraph(P2, [[NAN], [1]], [])
    with pytest.raises(ValidationError, match="^tolerance must be positive$"):
        verify_bt1(2, 2, 0)


# str.isdigit() takes superscript digits, which int() refuses; int() also
# refuses more than 4,300 digits
DIGIT_INPUTS = {
    "superscript vertex count": ("\u00b2; 1-2", "0.5"),
    "superscript edge end": ("3; 1-\u00b2", "0.5"),
    "superscript keyed density": ("3; 1-2 2-3", "1-\u00b2=0.5,2-3=0.5"),
    "overlong vertex count": ("9" * 5000 + "; 1-2", "0.5"),
    "overlong keyed density": ("3; 1-2 2-3", "1-" + "9" * 5000 + "=0.5,2-3=0.5"),
}


@pytest.mark.parametrize("graph, densities", DIGIT_INPUTS.values(),
                         ids=DIGIT_INPUTS.keys())
def test_digits_int_refuses_are_parse_errors(tmp_path, capsys, graph, densities):
    path = tmp_path / "g.g"
    path.write_text(graph, encoding="utf-8")
    code = run(["decide-tree", str(path), "--densities", densities], out=io.StringIO())
    assert code == 2
    assert "error:" in capsys.readouterr().err


def _fuzzed(valid):
    """Arbitrary text, or a valid input with a few characters inserted,
    deleted or replaced (often digits and separators, or a decimal
    exponent up to 10**9 in size, half the time right after a digit)."""
    st = pytest.importorskip("hypothesis").strategies
    pieces = st.one_of(st.text(min_size=1, max_size=3),
                       st.text(alphabet="0123456789\u00b2\u0663-=;,/. []{}\"\n",
                               min_size=1, max_size=3),
                       st.integers(-10**9, 10**9).map("e{}".format))

    @st.composite
    def mutated(draw):
        text = draw(st.sampled_from(valid))
        for _ in range(draw(st.integers(1, 4))):
            after_digit = [i + 1 for i, c in enumerate(text) if c.isdigit()] or [0]
            k = draw(st.one_of(st.integers(0, len(text)), st.sampled_from(after_digit)))
            cut = draw(st.integers(0, 3))
            text = text[:k] + draw(st.one_of(st.just(""), pieces)) + text[k + cut:]
        return text

    return st.one_of(st.text(), mutated())


def _densities_on_p3(text):
    # an @FILE spec reads a file, then parses its lines as these are parsed
    if not text.startswith("@"):
        return repr(_parse_densities(text, P3))


# Each parser returns its input written back as text, so an accepted value
# must print too.
FUZZED = {
    "parse_graph": (parse_graph, ["3; 1-2 2-3", "4; 1-2\n2-3 3-4\n1-4", "1;"]),
    "_parse_densities": (_densities_on_p3, ["1-2=0.5,2-3=1/3", "2-3 = 0.25, 1-2 = 1",
                                            "0.5,1/2", "0.5"]),
    "WeightedBlowupGraph.from_json": (
        lambda text: WeightedBlowupGraph.from_json(text).to_json(), [
            blowup_without(P3, [[F(1)], [F(1, 2)] * 2, [F(1)]]).to_json(),
            gacs_tree_construction(path_graph(4)).to_json()]),
    "poly_from_strings": (lambda text: poly_to_strings(poly_from_strings(text.split(","))),
                          ["1/2,0,-3", "0.25,1e3,7"]),
}

_OVERLONG_JSON_INT = '{"pattern": {"n": ' + "9" * 5000 + ', "edges": []}}'
_HUGE_EXPONENT_WEIGHT = ('{"pattern": {"n": 2, "edges": [[1, 2]]}, "mode": "exact", '
                         '"clusters": [[{"id": 0, "weight": "1e-99999999"}], '
                         '[{"id": 0, "weight": "1"}]], "cross_edges": []}')


@pytest.mark.parametrize("parse, valid", FUZZED.values(), ids=FUZZED.keys())
def test_parsers_raise_only_critdens_errors(parse, valid):
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=1500, deadline=1000)
    @hypothesis.given(_fuzzed(valid))
    @hypothesis.example("1e-99999999")
    @hypothesis.example("1e-9999")
    @hypothesis.example(_OVERLONG_JSON_INT)
    @hypothesis.example(_HUGE_EXPONENT_WEIGHT)
    @hypothesis.example("\u00b2; 1-2")
    @hypothesis.example("3; 1-\u00b2")
    @hypothesis.example("1-\u00b2=0.5,2-3=0.5")
    @hypothesis.example("1-2=0.5,2-\u0663=0.5")
    @hypothesis.example("1-2=0.5,2-3=")
    @hypothesis.example("1-2=0.5,=0.5")
    @hypothesis.example("1-2=1/0,2-3=0.5")
    @hypothesis.example('{"pattern": {"n": 2, "edges": [[1, 2]]}, "mode": "exact", '
                        '"clusters": [[{"id": 0, "weight": "1"}], '
                        '[{"id": 0, "weight": "1"}]], "cross_edges": [[1, 0, 2, null]]}')
    def check(text):
        try:
            parse(text)
        except CritdensError:
            pass

    check()
