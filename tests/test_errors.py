"""The public API raises only CritdensError subclasses: numbers that
Fraction() or operator.index() refuse (NaN, infinities, non-numbers,
non-integers) surface as ValidationError, never as a bare ValueError,
OverflowError or TypeError."""

from fractions import Fraction as F

import pytest

from critdens.blowup import WeightedBlowupGraph
from critdens.bounds import glue_sufficiency, triangle_decide
from critdens.errors import ValidationError
from critdens.graphs import PatternGraph, path_graph
from critdens.oracle import SearchConfig, oracle_dcrit_estimate
from critdens.polynomials import AlgebraicNumber, RatPoly
from critdens.stars import star_lower_bound, verify_bt1
from critdens.tree_decision import (
    CriticalDensity,
    critical_scaling,
    dcrit_tree,
    decide_tree,
)

NAN, INF = float("nan"), float("inf")
P2, P3 = path_graph(2), path_graph(3)


def _root_of_two():
    return AlgebraicNumber(RatPoly([-2, 0, 1]), F(1), F(2))


CALLS = {
    "decide_tree nan density": lambda: decide_tree(P3, [NAN, 0.5]),
    "decide_tree inf density": lambda: decide_tree(P3, [INF, 0.5]),
    "decide_tree non-edge key": lambda: decide_tree(P3, {1: 0.5}),
    "decide_tree text density": lambda: decide_tree(P3, {(1, 2): "x", (2, 3): 0.5}),
    "decide_tree missing density": lambda: decide_tree(P3, [None, 0.5]),
    "dcrit_tree nan tol": lambda: dcrit_tree(path_graph(4), NAN),
    "dcrit_tree inf tol": lambda: dcrit_tree(path_graph(4), INF),
    "star_lower_bound nan tol": lambda: star_lower_bound(path_graph(4), NAN),
    "critical_scaling nan tol": lambda: critical_scaling(P3, [F(1, 2)] * 2, NAN),
    "critical_scaling nan ratio": lambda: critical_scaling(P3, [NAN, F(1, 2)]),
    "verify_bt1 nan tol": lambda: verify_bt1(2, 2, NAN),
    "oracle_dcrit_estimate nan tol": lambda: oracle_dcrit_estimate(P3, tol=NAN),
    "oracle_dcrit_estimate fractional q": lambda: oracle_dcrit_estimate(P3, q=2.5),
    "SearchConfig fractional budget": lambda: SearchConfig(budget=1.5),
    "triangle_decide nan density": lambda: triangle_decide(NAN, 0.5, 0.5),
    "glue_sufficiency nan split": lambda: glue_sufficiency(
        P2, P2, 1, 1, NAN, 0.5, [0.5, 0.5]),
    "glue_sufficiency nan density": lambda: glue_sufficiency(
        P2, P2, 1, 1, 0.5, 0.5, [NAN, 0.5]),
    "CriticalDensity nan density": lambda: CriticalDensity(_root_of_two()).ensures(NAN),
    "CriticalDensity nan tol": lambda: CriticalDensity(_root_of_two()).interval(NAN),
    "refine nan tol": lambda: _root_of_two().refine(NAN),
    "refine zero tol": lambda: _root_of_two().refine(0),
    "exact blow-up nan weight": lambda: WeightedBlowupGraph(P2, [[NAN], [1]], []),
    "fractional vertex count": lambda: PatternGraph(2.5, ((1, 2),)),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_bad_numbers_raise_validation_error(call):
    with pytest.raises(ValidationError):
        call()


def test_messages_name_the_value():
    with pytest.raises(ValidationError, match=r"density nan on edge \(1, 2\) is not a finite rational"):
        decide_tree(P3, [NAN, 0.5])
    with pytest.raises(ValidationError, match="weight nan in cluster 1 is not a finite rational"):
        WeightedBlowupGraph(P2, [[NAN], [1]], [])
    with pytest.raises(ValidationError, match="^tolerance must be positive$"):
        verify_bt1(2, 2, 0)
