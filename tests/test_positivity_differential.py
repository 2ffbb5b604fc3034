"""positive_on_unit_interval against sympy's exact real-root count on
[0, 1], on matching generating functions of random small graphs and on
hand-made polynomials that reach the Sturm fallback."""

from fractions import Fraction as F

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from critdens import polynomials
from critdens.graphs import PatternGraph
from critdens.polynomials import (
    RatPoly,
    _integer_coeffs,
    _roots_above,
    multivariate_matching_eval,
    positive_on_unit_interval,
)

_T = sympy.Symbol("t")


def _sympy_positive(p: RatPoly) -> bool:
    """p > 0 on [0, 1]: positive at 0 and no real root in [0, 1]."""
    sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                     for c in reversed(p.coeffs)], _T)
    return sp.eval(0) > 0 and sp.count_roots(0, 1) == 0


@st.composite
def graphs_with_densities(draw):
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=9))
    densities = draw(st.lists(st.fractions(0, 1, max_denominator=20),
                              min_size=len(edges), max_size=len(edges)))
    return PatternGraph(n, tuple(edges)), densities


def _poly_from_roots(*roots, lead=F(1), shift=F(0)):
    """lead * prod (t - root) + shift, expanded by sympy."""
    def q(x):
        x = F(x)
        return sympy.Rational(x.numerator, x.denominator)

    P = sympy.Poly(q(lead) * sympy.prod([_T - q(r) for r in roots]) + q(shift), _T)
    return RatPoly([F(int(c.p), int(c.q)) for c in reversed(P.all_coeffs())])


@st.composite
def shifted_products(draw):
    """lead * prod (t - root) + shift, roots in [-1, 2]."""
    roots = draw(st.lists(st.fractions(-1, 2, max_denominator=12), max_size=5))
    lead = draw(st.sampled_from([F(1), F(-1), F(3, 2)]))
    p = _poly_from_roots(*roots, lead=lead,
                         shift=draw(st.fractions(-1, 1, max_denominator=1000)))
    assume(not p.is_zero())
    return p


@settings(max_examples=300, deadline=None)
@given(graphs_with_densities())
def test_matching_generating_function_positivity(case):
    H, densities = case
    p = multivariate_matching_eval(H, [1 - d for d in densities])
    assert positive_on_unit_interval(p) == _sympy_positive(p)


@settings(max_examples=300, deadline=None)
@given(shifted_products())
def test_rational_polynomial_positivity(p):
    assert positive_on_unit_interval(p) == _sympy_positive(p)


@pytest.mark.parametrize("p, sturm", [
    (_poly_from_roots(0), False),                          # root at 0
    (_poly_from_roots(1, lead=F(-1)), False),              # root at 1
    (_poly_from_roots(0, 1, 2), False),                    # roots at both ends
    (_poly_from_roots(F(1, 2), F(1, 2)), True),            # double root inside
    (_poly_from_roots(F(1, 3), F(1, 3), 3, lead=F(-1)), True),
    (_poly_from_roots(F(1, 3), F(2, 3)), True),            # two simple roots inside
    (_poly_from_roots(F(1, 2), F(1, 2), shift=F(1, 100)), True),   # dips, stays positive
    (_poly_from_roots(F(1, 4), F(1, 4), F(3, 4), F(3, 4), shift=F(1, 10**6)), True),
    (_poly_from_roots(F(1001, 1000), F(1001, 1000)), False),        # double root just past 1
    (_poly_from_roots(-1, 2, lead=F(-1)), False),          # no root in [0, 1]
])
def test_hand_made_polynomials(p, sturm, monkeypatch):
    calls = []
    count = polynomials.sturm_count_open

    def counted(chain, lo, hi):
        calls.append(chain)
        return count(chain, lo, hi)

    monkeypatch.setattr(polynomials, "sturm_count_open", counted)
    assert positive_on_unit_interval(p) == _sympy_positive(p)
    assert bool(calls) == sturm


def _horner_unit_variations(p: RatPoly) -> int:
    """Sign variations of (1+x)^d p(1/(1+x)), built by Horner's rule in
    (1+x): the unit-interval Descartes count the positivity test used
    before it shared the Taylor shift of _roots_above."""
    acc: list[int] = []
    for c in _integer_coeffs(p):
        acc = [a + b for a, b in zip(acc + [0], [0] + acc)]
        acc[0] += c
    signs = [a > 0 for a in acc if a]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.fractions(-20, 20, max_denominator=6), min_size=1, max_size=10))
def test_reversed_taylor_shift_counts_unit_interval_variations(coeffs):
    assume(coeffs[0] != 0 and coeffs[-1] != 0)
    p = RatPoly(coeffs)
    assert _roots_above(_integer_coeffs(p)[::-1], F(1)) == _horner_unit_variations(p)
