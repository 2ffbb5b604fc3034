"""The float-guided root kernel behind largest_matching_root_squared,
checked against sympy's exact real-root isolation and against the Sturm
path it replaces: same interval, same exact value, same defining
polynomial, also when the float estimates are wrong and the Sturm path has
to run.  Also AlgebraicNumber.compare_fraction, which decides the side of
a rational by signs alone, against sympy on every real root;
AlgebraicNumber.compare on pairs of real roots whose intervals overlap,
against sympy; and simplest_fraction_between against a search over every
denominator in turn."""

from fractions import Fraction as F
from unittest import mock

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from critdens import polynomials
from critdens.graphs import PatternGraph, path_graph, star_graph
from critdens.polynomials import (
    AlgebraicNumber,
    RatPoly,
    largest_matching_root_squared,
    largest_real_root,
    matching_even_part,
    simplest_fraction_between,
)
from critdens.tree_decision import dcrit_tree

_S = sympy.Symbol("s")
TOLERANCES = [F(1, 10**9), F(1, 64), F(1, 10**24), F(3), 1e-9]


@st.composite
def trees(draw, max_n=40):
    n = draw(st.integers(2, max_n))
    parents = [draw(st.integers(1, v - 1)) for v in range(2, n + 1)]
    labels = draw(st.permutations(range(1, n + 1)))
    edges = {tuple(sorted((labels[p - 1], labels[v - 1])))
             for v, p in zip(range(2, n + 1), parents)}
    return PatternGraph(n, tuple(sorted(edges)))


@st.composite
def connected_graphs(draw):
    """A random spanning tree plus extra edges, at most 12 edges."""
    T = draw(trees(max_n=7))
    pairs = [(i, j) for i in range(1, T.n + 1) for j in range(i + 1, T.n + 1)
             if (i, j) not in T.edge_index]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=min(len(pairs), 12 - len(T.edges)))
                 if pairs else st.just([]))
    return PatternGraph(T.n, tuple(sorted(T.edges + tuple(extra))))


def _sympy_largest_root(H: PatternGraph):
    q = matching_even_part(H)
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(q.coeffs)], _S)
    return poly.real_roots()[-1]


def _fields(x):
    return x.lo, x.hi, x.exact, x.poly


def _assert_brackets(root, x):
    if x.exact is not None:
        assert root == sympy.Rational(x.exact.numerator, x.exact.denominator)
    else:
        lo = sympy.Rational(x.lo.numerator, x.lo.denominator)
        hi = sympy.Rational(x.hi.numerator, x.hi.denominator)
        assert bool(lo < root) and bool(root < hi)


@settings(max_examples=60, deadline=None)
@given(st.one_of(trees(), connected_graphs()))
def test_root_brackets_sympy_largest_root(H):
    x = largest_matching_root_squared(H)
    _assert_brackets(_sympy_largest_root(H), x)
    assert x.width() <= F(1, 10**9)


@settings(max_examples=40, deadline=None)
@given(trees())
def test_dcrit_tree_brackets_sympy_critical_density(T):
    tol = F(1, 10**9)
    lo, hi = dcrit_tree(T, tol).interval(tol)
    d = 1 - 1 / _sympy_largest_root(T)
    assert bool(sympy.Rational(lo.numerator, lo.denominator) <= d)
    assert bool(d <= sympy.Rational(hi.numerator, hi.denominator))
    assert hi - lo <= tol


@settings(max_examples=80, deadline=None)
@given(st.one_of(trees(max_n=25), connected_graphs()), st.sampled_from(TOLERANCES))
def test_kernel_matches_sturm_path(H, tol):
    sturm = largest_real_root(matching_even_part(H), tol)
    assert _fields(largest_matching_root_squared(H, tol)) == _fields(sturm)


def _wrong_estimates(H, factor1, factor2):
    """Patch the float estimates s1 > s2 for H: s1 scaled by factor1, s2
    moved to s1 + factor2 * (s2 - s1), so a small factor2 puts the two
    close together (the isolation level guessed too deep) and a large one
    apart (too shallow)."""
    if H.is_tree():
        name, real = "_tree_top_roots_squared", polynomials._tree_top_roots_squared
    else:
        name, real = "_newton_top_roots", polynomials._newton_top_roots

    def skewed(arg):
        s1, s2 = real(arg)
        return s1 * factor1, None if s2 is None else s1 + factor2 * (s2 - s1)

    return mock.patch.object(polynomials, name, skewed)


def _counting_sturm_path():
    calls = []
    real = polynomials._sturm_largest_root

    def counted(sf, tol):
        calls.append(sf)
        return real(sf, tol)

    return calls, mock.patch.object(polynomials, "_sturm_largest_root", counted)


@settings(max_examples=80, deadline=None)
@given(st.one_of(trees(max_n=25), connected_graphs()),
       st.sampled_from(TOLERANCES),
       st.floats(0.5, 1.5), st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 1e-3)))
@example(path_graph(5), F(3), 1.0, 1e-6)       # isolation level guessed too deep
@example(path_graph(5), F(1, 64), 1.0, 1e-6)   # ... and a rational root missed
@example(path_graph(9), F(1, 10**9), 1.0, 2.5)  # guessed too shallow
@example(star_graph(7), F(1, 10**24), 1.001, 1.0)  # wrong cell, exact descent
def test_wrong_estimates_never_change_the_result(H, tol, factor1, factor2):
    sturm = largest_real_root(matching_even_part(H), tol)
    with _wrong_estimates(H, factor1, factor2):
        assert _fields(largest_matching_root_squared(H, tol)) == _fields(sturm)


@pytest.mark.parametrize("H", [path_graph(12), star_graph(6),
                               PatternGraph(5, ((1, 2), (1, 3), (2, 3), (3, 4), (4, 5)))])
def test_failed_certificate_falls_back_to_sturm(H):
    tol = F(1, 10**9)
    sturm = largest_real_root(matching_even_part(H), tol)
    calls, patch = _counting_sturm_path()
    with patch:
        assert _fields(largest_matching_root_squared(H, tol)) == _fields(sturm)
    assert calls == []
    with patch, _wrong_estimates(H, 1.3, 1.0):
        assert _fields(largest_matching_root_squared(H, tol)) == _fields(sturm)
    assert len(calls) == 1


def test_rational_roots_and_deflated_midpoints_stay_on_the_fast_path():
    # S_4: s^2 - 3s, whose root 0 is the first bisection midpoint and is
    # deflated; S_5: exact 4; a single edge: exact 1, a dyadic grid point.
    calls, patch = _counting_sturm_path()
    with patch:
        for H, exact in [(star_graph(4), 3), (star_graph(5), 4),
                         (path_graph(2), 1)]:
            x = largest_matching_root_squared(H)
            assert _fields(x) == _fields(largest_real_root(matching_even_part(H)))
            assert x.exact == exact
    assert len(calls) == 3  # the three direct Sturm calls only


@st.composite
def square_free_polys(draw):
    """A square-free integer polynomial with at least one real root: a
    random integer factor times up to three distinct rational roots."""
    roots = draw(st.lists(st.fractions(-5, 5, max_denominator=6),
                          max_size=3, unique=True))
    P = sympy.Poly(draw(st.lists(st.integers(-9, 9), min_size=1, max_size=6)), _S)
    for r in roots:
        P *= sympy.Poly(r.denominator * _S - r.numerator, _S)
    assume(not P.is_zero and P.degree() >= 1)
    P = P.sqf_part()
    assume(P.real_roots())
    return P


def _rational(x):
    """A rational within 10^-40 of the sympy real number x."""
    q = sympy.Rational(str(sympy.N(x, 40)))
    return F(q.p, q.q)


def _sign(x):
    return int(bool(x > 0)) - int(bool(x < 0))


@settings(max_examples=60, deadline=None)
@given(square_free_polys(), st.floats(0.01, 0.99), st.floats(0.01, 0.99),
       st.floats(0.01, 0.99))
@example(sympy.Poly(_S**3 - 2 * _S, _S), 0.5, 0.5, 0.5)   # -sqrt 2, 0, sqrt 2
@example(sympy.Poly(6 * _S**2 - 5 * _S + 1, _S), 0.9, 0.1, 0.9)  # 1/3, 1/2
def test_compare_fraction_matches_sympy_on_every_root(P, a, b, c):
    """Every real root r of P, pinned by an interval (lo, hi) that reaches
    a random share of the way to its neighbours, compared against points
    on both sides of r, the endpoints and r itself when rational; with
    P and -P, so the sign of P at lo takes both values."""
    coeffs = [F(int(k)) for k in reversed(P.all_coeffs())]
    roots = P.real_roots()
    a, b, c = (sympy.Rational(u) for u in (a, b, c))   # exact shares
    for i, r in enumerate(roots):
        left = roots[i - 1] if i else r - 1
        right = roots[i + 1] if i + 1 < len(roots) else r + 1
        lo, hi = _rational(r - (r - left) * a), _rational(r + (right - r) * b)
        below, above = _rational(r - (r - lo) * c), _rational(r + (hi - r) * c)
        points = [lo, below, above, hi]
        if r.is_Rational:
            points.append(F(r.p, r.q))
        for poly in (RatPoly(coeffs), -RatPoly(coeffs)):
            x = AlgebraicNumber(poly, lo, hi)
            for q in points:
                want = _sign(r - sympy.Rational(q.numerator, q.denominator))
                assert x.compare_fraction(q) == want, (poly, lo, hi, q)


def _pinned(P, i, a, b):
    """P's real root r of index i (mod their count) as an AlgebraicNumber
    whose interval reaches shares a and b of the way to r's neighbours
    (4 past r at either end), and r itself."""
    roots = P.real_roots()
    i %= len(roots)
    r = roots[i]
    a, b = sympy.Rational(a), sympy.Rational(b)   # exact shares
    left = roots[i - 1] if i else r - 4
    right = roots[i + 1] if i + 1 < len(roots) else r + 4
    lo, hi = _rational(r - (r - left) * a), _rational(r + (right - r) * b)
    coeffs = [F(int(k)) for k in reversed(P.all_coeffs())]
    return AlgebraicNumber(RatPoly(coeffs), lo, hi), r


def _holds(x, r):
    """Whether x still pins r: exactly, or strictly inside its interval."""
    if x.exact is not None:
        return r == sympy.Rational(x.exact.numerator, x.exact.denominator)
    return bool(_sympy(x.lo) < r) and bool(r < _sympy(x.hi))


def _sympy(q):
    return sympy.Rational(q.numerator, q.denominator)


_SHARES = st.floats(0.01, 0.99)


@settings(max_examples=100, deadline=None)
@given(square_free_polys(), square_free_polys(), st.integers(0, 5), st.integers(0, 5),
       _SHARES, _SHARES, _SHARES, _SHARES)
# sqrt 2 on about (1, 2) and 3/2 on (1, 2): the first refinement of 3/2
# probes 3/2 itself and makes it exact
@example(sympy.Poly(_S**2 - 2, _S), sympy.Poly(2 * _S - 3, _S), 1, 0,
         0.15, 0.15, 0.125, 0.125)
# sqrt 2 and sqrt 3 on overlapping intervals, refined until they separate
@example(sympy.Poly(_S**2 - 2, _S), sympy.Poly(_S**2 - 3, _S), 1, 1,
         0.25, 0.25, 0.25, 0.25)
# sqrt 2 twice, as roots of different polynomials
@example(sympy.Poly(_S**2 - 2, _S), sympy.Poly(_S**3 - 2 * _S, _S), 1, 2,
         0.5, 0.5, 0.5, 0.5)
def test_compare_matches_sympy(P, Q, i, j, a, b, c, d):
    """compare on two real roots, each pinned by an interval reaching a
    random share of the way to its neighbours, so that the intervals
    often overlap with distinct values and the refinement runs (a
    rational root may turn exact on the way); against sympy, in both
    orders on fresh copies, with every value still pinned afterwards."""
    (x, r), (y, s) = _pinned(P, i, a, b), _pinned(Q, j, c, d)
    # equal real roots have one minimal polynomial and one index among its
    # roots, so sympy gives them one form
    want = 0 if r == s else _sign(r - s)
    assert x.compare(y) == want
    assert _holds(x, r) and _holds(y, s)
    (x, r), (y, s) = _pinned(P, i, a, b), _pinned(Q, j, c, d)
    assert y.compare(x) == -want
    assert _holds(x, r) and _holds(y, s)


def _least_denominator_between(lo, hi):
    """The rational in (lo, hi) with the least denominator, and the least
    numerator among those, by trying each denominator in turn."""
    q = 1
    while True:
        p = lo.numerator * q // lo.denominator + 1   # the least p/q > lo
        if p * hi.denominator < hi.numerator * q:
            return F(p, q)
        q += 1


@settings(max_examples=300, deadline=None)
@given(st.fractions(-20, 20, max_denominator=10**4),
       st.fractions(F(1, 10**4), 3, max_denominator=10**4))
@example(F(2), F(1))           # an interval hugging an integer from above
@example(F(-3, 2), F(1, 2))    # ... and from below, past zero
@example(F(-7, 2), F(3))       # several integers: the least of them
@example(F(415, 1000), F(2, 1000))
def test_simplest_fraction_matches_least_denominator_search(lo, width):
    hi = lo + width
    assert simplest_fraction_between(lo, hi) == _least_denominator_between(lo, hi)
