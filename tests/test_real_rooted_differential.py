"""The certified bracket behind largest_matching_root_squared, checked
against sympy's exact real-root isolation: the bracket holds the largest
root of the matching even part, simple and alone, integer roots come out
exact, and where a certificate must fail (a repeated top root, a second
root within the bracket's width, a wrong float estimate) the Sturm path
answers.  Also AlgebraicNumber.compare_fraction, which decides the side of
a rational by signs alone, against sympy on every real root;
AlgebraicNumber.compare on pairs of real roots whose intervals overlap,
against sympy; the integer Sturm count and the deflating Sturm bisection
of largest_real_root, against sympy; every root kernel on k times its
input against the input itself; and simplest_fraction_between against a
search over every denominator in turn."""

from fractions import Fraction as F
from unittest import mock

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import assume, event, example, given, settings, strategies as st

from critdens import polynomials
from critdens.graphs import (
    PatternGraph,
    complete_bipartite,
    cycle_graph,
    path_graph,
    proper_labelings,
    rooted_id,
    star_graph,
)
from critdens.polynomials import (
    AlgebraicNumber,
    RatPoly,
    _integer_coeffs,
    _scaled_value,
    cauchy_root_bound,
    largest_matching_root_squared,
    largest_real_root,
    leaf_up_inertia,
    matching_even_part,
    matching_root_squared,
    simplest_fraction_between,
    square_free_part,
    sturm_chain,
    sturm_count_open,
)
from critdens.stars import monotone_path_tree
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


def _sympy_even(H: PatternGraph):
    """H's matching even part as a sympy polynomial."""
    q = matching_even_part(H)
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(q.coeffs)], _S)


def _sympy_largest_root(H: PatternGraph):
    return _sympy_even(H).real_roots()[-1]


def _top_root_within(Q, lo, hi):
    """Q's largest real root lies in [lo, hi], by sympy's exact counts of
    the roots in closed intervals."""
    lo, hi = _sympy(lo), _sympy(hi)
    return (Q.count_roots(lo, None) >= 1
            and Q.count_roots(hi, None) == (1 if Q.eval(hi) == 0 else 0))


def _assert_brackets(Q, x):
    """x is the largest real root of Q, exactly or as a bracket in which
    it is a simple root of x.poly and the only one; counted by sympy, so
    even nearly equal top roots cost no root isolation."""
    if x.exact is not None:
        assert Q.eval(_sympy(x.exact)) == 0 and _top_root_within(Q, x.exact, x.exact)
    else:
        assert x.lo < x.hi and _top_root_within(Q, x.lo, x.hi)
        lo, hi = _sympy(x.lo), _sympy(x.hi)
        P = sympy.Poly(x.poly[::-1], _S)
        assert P.eval(lo) != 0 and P.eval(hi) != 0 and P.count_roots(lo, hi) == 1
        assert P.gcd(P.diff(_S)).count_roots(lo, hi) == 0


@settings(max_examples=60, deadline=None)
@given(st.one_of(trees(max_n=64), connected_graphs()))
def test_root_brackets_sympy_largest_root(H):
    x = largest_matching_root_squared(H)
    _assert_brackets(_sympy_even(H), x)
    assert x.width() <= F(1, 10**9)


@settings(max_examples=40, deadline=None)
@given(trees(), st.sampled_from([F(1, 10**9), F(1, 10**30)]))
@example(path_graph(4), F(1, 10**30))
def test_dcrit_tree_brackets_sympy_critical_density(T, tol):
    """Also far below the bracket's own width, where refine takes over."""
    lo, hi = dcrit_tree(T, tol).interval(tol)
    d = 1 - 1 / _sympy_largest_root(T)
    assert bool(_sympy(lo) <= d) and bool(d <= _sympy(hi))
    assert hi - lo <= tol


def _eigenvalues_above(T, s):
    """sympy's count of T's adjacency eigenvalues above sqrt(s) > 0, with
    multiplicity: T is bipartite, so its characteristic polynomial is
    lambda^(n mod 2) Q(lambda^2), and they are Q's roots above s."""
    A = sympy.zeros(T.n, T.n)
    for i, j in T.edges:
        A[i - 1, j - 1] = A[j - 1, i - 1] = 1
    Q = sympy.Poly(A.charpoly().all_coeffs()[::2], _S)
    return sum(1 for x in Q.real_roots() if x > _sympy(s))


def _star_sizes(T):
    """k for each subtree K_{1,k} of T rooted at 1: the child counts of
    the vertices whose children are all leaves."""
    order, parent = T.bfs_tree()
    children = {v: [u for u in order if parent[u] == v] for v in order}
    return sorted({len(c) for c in children.values()
                   if c and not any(children[u] for u in c)})


@st.composite
def trees_and_levels(draw):
    """A tree and s: a random rational, or lambda^2 = k of a subtree
    K_{1,k}, where that subtree's top pivot is 0."""
    T = draw(trees(max_n=14))
    return T, draw(st.one_of(st.fractions(F(1, 12), 16, max_denominator=12),
                             st.sampled_from(_star_sizes(T)).map(F)))


@settings(max_examples=80, deadline=None)
@given(trees_and_levels())
# the root's pivot is 0; a zero pivot below the root; two below it
@example((star_graph(5), F(4)))
@example((PatternGraph(5, ((1, 2), (2, 3), (2, 4), (2, 5))), F(3)))
@example((PatternGraph(7, ((1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7))), F(2)))
def test_exact_count_matches_sympy_eigenvalues(case):
    """leaf_up_inertia's count at r = 1/s on T's interned rooted
    subtrees, as dcrit_tree's float estimates take it, against sympy."""
    T, s = case
    ids = {}
    root = rooted_id(T, T.bfs_tree()[0], ids)
    pivots = leaf_up_inertia([[(c, 1) for c in key] for key in ids], 1 / s)
    event(f"zero pivot {any(x is None for x, _ in pivots)}")
    assert pivots[root][1] == _eigenvalues_above(T, s)


def _counting_sturm_path():
    calls = []
    real = polynomials._sturm_largest_root

    def counted(sf, tol):
        calls.append(sf)
        return real(sf, tol)

    return calls, mock.patch.object(polynomials, "_sturm_largest_root", counted)


def _path_trees(n, m):
    """The monotone-path trees of K_{n,m}, one per rooted shape."""
    K = complete_bipartite(n, m)
    ids, first = {}, {}
    for f in proper_labelings(K):
        first.setdefault(rooted_id(K, f, ids), f)
    return [monotone_path_tree(K, f).tree for f in first.values()]


def test_integer_roots_come_out_exact_without_sturm():
    """lambda^2 is an algebraic integer, so one evaluation at the integer
    in the bracket makes a rational root exact: stars K_{1,m} give m,
    P_2, P_3 and P_5 give 1, 2 and 3, and every monotone-path tree of
    K_{n,m} gives n + m - 1."""
    cases = [(star_graph(m + 1), m) for m in range(1, 41)]
    cases += [(path_graph(n), k) for n, k in ((2, 1), (3, 2), (5, 3))]
    cases += [(T, n + m - 1) for n in range(1, 5) for m in range(n, 9 - n)
              for T in _path_trees(n, m)]
    calls, patch = _counting_sturm_path()
    with patch:
        for H, want in cases:
            assert largest_matching_root_squared(H).exact == want, H
    assert calls == []


def _wrong_estimate(H, factor):
    """Patch the float estimate of lambda^2 for H to factor times it."""
    name = "_tree_root_estimate" if H.is_tree() else "_newton_from_right"
    real = getattr(polynomials, name)
    return mock.patch.object(polynomials, name, lambda *args: factor * real(*args))


@pytest.mark.parametrize("H", [path_graph(12), star_graph(6),
                               PatternGraph(5, ((1, 2), (1, 3), (2, 3), (3, 4), (4, 5)))])
@pytest.mark.parametrize("factor", [1.3, 0.9, 1 + 2.0**-30])
def test_failed_certificate_falls_back_to_sturm(H, factor):
    """A bracket around a wrong estimate fails its certificate, and the
    Sturm path gives the root; the right estimate needs no Sturm."""
    tol = F(1, 10**9)
    Q = _sympy_even(H)
    calls, patch = _counting_sturm_path()
    with patch:
        _assert_brackets(Q, largest_matching_root_squared(H, tol))
    assert calls == []
    with patch, _wrong_estimate(H, factor):
        _assert_brackets(Q, largest_matching_root_squared(H, tol))
    assert len(calls) == 1


@pytest.mark.parametrize("H, exact", [
    (PatternGraph(6, ((1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6))), 3),  # 2 K_3
    (PatternGraph(8, cycle_graph(4).edges + tuple((i + 4, j + 4) for i, j in cycle_graph(4).edges)),
     None),                                                                # 2 C_4: 2 + sqrt 2
])
def test_repeated_top_root_falls_back_to_sturm(H, exact):
    """Two copies of one component repeat its top root, which no bracket
    can certify as simple; Sturm answers on the square-free part."""
    calls, patch = _counting_sturm_path()
    with patch:
        x = largest_matching_root_squared(H)
    assert len(calls) == 1
    assert x.exact == exact
    _assert_brackets(_sympy_even(H), x)


def _dumbbell(k, length):
    """Two K_{1,k} whose centres a path of `length` edges joins, from one
    centre: its top two eigenvalues agree to far below the bracket's
    width."""
    edges = [(1, j) for j in range(2, k + 2)]
    path = [1, *range(k + 2, k + 2 + length)]
    edges += list(zip(path, path[1:]))
    n = path[-1]
    edges += [(path[-1], j) for j in range(n + 1, n + k + 1)]
    return PatternGraph(n + k, tuple(edges))


@pytest.mark.parametrize("length", [30, 45, 60])
def test_dumbbell_refuses_the_interlacing_test(length):
    """lambda_2 nearly equals lambda_1, so no root child's subtree is
    below the bracket and the tree certificate refuses: Sturm answers,
    with one simple root in the bracket."""
    T = _dumbbell(9, length)
    calls, patch = _counting_sturm_path()
    with patch:
        x = largest_matching_root_squared(T)
    assert len(calls) == 1
    Q = _sympy_even(T)
    _assert_brackets(Q, x)
    lo, hi = dcrit_tree(T, F(1, 10**30)).interval(F(1, 10**30))
    assert hi - lo <= F(1, 10**30) and _top_root_within(Q, 1 / (1 - lo), 1 / (1 - hi))


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
    coeffs = _integers(P)
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
        for poly in (coeffs, [-k for k in coeffs]):
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
    return AlgebraicNumber(_integers(P), lo, hi), r


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
# sqrt 2 on about (0.71, 6.8) and 0 on about (-0.35, 1.06): the gcd
# s^2 - 2 has roots, but none in the overlap
@example(sympy.Poly(_S**2 - 2, _S), sympy.Poly(_S**3 - 2 * _S, _S), 1, 1,
         0.25, 0.25, 0.25, 0.75)
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


def _coeffs(P):
    return [F(int(k)) for k in reversed(P.all_coeffs())]


def _integers(P):
    """The integer polynomial P's coefficients, lowest power first."""
    return [int(k) for k in reversed(P.all_coeffs())]


@settings(max_examples=100, deadline=None)
@given(square_free_polys(), st.booleans(), st.fractions(F(1, 9), 9, max_denominator=9),
       st.fractions(-6, 6, max_denominator=16),
       st.fractions(F(1, 16), 12, max_denominator=16))
@example(sympy.Poly(_S**3 - 2 * _S, _S), True, F(1), F(-2), F(4))  # -(s^3 - 2s)
def test_sturm_count_matches_sympy(P, negate, scale, lo, width):
    """Distinct roots in (lo, hi) of a square-free polynomial with
    rational coefficients, of either leading sign, at ends that are not
    roots."""
    hi = lo + width
    P = -P if negate else P
    assume(P.eval(_sympy(lo)) != 0 and P.eval(_sympy(hi)) != 0)
    p = _integer_coeffs(RatPoly([scale * c for c in _coeffs(P)]))
    want = P.count_roots(_sympy(lo), _sympy(hi))
    assert sturm_count_open(sturm_chain(p), lo, hi) == want


@settings(max_examples=60, deadline=None)
@given(square_free_polys(), st.booleans())
@example(sympy.Poly(_S**2 - 2, _S), False)   # sqrt 2 after deflating 0
@example(sympy.Poly(_S + 3, _S), True)       # 0 itself, the largest root
def test_largest_real_root_deflates_a_rational_midpoint(Q, negate):
    """s Q has the root 0, the Sturm bisection's first midpoint, and
    another real root, so the midpoint is deflated and the chain rebuilt;
    the result pins sympy's largest root with a factor of s Q."""
    assume(Q.eval(0) != 0)
    P = _S * (-Q if negate else Q)
    chains = []
    real = polynomials.sturm_chain

    def counted(p):
        chains.append(p)
        return real(p)

    with mock.patch.object(polynomials, "sturm_chain", counted):
        x = largest_real_root(RatPoly(_coeffs(P)))
    assert len(chains) >= 2
    r = P.real_roots()[-1]
    assert _holds(x, r)
    if x.exact is None:
        X = sympy.Poly(x.poly[::-1], _S)
        assert P.rem(X).is_zero
        assert X.count_roots(_sympy(x.lo), _sympy(x.hi)) == 1


MULTIPLIERS = (-3, -1, 2, 7)


@st.composite
def scale_cases(draw):
    """A square-free integer polynomial with a real root, and whether it
    is real-rooted: the square-free part of a matching even part, or a
    generic one from square_free_polys."""
    if draw(st.booleans()):
        H = draw(st.one_of(trees(max_n=12), connected_graphs()))
        return square_free_part(_integer_coeffs(matching_even_part(H))), True
    return _integers(draw(square_free_polys())), False


def _scaled(k, c):
    return [k * a for a in c]


def _copy(x, k=1):
    """A fresh copy of x with its defining polynomial times k."""
    return AlgebraicNumber(_scaled(k, x.poly), x.lo, x.hi, x.exact)


def _same_root(x, y, k):
    """y is x, with its defining polynomial times k unless x is exact."""
    return ((y.lo, y.hi, y.exact) == (x.lo, x.hi, x.exact)
            and (x.exact is not None or y.poly == _scaled(k, x.poly)))


@settings(max_examples=120, deadline=None)
@given(scale_cases(), st.sampled_from(MULTIPLIERS), st.sampled_from(TOLERANCES),
       st.fractions(-6, 6, max_denominator=16), st.fractions(F(1, 16), 12, max_denominator=16),
       square_free_polys())
# P_4's even part, negated, and a linear polynomial
@example(([-1, 3, -1], True), -1, F(1, 10**9), F(0), F(3), sympy.Poly(_S**2 - 2, _S))
@example(([1, -2], False), -3, F(1, 64), F(-2), F(3), sympy.Poly(2 * _S - 1, _S))
def test_kernels_agree_on_every_nonzero_multiple(case, k, tol, lo, width, Q):
    """Kernels take any nonzero multiple of a polynomial: k c gives what c
    gives, up to the factor k in the defining polynomial, for negative k
    too (no monic step normalises the sign)."""
    c, real_rooted = case
    kc, tol = _scaled(k, c), F(tol)
    assert cauchy_root_bound(kc) == cauchy_root_bound(c)
    hi = lo + width
    if _scaled_value(c, lo) and _scaled_value(c, hi):
        assert sturm_count_open(sturm_chain(kc), lo, hi) == sturm_count_open(sturm_chain(c), lo, hi)
    assert _same_root(polynomials._sturm_largest_root(c, tol),
                      polynomials._sturm_largest_root(kc, tol), k)
    if real_rooted:
        assert _same_root(matching_root_squared(c, tol), matching_root_squared(kc, tol), k)
    # An AlgebraicNumber on k p: its refinement and its comparisons with
    # rationals, with itself on p, and with another root.
    x = polynomials._sturm_largest_root(c, F(1, 2))
    if x.exact is not None:
        return
    for q in (x.lo, x.hi, lo, hi, (x.lo + x.hi) / 2, simplest_fraction_between(x.lo, x.hi)):
        assert _copy(x, k).compare_fraction(q) == _copy(x).compare_fraction(q)
    y, z = _copy(x), _copy(x, k)
    y.refine(tol)
    z.refine(tol)
    assert _same_root(y, z, k)
    assert _copy(x, k).compare(_copy(x)) == 0
    other = polynomials._sturm_largest_root(_integers(Q), F(1, 2))
    want = _copy(x).compare(_copy(other))
    assert _copy(x, k).compare(_copy(other)) == want
    assert _copy(other, k).compare(_copy(x, k)) == -want


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
