"""Exact polynomial arithmetic, root isolation, and matching polynomials."""

import random
from fractions import Fraction as F

import pytest

from critdens.errors import NoRealRoot, SizeLimit
from critdens.graphs import (
    PatternGraph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from critdens.polynomials import (
    AlgebraicNumber,
    RatPoly,
    cauchy_root_bound,
    largest_matching_root_squared,
    largest_real_root,
    matching_even_part,
    matching_polynomial,
    matching_weight_sums,
    multivariate_matching_eval,
    poly_from_strings,
    poly_to_strings,
    positive_on_unit_interval,
    simplest_fraction_between,
    square_free_part,
    sturm_chain,
    sturm_count_open,
)
from critdens.polynomials import (
    _exact_quotient,
    _integer_coeffs,
    _integer_gcd,
    _roots_above,
    _scaled_value,
)


def _random_tree(rng, n):
    edges = tuple(sorted((rng.randint(1, i), i + 1) for i in range(1, n)))
    return PatternGraph(n, edges)


# -- dense rational polynomials and integer kernels ----------------------


def test_ratpoly_basics():
    p = RatPoly([F(-2), 0, 1])
    assert p.degree == 2
    assert _integer_coeffs(p) == [-2, 0, 1]
    assert _integer_coeffs(RatPoly([F(1, 2), F(-1, 3)])) == [3, -2]
    assert _scaled_value([-2, 0, 1], F(3, 2)) == 1      # 2^2 p(3/2)
    assert _scaled_value([-2, 0, 1], F(2)) == 2
    assert RatPoly([1, 2, 0, 0]).coeffs == (F(1), F(2))
    assert RatPoly([]).is_zero()
    assert RatPoly([0]).is_zero()


def test_deflate_root():
    # (t - 2)(t - 3)^2 by t - 3
    assert _exact_quotient([-18, 21, -8, 1], [-3, 1]) == [6, -5, 1]
    # a root N/D divides out as D t - N, on integers: (2t - 3)(t^2 + 1)
    assert _exact_quotient([-3, 2, -3, 2], [-3, 2]) == [1, 0, 1]


def test_integer_gcd_and_square_free():
    # (t - 1)(t + 1) and t - 1
    assert _integer_gcd([-1, 0, 1], [-1, 1]) == [-1, 1]
    # (t - 1)^2 (t + 2) has square-free part -(t - 1)(t + 2)
    assert square_free_part([2, -3, 0, 1]) == [2, -1, -1]


def test_sturm_counting():
    p = [-2, 0, 1]                   # x^2 - 2
    chain = sturm_chain(p)
    assert sturm_count_open(chain, F(0), F(2)) == 1
    assert sturm_count_open(chain, F(-2), F(2)) == 2
    assert sturm_count_open(chain, F(2), F(3)) == 0
    assert cauchy_root_bound(p) >= F(2)


def test_roots_above_counts_multiplicity_for_real_rooted_polynomials():
    p = [-4, 12, -9, 2]              # (2t - 1)(t - 2)^2: 1/2, 2, 2
    assert [_roots_above(p, x) for x in (F(-1), F(1, 2), F(1), F(2), F(3))] \
        == [3, 2, 2, 0, 0]
    q = _integer_coeffs(matching_even_part(star_graph(5)))
    assert _roots_above(q, F(4)) == 0
    assert _roots_above(q, F(399, 100)) == 1


def test_positivity_on_closed_interval():
    assert positive_on_unit_interval(RatPoly([1, F(-1, 2)]))
    assert not positive_on_unit_interval(RatPoly([1, -1]))          # zero at 1
    assert not positive_on_unit_interval(RatPoly([1, -2]))
    assert not positive_on_unit_interval(RatPoly([0, 1]))           # zero at 0
    assert not positive_on_unit_interval(RatPoly([-1, F(-1, 2)]))
    assert positive_on_unit_interval(RatPoly([F(1, 100)]))


def test_simplest_fraction_strictly_between():
    assert simplest_fraction_between(F(1, 3), F(1, 2)) == F(2, 5)
    assert simplest_fraction_between(F(2, 7), F(3, 7)) == F(1, 3)
    assert simplest_fraction_between(F(-1, 2), F(1, 2)) == 0
    got = simplest_fraction_between(F(415, 1000), F(417, 1000))
    assert F(415, 1000) < got < F(417, 1000)
    rng = random.Random(73)
    for _ in range(120):
        a = F(rng.randint(-50, 50), rng.randint(1, 60))
        b = a + F(1, rng.randint(1, 2000))
        mid = simplest_fraction_between(a, b)
        assert a < mid < b
        # no rational with a smaller denominator fits strictly inside
        for q in range(1, mid.denominator):
            for p in range(int(a * q) - 1, int(b * q) + 2):
                assert not (a < F(p, q) < b)


def test_largest_real_root_rational_detected():
    p = RatPoly([2, -7, 3])          # (3x - 1)(x - 2)
    r = largest_real_root(p)
    assert r.exact == 2
    with pytest.raises(NoRealRoot):
        largest_real_root(RatPoly([1, 0, 1]))


def test_largest_real_root_irrational_bracketed():
    r = largest_real_root(RatPoly([-2, 0, 1]), tol=F(1, 10**12))
    assert r.exact is None
    lo, hi = r.interval()
    assert hi - lo <= F(1, 10**12)
    assert lo < F(14142135623730951, 10**16) < hi
    assert r.compare_fraction(F(3, 2)) < 0
    assert r.compare_fraction(F(7, 5)) > 0


def test_algebraic_number_compare():
    sqrt2 = largest_real_root(RatPoly([-2, 0, 1]))
    sqrt3 = largest_real_root(RatPoly([-3, 0, 1]))
    assert sqrt2.compare(sqrt3) < 0
    assert sqrt3.compare(sqrt2) > 0
    assert sqrt2.compare(largest_real_root(RatPoly([-2, 0, 1]))) == 0
    assert sqrt2.compare(AlgebraicNumber.from_rational(F(3, 2))) < 0


def test_poly_string_round_trip():
    p = RatPoly([F(1, 3), F(-2), 0, F(5, 7)])
    assert poly_to_strings(p) == ["1/3", "-2", "0", "5/7"]
    assert poly_from_strings(poly_to_strings(p)) == p
    assert poly_from_strings([]) == RatPoly([])


# -- matching polynomials --------------------------------------------------


def test_matching_polynomial_small_graphs():
    assert matching_polynomial(path_graph(3)).coeffs == (0, -2, 0, 1)
    assert matching_polynomial(complete_graph(3)).coeffs == (0, -3, 0, 1)
    assert matching_polynomial(path_graph(4)).coeffs == (1, 0, -3, 0, 1)
    assert matching_polynomial(cycle_graph(4)).coeffs == (2, 0, -4, 0, 1)
    assert matching_polynomial(star_graph(5)).coeffs == (0, 0, 0, -4, 0, 1)


def test_matching_weight_sums_counts_matchings():
    # unit weights: sums are the matching numbers m_0, m_1, ...
    assert matching_weight_sums(complete_graph(4)) == [F(1), F(6), F(3)]
    assert matching_weight_sums(complete_bipartite(2, 2)) == [F(1), F(4), F(2)]


def test_tree_fast_path_agrees_with_enumeration():
    # The lists must agree in length too: a zero weight adds no matchings.
    from critdens.polynomials import _matching_weight_sums

    rng = random.Random(9001)
    trees = [path_graph(1)] + [star_graph(n) for n in range(2, 15)]
    trees += [_random_tree(rng, rng.randint(2, 14)) for _ in range(150)]
    for T in trees:
        for zero_share in (0.0, 0.3, 1.0):
            w = {e: F(0) if rng.random() < zero_share
                 else F(rng.randint(1, 9), rng.randint(1, 9)) for e in T.edges}
            by_tree = matching_weight_sums(T, lambda e: w[e])
            by_subsets = _matching_weight_sums(T, lambda e: w[e])
            assert by_tree == by_subsets, T


def test_matching_size_cap_spares_trees():
    wide = star_graph(30)
    assert matching_weight_sums(wide)[1] == 29
    with pytest.raises(SizeLimit):
        matching_weight_sums(complete_graph(8))   # 28 edges, no tree route


def test_multivariate_eval():
    r = {(1, 2): F(1, 4), (1, 3): F(1, 4), (2, 3): F(1, 2)}
    p = multivariate_matching_eval(complete_graph(3), r)
    assert p.coeffs == (1, -1)
    q = multivariate_matching_eval(path_graph(4),
                                   {(1, 2): F(1), (2, 3): F(1), (3, 4): F(1)})
    assert q.coeffs == (1, -3, 1)


def test_matching_even_part():
    assert matching_even_part(complete_graph(3)).coeffs == (-3, 1)
    assert matching_even_part(path_graph(4)).coeffs == (1, -3, 1)


def test_largest_matching_root_squared_exact_cases():
    assert largest_matching_root_squared(star_graph(5)).exact == 4
    assert largest_matching_root_squared(path_graph(3)).exact == 2
    assert largest_matching_root_squared(complete_graph(3)).exact == 3


def test_largest_matching_root_squared_c4():
    # C_4: x^4 - 4x^2 + 2, so s = 2 + sqrt 2
    s = largest_matching_root_squared(cycle_graph(4), tol=F(1, 10**10))
    assert s.exact is None
    assert s.compare_fraction(F(34142135623, 10**10)) > 0
    assert s.compare_fraction(F(34142135624, 10**10)) < 0


def test_path4_matching_root_is_golden():
    s = largest_matching_root_squared(path_graph(4), tol=F(1, 10**12))
    # s = (3 + sqrt 5)/2 satisfies s^2 - 3s + 1 = 0
    assert s.exact is None
    assert s.compare_fraction(F(2618033988, 10**9)) > 0
    assert s.compare_fraction(F(2618033989, 10**9)) < 0
    lo, hi = s.interval()
    assert lo < F(26180339887498949, 10**16) < hi


def test_tree_spectral_radius_matches_known_values():
    assert largest_matching_root_squared(star_graph(10), tol=F(1, 10**12)).exact == 9
    assert largest_matching_root_squared(path_graph(2)).exact == 1


def test_char_poly_identity_on_trees():
    """det(tI - A_w) = sum_k (-1)^k c_k t^(n-2k) for a weighted tree, with
    c_k the k-matching sums of the squared weights; sympy expands the
    determinant independently of the matching recursion."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(5150)
    for _ in range(40):
        T = _random_tree(rng, rng.randint(2, 8))
        w = {e: F(rng.randint(1, 9), rng.randint(1, 9)) for e in T.edges}
        A = sympy.zeros(T.n, T.n)
        for (i, j), x in w.items():
            A[i - 1, j - 1] = A[j - 1, i - 1] = sympy.Rational(x.numerator, x.denominator)
        sums = matching_weight_sums(T, lambda e: w[e] ** 2)
        want = [0] * (T.n + 1)          # highest power first
        for k, c in enumerate(sums):
            want[2 * k] = (-1) ** k * c
        assert A.charpoly(t).all_coeffs() == want
