"""Weighted blow-up graphs, transversal search, and constructions."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critdens.blowup import (
    Transversal,
    WeightedBlowupGraph,
    assert_construction,
    blowup_without,
    bow_tie_reconstruction,
    gacs_tree_construction,
    star_decomposition_construct,
)
from critdens.errors import SizeLimit, ValidationError
from critdens.graphs import (
    PatternGraph,
    complete_graph,
    parse_graph,
    path_graph,
    star_graph,
)
from critdens.oracle import oracle_find_transversal
from critdens.tree_decision import dcrit_tree


def _blowup(pattern, weights, cross):
    return WeightedBlowupGraph(pattern, weights, cross)


# -- construction and validation -------------------------------------------


def test_weights_must_sum_to_one_per_cluster():
    with pytest.raises(ValidationError):
        _blowup(path_graph(2), [[F(1, 2)], [F(1)]], [])
    with pytest.raises(ValidationError):
        _blowup(path_graph(2), [[F(3, 2), F(-1, 2)], [F(1)]], [])
    with pytest.raises(ValidationError):
        _blowup(path_graph(2), [[F(1)]], [])
    with pytest.raises(ValidationError):
        _blowup(path_graph(2), [[], [F(1)]], [])


@pytest.mark.parametrize("mode, weight", [
    ("exact", "1/0"), ("exact", float("inf")), ("exact", "nan"), ("float", "1"),
])
def test_bad_weights_in_a_blowup_file_are_rejected(mode, weight):
    obj = _blowup(path_graph(2), [[F(1)], [F(1)]], [((1, 0), (2, 0))]).to_json_obj()
    obj["mode"] = mode
    obj["clusters"][0][0]["weight"] = weight
    with pytest.raises(ValidationError):
        WeightedBlowupGraph.from_json_obj(obj)


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_exact_weights_are_rejected(weight):
    with pytest.raises(ValidationError, match="not a finite rational"):
        WeightedBlowupGraph(path_graph(2), [[weight], [1]], [])


def test_cross_edges_must_lie_on_pattern_edges():
    with pytest.raises(ValidationError):
        _blowup(path_graph(3), [[F(1)], [F(1)], [F(1)]],
                [((1, 0), (3, 0))])
    with pytest.raises(ValidationError):
        _blowup(path_graph(2), [[F(1)], [F(1)]], [((1, 0), (2, 1))])


def test_density_is_weight_mass_on_cross_pairs():
    B = _blowup(
        path_graph(2),
        [[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]],
        [((1, 0), (2, 0)), ((1, 1), (2, 1))],
    )
    assert B.density(1, 2) == F(1, 2) * F(1, 3) + F(1, 2) * F(2, 3)
    assert B.density(2, 1) == B.density(1, 2)
    assert B.densities() == {(1, 2): F(1, 2)}
    assert B.has_cross_edge((1, 0), (2, 0))
    assert B.has_cross_edge((2, 0), (1, 0))
    assert not B.has_cross_edge((1, 0), (2, 1))
    # density and the weight mass of the missing pairs sum to 1
    missing_mass = sum(
        B.weights[0][a] * B.weights[1][b]
        for a in range(2) for b in range(2) if not B.has_cross_edge((1, a), (2, b)))
    assert missing_mass == F(1, 2) * F(2, 3) + F(1, 2) * F(1, 3)
    assert B.density(1, 2) + missing_mass == 1


def test_blowup_without_leaves_zero_weights_out():
    # the kept slots are renumbered in order; missing names slots as given
    B = blowup_without(path_graph(2), [[F(1, 2), F(1, 2), F(0)], [F(1)]])
    assert B.weights == ((F(1, 2), F(1, 2)), (F(1),))
    assert sorted(B.cross_edges) == [((1, 0), (2, 0)), ((1, 1), (2, 0))]
    assert B.density(1, 2) == 1
    B = blowup_without(path_graph(2), [[F(0), F(1, 3), F(0), F(2, 3)], [F(1)]],
                       [((1, 1), (2, 0)), ((1, 2), (2, 0))])
    assert B.weights == ((F(1, 3), F(2, 3)), (F(1),))
    assert sorted(B.cross_edges) == [((1, 1), (2, 0))]
    assert B.density(1, 2) == F(2, 3)


def test_blowup_without_drops_only_the_missing_pairs():
    H = complete_graph(3)
    weights = [[F(1, 2), F(1, 2)], [F(1)], [F(1, 3), F(2, 3)]]
    missing = {((2, 0), (1, 1)), ((1, 0), (3, 1))}   # either orientation
    B = blowup_without(H, weights, missing)
    full = blowup_without(H, weights)
    assert full.cross_edges == blowup_without(H, [[F(1, 2)] * 2, [F(1)], [F(1, 2)] * 2]).cross_edges
    assert B.cross_edges == full.cross_edges - {((1, 1), (2, 0)), ((1, 0), (3, 1))}
    assert B.densities() == {(1, 2): F(1, 2), (1, 3): F(2, 3), (2, 3): F(1)}


def test_certificate_checks_densities_exactly():
    # P3's eigenvector construction: density 1/2 on both edges
    weights = [[F(1)], [F(1, 2), F(1, 2)], [F(1)]]
    missing = [((1, 0), (2, 0)), ((2, 1), (3, 0))]
    ok, short = F(1, 2), F(1, 2) + F(1, 10**30)
    B = blowup_without(path_graph(3), weights, missing)
    assert_construction(B, {})
    assert_construction(B, {(1, 2): ok, (2, 3): ok})
    with pytest.raises(ValidationError, match="below target"):
        assert_construction(B, {(1, 2): ok, (2, 3): short})
    with pytest.raises(ValidationError, match="has a transversal"):
        assert_construction(blowup_without(path_graph(2), [[F(1)], [F(1, 2)] * 2]), {})


def test_every_emitted_construction_passes_the_certificate(monkeypatch):
    from critdens.oracle import SearchConfig, oracle_search_construction

    emitters = {
        "gacs": lambda: gacs_tree_construction(path_graph(3)),
        "star": lambda: star_decomposition_construct(
            complete_graph(3), (1, 2, 3), [F(3, 5)] * 3),
        "oracle": lambda: oracle_search_construction(
            complete_graph(3),
            SearchConfig(weight_grid_denominator=10, density_floor=[F(3, 5)] * 3)),
        "bow-tie": bow_tie_reconstruction,
    }
    for build in emitters.values():
        assert build() is not None
    monkeypatch.setattr(WeightedBlowupGraph, "find_transversal",
                        lambda B: Transversal({v: 0 for v in B.pattern.vertices()}))
    for build in emitters.values():
        with pytest.raises(ValidationError, match="has a transversal"):
            build()


# -- transversal search -----------------------------------------------------


def test_complete_blowup_has_transversal_and_full_density():
    B = blowup_without(path_graph(3), [[F(1, 2)] * 2, [F(1)], [F(1, 2)] * 2])
    assert B.densities() == {(1, 2): F(1), (2, 3): F(1)}
    t = B.find_transversal()
    assert t is not None
    assert set(t.choice) == {1, 2, 3}
    for i, j in B.pattern.edges:
        assert B.has_cross_edge((i, t.choice[i]), (j, t.choice[j]))


def test_missing_single_pair_blocks_single_slots():
    B = _blowup(path_graph(2), [[F(1)], [F(1)]], [])
    assert B.find_transversal() is None


def test_transversal_guard_counts_slot_trials_not_the_choice_space():
    # 2^21 > 10^6 choices, but an empty first edge refutes both slots of
    # cluster 1 in six trials; the unpruned searcher keeps its product guard.
    H, weights = path_graph(21), [[F(1, 2)] * 2] * 21
    B = blowup_without(H, weights, [((1, a), (2, b)) for a in range(2) for b in range(2)])
    assert B.find_transversal() is None
    t = blowup_without(H, weights).find_transversal()
    assert t is not None and set(t.choice.values()) == {0}
    with pytest.raises(SizeLimit):
        oracle_find_transversal(B)


def test_transversal_found_iff_choice_exists():
    rng = random.Random(31337)
    pool = [path_graph(2), path_graph(3), complete_graph(3), star_graph(4)]
    for _ in range(150):
        H = rng.choice(pool)
        sizes = [rng.randint(1, 3) for _ in H.vertices()]
        weights = [[F(1, s)] * s for s in sizes]
        cross = [
            ((i, a), (j, b))
            for i, j in H.edges
            for a in range(sizes[i - 1])
            for b in range(sizes[j - 1])
            if rng.random() < 0.55
        ]
        B = _blowup(H, weights, cross)
        from itertools import product

        exists = any(
            all(B.has_cross_edge((i, pick[i - 1]), (j, pick[j - 1]))
                for i, j in H.edges)
            for pick in product(*[range(s) for s in sizes])
        )
        assert (B.find_transversal() is not None) == exists


# -- serialization ----------------------------------------------------------


def test_json_round_trip_exact_mode():
    B = _blowup(
        complete_graph(3),
        [[F(1, 3), F(2, 3)], [F(1)], [F(1, 2), F(1, 2)]],
        [((1, 0), (2, 0)), ((2, 0), (3, 1)), ((1, 1), (3, 0))],
    )
    s = B.to_json()
    obj = json.loads(s)
    assert obj["mode"] == "exact"
    R = WeightedBlowupGraph.from_json(s)
    assert R.pattern == B.pattern
    assert R.weights == B.weights
    assert sorted(R.cross_edges) == sorted(B.cross_edges)


def test_json_round_trip_of_a_trimmed_construction():
    B = gacs_tree_construction(path_graph(4))
    obj = json.loads(B.to_json())
    assert obj["mode"] == "exact"
    R = WeightedBlowupGraph.from_json_obj(obj)
    assert R.weights == B.weights and R.cross_edges == B.cross_edges


# -- extremal constructions -------------------------------------------------


def test_gacs_path3_hits_one_half_exactly():
    B = gacs_tree_construction(path_graph(3))
    assert B.densities() == {(1, 2): F(1, 2), (2, 3): F(1, 2)}
    assert B.find_transversal() is None


def test_gacs_stars_hit_exact_critical_density():
    for n in range(3, 8):
        B = gacs_tree_construction(star_graph(n))
        target = 1 - F(1, n - 1)
        assert all(d == target for d in B.densities().values())
        assert B.find_transversal() is None
        for cluster in B.weights:
            assert sum(cluster) == 1


def test_gacs_path4_hits_golden_exactly():
    # lambda^2 = (3 + sqrt 5)/2: every density is the same rational t just
    # below (sqrt 5 - 1)/2, and the split slot sits in cluster 2
    B = gacs_tree_construction(path_graph(4))
    (t,) = set(B.densities().values())
    assert (2 * t + 1) ** 2 < 5 < (2 * t + 1 + F(2, 10**24)) ** 2
    assert B.cluster_sizes() == (1, 3, 2, 1)
    assert B.find_transversal() is None


@pytest.mark.parametrize("s, message", [
    # below lambda^2 = 2 of P3: the middle vertex's pivot 1 - 1/s is 0
    (F(1), "eigenvector ratios are not all positive"),
    # above it: the root ratio (1/s)/(1 - 1/s) is 1/2
    (F(3), "root ratio 1/2 is below 1"),
])
def test_gacs_refuses_a_wrong_lambda_squared(monkeypatch, s, message):
    from critdens import blowup
    from critdens.polynomials import AlgebraicNumber

    monkeypatch.setattr(blowup, "largest_matching_root_squared",
                        lambda T, tol: AlgebraicNumber.from_rational(s))
    with pytest.raises(ValidationError, match=f"^{message}$"):
        gacs_tree_construction(path_graph(3))


def _merged_weight(B, T, i, j):
    """Mass of i's slots that miss j's slot toward i: w_ij, with a split
    slot folded back into the slot it was split from."""
    b = T.adjacency[j].index(i)
    return sum(w for a, w in enumerate(B.weights[i - 1])
               if not B.has_cross_edge((i, a), (j, b)))


def test_gacs_weights_are_perron_ratios_on_all_small_trees():
    # With each cluster summing to 1, w_ij w_ji = 1/lambda^2 on every edge
    # pins the weights to the principal eigenvector's ratios.  The
    # construction runs at s_lo, a certified lower end of lambda^2, so
    # w_ij w_ji = 1/s_lo exactly on every edge but the trimmed root edge;
    # sympy's characteristic polynomial, not the code under test, places
    # s_lo within 1e-24 below lambda^2 (equal when lambda^2 is rational).
    import networkx as nx
    import sympy

    x = sympy.Symbol("x")
    for n in range(2, 9):
        for G in nx.nonisomorphic_trees(n):
            T = PatternGraph(n, tuple((a + 1, b + 1) for a, b in G.edges()))
            A = sympy.Matrix([[int(j in T.adjacency[i]) for j in T.vertices()]
                              for i in T.vertices()])
            lam = max(sympy.Poly(A.charpoly(x).as_expr(), x).real_roots())
            s = lam**2
            rational = sympy.degree(sympy.minimal_polynomial(s, x), x) == 1
            B = gacs_tree_construction(T)
            (t,) = set(B.densities().values())
            s_lo = 1 / (1 - t)
            gap = s - sympy.Rational(s_lo.numerator, s_lo.denominator)
            if rational:
                assert gap == 0, T
            else:
                assert 0 < gap <= sympy.Rational(1, 10**24), T
            root = min(v for v in T.vertices() if len(T.adjacency[v]) == 1)
            assert B.weights[root - 1] == (1,), T
            for i, j in T.edges:
                w_ij, w_ji = _merged_weight(B, T, i, j), _merged_weight(B, T, j, i)
                assert w_ij > 0 and w_ji > 0, (T, i, j)
                if root not in (i, j):
                    assert w_ij * w_ji == 1 / s_lo, (T, i, j)


def _relabelled_tree(parents, labels):
    """Vertex v >= 2 hangs below parents[v - 2] < v; then v becomes
    labels[v - 1]."""
    return PatternGraph(len(labels), tuple(sorted(
        tuple(sorted((labels[p - 1], labels[v - 1])))
        for v, p in enumerate(parents, start=2))))


_TREES = st.integers(2, 14).flatmap(lambda n: st.builds(
    _relabelled_tree,
    st.tuples(*(st.integers(1, v - 1) for v in range(2, n + 1))),
    st.permutations(range(1, n + 1))))

# the float ratio recursion, before constructions were exact, missed the
# cluster-sum check by 2e-9 on this tree
_DRIFTING_TREE = parse_graph(
    "26; 1-2 2-3 2-4 4-5 5-6 6-7 7-8 8-9 8-10 9-11 11-12 11-13 12-14"
    " 12-15 15-16 15-17 16-18 17-19 19-20 20-21 20-22 20-23 20-24"
    " 20-25 24-26")


@settings(max_examples=60, deadline=None)
@given(_TREES)
@example(_DRIFTING_TREE)
def test_gacs_is_exact_and_transversal_free_on_random_trees(T):
    B = gacs_tree_construction(T)
    (t,) = set(B.densities().values())
    lo, hi = dcrit_tree(T).interval(F(1, 10**12))
    assert lo <= t <= hi
    assert all(sum(cluster) == 1 for cluster in B.weights)
    assert sum(B.cluster_sizes()) <= 2 * len(T.edges) + 1
    assert B.find_transversal() is None
    assert oracle_find_transversal(B) is None


def test_star_construct_triangle_below_threshold():
    B = star_decomposition_construct(complete_graph(3), (1, 2, 3), [F(3, 5)] * 3)
    assert B is not None
    assert B.densities() == {
        (1, 2): F(16, 25), (1, 3): F(3, 5), (2, 3): F(3, 5)}
    assert all(d >= F(3, 5) for d in B.densities().values())
    assert B.find_transversal() is None


def test_star_construct_refuses_above_threshold():
    dens = [F(63, 100)] * 3
    assert star_decomposition_construct(complete_graph(3), (1, 2, 3), dens) is None


def test_star_construct_beats_floor_on_random_trees():
    from critdens.graphs import proper_labelings
    from critdens.tree_decision import dcrit_tree

    rng = random.Random(6021023)
    for _ in range(25):
        n = rng.randint(2, 6)
        edges = tuple(sorted((rng.randint(1, i), i + 1) for i in range(1, n)))
        T = PatternGraph(n, edges)
        lo, _ = dcrit_tree(T).interval(F(1, 10**6))
        floor = max(F(0), lo - F(1, 50))
        f = next(iter(proper_labelings(T)))
        B = star_decomposition_construct(T, f, [floor] * len(T.edges))
        assert B is not None
        assert B.find_transversal() is None
        assert all(d >= floor for d in B.densities().values())
