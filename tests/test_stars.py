"""Monotone-path trees, star-decomposition bounds, and the bow-tie case."""

import io
import random
from collections import Counter
from fractions import Fraction as F

import networkx as nx
import pytest

from critdens import stars
from critdens.acceptance import _connected_atlas
from critdens.blowup import bow_tie_reconstruction, star_decomposition_cannot_match_bowtie
from critdens.bounds import compute_bounds
from critdens.errors import ImproperLabeling, SizeLimit, ValidationError
from critdens.graphs import (
    PatternGraph,
    bow_tie_graph,
    canonical_edge,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    linear_extension_count,
    path_graph,
    proper_labeling_count,
    proper_labelings,
    rooted_id,
    rooted_nodes,
    single_source_orientations,
    star_graph,
)
from critdens.polynomials import (
    _integer_coeffs,
    _roots_above,
    _scaled_value,
    largest_matching_root_squared,
    leaf_up_inertia,
    matching_even_part,
    matching_root_squared,
    tree_even_part,
)
from critdens.stars import (
    StarBound,
    monotone_path_tree,
    star_lower_bound,
    star_necessary_condition,
    tree_shape_key,
    verify_bt1,
)
from critdens.tree_decision import CriticalDensity
from critdens.verdict import Verdict


GOLDEN_20 = F(61803398874989484820, 10**20)


# -- monotone-path trees ----------------------------------------------------


def test_triangle_path_tree_is_path4():
    mpt = monotone_path_tree(complete_graph(3), (1, 2, 3))
    assert mpt.legend == {1: (1,), 2: (1, 2), 3: (1, 2, 3), 4: (1, 3)}
    assert set(mpt.tree.edges) == {(1, 2), (2, 3), (1, 4)}
    assert tree_shape_key(mpt.tree) == tree_shape_key(path_graph(4))


def test_path_tree_of_a_tree_is_the_tree():
    from critdens.graphs import proper_labelings

    for T in [path_graph(5), star_graph(6)]:
        for f in proper_labelings(T):
            mpt = monotone_path_tree(T, f)
            assert mpt.tree.n == T.n
            assert tree_shape_key(mpt.tree) == tree_shape_key(T)


def test_legend_maps_tree_edges_back_to_pattern_edges():
    H = complete_graph(3)
    mpt = monotone_path_tree(H, (2, 3, 1))
    for a, b in mpt.tree.edges:
        pa, pb = mpt.legend[a], mpt.legend[b]
        assert pb[:-1] == pa
        assert canonical_edge(pb[-2], pb[-1]) in H.edges


def test_lifted_weights_follow_legend():
    H = complete_graph(3)
    gamma = {(1, 2): F(7, 10), (1, 3): F(3, 5), (2, 3): F(1, 2)}
    mpt = monotone_path_tree(H, (1, 2, 3))
    lifted = {(a, b): gamma[canonical_edge(*mpt.legend[b][-2:])]
              for a, b in mpt.tree.edges}
    assert lifted == {(1, 2): F(7, 10), (2, 3): F(1, 2), (1, 4): F(3, 5)}


def test_improper_labelings_rejected():
    with pytest.raises(ImproperLabeling):
        monotone_path_tree(path_graph(3), (1, 3, 2))
    with pytest.raises(ImproperLabeling):
        monotone_path_tree(complete_graph(3), (1, 2, 2))
    # True == 1, and sorts as 1, but is not a vertex
    for f in ((True, 2, 3), (1.0, 2, 3)):
        with pytest.raises(ImproperLabeling):
            star_necessary_condition(path_graph(3), [F(1, 2)] * 2, f)
        with pytest.raises(ImproperLabeling):
            linear_extension_count(path_graph(3), [f])


def test_path_tree_size_cap():
    with pytest.raises(SizeLimit):
        monotone_path_tree(complete_graph(18), tuple(range(1, 19)))


def test_shape_key_separates_and_unifies():
    assert tree_shape_key(path_graph(4)) != tree_shape_key(star_graph(4))
    from critdens.graphs import PatternGraph

    relabeled_p4 = PatternGraph(4, ((1, 3), (2, 4), (3, 4)))
    assert tree_shape_key(relabeled_p4) == tree_shape_key(path_graph(4))


# -- star lower bounds ------------------------------------------------------


def test_star_bound_on_trees_recovers_critical_density():
    assert star_lower_bound(path_graph(3)).density.exact == F(1, 2)
    assert star_lower_bound(star_graph(4)).density.exact == F(2, 3)


def test_star_bound_triangle_hits_golden_ratio():
    bound = star_lower_bound(complete_graph(3), tol=F(1, 10**12))
    lo, hi = bound.density.interval(F(1, 10**12))
    assert lo <= GOLDEN_20 <= hi
    assert bound.best_labeling == (1, 2, 3)
    assert bound.labelings_examined == 6
    assert not bound.heuristic
    assert len(bound.shape_table) == 1
    (example, count, dc), = bound.shape_table.values()
    assert count == 6 and example == (1, 2, 3)


def test_star_bound_labeling_cap_marks_heuristic(monkeypatch):
    monkeypatch.setattr(stars, "LABELING_CAP", 5)
    bound = star_lower_bound(complete_graph(4))
    assert bound.heuristic
    assert bound.labelings_examined == 5
    # past the cap the lexicographic prefix of the labelings is walked,
    # and at it the orientations
    for cap in (5, 20, 40):   # C_5 has 40 labelings
        monkeypatch.setattr(stars, "LABELING_CAP", cap)
        for H in (complete_graph(4), cycle_graph(5), bow_tie_graph()):
            _assert_matches_reference(H)


def _reference_star_bound(H, tol=F(1, 10**9)):
    """The plain search: every labeling's spectrum, memoized by shape, is
    compared with the best so far."""
    spectra, table = {}, {}
    best_s = best_f = None
    examined, heuristic = 0, False
    for f in proper_labelings(H):
        if examined >= stars.LABELING_CAP:
            heuristic = True
            break
        examined += 1
        tree = monotone_path_tree(H, f).tree
        shape = tree_shape_key(tree)
        if shape not in spectra:
            spectra[shape] = largest_matching_root_squared(tree)
            table[shape] = (f, 1, CriticalDensity(spectra[shape]))
        else:
            example, count, dc = table[shape]
            table[shape] = (example, count + 1, dc)
        if best_s is None or spectra[shape].compare(best_s) > 0:
            best_s, best_f = spectra[shape], f
    bound = StarBound(CriticalDensity(best_s), best_f, examined, heuristic, table)
    bound.interval(tol)
    return bound


def _assert_matches_reference(H):
    got, want = star_lower_bound(H), _reference_star_bound(H)
    assert got == want, H
    tol = F(1, 10**9)
    assert got.interval(tol) == want.interval(tol), H
    for shape, (_, _, dc) in want.shape_table.items():
        assert got.shape_table[shape][2].interval(tol) == dc.interval(tol), H


def test_star_bound_matches_plain_search_on_connected_atlas():
    for H in _connected_atlas(3, 5):
        _assert_matches_reference(H)


def test_star_bound_matches_plain_search_on_six_vertices():
    _assert_matches_reference(complete_graph(6))
    for H in _connected_atlas(6, 6):
        if len(H.edges) <= 9:
            _assert_matches_reference(H)


def test_rooted_ids_name_rooted_path_tree_shapes():
    # one intern table across every pattern: equal ids iff equal rooted
    # shapes of T_f from f(1)
    ids, by_id, by_shape = {}, {}, {}
    for H in [*_connected_atlas(3, 6), complete_bipartite(3, 4)]:
        for f in proper_labelings(H):
            rid = rooted_id(H, f, ids)
            shape = stars._rooted_shape(monotone_path_tree(H, f).tree, 1)
            assert by_id.setdefault(rid, shape) == shape, (H, f)
            assert by_shape.setdefault(shape, rid) == rid, (H, f)
    # ids are interned in order, and a key's ids come before it
    keys = list(ids)
    assert [ids[key] for key in keys] == list(range(len(keys)))
    assert all(c < i for i, key in enumerate(keys) for c in key)


def _counting_isolations(monkeypatch):
    """Patch stars' root isolation to record the even part of each call."""
    isolations = []

    def counting(even, *args, **kwargs):
        isolations.append(even)
        return matching_root_squared(even, *args, **kwargs)

    monkeypatch.setattr(stars, "matching_root_squared", counting)
    return isolations


def test_star_bound_isolates_at_most_one_root_per_shape(monkeypatch):
    # isolations are memoised per matching even part, which isomorphic
    # shapes share, so there are never more than one per shape of T_f
    isolations = _counting_isolations(monkeypatch)
    star_lower_bound(complete_graph(6))
    assert len(isolations) == 1
    for H in _connected_atlas(3, 6):
        isolations.clear()
        star_lower_bound(H)
        shapes = {tree_shape_key(monotone_path_tree(H, f).tree) for f in proper_labelings(H)}
        assert 1 <= len(isolations) <= len(shapes), H
        assert len(set(isolations)) == len(isolations), H


def test_star_bound_computes_spectra_only_for_shapes_that_can_win(monkeypatch):
    # an atlas pattern: a triangle 2-3-4 and a triangle 2-3-5 sharing 2-3,
    # and a pendant vertex 1 at 2
    H = PatternGraph(5, ((1, 2), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5)))
    isolations, built = _counting_isolations(monkeypatch), []

    def counting_tree(H, f):
        built.append(f)
        return monotone_path_tree(H, f)

    monkeypatch.setattr(stars, "monotone_path_tree", counting_tree)
    want = _reference_star_bound(H)
    compute_bounds(H)
    assert 1 <= len(isolations) < len(want.shape_table) and not built

    isolations.clear()
    bound = star_lower_bound(H)
    bound.density.interval()
    computed = len(isolations)
    assert not built
    table = bound.shape_table
    assert table == want.shape_table and bound == want
    # the first read isolates the remaining roots, one per shape in all,
    # and builds T_f once per rooted id; later reads return the same
    # table and build nothing
    ids = {}
    rooted = {rooted_id(H, f, ids) for f in proper_labelings(H)}
    assert computed < len(isolations) == len(table)
    assert len(built) == len(rooted)
    counts = len(isolations), len(built)
    assert bound.shape_table is table
    assert (len(isolations), len(built)) == counts
    best_shape = tree_shape_key(monotone_path_tree(H, bound.best_labeling).tree)
    assert table[best_shape][2] is bound.density


def _cube():
    """Q3: the vertices 1..8 are 1 + the bit strings 0..7."""
    return PatternGraph(8, tuple((a + 1, b + 1) for a in range(8) for b in range(a + 1, 8)
                                 if bin(a ^ b).count("1") == 1))


@pytest.mark.parametrize("order", ["reversed", "random"])
def test_star_bound_does_not_depend_on_the_certification_order(monkeypatch, order):
    # the hints only order the certification; the sign test and exact
    # comparisons decide, so any order gives the same bound and table
    patterns = [*_connected_atlas(3, 6), complete_graph(6), _cube()]
    want = [star_lower_bound(H) for H in patterns]
    rng, calls = random.Random(2011), []

    def hints(nodes, r):
        # the first elimination of each bound is the hint; the set-aside
        # tests come after it
        out = leaf_up_inertia(nodes, r)
        calls.append(r)
        if len(calls) == 1:
            out = [(-h if order == "reversed" else rng.random(), k) for h, k in out]
        return out

    monkeypatch.setattr(stars, "leaf_up_inertia", hints)
    tol = F(1, 10**9)
    reordered = 0
    for H, bound in zip(patterns, want):
        calls.clear()
        got = star_lower_bound(H)
        reordered += bool(calls)
        assert got.interval(tol) == bound.interval(tol), H
        assert got == bound and list(got.shape_table) == list(bound.shape_table), H
    assert reordered > 100


def test_star_bound_takes_few_spectra(monkeypatch):
    isolations = _counting_isolations(monkeypatch)
    for n in (5, 6, 7, 8):
        isolations.clear()
        star_lower_bound(complete_graph(n))
        assert len(isolations) == 1, n
    isolations.clear()
    for H in _connected_atlas(3, 6):
        if not H.is_tree():
            star_lower_bound(H)
    # 146 when written, against 431 when rooted ids were certified in
    # the order of their first labelings
    assert len(isolations) <= 160


def test_root_isolation_on_rooted_shapes_matches_the_path_tree_spectrum():
    # the root isolation on T_f's rooted shapes, field for field, against
    # the spectrum of the built path tree
    for H in [*_connected_atlas(3, 5), complete_bipartite(2, 3)]:
        for f in proper_labelings(H):
            nodes = rooted_nodes(H, f)
            tree = monotone_path_tree(H, f).tree
            even = tree_even_part(nodes)
            assert even == matching_even_part(tree).coeffs, (H, f)
            got = matching_root_squared(even, nodes=nodes)
            want = largest_matching_root_squared(tree)
            assert (got.lo, got.hi, got.exact, got.poly) == \
                (want.lo, want.hi, want.exact, want.poly), (H, f)


def test_star_bound_matches_plain_search_on_small_trees():
    for n in range(2, 9):
        for G in nx.nonisomorphic_trees(n):
            T = PatternGraph(n, tuple(sorted((min(a, b) + 1, max(a, b) + 1)
                                             for a, b in G.edges())))
            _assert_matches_reference(T)
            assert proper_labeling_count(T) == len(list(proper_labelings(T))), T
    assert proper_labeling_count(path_graph(1)) == 1


def _orientation(H, f):
    """D_f: each edge of H as (earlier end, later end) along f."""
    pos = {v: k for k, v in enumerate(f)}
    return frozenset(e if pos[e[0]] < pos[e[1]] else e[::-1] for e in H.edges)


def test_orientation_walk_matches_the_labelings():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def connected_graphs(draw):
        """A random spanning tree on 1..7 vertices, and any other edges."""
        n = draw(st.integers(1, 7))
        tree = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
        others = [(i, j) for j in range(2, n + 1) for i in range(1, j) if (i, j) not in tree]
        return PatternGraph(n, tuple(tree) + tuple(e for e in others if draw(st.booleans())))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(connected_graphs(), st.integers(0, 60))
    @hypothesis.example(cycle_graph(6), 40)
    @hypothesis.example(complete_graph(5), 119)
    def check(H, cap):
        labelings = list(proper_labelings(H))
        first, extensions = {}, Counter()
        for f in labelings:
            D = _orientation(H, f)
            first.setdefault(D, f)
            extensions[D] += 1
        walked = list(single_source_orientations(H))
        # the least labeling of each orientation, in lexicographic order
        assert [f for f, _ in walked] == sorted(first.values()), H
        assert proper_labeling_count(H) == len(labelings), H
        count = proper_labeling_count(H, cap)
        assert count > cap if len(labelings) > cap else count == len(labelings), (H, cap)
        ids, plain, summed = {}, Counter(), Counter()
        for f in labelings:
            plain[rooted_id(H, f, ids)] += 1
        for f, only in walked:
            count = linear_extension_count(H, [f])
            assert count == extensions[_orientation(H, f)] and only == (count == 1), (H, f)
            summed[rooted_id(H, f, ids)] += count
        assert summed == plain, H

    check()


def test_star_bound_on_a_tree_past_the_labeling_cap(monkeypatch):
    monkeypatch.setattr(stars, "LABELING_CAP", 5)
    for n in (3, 4, 6):   # 4, 8 and 32 labelings
        _assert_matches_reference(path_graph(n))
    bound = star_lower_bound(path_graph(6))
    assert bound.heuristic and bound.labelings_examined == 5
    assert [count for _, count, _ in bound.shape_table.values()] == [5]


def test_star_bound_below_matching_root_on_cycles():
    from critdens.polynomials import largest_matching_root_squared

    for H in [cycle_graph(4), cycle_graph(5)]:
        bound = star_lower_bound(H)
        upper = largest_matching_root_squared(H)
        assert bound.density.s_star.compare(upper) <= 0


# -- necessary condition and complete bipartite identity --------------------


def test_necessary_condition_direction():
    K3 = complete_graph(3)
    assert star_necessary_condition(K3, [F(3, 5)] * 3, (1, 2, 3)) == Verdict.FAILS
    assert star_necessary_condition(K3, [F(63, 100)] * 3, (1, 2, 3)) == Verdict.PASSES


def test_necessary_condition_heterogeneous():
    # with both lifted 1-edges at 17/20, the far edge flips at 3/17
    K3 = complete_graph(3)
    g = {(1, 2): F(17, 20), (1, 3): F(17, 20), (2, 3): F(1, 4)}
    assert star_necessary_condition(K3, g, (1, 2, 3)) == Verdict.PASSES
    g[(2, 3)] = F(1, 6)
    assert star_necessary_condition(K3, g, (1, 2, 3)) == Verdict.FAILS
    g[(2, 3)] = F(3, 17)
    assert star_necessary_condition(K3, g, (1, 2, 3)) == Verdict.FAILS


def test_necessary_condition_range_checks_pattern_edges():
    # (1, 3) lifts to the path-tree edge (1, 4); the error names the former
    K3 = complete_graph(3)
    g = {(1, 2): F(1, 2), (1, 3): F(3, 2), (2, 3): F(1, 2)}
    with pytest.raises(ValidationError, match=r"density 3/2 on edge \(1, 3\) above 1"):
        star_necessary_condition(K3, g, (1, 2, 3))
    with pytest.raises(ValidationError, match="below 0"):
        star_necessary_condition(K3, [F(-1, 2), F(1, 2), F(1, 2)], (1, 2, 3))


def test_verify_bt1_small_cases():
    assert verify_bt1(2, 2)
    assert verify_bt1(2, 3)
    assert verify_bt1(3, 3)
    assert verify_bt1(2, 5)


def _reference_bt1(n, m):
    """The check as it ran on built path trees: one matching polynomial
    per path-tree shape, its even part vanishing at n + m - 1 with no
    root above."""
    K = complete_bipartite(n, m)
    target = F(n + m - 1)
    seen = set()
    for f in proper_labelings(K):
        tree = monotone_path_tree(K, f).tree
        shape = tree_shape_key(tree)
        if shape in seen:
            continue
        seen.add(shape)
        q = _integer_coeffs(matching_even_part(tree))
        if _scaled_value(q, target) != 0 or _roots_above(q, target) != 0:
            return False
    return True


# K_{m,n} is K_{n,m} with its parts swapped, so n <= m covers every size
@pytest.mark.parametrize("n, m", [(n, s - n) for s in range(2, stars.BT1_CAP + 1)
                                  for n in range(1, s // 2 + 1)])
def test_verify_bt1_matches_path_tree_spectra(n, m):
    # the identity holds at every size up to the cap, in either part order
    assert verify_bt1(n, m) and verify_bt1(m, n) and _reference_bt1(n, m)
    # some rooted shape's root pivot is nonzero at a nearby ratio, so the
    # check would fail there
    K = complete_bipartite(n, m)
    ids = {}
    roots = {rooted_id(K, f, ids) for f in proper_labelings(K)}
    nodes = [[(c, 1) for c in key] for key in ids]
    for s in (n + m - 1 - F(1, 1000), n + m - 1 + F(1, 1000)):
        pivots = leaf_up_inertia(nodes, 1 / s)
        assert not all(pivots[rid] == (None, 0) for rid in roots)


def test_verify_bt1_size_cap():
    with pytest.raises(SizeLimit):
        verify_bt1(5, 5)


@pytest.mark.parametrize("command", [["bounds"], ["star-bound"], ["star-bound", "--dedupe"]])
def test_only_dedupe_builds_path_trees(monkeypatch, tmp_path, command):
    from critdens.cli import run

    built = []

    def counting(H, f):
        built.append(f)
        return monotone_path_tree(H, f)

    monkeypatch.setattr(stars, "monotone_path_tree", counting)
    for k, text in enumerate(["4; 1-2 1-3 1-4 2-3 2-4 3-4", "5; 1-2 1-3 1-4 1-5 2-3 4-5",
                              "5; 1-2 2-3 3-4 4-5 1-5", "4; 1-2 2-3 2-4"]):
        path = tmp_path / f"{k}.g"
        path.write_text(text + "\n")
        built.clear()
        assert run([*command, str(path)], out=io.StringIO()) == 0
        assert bool(built) == ("--dedupe" in command), (command, text)


def test_verdicts_build_no_path_tree(monkeypatch):
    def refuse(H, f):
        raise AssertionError("monotone_path_tree called")

    monkeypatch.setattr(stars, "monotone_path_tree", refuse)
    assert star_necessary_condition(complete_graph(4), [F(9, 10)] * 6, (1, 2, 3, 4)) \
        is Verdict.PASSES
    assert verify_bt1(2, 3)


# -- bow-tie -----------------------------------------------------------------


def test_bow_tie_reconstruction_is_extremal():
    B = bow_tie_reconstruction()
    assert B.pattern == bow_tie_graph()
    assert B.weights[0] == (F(1, 2), F(1, 2))
    assert B.weights[1:] == ((F(3, 10), F(7, 10)),) * 4
    dens = B.densities()
    for e in [(1, 2), (1, 3), (1, 4), (1, 5)]:
        assert dens[e] == F(17, 20)
    assert dens[(2, 3)] == dens[(4, 5)] == F(51, 100)
    assert B.find_transversal() is None


def test_no_star_decomposition_reaches_bow_tie_densities():
    assert star_decomposition_cannot_match_bowtie()
