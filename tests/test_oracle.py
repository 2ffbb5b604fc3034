"""Exhaustive grid search for transversal-free weighted blow-ups."""

import itertools
import json
import random
import re
from fractions import Fraction as F
from itertools import product

import pytest

from critdens import oracle
from critdens.blowup import WeightedBlowupGraph, gacs_tree_construction
from critdens.errors import BudgetExhausted, ValidationError
from critdens.graphs import (
    bow_tie_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from critdens.oracle import (
    SearchConfig,
    _Budget,
    _best_grid_density,
    _least_size_vectors,
    _list_minimal_covers,
    _minimal_covers,
    oracle_dcrit_estimate,
    oracle_find_transversal,
    oracle_search_construction,
)


def _uniform_random_blowup(rng, H):
    sizes = [rng.randint(1, 3) for _ in H.vertices()]
    weights = [[F(1, s)] * s for s in sizes]
    keep = rng.uniform(0.2, 0.9)
    cross = [
        ((i, a), (j, b))
        for i, j in H.edges
        for a in range(sizes[i - 1])
        for b in range(sizes[j - 1])
        if rng.random() < keep
    ]
    return WeightedBlowupGraph(H, weights, cross)


def _all_alike(H):
    """The edge colouring with every edge alike, as oracle-dcrit searches."""
    return (0,) * len(H.edges)


# -- configuration -----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValidationError):
        SearchConfig(weight_grid_denominator=0)
    with pytest.raises(ValidationError):
        SearchConfig(budget=0)
    cfg = SearchConfig(cluster_size_bounds=(1, 2))
    with pytest.raises(ValidationError):
        cfg.resolved_bounds(complete_graph(3))
    with pytest.raises(ValidationError):
        SearchConfig(cluster_size_bounds=(0, 1, 1)).resolved_bounds(
            complete_graph(3))


def test_cluster_size_bounds_must_be_integers():
    numpy = pytest.importorskip("numpy")
    sympy = pytest.importorskip("sympy")
    K3 = complete_graph(3)
    with pytest.raises(ValidationError, match="cluster size bound 1.5 is not an integer"):
        oracle_search_construction(K3, SearchConfig(cluster_size_bounds=(1.5, 1, 1)))
    with pytest.raises(ValidationError, match="cluster size bound 1.5 is not an integer"):
        oracle_dcrit_estimate(K3, q=4, cluster_size_bounds=(1.5, 1, 1))
    bounds = (numpy.int64(2), sympy.Integer(1), 2)
    assert SearchConfig(cluster_size_bounds=bounds).resolved_bounds(K3) == (2, 1, 2)
    assert all(type(b) is int
               for b in SearchConfig(cluster_size_bounds=bounds).resolved_bounds(K3))
    assert oracle_dcrit_estimate(K3, q=4, cluster_size_bounds=bounds) == \
        oracle_dcrit_estimate(K3, q=4, cluster_size_bounds=(2, 1, 2))


def test_default_bounds_are_vertex_degrees():
    assert SearchConfig().resolved_bounds(complete_graph(3)) == (2, 2, 2)
    assert SearchConfig().resolved_bounds(path_graph(3)) == (1, 2, 1)
    assert SearchConfig().resolved_bounds(bow_tie_graph()) == (4, 2, 2, 2, 2)


# -- reference transversal search ---------------------------------------------


def test_oracle_matches_pruned_search_on_random_blowups():
    rng = random.Random(90210)
    pool = [path_graph(3), complete_graph(3), star_graph(4), cycle_graph(4)]
    for _ in range(200):
        B = _uniform_random_blowup(rng, rng.choice(pool))
        fast = B.find_transversal()
        slow = oracle_find_transversal(B)
        assert (fast is None) == (slow is None)
        if slow is not None:
            choice = slow.choice
            for i, j in B.pattern.edges:
                assert B.has_cross_edge((i, choice[i]), (j, choice[j]))


def test_oracle_rejects_gacs_constructions():
    for T in [path_graph(3), star_graph(4), star_graph(5)]:
        assert oracle_find_transversal(gacs_tree_construction(T)) is None


# -- grid search ----------------------------------------------------------------


def test_triangle_floor_60_at_q10_finds_construction():
    cfg = SearchConfig(weight_grid_denominator=10, density_floor=[F(3, 5)] * 3)
    B = oracle_search_construction(complete_graph(3), cfg)
    assert B is not None
    assert B.find_transversal() is None
    assert all(d >= F(3, 5) for d in B.densities().values())
    assert all(c.denominator in (1, 2, 5, 10) for w in B.weights for c in w)


def test_triangle_floor_65_at_q10_is_infeasible():
    cfg = SearchConfig(weight_grid_denominator=10, density_floor=[F(13, 20)] * 3)
    assert oracle_search_construction(complete_graph(3), cfg) is None


def test_triangle_floor_61_at_q50_known_result():
    cfg = SearchConfig(weight_grid_denominator=50, density_floor=[F(61, 100)] * 3)
    B = oracle_search_construction(complete_graph(3), cfg)
    assert B is not None
    assert B.cluster_sizes() == (1, 2, 2)
    assert B.densities() == {
        (1, 2): F(31, 50), (1, 3): F(31, 50), (2, 3): F(1539, 2500)}


def test_search_is_deterministic():
    cfg = SearchConfig(weight_grid_denominator=10, density_floor=[F(3, 5)] * 3)
    a = oracle_search_construction(complete_graph(3), cfg)
    b = oracle_search_construction(complete_graph(3), cfg)
    assert a.to_json() == b.to_json()


def _bow_tie_recovery_floor():
    floor = {e: F(17, 20) for e in bow_tie_graph().edges}
    floor[(2, 3)] = F(51, 100)
    floor[(4, 5)] = F(51, 100)
    return floor


def _assert_bow_tie_reconstruction(B):
    assert B is not None
    assert B.weights == (
        (F(1, 2), F(1, 2)),
        (F(3, 10), F(7, 10)),
        (F(3, 10), F(7, 10)),
        (F(3, 10), F(7, 10)),
        (F(3, 10), F(7, 10)),
    )
    dens = B.densities()
    assert all(dens[e] == F(17, 20) for e in [(1, 2), (1, 3), (1, 4), (1, 5)])
    assert dens[(2, 3)] == dens[(4, 5)] == F(51, 100)
    assert B.find_transversal() is None


def test_search_recovers_bow_tie_reconstruction():
    cfg = SearchConfig(cluster_size_bounds=(2, 2, 2, 2, 2),
                       weight_grid_denominator=10,
                       density_floor=_bow_tie_recovery_floor())
    _assert_bow_tie_reconstruction(oracle_search_construction(bow_tie_graph(), cfg))


def test_bow_tie_recovery_with_default_bounds_fits_a_small_budget():
    # Every minimal cover is listed once and weight prefixes that cannot
    # meet the floor are cut, so the default size bounds (4, 2, 2, 2, 2)
    # reach the reconstruction in well under 200,000 node expansions.
    cfg = SearchConfig(weight_grid_denominator=10,
                       density_floor=_bow_tie_recovery_floor(), budget=200_000)
    _assert_bow_tie_reconstruction(oracle_search_construction(bow_tie_graph(), cfg))


def test_budget_exhaustion_is_distinct_from_none():
    cfg = SearchConfig(weight_grid_denominator=10,
                       density_floor=[F(3, 5)] * 3, budget=1)
    with pytest.raises(BudgetExhausted):
        oracle_search_construction(complete_graph(3), cfg)


def _c4_floor_search(budget):
    cfg = SearchConfig(weight_grid_denominator=20,
                       density_floor=[F(19, 25)] * 4, budget=budget)
    return oracle_search_construction(cycle_graph(4), cfg)


def _k3_floor_search(budget):
    cfg = SearchConfig(weight_grid_denominator=10,
                       density_floor=[F(13, 20)] * 3, budget=budget)
    return oracle_search_construction(complete_graph(3), cfg)


def _bow_tie_search(budget):
    cfg = SearchConfig(weight_grid_denominator=10,
                       density_floor=_bow_tie_recovery_floor(), budget=budget)
    return oracle_search_construction(bow_tie_graph(), cfg)


@pytest.mark.parametrize("search, spend", [
    (_bow_tie_search, 17_757),
    (_c4_floor_search, 1_237),
    (_k3_floor_search, 227),
    (lambda b: oracle_dcrit_estimate(cycle_graph(4), q=30, budget=b), 1_956),
    (lambda b: oracle_dcrit_estimate(path_graph(5), q=50, budget=b), 3_759),
    (lambda b: oracle_dcrit_estimate(complete_graph(3), q=70, budget=b), 500),
    (lambda b: oracle_dcrit_estimate(star_graph(4), q=100, budget=b), 875),
    (lambda b: oracle_dcrit_estimate(star_graph(5), q=20, budget=b), 1_448),
    (lambda b: _best_grid_density(cycle_graph(5), (2,) * 5, 10, _Budget(b)), 5_194),
], ids=["floor-bow-tie", "floor-c4", "floor-k3", "maxmin-c4", "maxmin-p5",
        "maxmin-k3", "maxmin-s4", "maxmin-s5", "maxmin-c5"])
def test_budget_spend_is_pinned(search, spend):
    """Each search finishes on exactly its pinned budget and exhausts one
    unit short of it, so any change to the pruning shows as a spend
    change.  The cases cover a found witness, two full enumerations, a
    last size-2 cluster (C4, P5), a size-3 cluster (S4, a head of one
    slot), a size-4 cluster (S5, a head of two slots) and clusters all
    of size 2 (C5).  A cluster spends one unit per last-pair weight tried
    and, if it has a head, one per head with none to try; an oracle-dcrit
    case spends the sum over the floor searches of its descent."""
    search(spend)
    with pytest.raises(BudgetExhausted):
        search(spend - 1)


def test_budget_exhaustion_names_its_position(tmp_path):
    """An exhausted search names the configuration it was working on, by
    the index the progress records (and the checkpoint) count.  C4's
    clusters have size <= 2, so there the look-ahead skips weights."""
    for H, floor, budgets in [(complete_graph(3), F(13, 20), range(1, 1200, 7)),
                              (cycle_graph(4), F(7, 10), range(1, 3300, 17))]:
        phases = set()
        for budget in budgets:
            cfg = SearchConfig(weight_grid_denominator=10,
                               density_floor=[floor] * len(H.edges), budget=budget)
            progress = tmp_path / f"progress-{H.n}-{budget}.jsonl"
            try:
                oracle_search_construction(H, cfg, progress_path=str(progress))
            except BudgetExhausted as exc:
                lines = [json.loads(l) for l in progress.read_text().splitlines()]
                where = re.fullmatch(
                    r"search budget exhausted at configuration (\d+), cluster "
                    r"sizes (\[[\d, ]+\]), (listing minimal covers|searching weights)",
                    str(exc))
                assert where is not None, str(exc)
                assert int(where[1]) == len(lines)
                assert all(l["sizes"] <= json.loads(where[2]) for l in lines)
                phases.add(where[3])
            else:
                break
        assert budget < budgets[-1], "the sweep must reach a finished search"
        assert phases == {"listing minimal covers", "searching weights"}
    with pytest.raises(BudgetExhausted, match=r"configuration 0, cluster sizes "
                       r"\[1, 1, 1\], listing minimal covers"):
        oracle_dcrit_estimate(complete_graph(3), q=10, budget=1)


def _floor_search(H, floor, q=10, bounds=None):
    def search(budget):
        cfg = SearchConfig(cluster_size_bounds=bounds, weight_grid_denominator=q,
                           density_floor=[floor] * len(H.edges), budget=budget)
        B = oracle_search_construction(H, cfg)
        return None if B is None else B.to_json()
    return search


def _outcomes(monkeypatch, search, budgets, cold):
    """For each budget, what search returns or the message it raises,
    and the units its budget has left; with cold, every listing kept
    from earlier searches is dropped first."""
    made = []
    monkeypatch.setattr(oracle, "_Budget",
                        lambda amount: made.append(_Budget(amount)) or made[-1])
    out = []
    for budget in budgets:
        if cold:
            oracle._LISTINGS.clear()
        try:
            result = search(budget)
        except BudgetExhausted as exc:
            result = str(exc)
        out.append((result, made[-1].left))
    monkeypatch.undo()
    return out


@pytest.mark.parametrize("search, budgets", [
    (_floor_search(complete_graph(3), F(13, 20)), range(1, 1200, 7)),
    (_floor_search(cycle_graph(4), F(7, 10)), range(1, 3300, 17)),
    (lambda b: oracle_dcrit_estimate(complete_graph(3), q=10, budget=b),
     range(1, 1500, 5)),
], ids=["floor-k3", "floor-c4", "maxmin-k3"])
def test_kept_listings_spend_as_fresh_ones(monkeypatch, search, budgets):
    """The budget sweeps of the exit-3 tests give the same results,
    messages and budget left whether every listing is made afresh or
    every one is reused: a reuse charges what the listing spent."""
    cold = _outcomes(monkeypatch, search, budgets, cold=True)
    assert any(isinstance(r, str) and "listing" in r for r, _ in cold)
    assert any(isinstance(r, str) and "searching" in r for r, _ in cold)
    assert not isinstance(cold[-1][0], str), "the sweep must reach a finished search"
    listings = []
    monkeypatch.setattr(oracle, "_list_minimal_covers",
                        lambda *a: listings.append(a) or _list_minimal_covers(*a))
    warm = _outcomes(monkeypatch, search, budgets, cold=False)
    assert listings == []
    assert warm == cold


@pytest.mark.parametrize("bounds", [None, [3] * 13])
def test_large_symmetry_stays_within_the_budget(bounds):
    """A star with 12 leaves has 12! automorphisms.  Neither search
    lists them, and oracle-dcrit skips the size vectors it rules out a
    prefix at a time, so a small budget runs out at once."""
    H = star_graph(13)
    cfg = SearchConfig(cluster_size_bounds=bounds, density_floor=[F(1, 2)] * 12,
                       budget=100)
    with pytest.raises(BudgetExhausted, match="configuration"):
        oracle_search_construction(H, cfg)
    with pytest.raises(BudgetExhausted, match="best grid density so far"):
        oracle_dcrit_estimate(H, q=10, cluster_size_bounds=bounds, budget=100)


def test_exhausted_listing_is_not_kept():
    """A search stopped inside a listing keeps no part of it: the rerun
    lists those covers in full, as a cold listing does, at the same
    spend."""
    H, sizes = complete_graph(4), (1, 2, 3, 3)
    search = _floor_search(H, F(3, 4), q=6, bounds=sizes)
    oracle._LISTINGS.clear()
    with pytest.raises(BudgetExhausted, match=r"cluster sizes \[1, 2, 3, 3\], "
                       r"listing minimal covers"):
        search(10_000)
    assert ("covers", H.n, H.edges, sizes, _all_alike(H)) not in oracle._LISTINGS.entries
    assert search(30_000) is None
    warm, cold = _Budget(10**6), _Budget(10**6)
    listing = _minimal_covers(H, sizes, warm, _all_alike(H))
    assert listing.covers == _list_minimal_covers(H, sizes, cold, _all_alike(H))
    assert warm.left == cold.left == 10**6 - 11_988


def test_kept_listings_are_bounded(monkeypatch):
    """Listings are kept least recently used first, up to a fixed count
    of covers searched; one larger than that is not kept at all."""
    kept = oracle._KeptListings(max_held=20)
    monkeypatch.setattr(oracle, "_LISTINGS", kept)
    H = complete_graph(4)
    # 7, 11, 7 again, 3 and 89 covers, one per orbit
    for sizes in [(1, 1, 2, 2), (1, 2, 2, 2), (1, 1, 2, 2), (1, 1, 1, 2), (1, 2, 3, 3)]:
        _minimal_covers(H, sizes, _Budget(10**6), _all_alike(H))
        assert kept.held == sum(len(l.covers) for l in kept.entries.values()) <= 20
    assert [k[3] for k in kept.entries] == [(1, 1, 2, 2), (1, 1, 1, 2)]


def test_kept_size_vectors_share_the_bound(monkeypatch):
    """The size vectors a search walks are kept with the walk that goes on
    from them: a search that stops early keeps the ones it reached, a
    later one goes on from there, two walks in step see the same vectors,
    each vector counts one unit against the bound, and the least recently
    used entries go first."""
    kept = oracle._KeptListings(max_held=10**6)
    monkeypatch.setattr(oracle, "_LISTINGS", kept)
    H, bounds = cycle_graph(4), (2, 2, 2, 2)
    alike = _all_alike(H)
    want = list(_least_size_vectors(bounds, oracle.automorphisms(H, bounds)))
    key = ("sizes", H.n, H.edges, bounds, alike)
    early = _floor_search(H, F(1, 5), bounds=bounds)(10**6)
    assert early is not None
    walk = kept.entries[key]
    assert 0 < len(walk.vectors) < len(want) == 6
    first, second = (oracle._configurations(H, bounds, 10, _Budget(10**6), alike)
                     for _ in range(2))
    seen = [[], []]
    for a, b in itertools.zip_longest(first, second):
        seen[0].append(a[1].sizes)
        seen[1].append(b[1].sizes)
    assert seen[0] == seen[1]
    assert list(dict.fromkeys(seen[0])) == want == walk.vectors
    assert kept.entries[key] is walk
    assert kept.held == sum(entry.held() for entry in kept.entries.values())
    assert kept.entries[key].held() == 1 + len(want)
    kept.max_held = kept.held - 1
    kept.keep(("new",), oracle._Listing((), 0))
    assert kept.held == sum(entry.held() for entry in kept.entries.values()) <= kept.max_held
    kept.clear()
    assert (kept.entries, kept.held) == ({}, 0)


def test_interrupted_size_vector_walk_goes_on(monkeypatch):
    """An exception inside the size-vector walk, such as an interrupt,
    leaves the vectors kept so far intact: the next search walks on from
    them and spends what a cold one does."""
    kept = oracle._KeptListings(max_held=10**6)
    monkeypatch.setattr(oracle, "_LISTINGS", kept)
    H, bounds = cycle_graph(4), (2,) * 4
    cold = _Budget(10**6)
    want = _best_grid_density(H, bounds, 10, cold)
    kept.clear()
    beaten, calls = oracle._beaten, []

    def interrupted(*args):
        calls.append(args)
        if len(calls) == 4:
            raise KeyboardInterrupt
        return beaten(*args)

    monkeypatch.setattr(oracle, "_beaten", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _best_grid_density(H, bounds, 10, _Budget(10**6))
    warm = _Budget(10**6)
    assert _best_grid_density(H, bounds, 10, warm) == want
    assert warm.left == cold.left


def test_dcrit_reuses_the_listings_of_a_floor_search(monkeypatch):
    """oracle-search and oracle-dcrit walk one enumeration: after a floor
    search with the same floor on every edge, oracle-dcrit lists no size
    vector again and spends what a cold run does."""
    kept = oracle._KeptListings(max_held=10**6)
    monkeypatch.setattr(oracle, "_LISTINGS", kept)
    H, bounds = cycle_graph(4), (2,) * 4
    cold = _Budget(10**6)
    want = _best_grid_density(H, bounds, 10, cold)
    kept.clear()
    cfg = SearchConfig(cluster_size_bounds=bounds, density_floor=[F(99, 100)] * 4)
    assert oracle_search_construction(H, cfg) is None
    listings = []
    monkeypatch.setattr(oracle, "_list_minimal_covers",
                        lambda *a: listings.append(a) or _list_minimal_covers(*a))
    warm = _Budget(10**6)
    assert _best_grid_density(H, bounds, 10, warm) == want
    assert listings == []
    assert warm.left == cold.left
    assert kept.held == sum(entry.held() for entry in kept.entries.values())


def test_progress_and_checkpoint(tmp_path):
    progress = tmp_path / "progress.jsonl"
    checkpoint = tmp_path / "checkpoint.json"
    cfg = SearchConfig(weight_grid_denominator=10, density_floor=[F(13, 20)] * 3)
    found = oracle_search_construction(
        complete_graph(3), cfg,
        progress_path=str(progress), checkpoint_path=str(checkpoint))
    assert found is None
    lines = [json.loads(l) for l in progress.read_text().splitlines()]
    assert lines and all(l["record"] == "oracle-progress" for l in lines)
    assert all(l["verdict"] == "none" for l in lines)
    assert [l["config"] for l in lines] == list(range(len(lines)))
    state = json.loads(checkpoint.read_text())
    assert state["completed"] == len(lines) - 1
    assert state["search"]["floor"] == {"1-2": "13/20", "1-3": "13/20", "2-3": "13/20"}

    # resuming skips every completed configuration
    again = oracle_search_construction(
        complete_graph(3), cfg,
        progress_path=str(progress), checkpoint_path=str(checkpoint))
    assert again is None
    assert len(progress.read_text().splitlines()) == len(lines)


# -- critical density bracketing ----------------------------------------------


def test_dcrit_estimate_brackets():
    lo, hi = oracle_dcrit_estimate(path_graph(3), q=20, tol=F(1, 32))
    assert (lo, hi) == (F(1, 2), F(17, 32))
    lo, hi = oracle_dcrit_estimate(complete_graph(3), q=10, tol=F(1, 16))
    assert (lo, hi) == (F(9, 16), F(5, 8))
    lo, hi = oracle_dcrit_estimate(star_graph(4), q=10, tol=F(1, 16))
    assert (lo, hi) == (F(9, 16), F(5, 8))


def test_dcrit_estimate_c4_fits_a_small_budget():
    # oracle-dcrit descends through floor searches, each with their
    # interval loop and look-ahead, so C4 at q = 30 brackets its critical
    # density 2/3 well within 250,000 node expansions (an unpruned maxmin
    # DFS needed 776,691).
    assert oracle_dcrit_estimate(cycle_graph(4), q=30, budget=250_000) == (
        F(21, 32), F(43, 64))


def test_dcrit_budget_exhaustion_reports_best_density_so_far():
    """An exhausted oracle-dcrit still gives the best grid density it
    reached, a lower end some transversal-free grid configuration meets."""
    H, q = complete_graph(3), 10
    with pytest.raises(BudgetExhausted, match=r"listing minimal covers; "
                       r"no grid density reached yet$"):
        oracle_dcrit_estimate(H, q=q, budget=1)
    reached = []
    for budget in range(1, 5000, 5):
        try:
            _, hi = oracle_dcrit_estimate(H, q=q, budget=budget)
        except BudgetExhausted as exc:
            where = re.search(r"; (?:best grid density so far (\S+)|"
                              r"no grid density reached yet)$", str(exc))
            assert where is not None, str(exc)
            reached.append(None if where[1] is None else F(where[1]))
        else:
            break
    assert reached[0] is None
    values = reached[reached.count(None):]
    assert None not in values and values == sorted(values) and len(set(values)) > 2
    for d in set(values):
        assert d < hi   # the full search's grid optimum lies below hi
        cfg = SearchConfig(weight_grid_denominator=q, density_floor=[d] * 3)
        assert oracle_search_construction(H, cfg) is not None


def test_dcrit_estimate_lower_end_is_achievable():
    # the bracket's left end never exceeds the true critical density
    from critdens.tree_decision import dcrit_tree

    for T in [path_graph(3), star_graph(4)]:
        lo, hi = oracle_dcrit_estimate(T, q=10, tol=F(1, 16))
        assert hi - lo <= F(1, 16)
        assert dcrit_tree(T).compare_density(lo) >= 0


def test_dcrit_estimate_bracket_equals_bisection(monkeypatch):
    """The bracket is the dyadic cell the old bisection over the grid
    optimum ended in."""
    from critdens import oracle

    def bisect(best, tol):
        lo, hi = F(0), F(1)
        while hi - lo > tol:
            mid = (lo + hi) / 2
            if best >= mid:
                lo = mid
            else:
                hi = mid
        return lo, hi

    rng = random.Random(5)
    pairs = [(F(rng.randint(0, 10**4 - 1), 10**4),
              F(rng.randint(1, 300), rng.randint(1, 10**5))) for _ in range(2000)]
    pairs += [(F(1, 2), F(1, 64)), (F(0), F(1, 3)), (F(5, 8), F(1, 8)),
              (F(99, 100), F(2)), (F(1, 3), F(1))]
    for best, tol in pairs:
        monkeypatch.setattr(oracle, "_best_grid_density", lambda *a, b=best: b)
        got = oracle_dcrit_estimate(path_graph(2), q=2, tol=tol)
        assert got == bisect(best, tol), (best, tol)


def test_dcrit_estimate_validation():
    with pytest.raises(ValidationError):
        oracle_dcrit_estimate(path_graph(3), q=10, tol=F(0))
