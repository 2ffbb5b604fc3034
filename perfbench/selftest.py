"""The benchmark's own tests.

    python3 perfbench/selftest.py

Run it from the repository root (it needs ``src/``).  Each checker must
reject a corrupted answer of its kind: a flipped verdict, a witness with
a transversal or a density below the floor, a bracket that misses the
known value.  A tiny run of each workload must emit every metric named
in ``BENCHMARK.json``, and the runner must fail without printing a
result in a directory that holds only the benchmark.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import Query  # noqa: E402

run.import_package()

import checks  # noqa: E402
import pace  # noqa: E402
from critdens import cli  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class CheckerRejectsCorruption(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.dir = run.OUT_DIR / "selftest"
        shutil.rmtree(cls.dir, ignore_errors=True)
        cls.dir.mkdir(parents=True)

    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(cls.dir, ignore_errors=True)

    def ask(self, q: Query) -> tuple[int, list[dict]]:
        run.write_files(self.dir, [q])
        code, out, err, _ = run.run_query(cli, q, self.dir)
        self.assertIn(code, (0, 1), err)
        return code, checks.parse_records(out)

    def verdict(self, q: Query, code: int, recs: list[dict], ctx=None) -> str | None:
        stdout = "\n".join(json.dumps(r) for r in recs)
        return checks.check(q, code, stdout, ctx if ctx is not None else {"dir": self.dir})

    def assert_round_trip(self, q: Query, mutate, ctx=None) -> None:
        """The true answer passes; the mutated one is rejected."""
        code, recs = self.ask(q)
        self.assertIsNone(self.verdict(q, code, recs, ctx))
        bad = copy.deepcopy(recs)
        bad_code = mutate(code, bad)
        self.assertIsNotNone(self.verdict(q, code if bad_code is None else bad_code, bad, ctx))

    @staticmethod
    def flip(yes: str, no: str):
        def mutate(code: int, recs: list[dict]) -> int:
            rec = next(r for r in recs if r["record"] == "verdict")
            rec["verdict"] = no if rec["verdict"] == yes else yes
            rec["exit"] = 1 - rec["exit"]
            return rec["exit"]
        return mutate

    @staticmethod
    def record(recs: list[dict], kind: str) -> dict:
        return next(r for r in recs if r["record"] == kind)

    # -- flipped verdicts -------------------------------------------------

    def test_decide_tree_flipped(self) -> None:
        g = wl.random_tree(30, random.Random(1))
        dcrit = Query(["dcrit-tree", "{dir}/t.g", "--format", "structured"],
                      {"graph": g}, {"t.g": wl.graph_text(g)})
        ctx = {"dir": self.dir}
        code, recs = self.ask(dcrit)
        self.assertIsNone(self.verdict(dcrit, code, recs, ctx))
        for d in ("0.5", "0.95"):
            q = Query(["decide-tree", "{dir}/t.g", "--densities", d, "--format", "structured"],
                      {"graph": g, "density": Fraction(d)})
            self.assert_round_trip(q, self.flip("Ensured", "NotEnsured"), ctx)

    def test_large_decide_tree_flipped(self) -> None:
        g = wl.random_tree(300, random.Random(2))
        for d in ("0.3", "0.99"):
            q = Query(["decide-tree", "{dir}/l.g", "--densities", d, "--format", "structured"],
                      {"graph": g, "density": Fraction(d), "large": True},
                      {"l.g": wl.graph_text(g)})
            self.assert_round_trip(q, self.flip("Ensured", "NotEnsured"))

    def test_star_check_flipped(self) -> None:
        g = wl.complete(4)
        for d in ("0.5", "0.9"):
            q = Query(["star-check", "{dir}/k4.g", "--labeling", "2,1,4,3", "--densities", d,
                       "--format", "structured"],
                      {"graph": g, "labeling": (2, 1, 4, 3), "density": Fraction(d)},
                      {"k4.g": wl.graph_text(g)})
            self.assert_round_trip(q, self.flip("PassesThisLabeling", "FailsThisLabeling"))

    def test_matchpoly_flipped(self) -> None:
        g = wl.cycle(5)
        for d in ("0.5", "0.95"):
            q = Query(["matchpoly", "{dir}/c5.g", "--densities", ",".join([d] * 5),
                       "--format", "structured"],
                      {"graph": g, "densities": [Fraction(d)] * 5}, {"c5.g": wl.graph_text(g)})

            def mutate(code, recs):
                rec = next(r for r in recs if r.get("name") == "positive_on_unit_interval")
                rec["value"] = not rec["value"]
            self.assert_round_trip(q, mutate)

    def test_check_transversal_flipped(self) -> None:
        g = wl.random_tree(7, random.Random(3))
        make = Query(["construct", "{dir}/s.g", "--method", "gacs", "--out", "{dir}/s.json",
                      "--format", "structured"], {"graph": g}, {"s.g": wl.graph_text(g)})
        self.ask(make)
        q = Query(["check-transversal", "{dir}/s.json", "--oracle", "--format", "structured"],
                  {"graph": g, "blowup_file": "s.json"})
        self.assert_round_trip(q, self.flip("TransversalFound", "NoTransversal"))

    def test_oracle_search_flipped(self) -> None:
        for floor in ("0.3", "0.8"):
            q = self.search(floor)
            self.assert_round_trip(q, self.flip("Found", "NoneFound"))

    # -- corrupted witnesses ----------------------------------------------

    def search(self, floor: str) -> Query:
        g = wl.cycle(4)
        return Query(["oracle-search", "{dir}/c4.g", "--floor", floor, "--q", "10",
                      "--format", "structured"],
                     {"graph": g, "floor": Fraction(floor), "q": 10},
                     {"c4.g": wl.graph_text(g)})

    @staticmethod
    def complete_cross_edges(blowup: dict) -> None:
        sizes = [len(c) for c in blowup["clusters"]]
        blowup["cross_edges"] = [[i, a, j, b] for i, j in blowup["pattern"]["edges"]
                                 for a in range(sizes[i - 1]) for b in range(sizes[j - 1])]

    def test_oracle_witness_with_transversal(self) -> None:
        def mutate(code, recs):
            self.complete_cross_edges(self.record(recs, "construction")["blowup"])
        self.assert_round_trip(self.search("0.3"), mutate)

    def test_oracle_witness_below_floor(self) -> None:
        def mutate(code, recs):
            blowup = self.record(recs, "construction")["blowup"]
            i, j = blowup["pattern"]["edges"][0]
            blowup["cross_edges"] = [e for e in blowup["cross_edges"]
                                     if (e[0], e[2]) != (i, j)]
        self.assert_round_trip(self.search("0.3"), mutate)

    def test_gacs_witness_with_transversal(self) -> None:
        g = wl.random_tree(8, random.Random(4))
        q = Query(["construct", "{dir}/g.g", "--method", "gacs", "--format", "structured"],
                  {"graph": g}, {"g.g": wl.graph_text(g)})

        def mutate(code, recs):
            self.complete_cross_edges(self.record(recs, "construction")["blowup"])
        self.assert_round_trip(q, mutate)

    # -- brackets that miss -------------------------------------------------

    @staticmethod
    def shift(rec: dict, by: Fraction) -> None:
        lo, hi = checks._interval(rec)
        rec["exact"] = None
        rec["lo"], rec["hi"] = str(lo + by), str(hi + by)

    def test_oracle_dcrit_bracket_misses(self) -> None:
        for name, g in (("K3", wl.complete(3)), ("P4", wl.path(4)), ("S4", wl.star(4))):
            q = Query(["oracle-dcrit", "{dir}/d.g", "--q", "50", "--format", "structured"],
                      {"graph": g, "name": name}, {"d.g": wl.graph_text(g)})
            self.assert_round_trip(
                q, lambda code, recs: self.shift(self.record(recs, "interval"), Fraction(1, 16)))

    def test_dcrit_tree_bracket_misses(self) -> None:
        g = wl.random_tree(25, random.Random(5))
        q = Query(["dcrit-tree", "{dir}/t.g", "--format", "structured"],
                  {"graph": g}, {"t.g": wl.graph_text(g)})
        for by in (Fraction(1, 10**4), Fraction(-1, 10**4)):
            self.assert_round_trip(
                q, lambda code, recs: self.shift(self.record(recs, "value"), by), {})

    def test_star_bound_misses(self) -> None:
        g = wl.complete(4)
        q = Query(["star-bound", "{dir}/k4.g", "--dedupe", "--format", "structured"],
                  {"graph": g}, {"k4.g": wl.graph_text(g)})
        for by in (Fraction(1, 10**4), Fraction(-1, 10**4)):
            self.assert_round_trip(
                q, lambda code, recs: self.shift(self.record(recs, "value"), by))

    def test_bounds_misses(self) -> None:
        g = wl.random_connected(5, 7, random.Random(6))
        q = Query(["bounds", "{dir}/h.g", "--format", "structured"],
                  {"graph": g}, {"h.g": wl.graph_text(g)})

        def mutate(code, recs):
            rec = next(r for r in recs if r.get("name") == "upper_matching_root")
            self.shift(rec, Fraction(-1, 10**4))
        self.assert_round_trip(q, mutate)


class TinyRunEmitsEveryMetric(unittest.TestCase):
    def test_metric_names(self) -> None:
        end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in wl.WORKLOADS:
            with self.subTest(workload=workload):
                plain = run.measure(workload, 1, 0, False, tiny=True, min_replays=1, max_replays=1)
                self.assertEqual(plain.failed, 0)
                e2e = run.end_to_end(plain)
                self.assertEqual(set(e2e), set(end_to_end))
                self.assertEqual({k: run.END_TO_END_UNITS[k] for k in e2e}, end_to_end)
                traced = run.measure(workload, 1, 0, True, tiny=True, min_replays=1, max_replays=1)
                self.assertEqual(traced.failed, 0)
                layers = run.per_layer(traced)
                self.assertEqual({k: u for k, (_, u) in layers.items()}, per_layer)


class ReferencePace(unittest.TestCase):
    def test_slow_stretch_scales_out(self) -> None:
        # The host runs at half speed for the last ten queries: the query
        # and the chunks next to it take twice as long.
        ref = pace.REFERENCE_S
        seconds = [0.01] * 30 + [0.02] * 10
        between = [[ref] * 3] * 30 + [[2 * ref] * 3] * 10
        paced = pace.at_reference_pace(seconds, between, [[]] * 40)
        for s in paced[:20] + paced[-5:]:
            self.assertAlmostEqual(s, 0.01)

    def test_long_query_paced_from_inside(self) -> None:
        ref = pace.REFERENCE_S
        inside = [[], [2 * ref] * pace.MIN_INSIDE, []]
        paced = pace.at_reference_pace([0.01, 2.0, 0.01], [[ref]] * 3, inside)
        self.assertAlmostEqual(paced[1], 1.0)

    def test_program_change_shows(self) -> None:
        ref = pace.REFERENCE_S
        paced = pace.at_reference_pace([0.01, 0.03, 0.01], [[ref]] * 3, [[]] * 3)
        self.assertEqual([round(s, 9) for s in paced], [0.01, 0.03, 0.01])

    def test_pacer_times_chunks_inside_a_query(self) -> None:
        with pace.Pacer() as pacer:
            pacer.start()
            end = perf_counter() + 10 * pace.TICK_S
            while perf_counter() < end:
                pass
            handler_s = pacer.stop()
        self.assertGreaterEqual(len(pacer.inside[0]), pace.MIN_INSIDE)
        self.assertGreater(handler_s, 0)


class RefusesWithoutTheProgram(unittest.TestCase):
    def test_benchmark_only_directory(self) -> None:
        bare = run.OUT_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                ["python3", f"{HERE.name}/run.py", "--workload", "oracle", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
