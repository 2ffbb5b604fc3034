"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/suite.py [--workloads spectral,trees,oracle]
        [--seeds 1-10] [--seconds N] [--trace] [--out FILE]

Run it from the repository root.  Each run is one
``perfbench/run.py`` process, one after another.  For every workload
and end-to-end metric it prints the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, next to the metric's bound in ``BENCHMARK.json`` and the
spread the same runs show unscaled (see ``pace.py``); with
``--trace`` it adds one traced run per workload and prints the
per-layer metrics.  ``--out`` writes every run and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith("FAILED"):
            print("   ", line)
    result = json.loads(lines[-1])
    record = ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    saved = json.loads(record.read_text())
    result["provenance"] = saved["provenance"]
    result["raw_metrics"] = saved.get("raw_metrics", {})
    result["elapsed_s"] = elapsed
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seeds_from(args.seeds)

    report = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            r = run_once(workload, seed, args.seconds, 0)
            print(f"{workload} seed={seed} attempted={r['attempted']} failed={r['failed']} "
                  f"elapsed={r['elapsed_s']:.1f}s", flush=True)
            runs.append(r)
        entry = {"runs": runs, "summary": {}}
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry["failed_frac"] = failed / attempted
        print(f"== {workload}: {len(runs)} runs, failed_frac={failed}/{attempted}")
        print(f"   {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6} {'unit':<4} {'raw spread':>10}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med, q1, q3, s = spread(values)
            raw = spread([r["raw_metrics"][name]["value"] for r in runs])[3]
            entry["summary"][name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                                      "spread": s, "bound": bounds.get(name),
                                      "raw_spread": raw}
            print(f"   {name:<16} {med:12.6f} {q1:12.6f} {q3:12.6f} {s:8.4f} "
                  f"{bounds.get(name, 0):6.2f} {unit:<4} {raw:10.4f}")
        if args.trace:
            t = run_once(workload, seeds[0], args.seconds, 1)
            entry["traced"] = t
            print(f"   traced run, seed {seeds[0]}:")
            for name, m in t["metrics"].items():
                print(f"   {name:<56} {m['value']:14.6f} {m['unit']}")
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
