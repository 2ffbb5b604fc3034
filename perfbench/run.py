"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload spectral|trees|oracle --seed N \
        --seconds S --trace 0|1

Run it from the repository root.  It imports ``critdens`` from ``src/``
and drives the command line in-process through
``critdens.cli.run(argv, out=buffer)`` with ``--format structured``: one
client, one thread, each query sent when the previous one has answered
(a closed loop).  The seed gives the run's query list and input files
(see ``workloads.py``), written under ``.bench_out/``.

The process sets up once, then answers the whole list again and again,
each pass (a replay) in a forked copy of the set-up process, until
``--seconds`` have passed (at least three replays).  Every replay starts
from the same program state, so a cache inside the program works across
the list exactly as in a single pass and never carries over from one
replay to the next.  On a shared host the same code runs slower for
stretches of seconds to minutes, so every time is scaled to a fixed
reference pace read from a chunk of plain Python timed next to it (see
``pace.py``), and a query's latency is the median of its replays.
Set-up is timed several times,
spread over the run, in forked copies of the process taken before it
imported the package; ``setup_s`` is their median.  The run's record
keeps the unscaled times and metrics as well.

Every answer is checked (``checks.py``) outside the timed region, and
replays must agree with each other.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, and the
per-layer metrics with ``--trace 1``, where untraced and traced replays
alternate (see ``tracing.py``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from multiprocessing import Pipe
from pathlib import Path
from time import perf_counter

from pace import Pacer, at_reference_pace, chunks_between
from tracing import Tracer
from workloads import WORKLOADS, Query, build_queries, build_warmup

ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"
MIN_REPLAYS = 3
MAX_REPLAYS = 12

END_TO_END_UNITS = {
    "wall_s": "s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "verdict_p50_s": "s",
    "value_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


@dataclass
class Answer:
    query: Query
    code: int | None
    stdout: str
    stderr: str
    times: list[float]             # each untraced replay, at reference pace
    raw_times: list[float]         # the same, as measured
    traced_times: list[float] = field(default_factory=list)   # at reference pace
    error: str | None = None       # why the answer failed, None when right

    @property
    def seconds(self) -> float:
        """The query's latency: the median of its untraced replays."""
        return statistics.median(self.times)


@dataclass
class Measurement:
    answers: list[Answer]
    setup_times: list[float]       # at reference pace
    raw_setup_times: list[float]
    peak_rss_mib: float
    tracer: Tracer | None
    check_s: float

    @property
    def replays(self) -> int:
        return len(self.answers[0].times)

    @property
    def failed(self) -> int:
        return sum(a.error is not None for a in self.answers)

    def wall_s(self, traced: bool = False) -> float:
        """Seconds to answer the whole query list."""
        return sum(statistics.median(a.traced_times) if traced else a.seconds
                   for a in self.answers)

    def raw(self) -> Measurement:
        """The same run with every time as measured."""
        answers = [Answer(a.query, a.code, a.stdout, a.stderr, a.raw_times, a.raw_times)
                   for a in self.answers]
        return Measurement(answers, self.raw_setup_times, self.raw_setup_times,
                           self.peak_rss_mib, None, self.check_s)


def import_package() -> None:
    """Make critdens importable from the checkout's src/ and import it."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import critdens.cli  # noqa: F401


def write_files(directory: Path, queries: list[Query]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for q in queries:
        for name, text in q.files.items():
            (directory / name).write_text(text + "\n")


def run_query(cli, q: Query, directory: Path, pacer: Pacer | None = None
              ) -> tuple[int | None, str, str, float]:
    """Answer one query; its exit code, output, errors and seconds (less
    the pacer's time inside it)."""
    argv = [a.replace("{dir}", str(directory)) for a in q.argv]
    out, err = io.StringIO(), io.StringIO()
    caught = None
    if pacer is not None:
        pacer.start()
    start = perf_counter()
    try:
        with redirect_stderr(err):
            code = cli.run(argv, out=out)
    except SystemExit as exc:          # argparse rejected the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:           # a crash is a failed query, not a crashed run
        code, caught = None, exc
    seconds = perf_counter() - start
    if pacer is not None:
        seconds -= pacer.stop()
    if caught is not None:
        err.write("".join(traceback.format_exception(caught)))
    return code, out.getvalue(), err.getvalue(), seconds


def in_child(fn):
    """Call ``fn()`` in a forked copy of this process and return its result.

    The copy starts from this process's state and its changes end with
    it, so every call sees the program as this process holds it.  The
    benchmark starts no thread before its last fork (sympy is imported
    by the checks, after it), so forking is safe.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:                       # the copy: never returns
        os.close(read_fd)
        try:
            try:
                payload = pickle.dumps((True, fn()))
            except Exception:
                payload = pickle.dumps((False, traceback.format_exc()))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            payload = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"forked copy ended with status {status} and no result")
    ok, value = pickle.loads(payload)
    if not ok:
        raise RuntimeError(f"forked copy raised:\n{value}")
    return value


class Sampler:
    """A forked copy of this process, kept as it is now, that answers each
    request with ``in_child(fn)``: the same work timed from the same
    state at any later point of the run."""

    def __init__(self, fn) -> None:
        self.conn, theirs = Pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        self.pid = os.fork()
        if self.pid == 0:              # the copy: never returns
            self.conn.close()
            try:
                while theirs.recv():
                    try:
                        theirs.send((True, in_child(fn)))
                    except Exception:
                        theirs.send((False, traceback.format_exc()))
            except (EOFError, OSError):
                pass                   # the run is over
            finally:
                os._exit(0)
        theirs.close()

    def sample(self):
        self.conn.send(True)
        ok, value = self.conn.recv()
        if not ok:
            raise RuntimeError(f"sample raised:\n{value}")
        return value

    def close(self) -> None:
        if self.conn.closed:
            return
        try:
            self.conn.send(False)
        except OSError:
            pass
        self.conn.close()
        os.waitpid(self.pid, 0)


def set_up(workload: str, seed: int, workdir: Path, tiny: bool) -> list[Query]:
    """Import the package, make the query list and the warm-up, write their
    files and answer the warm-up queries; return the query list."""
    import_package()
    from critdens import cli

    queries = build_queries(workload, seed, tiny)
    write_files(workdir / "list", queries)
    warmup = build_warmup(workload, seed)
    write_files(workdir / "warmup", warmup)
    for q in warmup:
        code, _, err, _ = run_query(cli, q, workdir / "warmup")
        if code not in (0, 1):
            raise RuntimeError(f"warm-up query {q.argv} exited {code}: {err}")
    return queries


def timed_set_up(workload: str, seed: int, workdir: Path, tiny: bool
                 ) -> tuple[float, float, list[Query]]:
    """Set up; return the seconds it took, the factor to reference pace
    (from reference chunks timed just before and after) and the list."""
    shutil.rmtree(workdir, ignore_errors=True)
    before = chunks_between()
    with Pacer() as pacer:
        pacer.start()
        start = perf_counter()
        queries = set_up(workload, seed, workdir, tiny)
        seconds = perf_counter() - start - pacer.stop()
    factor = at_reference_pace([1.0], [before + chunks_between()], pacer.inside)[0]
    return seconds, factor, queries


def replay(queries: list[Query], directory: Path, traced: bool):
    """Answer the queries in order, timing reference chunks in and after
    each (see ``pace.py``); with ``traced`` under a fresh tracer.  Returns
    each query's (code, stdout, stderr, seconds), the chunks timed after
    and inside each query, and the tracer's spans and counts."""
    from critdens import cli

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    results, between = [], []
    try:
        with Pacer() as pacer:
            for i, q in enumerate(queries):
                if tracer is not None:
                    tracer.query = i
                results.append(run_query(cli, q, directory, pacer))
                between.append(chunks_between())
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = (tracer.spans, tracer.counts) if tracer is not None else None
    return results, between, pacer.inside, record


def _comparable(stdout: str) -> list:
    """An answer's records without their timing fields, to compare replays."""
    records = []
    for line in stdout.splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            rec = line
        if isinstance(rec, dict):
            rec.pop("seconds", None)
        records.append(rec)
    return records


def measure(workload: str, seed: int, seconds: float, traced: bool,
            tiny: bool = False, min_replays: int = MIN_REPLAYS,
            max_replays: int = MAX_REPLAYS) -> Measurement:
    """Set up, replay the query list until ``seconds`` have passed, then
    check every answer.  A traced run alternates untraced and traced
    replays; the per-layer metrics come from its first traced replay.
    After each replay one more set-up is timed."""
    workdir = OUT_DIR / f"work-{workload}-{seed}-{os.getpid()}"
    sampler = Sampler(lambda: timed_set_up(workload, seed, workdir / "sample", tiny)[:2])
    try:
        secs, factor, queries = timed_set_up(workload, seed, workdir / "run", tiny)
        setups = [(secs, factor)]
        directory = workdir / "run" / "list"
        gc.collect()
        gc.freeze()        # keeps the forked copies from touching every page

        plain, with_trace = [], []
        start = perf_counter()
        while True:
            replay_start = perf_counter()
            plain.append(in_child(lambda: replay(queries, directory, False)))
            if traced:
                with_trace.append(in_child(lambda: replay(queries, directory, True)))
            setups.append(sampler.sample())
            elapsed = perf_counter() - start
            if len(plain) >= max_replays or (
                    len(plain) >= min_replays
                    and elapsed + perf_counter() - replay_start > seconds):
                break
        usage = [resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        gc.unfreeze()

        def paced(results, between, inside, _):
            return at_reference_pace([r[3] for r in results], between, inside)

        plain_paced = [paced(*p) for p in plain]
        traced_paced = [paced(*t) for t in with_trace]
        answers = []
        for i, q in enumerate(queries):
            untraced = [p[0][i] for p in plain]
            others = untraced[1:] + [t[0][i] for t in with_trace]
            code, out, err, _ = untraced[0]
            a = Answer(q, code, out, err, [p[i] for p in plain_paced],
                       [u[3] for u in untraced], [t[i] for t in traced_paced])
            if any((o[0], _comparable(o[1])) != (code, _comparable(out)) for o in others):
                a.error = "replays of the query gave different answers"
            answers.append(a)
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.merge(*with_trace[0][3])
        check_start = perf_counter()
        check_answers(answers, directory)
        check_s = perf_counter() - check_start
    finally:
        sampler.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return Measurement(answers, [s * f for s, f in setups], [s for s, _ in setups],
                       max(usage) / 1024, tracer, check_s)


def check_answers(answers: list[Answer], directory: Path) -> None:
    from checks import CHECK_ORDER, check

    ctx = {"dir": directory}
    for a in sorted(answers, key=lambda a: CHECK_ORDER.get(a.query.command, 1)):
        a.error = a.error or check(a.query, a.code, a.stdout, ctx)


def end_to_end(m: Measurement) -> dict[str, float]:
    times = [a.seconds for a in m.answers]
    kind = {"verdict": [], "value": []}
    for a in m.answers:
        kind[a.query.kind].append(a.seconds)
    return {
        "wall_s": m.wall_s(),
        "query_p50_s": statistics.median(times),
        "query_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
        "verdict_p50_s": statistics.median(kind["verdict"]),
        "value_p50_s": statistics.median(kind["value"]),
        "setup_s": statistics.median(m.setup_times),
        "peak_rss_mib": m.peak_rss_mib,
    }


def per_layer(m: Measurement) -> dict[str, tuple[float, str]]:
    metrics = m.tracer.per_layer()
    metrics["trace.overhead_frac"] = (m.wall_s(traced=True) / m.wall_s() - 1, "ratio")
    return metrics


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read without running git;
    None when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "critdens").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def result_path(workload: str, seed: int, trace: int) -> Path:
    return OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "critdens" / "cli.py").is_file():
        print("error: src/critdens not found; run from the repository root",
              file=sys.stderr)
        return 2
    m = measure(args.workload, args.seed, args.seconds, traced=bool(args.trace))
    failed = m.failed
    correct = failed == 0
    if args.trace:
        metrics = per_layer(m)
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(m).items()}

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "provenance": provenance(args),
        "correct": correct,
        "attempted": len(m.answers),
        "failed": failed,
        "failed_frac": failed / len(m.answers),
        "replays": m.replays,
        "setup_times_s": m.setup_times,
        "raw_setup_times_s": m.raw_setup_times,
        "raw_metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in end_to_end(m.raw()).items()},
        "check_s": m.check_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": [{"argv": a.query.argv, "exit": a.code, "error": a.error,
                      "stderr": a.stderr[-2000:]}
                     for a in m.answers if a.error is not None],
        "queries": [[a.query.command, a.code, a.times, a.raw_times, a.traced_times]
                    for a in m.answers],
    }
    result_path(args.workload, args.seed, args.trace).write_text(
        json.dumps(record, indent=1) + "\n")
    if m.tracer is not None:
        m.tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv")

    prov = record["provenance"]
    print(f"critdens benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} git={prov['git_sha']} "
          f"python={prov['python']} nproc={prov['nproc']}")
    print(f"replays={m.replays} attempted={len(m.answers)} failed={failed} "
          f"failed_frac={record['failed_frac']:.4f}")
    for a in m.answers:
        if a.error is not None:
            print(f"FAILED {' '.join(a.query.argv)}: {a.error}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:14.6f} {unit}")
    print(json.dumps({"correct": correct, "attempted": len(m.answers), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
