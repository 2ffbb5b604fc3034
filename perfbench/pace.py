"""The host's pace, read from a fixed piece of pure-Python work.

On a shared host the same code runs up to ~1.8x slower for stretches of
seconds to minutes, for every kind of work alike.  A run therefore times
a fixed reference chunk next to every query and scales each measured
time to the pace at which the chunk takes ``REFERENCE_S``: seconds at
reference pace.  When the host runs slower, the query and the chunks
next to it slow down together and the scaled time stays put.  The chunk
runs only the interpreter, never the program, so no change to the
program moves it; each run's record keeps the unscaled times as well.

Chunks are timed in two places.  ``BETWEEN`` chunks run after every
query; a query is paced by those within ``WINDOW`` queries of it.  A
long query would leave the pace during it unknown, so while a query runs
a timer signal also times one chunk every ``TICK_S``; a query that
holds at least ``MIN_INSIDE`` of them is paced by those alone, and the
time the signal handler took is taken off the query's time.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

CHUNK_ITERATIONS = 1_000
# The chunk's time at the fast pace of the 2-core machine the benchmark
# was built on, so that scaled times read close to its seconds.
REFERENCE_S = 0.00006
BETWEEN = 20          # chunks timed after each query
WINDOW = 10           # queries on each side whose chunks pace a short query
TICK_S = 0.005        # a chunk is timed this often while a query runs
MIN_INSIDE = 3        # chunks inside a query that are enough to pace it


def reference_chunk() -> float:
    """Seconds to run the reference chunk once."""
    start = perf_counter()
    total = 0
    for i in range(CHUNK_ITERATIONS):
        total += i * i % 7
    return perf_counter() - start


def scale(chunks: list[float]) -> float:
    """Factor that takes times measured next to ``chunks`` to reference pace."""
    return REFERENCE_S / statistics.median(chunks)


def chunks_between() -> list[float]:
    return [reference_chunk() for _ in range(BETWEEN)]


class Pacer:
    """Times a chunk every ``TICK_S`` while a query runs.  Use as a
    context manager around a series of queries, and call ``start`` and
    ``stop`` around each."""

    def __init__(self) -> None:
        self.inside: list[list[float]] = []    # per query, chunks timed in it
        self._current: list[float] | None = None
        self._handler_s = 0.0

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        chunk = reference_chunk()
        if self._current is not None:
            self._current.append(chunk)
            self._handler_s += perf_counter() - start

    def __enter__(self) -> Pacer:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> None:
        self._current, self._handler_s = [], 0.0

    def stop(self) -> float:
        """End the query; return the seconds the signal handler took in it."""
        self.inside.append(self._current)
        self._current = None
        return self._handler_s


def at_reference_pace(seconds: list[float], between: list[list[float]],
                      inside: list[list[float]]) -> list[float]:
    """Scale each query's time: by the chunks timed inside it when there
    are ``MIN_INSIDE`` of them, else by the chunks timed after the
    queries within ``WINDOW`` places of it."""
    paced = []
    for i, s in enumerate(seconds):
        chunks = inside[i]
        if len(chunks) < MIN_INSIDE:
            chunks = [c for near in between[max(0, i - WINDOW):i + WINDOW + 1] for c in near]
        paced.append(s * scale(chunks))
    return paced
