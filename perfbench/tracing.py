"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` wraps each function in ``TRACED`` at every binding of
it: the package imports with ``from .x import y``, so a caller such as
``stars`` holds its own reference to ``polynomials.sturm_chain``, and
patching only the defining module would miss it.  Methods are wrapped on
their class.  Spans (name, start, end, parent span, query id) are kept
in memory; self time is a span's duration minus its direct children's.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

TRACED = {
    "graphs": ("parse_graph", "proper_labelings"),
    "polynomials": ("matching_weight_sums", "largest_real_root", "sturm_chain",
                    "positive_on_unit_interval", "AlgebraicNumber.compare",
                    "AlgebraicNumber.refine"),
    "tree_decision": ("decide_tree", "dcrit_tree", "edge_assignment",
                      "CriticalDensity.interval"),
    "stars": ("star_lower_bound", "monotone_path_tree", "tree_shape_key",
              "star_necessary_condition"),
    "bounds": ("compute_bounds",),
    "blowup": ("WeightedBlowupGraph.find_transversal",
               "WeightedBlowupGraph.densities", "gacs_tree_construction"),
    "oracle": ("oracle_search_construction", "oracle_dcrit_estimate",
               "oracle_find_transversal"),
    "cli": ("run",),
}


class Tracer:
    def __init__(self) -> None:
        self.names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
        self.modules = [mod for mod, fns in TRACED.items() for _ in fns]
        # (name index, start, end, parent span, query id, is a call)
        self.spans: list[tuple | None] = []
        self.stack: list[tuple[int, int]] = []     # (span id, name index)
        self.query = -1
        self.counts: Counter[str] = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, idx: int) -> tuple[int, int]:
        parent = self.stack[-1][0] if self.stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append((sid, idx))
        return sid, parent

    def _close(self, sid: int, idx: int, parent: int, start: float,
               is_call: bool) -> None:
        end = perf_counter()
        self.stack.pop()
        self.spans[sid] = (idx, start, end, parent, self.query, is_call)

    def _raised(self, idx: int) -> None:
        """Count an exception once, where it leaves the module."""
        module = self.modules[idx]
        if not self.stack or self.modules[self.stack[-1][1]] != module:
            self.counts[f"{module}.raised"] += 1

    def _wrap(self, idx: int, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._open(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid, idx, parent, start, True)
                tracer._raised(idx)
                raise
            tracer._close(sid, idx, parent, start, True)
            return on_result(result) if on_result is not None else result

        return traced

    def _items(self, idx: int, it):
        """Re-yield a generator's items, timing each step as a span of the
        function that made it (not counted as a call)."""
        name = self.names[idx]
        while True:
            sid, parent = self._open(idx)
            start = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                self._close(sid, idx, parent, start, False)
                return
            except BaseException:
                self._close(sid, idx, parent, start, False)
                self._raised(idx)
                raise
            self._close(sid, idx, parent, start, False)
            self.counts[f"{name}.items"] += 1
            yield item

    # -- result hooks --------------------------------------------------------

    def _hooks(self) -> dict:
        counts = self.counts

        def compare(result):
            counts["polynomials.AlgebraicNumber.compare.equal"] += result == 0
            return result

        def star_bound(result):
            counts["stars.star_lower_bound.labelings"] += result.labelings_examined
            counts["stars.star_lower_bound.shapes"] += len(result.shape_table)
            return result

        def search(result):
            counts["oracle.oracle_search_construction.returned"] += 1
            counts["oracle.oracle_search_construction.found"] += result is not None
            return result

        labelings = self.names.index("graphs.proper_labelings")
        return {
            "graphs.proper_labelings": lambda it: self._items(labelings, it),
            "polynomials.AlgebraicNumber.compare": compare,
            "stars.star_lower_bound": star_bound,
            "oracle.oracle_search_construction": search,
        }

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        import critdens

        package_modules = [m for name, m in sorted(sys.modules.items())
                           if m is not None and (name == "critdens"
                                                 or name.startswith("critdens."))]
        hooks = self._hooks()
        for idx, name in enumerate(self.names):
            module, _, qual = name.partition(".")
            owner = getattr(critdens, module)
            cls_name, _, attr = qual.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(idx, original, hooks.get(name)))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(idx, original, hooks.get(name))
            for m in package_modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def merge(self, spans: list[tuple], counts: Counter) -> None:
        """Add the spans and counts another tracer recorded."""
        offset = len(self.spans)
        self.spans.extend((idx, start, end, parent + offset if parent >= 0 else -1,
                           query, is_call)
                          for idx, start, end, parent, query, is_call in spans)
        self.counts.update(counts)

    # -- results -------------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Per function: calls and self seconds, from the span nesting."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            idx, start, end, parent, _, _ = span
            if parent >= 0:
                child[parent] += end - start
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for sid, (idx, start, end, _, _, is_call) in enumerate(self.spans):
            self_s[self.names[idx]] += end - start - child[sid]
            calls[self.names[idx]] += is_call
        return calls, self_s

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as (value, unit), over one pass of the
        query list."""
        calls, self_s = self.self_times()
        c = self.counts
        out: dict[str, tuple[float, str]] = {}
        for name in self.names:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        out["graphs.proper_labelings.items"] = (
            c["graphs.proper_labelings.items"], "count")
        out["polynomials.AlgebraicNumber.compare.equal_frac"] = (_ratio(
            c["polynomials.AlgebraicNumber.compare.equal"],
            calls["polynomials.AlgebraicNumber.compare"]), "ratio")
        labelings = c["stars.star_lower_bound.labelings"]
        out["stars.star_lower_bound.labelings"] = (labelings, "count")
        out["stars.star_lower_bound.shape_reuse_frac"] = (
            1 - _ratio(c["stars.star_lower_bound.shapes"], labelings)
            if labelings else 0.0, "ratio")
        out["oracle.oracle_search_construction.found_frac"] = (_ratio(
            c["oracle.oracle_search_construction.found"],
            c["oracle.oracle_search_construction.returned"]), "ratio")
        for module in TRACED:
            out[f"{module}.raised"] = (c[f"{module}.raised"], "count")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tquery\tcall\n")
            for idx, start, end, parent, query, is_call in self.spans:
                fh.write(f"{self.names[idx]}\t{start:.9f}\t{end:.9f}\t"
                         f"{parent}\t{query}\t{int(is_call)}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
