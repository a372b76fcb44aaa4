"""Spans recorded around calls into srexpr, and the arithmetic over them.

A span is a list `[id, parent, name, start, end, busy]`.  For an ordinary
call `busy` is `end - start`; a function that recurses through its own
wrapper (`to_json`, the lru-cached count recurrences) gets one span for the
outermost call.  For a generator (path enumeration, the
distributive expansion) the span runs from the call to exhaustion, but only
the time spent inside the generator's own `next` calls counts as busy: the
consumer's work between items belongs to the caller.  A span's self time is
its busy time minus the busy time of its child spans.

`Tracer.install` replaces the srexpr functions named in `TARGETS` with
recording wrappers, in every srexpr module namespace that binds them, so
calls between modules (`srexpr.oracle.evaluate`, `srexpr.cli.check_exact`,
...) are seen from outside the program.  Only a traced job calls it; this
module imports nothing from srexpr at import time, so the runner can use the
arithmetic without loading the package.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

ID, PARENT, NAME, START, END, BUSY = range(6)

# (module, attribute, span name, kind).  Kind "call" is a plain call, "gen" a
# generator whose items are counted, "root" a call returning an expression
# whose DAG size is measured after the job.
TARGETS = (
    ("srexpr.cli", "main", "cli.main", "call"),
    ("srexpr.graph", "build_sr", "graph.build_sr", "call"),
    ("srexpr.graph", "induced_subgraph", "graph.induced_subgraph", "call"),
    ("srexpr.graph", "path_count", "graph.path_count", "call"),
    ("srexpr.graph", "_iter_path_labels", "graph.enumerate", "gen"),
    ("srexpr.vda", "generate", "vda.generate", "root"),
    ("srexpr.vda", "expression", "vda.expression", "root"),
    ("srexpr.expr", "evaluate", "expr.evaluate", "call"),
    ("srexpr.expr", "literal_count", "expr.literal_count", "call"),
    ("srexpr.expr", "expansion_size", "expr.expansion_size", "call"),
    ("srexpr.expr", "iter_expansion", "expr.iter_expansion", "gen"),
    ("srexpr.expr", "to_text", "expr.to_text", "call"),
    ("srexpr.expr", "to_json", "expr.to_json", "call"),
    ("srexpr.oracle", "check_exact", "oracle.check_exact", "call"),
    ("srexpr.oracle", "check_fingerprint", "oracle.check_fingerprint", "call"),
    ("srexpr.oracle", "dp_eval", "oracle.dp_eval", "call"),
    ("srexpr.complexity", "generated_counts", "complexity.generated_counts", "call"),
    ("srexpr.complexity", "sr_count", "complexity.sr_count", "call"),
    ("srexpr.complexity", "single_leaf_count", "complexity.single_leaf_count", "call"),
    ("srexpr.complexity", "dipterous_count", "complexity.dipterous_count", "call"),
    ("srexpr.complexity", "closed_form", "complexity.closed_form", "call"),
)

# Items a generator span yields are counted under these names.
ITEM_COUNTS = {"graph.enumerate": "graph.paths_enumerated", "expr.iter_expansion": "expr.monomials"}


class Tracer:
    """Collects spans and counts for one job, in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._roots: dict[int, object] = {}

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name, 0.0, 0.0, 0.0]
        self.spans.append(rec)
        return rec

    def record(self, name: str, fn, *args, **kwargs):
        """Call `fn` inside a span called `name` and return its result."""
        rec = self._open(name)
        self._stack.append(rec[ID])
        rec[START] = start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = end = perf_counter()
            rec[BUSY] = end - start
            self._stack.pop()

    def wrap(self, name: str, fn, kind: str = "call"):
        if kind == "gen":
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][NAME] == name:
                return fn(*args, **kwargs)  # a recursive call: its outermost span covers it
            result = self.record(name, fn, *args, **kwargs)
            if kind == "root":
                self._roots[id(result)] = result
            elif name == "expr.to_text":
                self.counts["expr.text_bytes"] += len(result)
            elif name == "oracle.check_fingerprint" and result.witness is not None:
                self.counts["oracle.detections"] += 1
                self.counts["oracle.trials_to_detect"] += result.witness["trial"] + 1
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        counts, stack = self.counts, self._stack
        item_count = ITEM_COUNTS[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            rec[START] = rec[END] = perf_counter()
            inner = fn(*args, **kwargs)

            def resume():
                items = 0
                try:
                    while True:
                        stack.append(rec[ID])
                        t0 = perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            rec[END] = t1 = perf_counter()
                            rec[BUSY] += t1 - t0
                            stack.pop()
                        items += 1
                        yield item
                finally:
                    counts[item_count] += items

            return resume()

        return traced

    def install(self) -> None:
        """Wrap every function in TARGETS wherever an srexpr module binds it."""
        import importlib

        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "srexpr"]
        for module_name, attr, name, kind in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, original, kind)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def measure_roots(self) -> None:
        """Count distinct DAG nodes and tree literals of every generated root.

        Runs after the job, outside every span, on the expressions the vda
        wrappers saw returned.
        """
        literals: dict[int, int] = {}  # tree literals under each distinct node
        for root in self._roots.values():
            stack = [root]
            while stack:
                top = stack[-1]
                if id(top) in literals:
                    stack.pop()
                    continue
                children = getattr(top, "children", None)
                if children is None:
                    literals[id(top)] = 1 if hasattr(top, "label") else 0
                    stack.pop()
                    continue
                pending = [c for c in children if id(c) not in literals]
                if pending:
                    stack.extend(pending)
                    continue
                literals[id(top)] = sum(literals[id(c)] for c in children)
                stack.pop()
            self.counts["expr.tree_literals"] += literals[id(root)]
        self.counts["expr.dag_nodes"] += len(literals)
        self._roots.clear()


class TimingSink:
    """Stands in for stdout in a traced job: times each write and digests it."""

    def __init__(self, tracer: Tracer, scanner) -> None:
        self._tracer = tracer
        self._scanner = scanner

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self._tracer.record("cli.write", self._scanner.feed, data)
        self._tracer.counts["cli.stdout_bytes"] += len(data)
        return len(text)

    def flush(self) -> None:
        pass


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its busy time minus its children's."""
    covered: Counter = Counter()
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[BUSY]
    return {span[ID]: span[BUSY] - covered[span[ID]] for span in spans}


def layer_totals(spans) -> dict[str, dict]:
    """Per span name: calls, busy seconds and self seconds."""
    own = self_times(spans)
    totals: dict[str, dict] = {}
    for span in spans:
        entry = totals.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += span[BUSY]
        entry["self_s"] += own[span[ID]]
    return totals


def covered_time(spans) -> float:
    """Time covered by top-level spans (those without a parent)."""
    return sum(span[BUSY] for span in spans if span[PARENT] is None)
