"""Per-layer spans and counters, installed from outside the package.

Each traced entry point is replaced by a wrapper in every ``latcount`` module
that bound the original function, so calls through ``oracle._canonical``,
``reduction.canonical_rank``, ``cli.canonical_digraph`` or ``formulas.P``
are seen as well as calls through the defining module.  The package itself
is not changed on disk.

A span's self time is its duration minus the time covered by its child
spans.  A layer's inclusive time counts only its outermost spans, so a layer
calling itself is not counted twice.  ``partition_count`` gets a counter
only: it is called millions of times and a timing wrapper would dominate it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import latcount.oracle as oracle

# (span name, module, attribute): the layers the benchmark reports.
SPANS = (
    ("canon", "latcount.canon", "_canonical"),
    ("canon.rank", "latcount.canon", "canonical_rank"),
    ("poset.as_lattice", "latcount.poset", "as_lattice"),
    ("poset.induced_subposet", "latcount.poset", "induced_subposet"),
    ("adjunct.realize", "latcount.adjunct", "realize"),
    ("reduction.classify_fbb", "latcount.reduction", "classify_fbb"),
    ("oracle.census", "latcount.oracle", "census"),
    ("oracle.reducible_class", "latcount.oracle", "reducible_class"),
    ("oracle.block_census", "latcount.oracle", "block_census"),
    ("oracle.slice", "latcount.oracle", "_padding_slice"),
    ("formulas.table", "latcount.formulas", "two_reducible_lattices"),
    ("formulas.table", "latcount.formulas", "three_reducible_lattices"),
    ("formulas.table", "latcount.formulas", "l1_lattices"),
    ("formulas.table", "latcount.formulas", "l2_lattices"),
    ("formulas.table", "latcount.formulas", "l3_lattices"),
    ("formulas.table", "latcount.formulas", "l4_lattices"),
    ("formulas.blocks", "latcount.formulas", "two_reducible_blocks"),
    ("formulas.blocks", "latcount.formulas", "b1_blocks"),
    ("formulas.blocks", "latcount.formulas", "b2_blocks"),
    ("formulas.blocks", "latcount.formulas", "b3_blocks"),
    ("formulas.blocks", "latcount.formulas", "b4_blocks"),
    ("cli.documents", "latcount.cli", "canonical_digraph"),
    ("cli.documents", "latcount.cli", "lattice_document"),
)

# Levels of the exhaustive search whose kept states are reported.
SEARCH_LEVELS = range(1, oracle.FULL_SEARCH_LIMIT + 1)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.slices: list[float] = []  # durations of padding slices
        self.vertices = 0
        self.members = 0
        self.partition_calls = 0
        self._open: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []  # child time covered, per open span

    def span(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            self._open[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self._open[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if not self._open[name]:
                    self.inclusive_s[name] += duration
            if name == "canon":
                self.vertices += args[0]
            elif name == "oracle.slice":
                self.slices.append(duration)
            elif name == "oracle.reducible_class":
                self.members += len(result)
            return result

        return wrapper

    def count_partitions(self, fn):
        def wrapper(n, k):
            self.partition_calls += 1
            return fn(n, k)

        return wrapper

    def report(self) -> dict:
        """Per-layer metrics; counts are exact, times in seconds."""
        out = {
            "canon.calls": self.calls["canon"],
            "canon.vertices": self.vertices,
            "canon.self_s": self.self_s["canon"],
            "canon.rank_calls": self.calls["canon.rank"],
        }
        for layer in ("poset.as_lattice", "poset.induced_subposet", "adjunct.realize", "reduction.classify_fbb"):
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["oracle.census.s"] = self.inclusive_s["oracle.census"]
        for k in SEARCH_LEVELS:
            out[f"oracle.states.{k}"] = len(oracle._LEVELS.get(k, ()))
        out["oracle.reducible_class.s"] = self.inclusive_s["oracle.reducible_class"]
        out["oracle.block_census.s"] = self.inclusive_s["oracle.block_census"]
        out["oracle.members"] = self.members
        out["oracle.slice.max_share"] = max(self.slices) / sum(self.slices) if self.slices else 0.0
        out["formulas.table.s"] = self.inclusive_s["formulas.table"]
        out["formulas.blocks.s"] = self.inclusive_s["formulas.blocks"]
        out["partitions.calls"] = self.partition_calls
        out["cli.documents.s"] = self.inclusive_s["cli.documents"]
        return out


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "latcount" or name.startswith("latcount."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install() -> Tracer:
    tracer = Tracer()
    for name, module, attr in SPANS:
        original = getattr(sys.modules[module], attr)
        _rebind(original, tracer.span(name, original))
    partition_count = sys.modules["latcount.partitions"].partition_count
    _rebind(partition_count, tracer.count_partitions(partition_count))
    return tracer
