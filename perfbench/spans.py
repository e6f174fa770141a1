"""Span tracing at rscount's layer boundaries, installed from outside the program.

The tracer replaces the module-level bindings of chosen public functions in
the ``rscount`` modules with wrappers that record one span per call: name,
start, end, parent span and op id.  Spans are kept in memory in flat arrays
and summarised (calls, busy time, self time) at the end of the run.  Source
files are never edited.

Bindings inside ``rscount.fields`` are left alone: fields' own functions call
each other per coefficient (``is_irreducible`` evaluates the polynomial at
every field element), and those kernel-internal calls are not a layer
boundary.  Every other module that binds a traced function, including the one
that defines it, gets the wrapper.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

#: Functions recorded as spans, as ``module.function``.
SPANNED = (
    "closedform.rs_count",
    "genfun.gf_count",
    "genfun.verify_identity",
    "genfun.symbolic_count_polynomials",
    "series.series_mul",
    "series.series_from_rational",
    "series.series_binomial_power",
    "census.census_count",
    "census.self_reciprocal_irreducibles",
    "census.reciprocal_pairs",
    "census.irreducibles",
    "conjugation.reciprocal",
    "conjugation.is_self_reciprocal",
    "conjugation.hermitian_reciprocal",
    "conjugation.is_hermitian_self_reciprocal",
    "fields.squarefree_codes",
    "fields.is_irreducible",
    "fields.poly_eval",
    "fields.ff_from_order",
    "oracle.oracle_count",
)

#: Predicates whose share of true results is reported as ``true_ratio``.
PREDICATES = ("fields.squarefree_codes", "fields.is_irreducible")

#: Generators whose yielded items are counted instead of timed.
GENERATORS = ("census.iter_hermitian_self_reciprocal_coeffs",)

#: Cached census functions whose ``cache_info()`` is reported.
CACHED = (
    "census.irreducibles",
    "census.self_reciprocal_irreducibles",
    "census.reciprocal_pairs",
    "census.norm_one_circle",
    "census.hermitian_pairs",
)

#: Kernel module whose internal bindings are not wrapped (see module docstring).
_KERNEL_MODULE = "rscount.fields"


class Tracer:
    """In-memory span store plus counters, for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.current_op = -1
        self._stack = [-1]
        self._cached: dict[str, object] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._name_id(name)
        stack = self._stack
        name_ids, parents, ops = self.name, self.parent, self.op
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        counts = self.counts
        key = name + ".yields"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            yielded = 0
            try:
                for item in fn(*args, **kwargs):
                    yielded += 1
                    yield item
            finally:
                counts[key] += yielded

        return counted

    def install(self) -> None:
        """Wrap every traced function at each of its bindings in ``rscount.*``."""
        import rscount.cli  # noqa: F401  (loads every module that holds a binding)

        modules = [
            m for key, m in sorted(sys.modules.items())
            if key.startswith("rscount.") and key != _KERNEL_MODULE
        ]
        for name in CACHED:
            module_name, attr = name.split(".")
            self._cached[name] = getattr(sys.modules["rscount." + module_name], attr)
        counts = self.counts

        def predicate_counter(name):
            key = name + ".true"

            def on_result(result):
                if result:
                    counts[key] += 1

            return on_result

        def add_witnesses(result):
            counts["oracle.witness_count"] += result.witness_count

        for name in SPANNED + GENERATORS:
            module_name, attr = name.split(".")
            original = getattr(sys.modules["rscount." + module_name], attr)
            if name in GENERATORS:
                wrapper = self._wrap_generator(name, original)
            elif name in PREDICATES:
                wrapper = self.wrap(name, original, predicate_counter(name))
            elif name == "oracle.oracle_count":
                wrapper = self.wrap(name, original, add_witnesses)
            else:
                wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def cache_stats(self) -> dict[str, int]:
        """Hits, misses and current size of each cached census function."""
        out = {}
        for name, fn in self._cached.items():
            info = fn.cache_info()
            out[name + ".cache_hits"] = info.hits
            out[name + ".cache_misses"] = info.misses
            out[name + ".cache_currsize"] = info.currsize
        return out

    def report(self) -> dict:
        """Per-name span summary, counters and cache statistics."""
        return {
            "spans": summarize(self.names, self.name, self.parent, self.start, self.end),
            "counts": dict(self.counts),
            "caches": self.cache_stats(),
        }

    def write(self, path) -> None:
        """Write every span as one CSV row (gzip-compressed)."""
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start", "end", "parent", "op"])
            for i in range(len(self.start)):
                writer.writerow(
                    [i, self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.op[i]]
                )


def summarize(names, name_ids, parents, starts, ends) -> dict[str, dict[str, float]]:
    """Per-name ``calls``, ``total_s`` and ``self_s`` from spans.

    ``self_s`` is a span's duration minus the time its direct children cover
    (children of one span never overlap: the program is single-threaded).
    ``total_s`` sums only spans with no ancestor of the same name, so a
    function that re-enters itself is not counted twice.
    """
    count = len(starts)
    covered = [0.0] * count
    for i in range(count):
        p = parents[i]
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    for i in range(count):
        nid = name_ids[i]
        stats = out[names[nid]]
        duration = ends[i] - starts[i]
        stats["calls"] += 1
        stats["self_s"] += duration - covered[i]
        p = parents[i]
        while p >= 0 and name_ids[p] != nid:
            p = parents[p]
        if p < 0:
            stats["total_s"] += duration
    return out
