"""Spans and counters around the public functions of each ibltlab module.

The wrappers live here, not in the package: ``instrument`` patches each
name where its caller looks it up and ``restore`` puts the originals back.
A span records (name, start, end, parent); a layer's self time is its
duration minus the time its child calls cover.  Per-item calls (10^5 to
10^6 peels, index computations and table updates) only add to per-name
totals instead of recording one span each.
"""

import functools
import time
from collections import Counter

import ibltlab._kernels_py
import ibltlab.backend
import ibltlab.bounds
import ibltlab.cli
import ibltlab.oracle
import ibltlab.simulate
from ibltlab._bits import SCHEME_PARTITIONED, SCHEME_SS_AVOIDING
from ibltlab.census import StoppingCensus
from ibltlab.hashing import PartitionedUniformScheme, SsAvoidingScheme
from ibltlab.table import Iblt


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        # name -> [calls, seconds, self seconds]
        self.totals: dict[str, list] = {}
        self.counts: Counter = Counter()
        # Open calls: [seconds covered by children, id of the enclosing span].
        self._stack: list[list] = [[0.0, None]]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, span=True, attrs=None):
        """``fn`` timed under ``name``.

        With ``span`` each call records a span, which ``attrs(args, result)``
        may annotate; without, calls only add to the totals of ``name``.
        """
        stack, totals, spans = self._stack, self.totals, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, len(spans) if span else parent[1]]
            if span:
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                total = totals.setdefault(name, [0, 0.0, 0.0])
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[0]
                if span:
                    spans[frame[1]] = {
                        "id": frame[1],
                        "name": name,
                        "parent": parent[1],
                        "start": start - self.origin,
                        "end": end - self.origin,
                        "self": duration - frame[0],
                    }
            if attrs is not None:
                # Time spent annotating is not the parent's own work.
                before = clock()
                spans[frame[1]].update(attrs(args, result))
                parent[0] += clock() - before
            return result

        return traced

    def counting(self, name, gen_fn):
        """Generator function whose yielded items are counted under ``name``."""
        counts = self.counts

        @functools.wraps(gen_fn)
        def counted(*args, **kwargs):
            items = 0
            try:
                for item in gen_fn(*args, **kwargs):
                    items += 1
                    yield item
            finally:
                counts[name] += items

        return counted

    def patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def calls(self, name) -> int:
        return self.totals.get(name, [0])[0]

    def seconds(self, name) -> float:
        return self.totals.get(name, [0, 0.0])[1]

    def self_seconds(self, name) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def spans_named(self, name):
        return [s for s in self.spans if s is not None and s["name"] == name]


def instrument(tracer: Tracer):
    """Wrap the public functions of each module where their callers look them up."""
    def bound_attrs(args, result):
        return {"terms": len(result.terms), "census_entries": len(args[0].known())}

    union_bound = tracer.wrap("bounds.union_bound", ibltlab.bounds.union_bound, attrs=bound_attrs)
    tracer.patch(ibltlab.cli, "union_bound", union_bound)
    tracer.patch(ibltlab.simulate, "union_bound", union_bound)
    tracer.patch(StoppingCensus, "count", tracer.wrap("census.count", StoppingCensus.count))

    def kernel_attrs(args, result):
        _, lo, hi, _, _, _, _, scheme, _ = args
        return {"scheme": scheme, "trials": hi - lo, "failures": result[0], "size2": result[1]}

    kernels = ibltlab.backend.kernels
    tracer.patch(ibltlab.simulate, "run_trials",
                 tracer.wrap("simulate.run_trials", ibltlab.simulate.run_trials))
    tracer.patch(kernels, "run_trials",
                 tracer.wrap("kernel.run_trials", kernels.run_trials, attrs=kernel_attrs))
    tracer.patch(ibltlab._kernels_py, "mix64_array",
                 tracer.wrap("bits.mix64_array", ibltlab._kernels_py.mix64_array, span=False))

    tracer.patch(ibltlab.cli, "exact_failure_probability",
                 tracer.wrap("oracle.exact_failure_probability",
                             ibltlab.oracle.exact_failure_probability))
    tracer.patch(ibltlab.oracle, "peel_fixpoint",
                 tracer.wrap("oracle.peel_fixpoint", ibltlab.oracle.peel_fixpoint, span=False))
    tracer.patch(ibltlab.oracle, "iter_state_matrices",
                 tracer.counting("oracle.states", ibltlab.oracle.iter_state_matrices))

    def listing_attrs(args, result):
        return {"recovered": len(result.entries), "residual_cells": result.residual_cells}

    for method in ("insert", "delete", "get"):
        tracer.patch(Iblt, method,
                     tracer.wrap(f"table.{method}", getattr(Iblt, method), span=False))
    for method in ("list_entries", "list_entries_inplace"):
        tracer.patch(Iblt, method,
                     tracer.wrap(f"table.{method}", getattr(Iblt, method), attrs=listing_attrs))
    for scheme in (PartitionedUniformScheme, SsAvoidingScheme):
        tracer.patch(scheme, "indices", tracer.wrap("hashing.indices", scheme.indices, span=False))


# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("cli.main.self_s", "s", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
    ("simulate.run_trials.self_s", "s", "lower"),
    ("kernel.run_trials.s", "s", "lower"),
    ("kernel.trials", "count", "higher"),
    ("kernel.trials_per_s.partitioned", "trials/s", "higher"),
    ("kernel.trials_per_s.ss_avoiding", "trials/s", "higher"),
    ("kernel.failures", "count", "lower"),
    ("kernel.size2_residuals", "count", "lower"),
    ("kernel.peel_build_s", "s", "lower"),
    ("bits.mix64_array.calls", "count", "lower"),
    ("bits.mix64_array.s", "s", "lower"),
    ("census.count.calls", "count", "lower"),
    ("census.count.s", "s", "lower"),
    ("census.entries", "count", "lower"),
    ("bounds.union_bound.s", "s", "lower"),
    ("bounds.union_bound.self_s", "s", "lower"),
    ("bounds.terms", "count", "lower"),
    ("oracle.exact_failure_probability.s", "s", "lower"),
    ("oracle.states", "count", "lower"),
    ("oracle.peel_fixpoint.calls", "count", "lower"),
    ("oracle.peel_fixpoint.s", "s", "lower"),
    ("oracle.enumerate_s", "s", "lower"),
    ("table.insert.s", "s", "lower"),
    ("table.insert.calls", "count", "higher"),
    ("table.delete.s", "s", "lower"),
    ("table.delete.calls", "count", "higher"),
    ("table.get.s", "s", "lower"),
    ("table.get.calls", "count", "higher"),
    ("table.list.s", "s", "lower"),
    ("table.list.calls", "count", "higher"),
    ("table.list.recovered", "count", "higher"),
    ("table.list.residual_cells", "count", "lower"),
    ("hashing.indices.calls", "count", "lower"),
    ("hashing.indices.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of a traced run (without the trace.* wall times)."""
    calls, t, self_t = tracer.calls, tracer.seconds, tracer.self_seconds
    kernel = tracer.spans_named("kernel.run_trials")

    def rate(scheme_code):
        spans = [s for s in kernel if s["scheme"] == scheme_code]
        seconds = sum(s["end"] - s["start"] for s in spans)
        return sum(s["trials"] for s in spans) / seconds if seconds else 0.0

    # list_entries() copies the table and lists the copy in place; count
    # that as one listing.
    listing_ids = {s["id"] for s in tracer.spans_named("table.list_entries")}
    listings = tracer.spans_named("table.list_entries") + [
        s for s in tracer.spans_named("table.list_entries_inplace")
        if s["parent"] not in listing_ids
    ]
    bounds = tracer.spans_named("bounds.union_bound")
    return {
        "cli.main.self_s": self_t("cli.main"),
        "cli.csv_bytes": tracer.counts["cli.csv_bytes"],
        "simulate.run_trials.self_s": self_t("simulate.run_trials"),
        "kernel.run_trials.s": t("kernel.run_trials"),
        "kernel.trials": sum(s["trials"] for s in kernel),
        "kernel.trials_per_s.partitioned": rate(SCHEME_PARTITIONED),
        "kernel.trials_per_s.ss_avoiding": rate(SCHEME_SS_AVOIDING),
        "kernel.failures": sum(s["failures"] for s in kernel),
        "kernel.size2_residuals": sum(s["size2"] for s in kernel),
        "kernel.peel_build_s": t("kernel.run_trials") - t("bits.mix64_array"),
        "bits.mix64_array.calls": calls("bits.mix64_array"),
        "bits.mix64_array.s": t("bits.mix64_array"),
        "census.count.calls": calls("census.count"),
        "census.count.s": t("census.count"),
        "census.entries": sum(s["census_entries"] for s in bounds),
        "bounds.union_bound.s": t("bounds.union_bound"),
        "bounds.union_bound.self_s": self_t("bounds.union_bound"),
        "bounds.terms": sum(s["terms"] for s in bounds),
        "oracle.exact_failure_probability.s": t("oracle.exact_failure_probability"),
        "oracle.states": tracer.counts["oracle.states"],
        "oracle.peel_fixpoint.calls": calls("oracle.peel_fixpoint"),
        "oracle.peel_fixpoint.s": t("oracle.peel_fixpoint"),
        "oracle.enumerate_s": t("oracle.exact_failure_probability") - t("oracle.peel_fixpoint"),
        "table.insert.s": t("table.insert"),
        "table.insert.calls": calls("table.insert"),
        "table.delete.s": t("table.delete"),
        "table.delete.calls": calls("table.delete"),
        "table.get.s": t("table.get"),
        "table.get.calls": calls("table.get"),
        "table.list.s": sum(s["end"] - s["start"] for s in listings),
        "table.list.calls": len(listings),
        "table.list.recovered": sum(s["recovered"] for s in listings),
        "table.list.residual_cells": sum(s["residual_cells"] for s in listings),
        "hashing.indices.calls": calls("hashing.indices"),
        "hashing.indices.s": t("hashing.indices"),
    }
