"""In-memory spans and their self times.

A span is a dict with ``id``, ``name``, ``parent`` (an id or None),
``workload``, ``start`` and ``end`` (``time.perf_counter`` seconds),
the peak RSS in KiB and minor page faults at both ends, and ``counts``
recorded at the same boundary.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from contextlib import contextmanager


def _usage():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_maxrss, r.ru_minflt


class Tracer:
    """Collects spans for one workload; nesting follows the ``with`` blocks."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        rss, flt = _usage()
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "counts": {},
            "rss0_kb": rss,
            "flt0": flt,
            "start": time.perf_counter(),
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            rec["rss1_kb"], rec["flt1"] = _usage()
            self._open.pop()


def write_jsonl(spans, path):
    with open(path, "a", encoding="utf-8") as fh:
        for rec in spans:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Span id -> duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], ())
        ]
        kids = [(a, b) for a, b in kids if b > a]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(kids)
    return out


def table(spans):
    """Per span name: (calls, total seconds, self seconds), by self time."""
    selfs = self_times(spans)
    rows = {}
    for s in spans:
        calls, total, own = rows.get(s["name"], (0, 0.0, 0.0))
        rows[s["name"]] = (calls + 1, total + s["end"] - s["start"], own + selfs[s["id"]])
    return sorted(rows.items(), key=lambda kv: -kv[1][2])


# Calls that run another layer's work inside them without a span of its own.
COMPOSITE = ("bootstrap.run_test",)


def layer_metrics(spans, blocking, jobs):
    """Per-layer metrics of one traced pass, from its spans.

    A layer's RSS growth and page faults are those of its top-level spans
    (whose parent is in another layer) less those of the spans of other
    layers nested directly in its own.  ``bootstrap.run_test`` builds the
    estimate matrix inside, with no span of its own, so it belongs to no
    layer here and reports only its time, ``bootstrap.run_test_s``.
    ``cli.self_s`` is the CLI time minus the blocking public calls; for simulate, whose
    replications run on ``jobs`` workers, the replication share is
    divided by ``jobs``.  A layer the workload does not call reads 0.
    """
    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum((dur(s) for s in named(name)), 0.0)

    def count(key):
        vals = [s["counts"][key] for s in spans if key in s["counts"]]
        return vals[-1] if vals else 0

    def layer(s):
        if s["name"] in COMPOSITE:
            return None
        return s["name"].split(".", 1)[0]

    def growth(name, first, last):
        grown = 0
        for s in spans:
            own = layer(s)
            up = layer(spans[s["parent"]]) if s["parent"] is not None else None
            if own == name and up != name:
                grown += s[last] - s[first]
            elif up == name and own != name:
                grown -= s[last] - s[first]
        return grown

    def rss(name):
        return growth(name, "rss0_kb", "rss1_kb") / 1024.0

    def faults(name):
        return growth(name, "flt0", "flt1")

    reps = [dur(s) for s in named("simulate.rep")]
    blocked = sum(total(n) / (jobs if n == "simulate.rep" else 1) for n in blocking)
    cli_wall = total("cli.main")
    if reps:
        deciles = statistics.quantiles(reps, n=10)
        rep_p50, rep_p90 = statistics.median(reps), deciles[8]
        efficiency = sum(reps) / (jobs * cli_wall)
    else:
        rep_p50 = rep_p90 = efficiency = 0.0
    return {
        "tree.enumerate_s": (total("tree.enumerate_constraints"), "s"),
        "tree.scalar_rows_s": (total("tree.scalar_rows"), "s"),
        "tree.scalar_terms": (count("scalar_terms"), "count"),
        "tree.rss_growth_mb": (rss("tree"), "MB"),
        "metric.is_t_induced_s": (total("metric.is_t_induced"), "s"),
        "metric.violations": (count("violations"), "count"),
        "cli.main_s": (cli_wall, "s"),
        "cli.self_s": (cli_wall - blocked, "s"),
        "cli.bytes_read": (sum(s["counts"]["bytes_read"] for s in named("cli.main")), "bytes"),
        "cli.bytes_written": (sum(s["counts"]["bytes_written"] for s in named("cli.main")), "bytes"),
        "estimators.build_s": (total("estimators.build_estimate_matrix"), "s"),
        "estimators.columns": (count("columns"), "count"),
        "estimators.rows": (count("rows"), "count"),
        "estimators.matrix_mb": (count("matrix_mb"), "MB"),
        "estimators.rss_growth_mb": (rss("estimators"), "MB"),
        "estimators.page_faults": (faults("estimators"), "count"),
        "bootstrap.run_test_s": (total("bootstrap.run_test"), "s"),
        "bootstrap.diag_s": (total("bootstrap.batched_diag"), "s"),
        "bootstrap.statistic_s": (total("bootstrap.test_statistic"), "s"),
        "bootstrap.draws_s": (total("bootstrap.multiplier_draws"), "s"),
        "bootstrap.quantile_s": (total("bootstrap.quantile_from_draws"), "s"),
        "bootstrap.batches": (count("batches"), "count"),
        "bootstrap.kept_columns": (count("kept_columns"), "count"),
        "bootstrap.matmul_gflop": (count("matmul_gflop"), "GFLOP"),
        "bootstrap.multiplier_mb": (count("multiplier_mb"), "MB"),
        "bootstrap.rss_growth_mb": (rss("bootstrap"), "MB"),
        "bootstrap.page_faults": (faults("bootstrap"), "count"),
        "model.sample_s": (total("model.sample"), "s"),
        "simulate.rep_p50_s": (rep_p50, "s"),
        "simulate.rep_p90_s": (rep_p90, "s"),
        "simulate.parallel_efficiency": (efficiency, "ratio"),
        "simulate.worker_rss_mb": (count("worker_rss_mb"), "MB"),
    }
