"""Outside-in trace of one workload, run inside a fresh child process.

The benchmark makes the public calls of each treegof module itself, on
the same inputs the CLI gets, and records a span around each; then it
makes the CLI call as one more span.  The CLI's own time (argument
parsing, CSV reading and writing, formatting, worker fan-out) is the CLI
span minus the public calls the CLI makes on its blocking path.

For ``test`` the attribution calls run first, so that each layer's
peak-RSS growth and page faults are counted in the order the CLI meets
them: tree, estimators, bootstrap.  ``run_test`` runs right after the CLI call, so
that both meet memory in the same state.  Every replay is checked
against the CLI output, so the attribution is to the same computation.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import numpy as np
from numpy.random import SeedSequence

from treegof import (
    BootstrapConfig,
    LatentTree,
    batched_diag,
    build_estimate_matrix,
    covariance_from_factor,
    enumerate_constraints,
    is_t_induced,
    load_tree,
    multiplier_draws,
    quantile_from_draws,
    run_test,
    sample,
    setup_params,
    test_statistic,
)
from treegof import cli

from spans import Tracer
from workloads import ALPHAS, MULTIPLIERS, SIMULATE

BATCH = 3
MIB = 1024.0 * 1024.0


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _cli(tracer, argv):
    """One ``cli.main`` call as a span, with the bytes it read and wrote."""
    read = sum(os.path.getsize(_flag(argv, f)) for f in ("--tree", "--data") if f in argv)
    sys.stdout.flush()
    before = os.fstat(sys.stdout.fileno()).st_size
    with tracer.span("cli.main") as counts:
        code = cli.main(argv)
    sys.stdout.flush()
    written = os.fstat(sys.stdout.fileno()).st_size - before
    if "--out" in argv:
        out = _flag(argv, "--out")
        written += os.path.getsize(out)
        svg = out[:-4] + ".svg"
        if argv[0] == "simulate" and os.path.exists(svg):
            written += os.path.getsize(svg)
    counts.update(bytes_read=read, bytes_written=written, code=code)
    return counts


def _load_matrix(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def replay_test(tracer, argv, seed, out):
    """``treegof test``: tree, estimate matrix, bootstrap parts, run_test."""
    mode = _flag(argv, "--mode")
    with tracer.span("tree.load_tree"):
        tree = load_tree(_flag(argv, "--tree"))
    with tracer.span("tree.enumerate_constraints") as c:
        system = enumerate_constraints(tree)
    c["scalar_terms"] = system.n_equality_terms + system.n_inequality_terms
    data = _load_matrix(_flag(argv, "--data"))

    with tracer.span("estimators.build_estimate_matrix") as c:
        seq = build_estimate_matrix(data, system, mode=mode)
    c.update(rows=seq.n_rows, columns=seq.n_columns,
             matrix_mb=seq.values.nbytes / MIB)

    mult_ss, _ = SeedSequence(seed).spawn(2)
    with tracer.span("bootstrap.parts") as parts:
        with tracer.span("bootstrap.batched_diag"):
            batched_diag(seq, BATCH)
        with tracer.span("bootstrap.test_statistic"):
            stat = test_statistic(seq, BATCH)
        with tracer.span("bootstrap.multiplier_draws"):
            draws = multiplier_draws(seq, BATCH, MULTIPLIERS, mult_ss)
        with tracer.span("bootstrap.quantile_from_draws"):
            quantile = quantile_from_draws(draws, 0.05)
    omega = seq.n_rows // BATCH
    del seq, draws

    _cli(tracer, argv)
    with tracer.span("bootstrap.run_test"):
        result = run_test(data, system, BootstrapConfig(seed=seed, mode=mode))
    kept = result.k_effective
    parts.update(batches=omega, kept_columns=kept,
                 matmul_gflop=2.0 * MULTIPLIERS * omega * kept / 1e9,
                 multiplier_mb=MULTIPLIERS * omega * 8 / MIB)
    with open(os.path.join(out, "stdout.txt"), encoding="utf-8") as fh:
        report = json.load(fh)
    same = (report["statistic"], report["quantile"]) == (
        result.statistic, result.quantile) == (stat, quantile)
    return same, ("tree.load_tree", "tree.enumerate_constraints", "bootstrap.run_test")


def replay_tree_tools(tracer, calls):
    """``treegof enumerate`` then ``treegof check-metric``."""
    enum_argv, metric_argv = calls
    with tracer.span("tree.load_tree"):
        tree = load_tree(_flag(enum_argv, "--tree"))
    with tracer.span("tree.enumerate_constraints") as c:
        system = enumerate_constraints(tree)
    with tracer.span("tree.scalar_rows"):
        rows = list(system.scalar_rows())
    c["scalar_terms"] = len(rows)
    del system, rows
    _cli(tracer, enum_argv)

    delta = _load_matrix(_flag(metric_argv, "--data"))
    with tracer.span("tree.load_tree"):
        tree = load_tree(_flag(metric_argv, "--tree"))
    with tracer.span("metric.is_t_induced") as c:
        report = is_t_induced(delta, tree)
    c["violations"] = len(report.all_violations)
    _cli(tracer, metric_argv)
    return report.is_induced, (
        "tree.load_tree", "tree.enumerate_constraints", "tree.scalar_rows",
        "metric.is_t_induced",
    )


def replay_simulate(tracer, argv, seed):
    """``treegof simulate``, then every replication again in this process.

    The CLI call comes first: its workers' ``ru_maxrss`` starts at this
    process's peak RSS when they are started.
    """
    m, n, reps = SIMULATE["m"], SIMULATE["n"], SIMULATE["reps"]
    counts = _cli(tracer, argv)
    counts["worker_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    names = tuple(f"x{i}" for i in range(1, m + 1))
    with tracer.span("tree.enumerate_constraints") as c:
        system = enumerate_constraints(LatentTree([("h", v) for v in names], names))
    c["scalar_terms"] = system.n_equality_terms + system.n_inequality_terms
    with tracer.span("model.setup_params"):
        params = setup_params(SIMULATE["setup"], m, SeedSequence(entropy=seed, spawn_key=(0, 2)))
        cov = covariance_from_factor(params)

    results = []
    for rep in range(reps):
        data_ss = SeedSequence(entropy=seed, spawn_key=(rep, 0))
        mult_ss, _ = SeedSequence(entropy=seed, spawn_key=(rep, 1)).spawn(2)
        with tracer.span("simulate.rep"):
            with tracer.span("model.sample"):
                x = sample(cov, n, data_ss).data
            with tracer.span("estimators.build_estimate_matrix") as c:
                seq = build_estimate_matrix(x, system)
            with tracer.span("bootstrap.test_statistic"):
                stat = test_statistic(seq, BATCH)
            with tracer.span("bootstrap.multiplier_draws"):
                draws = multiplier_draws(seq, BATCH, MULTIPLIERS, mult_ss)
        c.update(rows=seq.n_rows, columns=seq.n_columns,
                 matrix_mb=seq.values.nbytes / MIB)
        results.append((stat, draws))
    rejects = np.zeros((len(ALPHAS), reps), dtype=bool)
    with tracer.span("simulate.size_curve") as c:
        for rep, (stat, draws) in enumerate(results):
            with tracer.span("bootstrap.quantile_from_draws"):
                for i, alpha in enumerate(ALPHAS):
                    rejects[i, rep] = stat > quantile_from_draws(draws, alpha)
    omega = (n - 1) // BATCH
    c.update(batches=omega, kept_columns=seq.n_columns,
             matmul_gflop=2.0 * MULTIPLIERS * omega * seq.n_columns * reps / 1e9,
             multiplier_mb=MULTIPLIERS * omega * 8 / MIB)
    del results

    with open(_flag(argv, "--out"), encoding="utf-8") as fh:
        cli_sizes = [float(line.split(",")[1]) for line in fh.read().splitlines()[1:]]
    same = cli_sizes == [float(s) for s in rejects.mean(axis=1)]
    return same, (
        "tree.enumerate_constraints", "model.setup_params", "simulate.rep",
        "simulate.size_curve",
    )


def run(spec):
    """Replay the workload and return its report with the spans."""
    tracer = Tracer(spec["workload"])
    calls, seed = spec["calls"], spec["seed"]
    if spec["workload"] == "tree-tools":
        same, blocking = replay_tree_tools(tracer, calls)
    elif spec["workload"] == "simulate-size":
        same, blocking = replay_simulate(tracer, calls[0], seed)
    else:
        same, blocking = replay_test(tracer, calls[0], seed, spec["out"])
    probe = Tracer(spec["workload"])
    start = time.perf_counter()
    for _ in range(1000):
        with probe.span("probe"):
            pass
    return {
        "span_cost_s": (time.perf_counter() - start) / 1000,
        "replay_matches": bool(same),
        "codes": [s["counts"]["code"] for s in tracer.spans if s["name"] == "cli.main"],
        "blocking": list(blocking),
        "jobs": SIMULATE["jobs"] if spec["workload"] == "simulate-size" else 1,
        "spans": tracer.spans,
    }
