"""The four benchmark workloads: inputs, CLI calls and output checks.

Each workload is one cold ``treegof`` CLI invocation (two for
tree-tools) on inputs written beforehand by ``inputs``.  Why each one is
here is stated in BENCHMARK.json: wide-star and tall-all load the
estimate-matrix and bootstrap layers in opposite shapes (wide k, short
batch count against long batch count, few columns), tree-tools loads
tree classification and the tree-metric oracle with no numpy hot path,
and simulate-size loads sampling, per-call overhead and the worker
fan-out.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

import checks
import inputs

MULTIPLIERS = 1000
ALPHAS = [round(0.01 * i, 10) for i in range(1, 11)]
SIMULATE = {"setup": 2, "m": 10, "n": 500, "reps": 400, "jobs": 2}


def _read(path, mode="r"):
    with open(path, mode) as fh:
        return fh.read()


class _TestWorkload:
    """``treegof test`` on one tree and one data CSV."""

    mode = "equalities"

    def calls(self, inp, out, seed):
        return [[
            "test", "--tree", os.path.join(inp, "tree.txt"),
            "--data", os.path.join(inp, "data.csv"),
            "--mode", self.mode, "--seed", str(seed),
        ]]

    def expected_k(self):
        counts = inputs.classify(*self.tree())
        k = counts["chain"] + counts["split"] + counts["tetrad"]
        return k + counts["sign"] if self.mode == "all" else k

    def output(self, out):
        return _read(os.path.join(out, "stdout.txt"))

    def check(self, inp, out, reference):
        return checks.bootstrap_report(
            self.output(out), MULTIPLIERS, self.expected_k(), reference
        )

    def reference(self, inp, out):
        rep = json.loads(self.output(out))
        keys = ("statistic", "quantile", "reject", "k_effective", "diag_floor_hits")
        return {k: rep[k] for k in keys}


class WideStar(_TestWorkload):
    name = "wide-star"

    def tree(self):
        return inputs.star_tree(30)

    def prepare(self, work, seed):
        return inputs.wide_star(work, seed)


class TallAll(_TestWorkload):
    name = "tall-all"
    mode = "all"

    def tree(self):
        return inputs.caterpillar_tree()

    def prepare(self, work, seed):
        return inputs.tall_all(work, seed)


class TreeTools:
    """``treegof enumerate`` then ``treegof check-metric``."""

    name = "tree-tools"

    def prepare(self, work, seed):
        return inputs.tree_tools(work, seed)

    def calls(self, inp, out, seed):
        tree = os.path.join(inp, "tree.txt")
        return [
            ["enumerate", "--tree", tree, "--out", os.path.join(out, "constraints.csv")],
            ["check-metric", "--tree", tree, "--data", os.path.join(inp, "delta.csv")],
        ]

    def check(self, inp, out, reference):
        edges, observed = inputs.mixed_tree()
        rho = np.exp(-np.load(os.path.join(inp, "weights.npy")))
        cov = inputs.path_product_cov(edges, observed, rho)
        result = checks.enumerate_csv(
            _read(os.path.join(out, "constraints.csv"), "rb"),
            inputs.classify(edges, observed),
            cov,
            None if reference is None else reference["enumerate_sha256"],
        )
        return result + checks.check_metric_text(_read(os.path.join(out, "stdout.txt")))

    def reference(self, inp, out):
        data = _read(os.path.join(out, "constraints.csv"), "rb")
        return {"enumerate_sha256": hashlib.sha256(data).hexdigest()}


class SimulateSize:
    """``treegof simulate`` with two spawn workers; it draws its own data."""

    name = "simulate-size"

    def prepare(self, work, seed):
        return None

    def calls(self, inp, out, seed):
        argv = ["simulate"]
        for key, value in SIMULATE.items():
            argv += [f"--{key}", str(value)]
        return [argv + ["--seed", str(seed), "--out", os.path.join(out, "sizes.csv")]]

    def check(self, inp, out, reference):
        return checks.sizes_csv(
            _read(os.path.join(out, "sizes.csv")), ALPHAS, SIMULATE["reps"], reference
        )

    def reference(self, inp, out):
        return _read(os.path.join(out, "sizes.csv"))


WORKLOADS = {w.name: w for w in (WideStar(), TallAll(), TreeTools(), SimulateSize())}


def prepare(name, seed, work, out):
    """Write the inputs of one seed; return their directory and the CLI calls."""
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[name]
    inp = workload.prepare(work, seed)
    return {"inputs": inp, "calls": workload.calls(inp, out, seed)}


if __name__ == "__main__":
    # python workloads.py NAME SEED WORKDIR OUTDIR, from the benchmark's own process
    print(json.dumps(prepare(sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4])))
