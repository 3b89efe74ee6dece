"""Tests of the benchmark itself: input generators, output checks and
self-time arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from treegof import cli, enumerate_constraints, parse_tree  # noqa: E402


def _files(dirname):
    out = {}
    for name in sorted(os.listdir(dirname)):
        with open(os.path.join(dirname, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("make", [
    lambda root, seed: inputs.wide_star(root, seed, m=6, n=40),
    lambda root, seed: inputs.tall_all(root, seed, n=60),
    inputs.tree_tools,
])
def test_generators_are_deterministic_per_seed(tmp_path, make):
    first = _files(make(str(tmp_path / "a"), 7))
    again = _files(make(str(tmp_path / "b"), 7))
    other = _files(make(str(tmp_path / "c"), 8))
    assert first == again
    assert first != other


@pytest.mark.parametrize("tree", [
    inputs.star_tree(7), inputs.caterpillar_tree(), inputs.mixed_tree(hubs=3, leaves=3),
])
def test_classify_agrees_with_treegof(tree):
    system = enumerate_constraints(parse_tree(inputs.tree_text(*tree)))
    counts = {}
    for _, kind, _, _ in system.scalar_rows():
        counts[kind] = counts.get(kind, 0) + 1
    expected = {k: v for k, v in inputs.classify(*tree).items() if v}
    assert counts == expected


REPORT = {
    "statistic": 2.5, "quantile": 3.25, "p_value": 101 / 1001, "reject": False,
    "k_effective": 40, "diag_floor_hits": 2, "alpha": 0.05, "seed": 0,
}


def _failed(results):
    return [name for name, ok in results if not ok]


def test_bootstrap_report_check_catches_flipped_reject():
    reference = {k: REPORT[k] for k in ("statistic", "quantile", "reject",
                                        "k_effective", "diag_floor_hits")}
    assert _failed(checks.bootstrap_report(json.dumps(REPORT), 1000, 42, reference)) == []
    flipped = json.dumps(dict(REPORT, reject=True))
    assert "test.reject_matches" in _failed(checks.bootstrap_report(flipped, 1000, 42))
    assert "test.ref_exact" in _failed(checks.bootstrap_report(flipped, 1000, 42, reference))
    nudged = json.dumps(dict(REPORT, statistic=2.5 * (1 + 1e-8)))
    assert _failed(checks.bootstrap_report(nudged, 1000, 42, reference)) == ["test.ref_statistic"]
    off_grid = json.dumps(dict(REPORT, p_value=0.1))
    assert _failed(checks.bootstrap_report(off_grid, 1000, 42)) == ["test.p_value_grid"]


@pytest.fixture
def small_enumeration(tmp_path):
    edges, observed = inputs.mixed_tree(hubs=3, leaves=3)
    tree = tmp_path / "tree.txt"
    tree.write_text(inputs.tree_text(edges, observed))
    out = tmp_path / "constraints.csv"
    assert cli.main(["enumerate", "--tree", str(tree), "--out", str(out)]) == 0
    weights = np.random.default_rng(0).uniform(0.1, 1.0, size=len(edges))
    cov = inputs.path_product_cov(edges, observed, np.exp(-weights))
    return out.read_bytes(), inputs.classify(edges, observed), cov


def test_enumerate_check_catches_dropped_row(small_enumeration):
    data, counts, cov = small_enumeration
    assert _failed(checks.enumerate_csv(data, counts, cov)) == []
    lines = data.decode().splitlines(keepends=True)
    dropped = "".join(lines[:5] + lines[6:]).encode()
    assert "enumerate.counts" in _failed(checks.enumerate_csv(dropped, counts, cov))
    sha = hashlib.sha256(data).hexdigest()
    assert "enumerate.ref_bytes" in _failed(checks.enumerate_csv(dropped, counts, cov, sha))


def test_enumerate_check_catches_wrong_polynomial(small_enumeration):
    data, counts, cov = small_enumeration
    text = data.decode()
    row = next(line for line in text.splitlines() if ",split," in line)
    poly = row.rsplit(",", 1)[1]
    left, right = poly.split(" - ")
    swapped = row.replace(poly, f"{left} - {right.split('*')[0]}*{left.split('*')[0]}")
    bad = text.replace(row, swapped).encode()
    assert _failed(checks.enumerate_csv(bad, counts, cov)) == ["enumerate.equalities_vanish"]


def test_check_metric_check():
    assert _failed(checks.check_metric_text("t-induced: yes\nviolations: 0\n")) == []
    no = "t-induced: no\nviolations: 1\n  three-point [a b c] residual 0.5\n"
    assert _failed(checks.check_metric_text(no)) == ["check_metric.induced"]


ALPHAS = [0.01, 0.02, 0.03]


def _sizes(sizes, reps=400):
    buf = io.StringIO()
    buf.write("alpha,empirical_size,reps\n")
    for a, s in zip(ALPHAS, sizes):
        buf.write(f"{a!r},{format(s, '.17g')},{reps}\n")
    return buf.getvalue()


def test_sizes_check_catches_perturbed_size():
    good = _sizes([0.01, 0.0275, 0.03])
    assert _failed(checks.sizes_csv(good, ALPHAS, 400, good)) == []
    perturbed = _sizes([0.01, 0.0276, 0.03])
    assert _failed(checks.sizes_csv(perturbed, ALPHAS, 400, good)) == [
        "simulate.multiples", "simulate.ref_bytes",
    ]
    decreasing = _sizes([0.01, 0.0275, 0.025])
    assert _failed(checks.sizes_csv(decreasing, ALPHAS, 400)) == ["simulate.monotone"]


def _span(sid, name, parent, start, end, **counts):
    return {
        "id": sid, "name": name, "parent": parent, "workload": "w", "counts": counts,
        "start": start, "end": end, "rss0_kb": 0, "rss1_kb": 0, "flt0": 0, "flt1": 0,
    }


def test_self_times_subtract_the_union_of_children():
    tree = [
        _span(0, "root", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "b", 0, 3.0, 6.0),      # overlaps a: the union is 1..6
        _span(3, "a.inner", 1, 2.0, 3.0),
        _span(4, "late", 0, 9.0, 12.0),  # runs past its parent: 9..10 counts
    ]
    assert spans.self_times(tree) == pytest.approx(
        {0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}
    )
    rows = dict(spans.table(tree + [_span(5, "a", None, 20.0, 20.5)]))
    assert rows["a"] == pytest.approx((2, 3.5, 2.5))


def test_cli_self_time_is_cli_minus_blocking_calls():
    trace = [
        _span(0, "tree.load_tree", None, 0.0, 1.0),
        _span(1, "tree.enumerate_constraints", None, 1.0, 3.0, scalar_terms=9),
        _span(2, "bootstrap.parts", None, 3.0, 4.0),
        _span(3, "bootstrap.test_statistic", 2, 3.0, 3.5),
        _span(4, "bootstrap.run_test", None, 4.0, 9.0),
        _span(5, "cli.main", None, 9.0, 19.0, bytes_read=1, bytes_written=2, code=0),
    ]
    metrics = spans.layer_metrics(
        trace, ["tree.load_tree", "tree.enumerate_constraints", "bootstrap.run_test"], 1
    )
    assert metrics["cli.self_s"][0] == pytest.approx(10.0 - 1.0 - 2.0 - 5.0)
    assert metrics["tree.enumerate_s"][0] == pytest.approx(2.0)
    assert metrics["bootstrap.statistic_s"][0] == pytest.approx(0.5)
    assert metrics["tree.scalar_terms"][0] == 9


def _grown(sid, name, parent, faults, rss_kb):
    return dict(_span(sid, name, parent, 0.0, 1.0), flt1=faults, rss1_kb=rss_kb)


def test_layer_faults_exclude_nested_work_of_other_layers():
    trace = [
        _grown(0, "bootstrap.parts", None, 100, 2048),
        _grown(1, "bootstrap.batched_diag", 0, 60, 1024),
        _grown(2, "estimators.build_estimate_matrix", 1, 40, 1024),
        # run_test builds the matrix inside: its faults are no layer's own
        _grown(3, "bootstrap.run_test", None, 500, 4096),
        _grown(4, "estimators.build_estimate_matrix", 3, 300, 3072),
        _grown(5, "bootstrap.test_statistic", 3, 7, 0),
    ]
    metrics = spans.layer_metrics(trace, [], 1)
    assert metrics["bootstrap.page_faults"][0] == 100 - 40 + 7
    assert metrics["bootstrap.rss_growth_mb"][0] == pytest.approx(1.0)
    assert metrics["estimators.page_faults"][0] == 40 + 300
    assert metrics["estimators.rss_growth_mb"][0] == pytest.approx(4.0)
    assert metrics["bootstrap.run_test_s"][0] == pytest.approx(1.0)


def test_run_names_every_workload():
    import run
    from workloads import WORKLOADS

    assert run.NAMES == tuple(WORKLOADS)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.NAMES)
    per_layer = spans.layer_metrics([], [], 1)
    assert [m["name"] for m in bench["per_layer"]] == list(per_layer)
