"""Path-length metrics and the tree-metric realizability oracle."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import (
    caterpillar,
    inner_node_tree,
    observed_chain,
    random_latent_tree,
    reference_classes,
    star_tree,
)
import treegof.metric
from treegof.metric import correlation_metric, induced_metric, is_t_induced
from treegof.tree import SPLIT, enumerate_constraints


def unit_weights(tree):
    return {e: 1.0 for e in tree.edges}


def random_weights(tree, rng, lo=0.1, hi=2.0):
    return {e: float(rng.uniform(lo, hi)) for e in tree.edges}


def test_induced_metric_star_unit_weights():
    t = star_tree(3)
    delta = induced_metric(t, unit_weights(t))
    expected = np.full((3, 3), 2.0)
    np.fill_diagonal(expected, 0.0)
    np.testing.assert_allclose(delta, expected)


def test_induced_metric_zero_weights():
    t = caterpillar()
    delta = induced_metric(t, {e: 0.0 for e in t.edges})
    np.testing.assert_array_equal(delta, np.zeros((4, 4)))


def test_induced_metric_chain_additivity():
    t = observed_chain(3)
    delta = induced_metric(t, {("1", "2"): 0.7, ("2", "3"): 1.1})
    assert delta[0, 2] == pytest.approx(1.8)
    assert delta[0, 2] == pytest.approx(delta[0, 1] + delta[1, 2])


def test_induced_metric_rejects_bad_weights():
    t = star_tree(3)
    with pytest.raises(ValueError, match="missing weight"):
        induced_metric(t, {("h", "x1"): 1.0})
    w = unit_weights(t)
    w[("h", "x1")] = -0.5
    with pytest.raises(ValueError, match="negative weight"):
        induced_metric(t, w)
    with pytest.raises(ValueError, match="not an edge"):
        induced_metric(t, {**unit_weights(t), ("x1", "x2"): 5.0})
    with pytest.raises(ValueError, match="both orientations"):
        induced_metric(t, {**unit_weights(t), ("x1", "h"): 3.0})


def test_pseudo_metric_axioms_flagged():
    bad = np.array([[0.0, 1.0, 5.0], [1.0, 0.1, 1.0], [5.0, 1.0, 0.0]])
    kinds = {v.kind for v in is_t_induced(bad, star_tree(3)).metric_violations}
    # d(0,2)=5 > d(0,1)+d(1,2)=2 and the middle diagonal entry is off
    assert kinds == {"diagonal", "triangle"}

    asym = np.array([[0.0, 1.0], [2.0, 0.0]])
    kinds = {v.kind for v in is_t_induced(asym, observed_chain(2)).metric_violations}
    assert "symmetry" in kinds


def test_four_point_clean_on_induced():
    rng = np.random.default_rng(3)
    for tree in (star_tree(4), caterpillar(), observed_chain(5), star_tree(6)):
        delta = induced_metric(tree, random_weights(tree, rng))
        assert is_t_induced(delta, tree).four_point_violations == ()


def test_four_point_flags_inflated_entry():
    t = star_tree(4)
    delta = induced_metric(t, unit_weights(t))
    delta[0, 1] += 1.0
    delta[1, 0] += 1.0
    violations = is_t_induced(delta, t).four_point_violations
    counts = Counter(v.kind for v in violations)
    assert counts == {"four-point-eq": 2, "four-point-ineq": 1}
    assert all(v.residual == pytest.approx(1.0) for v in violations)


def test_four_point_zero_matrix_clean():
    t = star_tree(4)
    assert is_t_induced(np.zeros((4, 4)), t).four_point_violations == ()


def test_three_point_chain():
    t = observed_chain(3)
    delta = induced_metric(t, {("1", "2"): 1.0, ("2", "3"): 2.0})
    assert is_t_induced(delta, t).three_point_violations == ()
    delta[0, 2] += 0.5
    delta[2, 0] += 0.5
    violations = is_t_induced(delta, t).three_point_violations
    assert len(violations) == 1
    assert violations[0].kind == "three-point"
    assert violations[0].indices == (0, 1, 2)
    assert violations[0].residual == pytest.approx(0.5)


def test_three_point_vacuous_on_star():
    t = star_tree(5)
    rng = np.random.default_rng(0)
    arbitrary = rng.uniform(0.5, 3.0, size=(5, 5))
    arbitrary = (arbitrary + arbitrary.T) / 2
    np.fill_diagonal(arbitrary, 0.0)
    assert is_t_induced(arbitrary, t).three_point_violations == ()


def test_round_trip_induced_metrics_recognized():
    rng = np.random.default_rng(42)
    corpus = [
        star_tree(3),
        star_tree(5),
        star_tree(7),
        observed_chain(3),
        observed_chain(5),
        observed_chain(7),
        caterpillar(),
        inner_node_tree(),
    ]
    corpus += [random_latent_tree(rng, m_lo=4, m_hi=7) for _ in range(4)]
    draws = 0
    for tree in corpus:
        for _ in range(9):
            delta = induced_metric(tree, random_weights(tree, rng))
            report = is_t_induced(delta, tree)
            assert report.is_induced, (tree.edges, report.all_violations[:3])
            draws += 1
    assert draws >= 100


# Entries whose perturbation must flip the check: any pair appearing in a
# chain additivity or on the equal side of a four-point comparison.  A
# within-block pair of a split quadruple can be absorbed by reweighting,
# so those stay realizable and are excluded here.
SENSITIVE_CASES = [
    (star_tree(4), None),
    (star_tree(6), None),
    (observed_chain(3), None),
    (observed_chain(5), None),
    (caterpillar(), {(0, 2), (1, 3)}),
    (inner_node_tree(), {(0, 1)}),
]


@pytest.mark.parametrize("tree,skip", SENSITIVE_CASES)
def test_perturbation_sensitivity(tree, skip):
    rng = np.random.default_rng(11)
    delta = induced_metric(tree, random_weights(tree, rng, lo=0.5, hi=1.5))
    for i, j in itertools.combinations(range(tree.m), 2):
        if skip and (i, j) in skip:
            continue
        for eps in (1e-7, -1e-7):
            bumped = delta.copy()
            bumped[i, j] += eps
            bumped[j, i] += eps
            report = is_t_induced(bumped, tree)
            assert not report.is_induced, (i, j, eps)


def test_within_block_perturbation_stays_realizable():
    # the caterpillar quadruple splits {0,2} | {1,3}; nudging a
    # within-block distance re-solves to new nonnegative weights
    t = caterpillar()
    rng = np.random.default_rng(5)
    delta = induced_metric(t, random_weights(t, rng, lo=0.5, hi=1.5))
    bumped = delta.copy()
    bumped[0, 2] += 1e-7
    bumped[2, 0] += 1e-7
    assert is_t_induced(bumped, t).is_induced


def _reference_point_violations(delta, tree, tol=1e-9):
    """The three- and four-point checks as loops over the path-rule
    classes, as (kind, indices, residual text) in report order."""
    chains, quads = reference_classes(tree)
    out = []
    for tri, mid in chains.items():
        a, b = (i for i in tri if i != mid)
        res = abs(delta[a, mid] + delta[mid, b] - delta[a, b])
        if res > tol or math.isnan(res):
            out.append(("three-point", (a, mid, b), repr(float(res))))
    for (p, q, r, s), split in quads.items():
        pairings = (((p, q), (r, s)), ((p, r), (q, s)), ((p, s), (q, r)))
        sums = [delta[a, b] + delta[c, d] for (a, b), (c, d) in pairings]
        for k, ((a, b), (c, d)) in enumerate(pairings):
            if split is not None and split != pairings[k]:
                continue
            others = [sums[o] for o in range(3) if o != k]
            for kind, res in (
                ("four-point-eq", abs(others[0] - others[1])),
                ("four-point-ineq", sums[k] - min(others)),
            ):
                if res > tol or math.isnan(res):
                    out.append((kind, (a, b, c, d), repr(float(res))))
    return out


def test_point_checks_match_reference_loops():
    rng = np.random.default_rng(2718)
    for _ in range(20):
        tree = random_latent_tree(rng, m_lo=4, m_hi=8, n_hi=12)
        on_model = induced_metric(tree, random_weights(tree, rng))
        off_model = rng.uniform(0.0, 2.0, size=(tree.m, tree.m))
        off_model[0, -1] = np.nan
        for delta in (on_model, off_model + off_model.T):
            report = is_t_induced(delta, tree)
            got = [
                (v.kind, v.indices, repr(v.residual))
                for v in report.three_point_violations + report.four_point_violations
            ]
            assert got == _reference_point_violations(delta, tree)


def test_is_t_induced_classifies_once(monkeypatch):
    # one pass of the block generator, which classifies each first
    # variable's triples and quadruples once
    calls, yielded = [], []
    blocks = treegof.metric._classification_blocks

    def counting(tree):
        calls.append(tree)
        for block in blocks(tree):
            yielded.append(block)
            yield block

    monkeypatch.setattr(treegof.metric, "_classification_blocks", counting)
    t = caterpillar()
    delta = induced_metric(t, unit_weights(t))
    assert is_t_induced(delta, t).is_induced
    assert calls == [t]
    assert len(yielded) == t.m - 2


def test_is_t_induced_memory_bounded_by_one_block():
    # a 40-leaf star has 91,390 quadruples and 274,170 edge-disjoint
    # pairings; checking them all at once peaked near 48 MiB, one first
    # variable's quadruples at a time a few MiB
    t = star_tree(40)
    delta = induced_metric(t, random_weights(t, np.random.default_rng(40)))
    tracemalloc.start()
    try:
        report = is_t_induced(delta, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.is_induced
    assert peak < 12 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_shape_mismatch_refused():
    with pytest.raises(ValueError, match="does not match m=4"):
        is_t_induced(np.zeros((3, 3)), star_tree(4))


def test_pair_split_matches_four_point_strictness():
    rng = np.random.default_rng(123)
    for _ in range(20):
        tree = random_latent_tree(rng, m_lo=4, m_hi=6)
        delta = induced_metric(tree, random_weights(tree, rng, lo=0.2, hi=1.5))
        system = enumerate_constraints(tree)
        # split rows are (a, c, b, d) for the blocks ab|cd
        splits = {tuple(row) for row in system.index[system.kinds == SPLIT].tolist()}
        for p, q, r, s in itertools.combinations(range(tree.m), 4):
            has_pair_split = (p, r, q, s) in splits
            cond = (
                delta[p, q] + delta[r, s] < delta[p, r] + delta[q, s] - 1e-9
                and delta[p, q] + delta[r, s] < delta[p, s] + delta[q, r] - 1e-9
            )
            assert has_pair_split == cond


def test_correlation_metric_values():
    cov = np.array([[4.0, 1.0], [1.0, 1.0]])
    delta = correlation_metric(cov)
    assert delta[0, 1] == pytest.approx(np.log(2.0))
    assert delta[0, 0] == 0.0

    flipped = np.array([[4.0, -1.0], [-1.0, 1.0]])
    np.testing.assert_allclose(correlation_metric(flipped), delta)

    indep = np.eye(2)
    assert np.isinf(correlation_metric(indep)[0, 1])

    with pytest.raises(ValueError, match="diagonal"):
        correlation_metric(np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_tree_covariance_metric_is_induced():
    # product-rule covariances give delta = -log|corr| realizable on the
    # same tree with weights -log|edge corr|
    t = caterpillar()
    cov = np.eye(4)
    a, b, c, d, e = 0.9, -0.8, 0.7, 0.6, 0.5
    cov[0, 1] = cov[1, 0] = a * e * b
    cov[0, 2] = cov[2, 0] = a * c
    cov[0, 3] = cov[3, 0] = a * e * d
    cov[1, 2] = cov[2, 1] = b * e * c
    cov[1, 3] = cov[3, 1] = b * d
    cov[2, 3] = cov[3, 2] = c * e * d
    report = is_t_induced(correlation_metric(cov), t)
    assert report.is_induced

    cov_bad = cov.copy()
    cov_bad[0, 1] = cov_bad[1, 0] = a * e * b + 0.05
    report = is_t_induced(correlation_metric(cov_bad), t)
    assert not report.is_induced
