"""Estimate sequences: hand values, unbiasedness, dependence structure."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from conftest import star_tree
from treegof.estimators import (
    EstimateSequence,
    TetradIndex,
    build_estimate_matrix,
    column_means,
    monomial_estimates,
    plugin_tetrads,
    tetrad_estimates,
    tetrad_value,
)
from treegof.model import covariance_from_factor, sample, setup_params
from treegof.tree import enumerate_constraints

X_TETRAD = np.array(
    [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0], [9.0, 10.0, 11.0, 12.0]]
)
X_MONO = np.array(
    [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0], [10.0, 11.0, 12.0]]
)
# symmetric with eigenvalues well above zero, so a legal covariance
PD = np.array(
    [
        [9.0, 0.5, 1.0, 2.0],
        [0.5, 9.0, 3.0, 1.0],
        [1.0, 3.0, 9.0, 0.5],
        [2.0, 1.0, 0.5, 9.0],
    ]
)


def test_tetrad_index_canonicalization():
    idx = TetradIndex((1, 2), (0, 3))
    assert idx.rows == (0, 3)
    assert idx.cols == (1, 2)
    # all four sign-preserving forms collapse to one object
    forms = [
        TetradIndex((0, 3), (1, 2)),
        TetradIndex((3, 0), (2, 1)),
        TetradIndex((1, 2), (0, 3)),
        TetradIndex((2, 1), (3, 0)),
    ]
    assert len(set(forms)) == 1


def test_tetrad_index_validation():
    with pytest.raises(ValueError, match="distinct"):
        TetradIndex((0, 1), (1, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        TetradIndex((-1, 1), (2, 3))


def test_tetrad_value_hand_matrix():
    idx = TetradIndex((0, 3), (1, 2))
    assert tetrad_value(PD, idx) == pytest.approx(5.0)
    assert tetrad_value(np.diag([1.0, 2.0, 3.0, 4.0]), idx) == 0.0
    with pytest.raises(IndexError):
        tetrad_value(np.eye(3), idx)


def test_tetrad_value_zero_under_equicorrelation():
    cov = covariance_from_factor(setup_params(1, 6, seed=0))
    for quad in itertools.combinations(range(6), 4):
        p, q, r, s = quad
        assert tetrad_value(cov, TetradIndex((p, s), (q, r))) == pytest.approx(0.0)


def test_tetrad_estimates_hand_values():
    idx = TetradIndex((0, 3), (1, 2))
    np.testing.assert_allclose(tetrad_estimates(X_TETRAD, idx), [24.0, 200.0])

    ones = np.ones((2, 4))
    np.testing.assert_array_equal(tetrad_estimates(ones, idx), [0.0])

    with pytest.raises(ValueError, match="at least 2 rows"):
        tetrad_estimates(np.ones((1, 4)), idx)


def test_monomial_estimates_hand_values():
    np.testing.assert_allclose(
        monomial_estimates(X_MONO, (0, 1, 2)), [3456.0, 166320.0]
    )
    np.testing.assert_array_equal(
        monomial_estimates(np.ones((5, 3)), (0, 1, 2)), np.ones(3)
    )
    with pytest.raises(ValueError, match="at least 3 rows"):
        monomial_estimates(np.ones((2, 3)), (0, 1, 2))
    with pytest.raises(ValueError, match="distinct"):
        monomial_estimates(np.ones((5, 3)), (0, 0, 1))


def test_estimates_unbiased_under_one_factor_null():
    cov = covariance_from_factor(setup_params(1, 4, seed=0))
    reps = 500
    n = 50
    idx = TetradIndex((0, 3), (1, 2))
    tet_means = np.empty(reps)
    mono_means = np.empty(reps)
    for rep in range(reps):
        x = sample(cov, n, seed=rep).data
        tet_means[rep] = tetrad_estimates(x, idx).mean()
        mono_means[rep] = monomial_estimates(x, (0, 1, 2)).mean()
    se = tet_means.std(ddof=1) / math.sqrt(reps)
    assert abs(tet_means.mean()) < 4 * se
    se = mono_means.std(ddof=1) / math.sqrt(reps)
    # sigma_pq sigma_pr sigma_qr = 1 for these parameters
    assert abs(mono_means.mean() - 1.0) < 4 * se


def test_sequences_uncorrelated_beyond_dependence_range():
    cov = covariance_from_factor(setup_params(1, 4, seed=0))
    reps = 3000
    idx = TetradIndex((0, 3), (1, 2))
    big = sample(cov, reps * 8, seed=99).data.reshape(reps, 8, 4)
    tet0 = np.empty(reps)
    tet2 = np.empty(reps)
    mono0 = np.empty(reps)
    mono3 = np.empty(reps)
    for rep in range(reps):
        t = tetrad_estimates(big[rep], idx)
        tet0[rep], tet2[rep] = t[0], t[2]
        mo = monomial_estimates(big[rep], (0, 1, 2))
        mono0[rep], mono3[rep] = mo[0], mo[3]
    assert abs(np.corrcoef(tet0, tet2)[0, 1]) < 0.1
    assert abs(np.corrcoef(mono0, mono3)[0, 1]) < 0.1


def test_build_matrix_star4_columns():
    sys = enumerate_constraints(star_tree(4))
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 4))
    seq = build_estimate_matrix(x, sys)
    assert seq.n_columns == 2
    assert seq.n_rows == 29
    assert seq.dependence_order == 1
    assert seq.ids == ("t1.4|2.3", "t1.2|4.3")
    assert not seq.one_sided.any()

    centered = x - x.mean(axis=0)
    np.testing.assert_allclose(
        seq.values[:, 0], tetrad_estimates(centered, TetradIndex((0, 3), (1, 2)))
    )

    raw = build_estimate_matrix(x, sys, center=False)
    np.testing.assert_allclose(
        raw.values[:, 0], tetrad_estimates(x, TetradIndex((0, 3), (1, 2)))
    )
    assert not np.allclose(raw.values, seq.values)


def test_build_matrix_with_inequality_columns():
    sys = enumerate_constraints(star_tree(4))
    rng = np.random.default_rng(2)
    x = rng.standard_normal((25, 4))
    seq = build_estimate_matrix(x, sys, mode="all")
    assert seq.n_columns == 6
    assert seq.n_rows == 23
    assert seq.dependence_order == 2
    np.testing.assert_array_equal(
        seq.one_sided, [False, False, True, True, True, True]
    )
    assert seq.ids[2:] == ("m1.2.3", "m1.2.4", "m1.3.4", "m2.3.4")

    centered = x - x.mean(axis=0)
    np.testing.assert_allclose(
        seq.values[:, 2], -monomial_estimates(centered, (0, 1, 2))
    )
    # equality columns are the tetrad differences cut to the common length
    np.testing.assert_allclose(
        seq.values[:, 0],
        tetrad_estimates(centered, TetradIndex((0, 3), (1, 2)))[:23],
    )


def test_build_matrix_star8_column_count():
    sys = enumerate_constraints(star_tree(8))
    x = np.random.default_rng(3).standard_normal((12, 8))
    seq = build_estimate_matrix(x, sys)
    assert seq.n_columns == 140


def test_build_matrix_subsampling():
    sys = enumerate_constraints(star_tree(5))
    x = np.random.default_rng(4).standard_normal((20, 5))
    full = build_estimate_matrix(x, sys)
    assert full.n_columns == 10

    sub = build_estimate_matrix(x, sys, subsample=(7, 11))
    assert sub.n_columns == 7
    positions = [full.ids.index(i) for i in sub.ids]
    assert positions == sorted(positions)
    for local, pos in enumerate(positions):
        np.testing.assert_array_equal(sub.values[:, local], full.values[:, pos])

    again = build_estimate_matrix(x, sys, subsample=(7, 11))
    assert again.ids == sub.ids

    other = build_estimate_matrix(x, sys, subsample=(7, 12))
    assert other.ids != sub.ids

    with pytest.raises(ValueError, match="exceeds"):
        build_estimate_matrix(x, sys, subsample=(11, 0))
    with pytest.raises(ValueError, match="at least 1"):
        build_estimate_matrix(x, sys, subsample=(0, 0))


def test_build_matrix_input_validation():
    sys = enumerate_constraints(star_tree(4))
    with pytest.raises(ValueError, match="expect 4"):
        build_estimate_matrix(np.ones((10, 5)), sys)
    with pytest.raises(ValueError, match="at least 2 rows"):
        build_estimate_matrix(np.ones((1, 4)), sys)
    with pytest.raises(ValueError, match="at least 3 rows"):
        build_estimate_matrix(np.ones((2, 4)), sys, mode="all")
    with pytest.raises(ValueError, match="unknown mode"):
        build_estimate_matrix(np.ones((10, 4)), sys, mode="both")


def test_column_means_matches_streaming_sum():
    sys = enumerate_constraints(star_tree(5))
    x = np.random.default_rng(8).standard_normal((40, 5))
    seq = build_estimate_matrix(x, sys)
    means = column_means(seq)
    for k in range(seq.n_columns):
        direct = math.fsum(seq.values[:, k]) / seq.n_rows
        assert means[k] == pytest.approx(direct, rel=1e-13)

    empty = EstimateSequence(
        np.empty((0, 2)), 1, ("a", "b"), np.zeros(2, dtype=bool)
    )
    with pytest.raises(ValueError, match="empty"):
        column_means(empty)


def test_plugin_tetrads_match_definition():
    sys = enumerate_constraints(star_tree(5))
    x = np.random.default_rng(9).standard_normal((50, 5))
    tau = plugin_tetrads(x, sys)
    s = x.T @ x / 50
    for k, row in enumerate(sys.equality_column_pairs().tolist()):
        idx = TetradIndex(tuple(row[:2]), tuple(row[2:]))
        assert tau[k] == pytest.approx(tetrad_value(s, idx))


def test_plugin_tetrads_vanish_on_rank_one_data():
    sys = enumerate_constraints(star_tree(4))
    x = np.tile([1.0, 2.0, -1.0, 0.5], (10, 1))
    np.testing.assert_allclose(plugin_tetrads(x, sys), 0.0, atol=1e-12)


def test_plugin_tetrads_consistent_for_large_n():
    sys = enumerate_constraints(star_tree(4))
    cov = covariance_from_factor(setup_params(1, 4, seed=0))
    x = sample(cov, 20_000, seed=17).data
    tau = plugin_tetrads(x, sys)
    assert np.max(np.abs(tau)) < 0.1


def test_tetrad_values_relabel_entrywise():
    # evaluating a stored tetrad on a relabeled matrix is the same as
    # evaluating the relabeled index arrangement on the original
    m = 5
    sys = enumerate_constraints(star_tree(m))
    rng = np.random.default_rng(31)
    a = rng.standard_normal((m, m))
    s = a @ a.T + m * np.eye(m)
    for perm in ([1, 0, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3]):
        perm = np.array(perm)
        s_perm = s[np.ix_(perm, perm)]
        for a_, b_, c_, d_ in sys.equality_column_pairs().tolist():
            got = tetrad_value(s_perm, TetradIndex((a_, b_), (c_, d_)))
            pa, pb, pc, pd = perm[a_], perm[b_], perm[c_], perm[d_]
            expected = s[pa, pb] * s[pc, pd] - s[pa, pd] * s[pc, pb]
            assert got == pytest.approx(expected, rel=1e-12)


def test_reversal_relabeling_permutes_plugin_values():
    # reversing the variable order maps every stored tetrad onto another
    # stored tetrad with no sign change (the crossing pairing of each
    # quadruple maps to the target's crossing pairing), so the plug-in
    # vector is a permutation of the original.  Raw estimate sequences
    # only match in expectation: the rewriting can swap the roles of the
    # two consecutive samples.
    m = 5
    sys = enumerate_constraints(star_tree(m))
    rng = np.random.default_rng(77)
    x = rng.standard_normal((40, m))
    orig = plugin_tetrads(x, sys)
    flipped = plugin_tetrads(x[:, ::-1], sys)

    pairs = sys.equality_column_pairs().tolist()
    pos = {tuple(p): k for k, p in enumerate(pairs)}
    for k, (a, b, c, d) in enumerate(pairs):
        mapped = TetradIndex((m - 1 - a, m - 1 - b), (m - 1 - c, m - 1 - d))
        target = pos[mapped.rows + mapped.cols]
        assert flipped[k] == pytest.approx(orig[target], rel=1e-12)
    assert sorted(np.round(flipped, 12)) == sorted(np.round(orig, 12))


def test_estimate_sequence_rejects_bad_input():
    with pytest.raises(ValueError, match="non-finite"):
        EstimateSequence(
            np.array([[1.0, np.nan]]), 1, ("a", "b"), np.zeros(2, dtype=bool)
        )
    with pytest.raises(ValueError, match="one entry per column"):
        EstimateSequence(np.ones((3, 2)), 1, ("a", "b"), np.zeros(3, dtype=bool))
