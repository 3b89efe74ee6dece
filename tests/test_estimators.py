"""Estimate sequences: hand values, unbiasedness, dependence structure."""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treegof.bootstrap as btmod
from conftest import product_columns, random_latent_tree, star_tree
from treegof.bootstrap import BootstrapConfig, Scratch, run_test
from treegof.estimators import (
    EstimateSequence,
    build_estimate_matrix,
    column_source,
    plugin_tetrads,
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


def test_tetrad_value_hand_matrix():
    # row 0 of the star-4 system is the quad (0, 3, 1, 2):
    # s14*s23 - s13*s24
    sys = enumerate_constraints(star_tree(4))
    assert sys.equality_column_pairs()[0].tolist() == [0, 3, 1, 2]
    assert sys.equality_residuals(PD)[0] == pytest.approx(5.0)
    assert sys.equality_residuals(np.diag([1.0, 2.0, 3.0, 4.0]))[0] == 0.0
    with pytest.raises(IndexError):
        sys.equality_residuals(np.eye(3))


def test_tetrad_value_zero_under_equicorrelation():
    cov = covariance_from_factor(setup_params(1, 6, seed=0))
    residuals = enumerate_constraints(star_tree(6)).equality_residuals(cov)
    assert len(residuals) == 30
    np.testing.assert_allclose(residuals, 0.0, atol=1e-12)


def test_tetrad_estimates_hand_values():
    sys = enumerate_constraints(star_tree(4))
    raw = build_estimate_matrix(X_TETRAD, sys, center=False)
    np.testing.assert_allclose(raw.values[:, 0], [24.0, 200.0])

    ones = build_estimate_matrix(np.ones((2, 4)), sys, center=False)
    np.testing.assert_array_equal(ones.values, [[0.0, 0.0]])

    with pytest.raises(ValueError, match="at least 2 rows"):
        build_estimate_matrix(np.ones((1, 4)), sys)


def test_monomial_estimates_hand_values():
    # a 3-leaf star has no equalities, so column 0 is the sign column
    # of (0, 1, 2), holding negated monomial estimates
    sys = enumerate_constraints(star_tree(3))
    raw = build_estimate_matrix(X_MONO, sys, mode="all", center=False)
    np.testing.assert_allclose(raw.values[:, 0], [-3456.0, -166320.0])
    ones = build_estimate_matrix(np.ones((5, 3)), sys, mode="all", center=False)
    np.testing.assert_array_equal(ones.values[:, 0], -np.ones(3))
    with pytest.raises(ValueError, match="at least 3 rows"):
        build_estimate_matrix(np.ones((2, 3)), sys, mode="all")


def _raw_star4_columns(x):
    """Column 0 (tetrad s14*s23 - s13*s24) and column 2 (negated
    s12*s13*s23) of the uncentered star-4 matrix with sign columns."""
    sys = enumerate_constraints(star_tree(4))
    values = build_estimate_matrix(x, sys, mode="all", center=False).values
    return values[:, 0], values[:, 2]


def test_estimates_unbiased_under_one_factor_null():
    cov = covariance_from_factor(setup_params(1, 4, seed=0))
    reps = 500
    n = 50
    tet_means = np.empty(reps)
    mono_means = np.empty(reps)
    for rep in range(reps):
        tet, sign = _raw_star4_columns(sample(cov, n, seed=rep).data)
        tet_means[rep] = tet.mean()
        mono_means[rep] = -sign.mean()
    se = tet_means.std(ddof=1) / math.sqrt(reps)
    assert abs(tet_means.mean()) < 4 * se
    se = mono_means.std(ddof=1) / math.sqrt(reps)
    # sigma_pq sigma_pr sigma_qr = 1 for these parameters
    assert abs(mono_means.mean() - 1.0) < 4 * se


def test_sequences_uncorrelated_beyond_dependence_range():
    cov = covariance_from_factor(setup_params(1, 4, seed=0))
    reps = 3000
    big = sample(cov, reps * 8, seed=99).data.reshape(reps, 8, 4)
    tet0 = np.empty(reps)
    tet2 = np.empty(reps)
    mono0 = np.empty(reps)
    mono3 = np.empty(reps)
    for rep in range(reps):
        t, mo = _raw_star4_columns(big[rep])
        tet0[rep], tet2[rep] = t[0], t[2]
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
    # s14*s23 - s13*s24 and s12*s34 - s13*s24
    assert sys.equality_column_pairs().tolist() == [[0, 3, 1, 2], [0, 1, 3, 2]]
    assert not seq.one_sided.any()

    centered = x - x.mean(axis=0)
    np.testing.assert_allclose(
        seq.values, build_estimate_matrix(centered, sys, center=False).values
    )

    raw = build_estimate_matrix(x, sys, center=False)
    assert not np.allclose(raw.values, seq.values)


def test_build_matrix_with_inequality_columns():
    sys = enumerate_constraints(star_tree(4))
    rng = np.random.default_rng(2)
    x = rng.standard_normal((25, 4))
    seq = build_estimate_matrix(x, sys, mode="all")
    assert seq.n_columns == 6
    assert seq.n_rows == 23
    np.testing.assert_array_equal(
        seq.one_sided, [False, False, True, True, True, True]
    )
    assert sys.sign_triples().tolist() == [
        [0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]
    ]

    centered = x - x.mean(axis=0)
    np.testing.assert_allclose(
        seq.values,
        build_estimate_matrix(centered, sys, mode="all", center=False).values,
    )
    # equality columns are the tetrad differences cut to the common length
    np.testing.assert_allclose(
        seq.values[:, :2], build_estimate_matrix(x, sys).values[:23]
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
    # every full column is distinct, so a subsampled column's value
    # gives its position
    positions = [
        [j for j in range(full.n_columns) if np.array_equal(col, full.values[:, j])]
        for col in sub.values.T
    ]
    assert all(len(p) == 1 for p in positions)
    positions = [p[0] for p in positions]
    assert positions == sorted(set(positions))

    again = build_estimate_matrix(x, sys, subsample=(7, 11))
    np.testing.assert_array_equal(again.values, sub.values)

    other = build_estimate_matrix(x, sys, subsample=(7, 12))
    assert not np.array_equal(other.values, sub.values)

    with pytest.raises(ValueError, match="exceeds"):
        build_estimate_matrix(x, sys, subsample=(11, 0))
    with pytest.raises(ValueError, match="at least 1"):
        build_estimate_matrix(x, sys, subsample=(0, 0))


def test_build_matrix_peak_is_about_the_matrix():
    # the columns are built a chunk at a time in one workspace and copied
    # into the matrix (499 x 9,690, 36.9 MiB on this star); building them
    # all at once in three full-width buffers peaked at 3.13x
    system = enumerate_constraints(star_tree(20))
    x = sample(covariance_from_factor(setup_params(1, 20, seed=0)), 500, seed=0).data
    tracemalloc.start()
    try:
        seq = build_estimate_matrix(x, system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seq.values.shape == (499, 9690) and seq.values.flags.f_contiguous
    assert peak <= 1.3 * seq.values.nbytes


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


def test_plugin_tetrads_match_definition():
    sys = enumerate_constraints(star_tree(5))
    x = np.random.default_rng(9).standard_normal((50, 5))
    tau = plugin_tetrads(x, sys)
    s = x.T @ x / 50
    for k, (a, b, c, d) in enumerate(sys.equality_column_pairs().tolist()):
        assert tau[k] == pytest.approx(s[a, b] * s[c, d] - s[a, d] * s[c, b])


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


def _canonical_quad(a, b, c, d):
    """Smallest of the four sign-preserving rewritings of
    s_ab*s_cd - s_ad*s_cb."""
    return min((a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a))


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
        target = pos[_canonical_quad(m - 1 - a, m - 1 - b, m - 1 - c, m - 1 - d)]
        assert flipped[k] == pytest.approx(orig[target], rel=1e-12)
    assert sorted(np.round(flipped, 12)) == sorted(np.round(orig, 12))


def test_estimate_sequence_rejects_bad_input():
    with pytest.raises(ValueError, match="non-finite"):
        EstimateSequence(np.array([[1.0, np.nan]]), np.zeros(2, dtype=bool))
    with pytest.raises(ValueError, match="one entry per column"):
        EstimateSequence(np.ones((3, 2)), np.zeros(3, dtype=bool))


def _row_major_columns(x, system, mode, center):
    """The estimate matrix from row-major data: the builder's arithmetic
    gathering from C-ordered rows."""
    x = np.ascontiguousarray(x)
    if center:
        x = x - x.mean(axis=0)
    rows = len(x) - (2 if mode == "all" else 1)
    triples = system.sign_triples() if mode == "all" else ()
    return product_columns(x, system.equality_column_pairs(), triples, rows)


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["equalities", "all"]),
    st.booleans(),
)
def test_column_major_build_matches_row_major_arithmetic(seed, mode, center):
    rng = np.random.default_rng(seed)
    system = enumerate_constraints(random_latent_tree(rng, m_lo=3, m_hi=7))
    n = int(rng.integers(8, 60))
    x = rng.standard_normal((n, system.m)) * rng.uniform(0.1, 10.0, system.m)
    x += rng.normal(0.0, 3.0, system.m)
    expected = _row_major_columns(x, system, mode, center)
    for data in (x, np.asfortranarray(x)):
        built = build_estimate_matrix(data, system, mode, center=center)
        assert np.array_equal(built.values, expected)

    config = BootstrapConfig(num_multipliers=50, seed=seed, mode=mode, center=center)
    by_rows = _outcome(lambda: run_test(x, system, config))
    by_columns = _outcome(lambda: run_test(np.asfortranarray(x), system, config))
    assert by_rows == by_columns


def _same_folds(got, expected):
    for fold, ref in zip(got, expected, strict=True):
        assert fold.statistic == ref.statistic
        for name in ("diag", "sums", "one_sided"):
            assert np.array_equal(getattr(fold, name), getattr(ref, name)), name


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["equalities", "all"]),
    st.sampled_from([None, 1, 5]),
    st.booleans(),
)
def test_chunk_buffers_match_product_expressions(seed, mode, subsample, narrow):
    # the fold builds every chunk in a workspace that earlier, and wider,
    # chunks used.  Rows below the block budget give chunks of many
    # columns; rows above it (``narrow``) one-column chunks, as in a
    # tall dataset.  Chunks and folds at one and two threads must match
    # the plain product expressions bit for bit.
    rng = np.random.default_rng(seed)
    system = enumerate_constraints(random_latent_tree(rng, m_lo=4, m_hi=7))
    n = int(rng.integers(8, 60))
    x = rng.standard_normal((n, system.m)) * rng.uniform(0.1, 10.0, system.m)
    if subsample is not None:
        columns = system.n_equality_terms + (
            len(system.sign_triples()) if mode == "all" else 0
        )
        subsample = (min(subsample, columns), seed)
    source = column_source(x, system, mode, subsample)
    centered = x - x.mean(axis=0)
    expected = product_columns(centered, source.quads, source.triples, source.n_rows)
    budget = source.n_rows - 1 if narrow else btmod._BLOCK_BUDGET
    with mock.patch.object(btmod, "_BLOCK_BUDGET", budget):
        slices = btmod._column_slices(source.n_rows, slice(0, source.n_columns))
        assert len(slices) == (source.n_columns if narrow else 1)
        widest = slices[0].stop - slices[0].start
        work = [np.empty(shape) for shape in source.workspace_shapes(widest)]
        for cols in slices[::-1] + slices:
            assert np.array_equal(source.block(cols, work), expected[:, cols])
        built = build_estimate_matrix(x, system, mode, subsample)
        assert np.array_equal(built.values, expected)

        plain = EstimateSequence(expected, source.one_sided)
        for jobs in (1, 2):
            with btmod._ordered_map(jobs) as imap:
                got = btmod._folds(source, 3, Scratch(), jobs, imap)
                expected = btmod._folds(plain, 3, Scratch())
                _same_folds((fold() for fold in got), (fold() for fold in expected))
