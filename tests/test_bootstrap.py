"""Tests for the batched multiplier bootstrap and the quadratic-form check.

Hand-computed oracles use tiny columns where batch sums can be done on
paper; distributional claims (size, conditional variance, null mean of
the quadratic form) use fixed seeds and wide tolerance bands.
"""

from __future__ import annotations

import math
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence

import treegof.bootstrap as btmod
from conftest import random_latent_tree, star_tree
from treegof.bootstrap import (
    BootstrapConfig,
    HotellingResult,
    batched_diag,
    bootstrap_coordinates,
    hotelling_statistic,
    multiplier_draws,
    quantile_from_draws,
    run_test,
    statistic_and_draws,
)
from treegof.bootstrap import test_statistic as sup_statistic
from treegof.estimators import EstimateSequence, build_estimate_matrix
from treegof.model import covariance_from_factor, sample, setup_params
from treegof.tree import enumerate_constraints


def _seq(values, one_sided=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    k = values.shape[1]
    sided = np.zeros(k, dtype=bool) if one_sided is None else np.asarray(one_sided)
    return EstimateSequence(values, sided)


# ---------------------------------------------------------------------------
# batch sums and the test statistic


def test_batched_diag_toy_column():
    # column 1..6, batch size 3: deviations sum to -7.5 and +7.5 per batch,
    # diag = (7.5^2 + 7.5^2) / 6 = 6.75
    seq = _seq([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    np.testing.assert_allclose(batched_diag(seq, 3), [6.75], rtol=0, atol=0)
    assert sup_statistic(seq, 3) == pytest.approx(3.299831645537221, rel=1e-15)


def test_batched_diag_at_batch_size_one_is_variance():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(23, 3))
    seq = _seq(values)
    np.testing.assert_allclose(batched_diag(seq, 1), values.var(axis=0), rtol=1e-12)


def test_batched_diag_manual_oracle():
    # 17 rows, batch size 5: three full batches, the last two rows unused
    rng = np.random.default_rng(7)
    values = rng.normal(size=(17, 2))
    seq = _seq(values)
    got = batched_diag(seq, 5)
    mean = values.mean(axis=0)
    for j in range(2):
        sums = [values[i : i + 5, j].sum() - 5 * mean[j] for i in (0, 5, 10)]
        expect = sum(s * s for s in sums) / 15.0
        assert got[j] == pytest.approx(expect, rel=1e-12)


def test_batch_sums_add_rows_in_order():
    # the rows of a batch add in row order, whatever the batch size, so
    # the sums match a plain Python loop bit for bit
    rng = np.random.default_rng(8)
    values = rng.normal(size=(34, 8)) * 10.0 ** rng.integers(-3, 4, size=8)
    for batch in (3, 10):
        fold = btmod._seq_fold(_seq(values), batch)
        # each column's mean from the column as one contiguous vector
        dev = values - [values[:, c].copy().mean() for c in range(values.shape[1])]
        omega = len(values) // batch
        expect = np.empty((omega, values.shape[1]))
        for i in range(omega):
            for c in range(values.shape[1]):
                total = dev[i * batch, c]
                for row in range(i * batch + 1, (i + 1) * batch):
                    total += dev[row, c]
                expect[i, c] = total
        np.testing.assert_array_equal(fold.sums, expect)


def test_statistic_zero_when_means_vanish():
    seq = _seq([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    assert sup_statistic(seq, 3) == 0.0


def test_statistic_one_sided_keeps_sign():
    values = [-1.0, -2.0, -3.0, -4.0, -5.0, -6.0]
    equality = _seq(values)
    sided = _seq(values, one_sided=[True])
    assert sup_statistic(equality, 3) == pytest.approx(3.299831645537221, rel=1e-15)
    assert sup_statistic(sided, 3) == pytest.approx(-3.299831645537221, rel=1e-15)


def test_statistic_scale_invariant():
    rng = np.random.default_rng(11)
    values = rng.normal(size=(40, 4))
    sided = np.array([False, True, False, True])
    base = sup_statistic(_seq(values, sided), 3)
    scaled = sup_statistic(_seq(values * 3.7, sided), 3)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_too_few_batches_error():
    seq = _seq([1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(ValueError, match="need at least 2"):
        batched_diag(seq, 3)


def test_constant_column_excluded_from_statistic():
    rng = np.random.default_rng(3)
    live = rng.normal(size=12)
    values = np.column_stack([np.full(12, 9.0), live])
    seq = _seq(values)
    only_live = _seq(live)
    assert batched_diag(seq, 3)[0] == 0.0
    assert sup_statistic(seq, 3) == pytest.approx(sup_statistic(only_live, 3))


def test_all_columns_constant_error():
    seq = _seq(np.full((12, 2), 5.0))
    with pytest.raises(ValueError, match="numerically constant"):
        sup_statistic(seq, 3)


# ---------------------------------------------------------------------------
# multiplier draws and coordinates


def test_draws_with_explicit_multipliers():
    # batch sums (-4.5, 4.5), diag 6.75; each multiplier row picks the first
    # batch: coordinate -4.5 / sqrt(6 * 6.75) = -sqrt(1/2)
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    seq = _seq(values)
    draws = multiplier_draws(seq, 3, 2, None, multipliers=[[1.0, 0.0], [-1.0, 0.0]])
    np.testing.assert_allclose(draws, [math.sqrt(0.5)] * 2, rtol=1e-12)
    sided = _seq(values, one_sided=[True])
    draws = multiplier_draws(sided, 3, 2, None, multipliers=[[1.0, 0.0], [-1.0, 0.0]])
    np.testing.assert_allclose(draws, [-math.sqrt(0.5), math.sqrt(0.5)], rtol=1e-12)


def test_zero_multipliers_give_zero_draws():
    rng = np.random.default_rng(0)
    seq = _seq(rng.normal(size=(30, 3)))
    draws = multiplier_draws(seq, 3, 5, None, multipliers=np.zeros((5, 10)))
    np.testing.assert_array_equal(draws, np.zeros(5))


def test_multipliers_shape_error():
    seq = _seq(np.arange(12.0))
    with pytest.raises(ValueError, match="shape"):
        multiplier_draws(seq, 3, 5, None, multipliers=np.zeros((5, 3)))


def test_draws_are_row_maxima_of_coordinates():
    tree = star_tree(6)
    system = enumerate_constraints(tree)
    cov = covariance_from_factor(setup_params(1, 6, seed=0))
    data = sample(cov, 100, seed=9).data
    seq = build_estimate_matrix(data, system, mode="all")
    draws = multiplier_draws(seq, 3, 57, 1234)
    coords = bootstrap_coordinates(seq, 3, 57, 1234)
    assert coords.shape == (57, seq.n_columns)
    contrib = np.where(seq.one_sided, coords, np.abs(coords))
    np.testing.assert_allclose(draws, contrib.max(axis=1), rtol=0, atol=0)


def test_draws_seed_determinism():
    rng = np.random.default_rng(2)
    seq = _seq(rng.normal(size=(60, 2)))
    a = multiplier_draws(seq, 3, 40, 77)
    b = multiplier_draws(seq, 3, 40, 77)
    c = multiplier_draws(seq, 3, 40, 78)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def _set_budgets(monkeypatch, chunk, block):
    monkeypatch.setattr(btmod, "_CHUNK_BUDGET", chunk)
    monkeypatch.setattr(btmod, "_BLOCK_BUDGET", block)


def test_draws_invariant_to_chunk_size(monkeypatch):
    rng = np.random.default_rng(5)
    seq = _seq(rng.normal(size=(33, 4)))
    full = multiplier_draws(seq, 3, 50, 99)
    diag = batched_diag(seq, 3)
    defaults = btmod._CHUNK_BUDGET, btmod._BLOCK_BUDGET
    side = btmod._TILE_SIDE
    for chunk, block, tile_side in (
        (7, defaults[1], side), (defaults[0], 7, side), (7, 7, side), (*defaults, 2)
    ):
        _set_budgets(monkeypatch, chunk, block)
        monkeypatch.setattr(btmod, "_TILE_SIDE", tile_side)
        chunked = multiplier_draws(seq, 3, 50, 99)
        # the multiplier stream is identical; only matmul blocking may differ
        np.testing.assert_allclose(chunked, full, rtol=1e-12)
        np.testing.assert_array_equal(batched_diag(seq, 3), diag)

    # whole runs: budgets of 1 give one column per chunk, one draw per
    # multiplier chunk and one-coordinate tiles; 3 * omega gives three
    # draws per chunk and tiles of up to omega columns.  Per-column
    # arithmetic does not depend on the chunking, so the statistic is
    # exact.
    for kwargs in ({"mode": "equalities"}, {"mode": "all"}, {"subsample": 15}):
        data, system, config = _null_case(6, 250, 3, **kwargs)
        _set_budgets(monkeypatch, *defaults)
        monkeypatch.setattr(btmod, "_TILE_SIDE", side)
        whole = run_test(data, system, config)
        omega = (250 - (2 if kwargs.get("mode") == "all" else 1)) // 3
        for budget in (1, 3 * omega):
            _set_budgets(monkeypatch, budget, budget)
            got = run_test(data, system, config)
            assert (got.statistic, got.k_effective, got.diag_floor_hits, got.reject) == (
                whole.statistic, whole.k_effective, whole.diag_floor_hits, whole.reject
            ), kwargs
            assert got.quantile == pytest.approx(whole.quantile, rel=1e-12, abs=0)
            assert got.p_value == pytest.approx(whole.p_value, rel=1e-12, abs=0)


def _constant_column_case():
    # a constant variable makes every column that holds it constant
    data, system, config = _null_case(6, 250, 8)
    x = data.data.copy()
    x[:, 0] = 2.5
    return x, system, config


@pytest.mark.parametrize(
    "case",
    [
        lambda: _null_case(6, 250, 3),
        lambda: _null_case(6, 250, 4, mode="all"),
        lambda: _null_case(6, 250, 5, subsample=15),
        _constant_column_case,
    ],
    ids=["equalities", "all", "subsample", "constant-column"],
)
def test_results_invariant_to_thread_count(monkeypatch, case):
    # tiny budgets: four-column chunks, four draws per multiplier chunk
    # and seven-column tiles, so many blocks are in flight at once
    data, system, config = case()
    rows = 250 - (2 if config.mode == "all" else 1)
    _set_budgets(monkeypatch, 4 * (rows // 3), 4 * rows)
    monkeypatch.setattr(btmod, "_TILE_SIDE", 7)
    monkeypatch.setattr(btmod, "_usable_cores", lambda: 1)
    base = run_test(data, system, config)
    stat, draws = statistic_and_draws(data, system, config)
    if case is _constant_column_case:
        assert base.diag_floor_hits == 20 and base.k_effective == 10
    # switch threads often, so that blocks finish out of order
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for jobs in (2, 3):
            monkeypatch.setattr(btmod, "_usable_cores", lambda: jobs)
            # every field compared with ==, floats included
            assert run_test(data, system, config) == base
            fold, got_draws = btmod._fold_and_draw(data, system, config, jobs)
            assert fold.statistic == stat
            np.testing.assert_array_equal(got_draws, draws)
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["equalities", "all"]))
def test_results_invariant_to_sign_flips(seed, mode):
    # negation is exact, and every estimate column is odd or even in
    # each variable: a flip negates some equality columns, whose
    # statistic and draws take absolute values, and leaves every sign
    # column as it is.  So the whole result is unchanged, bit for bit.
    rng = np.random.default_rng(seed)
    system = enumerate_constraints(random_latent_tree(rng, m_lo=4, m_hi=7))
    n = int(rng.integers(30, 120))
    x = rng.standard_normal((n, system.m)) * rng.uniform(0.1, 10.0, system.m)
    x += rng.normal(0.0, 3.0, system.m)
    flips = rng.choice([-1.0, 1.0], system.m)
    config = BootstrapConfig(num_multipliers=200, seed=seed, mode=mode)
    for jobs in (1, 2):
        with mock.patch.object(btmod, "_usable_cores", lambda: jobs):
            assert run_test(x * flips, system, config) == run_test(x, system, config)


def test_coordinates_have_unit_conditional_variance():
    tree = star_tree(4)
    system = enumerate_constraints(tree)
    cov = covariance_from_factor(setup_params(1, 4, seed=3))
    data = sample(cov, 60, seed=11).data
    seq = build_estimate_matrix(data, system)
    coords = bootstrap_coordinates(seq, 3, 10_000, 42)
    var = coords.var(axis=0)
    assert var.min() > 0.95 and var.max() < 1.05


# ---------------------------------------------------------------------------
# quantile and p-value conventions


def test_quantile_order_statistic_convention():
    draws = np.arange(1.0, 101.0)
    assert quantile_from_draws(draws, 0.05) == 95.0
    assert quantile_from_draws(draws, 0.5) == 50.0
    assert quantile_from_draws(draws, 1e-9) == 100.0
    assert quantile_from_draws(draws, 0.9999) == 1.0


def test_quantile_monotone_in_alpha():
    rng = np.random.default_rng(8)
    draws = rng.normal(size=500)
    grid = np.linspace(0.01, 0.5, 25)
    values = [quantile_from_draws(draws, a) for a in grid]
    assert all(x >= y for x, y in zip(values, values[1:]))


def test_quantile_alpha_range_error():
    with pytest.raises(ValueError, match="alpha"):
        quantile_from_draws(np.arange(5.0), 0.0)
    with pytest.raises(ValueError, match="alpha"):
        quantile_from_draws(np.arange(5.0), 1.0)


# ---------------------------------------------------------------------------
# full runs


def _null_case(m, n, data_seed, n_multipliers=1000, **config_kwargs):
    system = enumerate_constraints(star_tree(m))
    cov = covariance_from_factor(setup_params(1, m, seed=0))
    data = sample(cov, n, seed=data_seed)
    config = BootstrapConfig(
        num_multipliers=n_multipliers, seed=data_seed, **config_kwargs
    )
    return data, system, config


def test_run_test_null_seed_zero():
    data, system, config = _null_case(6, 250, 0)
    result = run_test(data, system, config)
    assert isinstance(result, btmod.TestResult)
    assert result.k_effective == 30
    assert result.diag_floor_hits == 0
    assert not result.reject
    assert result.p_value == pytest.approx(0.5514485514485514, abs=0.01)
    assert result.statistic == pytest.approx(1.962, abs=0.01)
    assert result.statistic < result.quantile


def test_run_test_determinism():
    data, system, config = _null_case(6, 250, 1)
    first = run_test(data, system, config)
    second = run_test(data, system, config)
    assert first == second
    wrapped = BootstrapConfig(num_multipliers=1000, seed=SeedSequence(1))
    third = run_test(data, system, wrapped)
    assert first == third


def test_run_test_p_value_matches_draws():
    data, system, config = _null_case(6, 250, 2)
    result = run_test(data, system, config)
    mult_ss, _ = SeedSequence(2).spawn(2)
    seq = build_estimate_matrix(data, system)
    draws = multiplier_draws(seq, config.batch_size, config.num_multipliers, mult_ss)
    expect_p = (np.count_nonzero(draws >= result.statistic) + 1.0) / 1001.0
    assert result.p_value == expect_p
    assert result.quantile == quantile_from_draws(draws, config.alpha)
    assert result.statistic == sup_statistic(seq, config.batch_size)


def test_run_test_rejects_off_model_covariance():
    # two independent factors; the single-factor tetrad with blocks split
    # across them fails by 16, so the test must reject at n = 1000
    loadings = np.array([[2.0, 0.0], [2.0, 0.0], [0.0, 2.0], [0.0, 2.0]])
    cov = loadings @ loadings.T + np.eye(4)
    data = sample(cov, 1000, seed=5)
    system = enumerate_constraints(star_tree(4))
    result = run_test(data, system, BootstrapConfig(seed=5))
    assert result.reject
    assert result.p_value < 0.01
    assert result.statistic > result.quantile


def test_run_test_null_size_within_band():
    system = enumerate_constraints(star_tree(6))
    cov = covariance_from_factor(setup_params(1, 6, seed=0))
    reps = 500
    p_values = np.empty(reps)
    for rep in range(reps):
        data = sample(cov, 250, seed=SeedSequence(entropy=2026, spawn_key=(rep, 0)))
        result = run_test(
            data,
            system,
            BootstrapConfig(seed=SeedSequence(entropy=2026, spawn_key=(rep, 1))),
        )
        p_values[rep] = result.p_value
    for alpha in (0.01, 0.05, 0.10):
        size = float(np.mean(p_values <= alpha))
        assert size <= alpha + 0.03, f"size {size} at alpha {alpha}"


def test_run_test_subsampled_null_size_within_band():
    # testing a random subset of 15 of the 30 columns must stay calibrated
    system = enumerate_constraints(star_tree(6))
    cov = covariance_from_factor(setup_params(1, 6, seed=0))
    reps = 500
    p_values = np.empty(reps)
    for rep in range(reps):
        data = sample(cov, 250, seed=SeedSequence(entropy=909, spawn_key=(rep, 0)))
        result = run_test(
            data,
            system,
            BootstrapConfig(
                subsample=15, seed=SeedSequence(entropy=909, spawn_key=(rep, 1))
            ),
        )
        p_values[rep] = result.p_value
    for alpha in (0.01, 0.05, 0.10):
        size = float(np.mean(p_values <= alpha))
        assert size <= alpha + 0.03, f"size {size} at alpha {alpha}"


def test_run_test_subsampled_columns():
    data, system, config = _null_case(
        6, 250, 4, n_multipliers=500, subsample=15
    )
    result = run_test(data, system, config)
    assert result.k_effective == 15
    assert result == run_test(data, system, config)
    # the subsample is part of the null behaviour too
    assert 0.0 < result.p_value <= 1.0


def test_run_test_mode_all_adds_one_sided_columns():
    data, system, config = _null_case(6, 250, 6, mode="all")
    result = run_test(data, system, config)
    assert result.k_effective == 50
    assert not result.reject


def test_run_test_mixed_sign_alternative():
    # independent coordinates violate the sign constraints only weakly but
    # the equality tetrads stay near zero; mode "all" must still test them
    data, system, config = _null_case(4, 800, 12, mode="all")
    result = run_test(data, system, config)
    assert result.k_effective == 6
    assert np.isfinite(result.statistic)


def test_run_test_memory_below_estimate_matrix(monkeypatch):
    # m=20 star: k = 9,690 columns, so the n x k estimate matrix would
    # take 38.7 MB; the chunked fold keeps only the omega x k batch sums
    system = enumerate_constraints(star_tree(20))
    data = sample(covariance_from_factor(setup_params(1, 20, seed=0)), 500, seed=1)
    matrix_bytes = 499 * system.n_equality_terms * 8
    for jobs in (1, 2):
        monkeypatch.setattr(btmod, "_usable_cores", lambda: jobs)
        tracemalloc.start()
        try:
            result = run_test(data, system, BootstrapConfig(seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.k_effective == 9690
        assert peak < matrix_bytes, f"jobs={jobs}: traced peak {peak / 2**20:.1f} MiB"


def test_draws_memory_flat_in_thread_count(monkeypatch):
    # many batches and two tiles per multiplier chunk, with tiles slower
    # than the draw of a chunk: the draws still run ahead by at most one
    # chunk, however many threads take the tiles
    system = enumerate_constraints(star_tree(8))
    data = sample(covariance_from_factor(setup_params(1, 8, seed=0)), 6002, seed=2)
    fold = btmod._seq_fold(build_estimate_matrix(data, system, mode="all"), 2)
    omega = (6002 - 2) // 2
    chunk_bytes = (btmod._CHUNK_BUDGET // omega) * omega * 8
    assert len(btmod._coordinate_tiles(fold, btmod._CHUNK_BUDGET // omega)) == 2
    tile_peaks = btmod._tile_peaks

    def slow_tile_peaks(*args):
        time.sleep(0.01)
        return tile_peaks(*args)

    monkeypatch.setattr(btmod, "_tile_peaks", slow_tile_peaks)
    peaks, draws = {}, {}
    for jobs in (1, 16):
        with btmod._ordered_map(jobs) as imap:
            tracemalloc.start()
            try:
                draws[jobs] = btmod._draws(fold, 1000, 3, imap=imap)
                _, peaks[jobs] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
    np.testing.assert_array_equal(draws[16], draws[1])
    assert peaks[16] < peaks[1] + chunk_bytes / 2, {j: p / 2**20 for j, p in peaks.items()}


def _raises_unchanged(monkeypatch, data, system, config, match):
    # a worker's error reaches the caller as it is, whichever thread
    # raised it, and no thread outlives the call
    threads = threading.active_count()
    messages = []
    for jobs in (1, 2):
        monkeypatch.setattr(btmod, "_usable_cores", lambda: jobs)
        with pytest.raises(ValueError, match=match) as err:
            run_test(data, system, config)
        messages.append(str(err.value))
        assert threading.active_count() == threads
    assert messages[0] == messages[1]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_run_test_overflowing_data_fails_loudly(monkeypatch):
    # squared batch sums of data scaled by 1e40 overflow; the test must
    # not report statistic 0 and p = 1.  One column per chunk, so the
    # error comes from many chunks in flight.
    data, system, config = _null_case(6, 300, 0)
    _raises_unchanged(monkeypatch, data.data * 1e40, system, config, "overflow")
    # data scaled by 1e80 overflow in the estimate columns themselves;
    # their non-finite means must reach the same check
    for mode in ("equalities", "all"):
        _raises_unchanged(
            monkeypatch, data.data * 1e80, system, replace(config, mode=mode), "overflow"
        )
    monkeypatch.setattr(btmod, "_BLOCK_BUDGET", 1)
    _raises_unchanged(monkeypatch, data.data * 1e40, system, config, "overflow")


def test_run_test_non_finite_data_fails_loudly(monkeypatch):
    data, system, config = _null_case(6, 300, 0)
    x = data.data.copy()
    x[7, 3] = np.nan
    monkeypatch.setattr(btmod, "_BLOCK_BUDGET", 1)
    _raises_unchanged(monkeypatch, x, system, config, "non-finite")


def test_run_test_errors():
    system = enumerate_constraints(star_tree(6))
    cov = covariance_from_factor(setup_params(1, 6, seed=0))
    tiny = sample(cov, 5, seed=0)
    with pytest.raises(ValueError, match="need at least 2"):
        run_test(tiny, system, BootstrapConfig())
    triangle = enumerate_constraints(star_tree(3))
    data = sample(np.eye(3), 50, seed=0)
    with pytest.raises(ValueError, match="no test columns"):
        run_test(data, triangle, BootstrapConfig())


def test_config_validation():
    with pytest.raises(ValueError, match="batch_size"):
        BootstrapConfig(batch_size=0)
    with pytest.raises(ValueError, match="num_multipliers"):
        BootstrapConfig(num_multipliers=0)
    with pytest.raises(ValueError, match="alpha"):
        BootstrapConfig(alpha=1.0)
    with pytest.raises(ValueError, match="mode"):
        BootstrapConfig(mode="extra")
    with pytest.raises(ValueError, match="subsample"):
        BootstrapConfig(subsample=0)


# ---------------------------------------------------------------------------
# quadratic-form statistic


def test_hotelling_zero_at_diagonal_data():
    system = enumerate_constraints(star_tree(4))
    data = np.eye(4) * np.array([1.0, 2.0, 3.0, 4.0])
    result = hotelling_statistic(data, system)
    assert result == HotellingResult(0.0, 2, 0)


def test_hotelling_null_mean_matches_rank():
    system = enumerate_constraints(star_tree(4))
    cov = covariance_from_factor(setup_params(1, 4, seed=0))
    stats = []
    for rep in range(300):
        data = sample(cov, 500, seed=rep)
        result = hotelling_statistic(data, system)
        assert result.rank == 2
        assert result.dof == 2
        stats.append(result.statistic)
    mean = float(np.mean(stats))
    assert 1.6 < mean < 2.4


def test_hotelling_rank_cutoff_override():
    system = enumerate_constraints(star_tree(4))
    cov = covariance_from_factor(setup_params(1, 4, seed=0))
    data = sample(cov, 500, seed=0)
    loose = hotelling_statistic(data, system, rank_rtol=1e-15)
    tight = hotelling_statistic(data, system, rank_rtol=1.1)
    assert loose.rank >= hotelling_statistic(data, system).rank
    assert tight == HotellingResult(0.0, 2, 0)


def test_hotelling_input_errors():
    system9 = enumerate_constraints(star_tree(9))
    data9 = sample(np.eye(9), 50, seed=0)
    with pytest.raises(ValueError, match="m <= 8"):
        hotelling_statistic(data9, system9)
    with pytest.raises(ValueError, match="two-dimensional"):
        hotelling_statistic(data9.data[:, 0], system9)
    system4 = enumerate_constraints(star_tree(4))
    short = sample(np.eye(4), 2, seed=0)
    with pytest.raises(ValueError, match="need n > 2"):
        hotelling_statistic(short, system4)
    triangle = enumerate_constraints(star_tree(3))
    data3 = sample(np.eye(3), 50, seed=0)
    with pytest.raises(ValueError, match="no equality columns"):
        hotelling_statistic(data3, triangle)
    with pytest.raises(ValueError, match="expect 4"):
        hotelling_statistic(data3.data, system4)
    for bad in (np.nan, np.inf, -np.inf):
        x = sample(np.eye(4), 50, seed=0).data
        x[7, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            hotelling_statistic(x, system4)


def test_hotelling_invariant_to_common_scale():
    # unscaled, the plug-in covariance (degree 8 in the data) overflows
    # at 1e40 and underflows at 1e-80
    system = enumerate_constraints(star_tree(6))
    x = sample(covariance_from_factor(setup_params(1, 6, seed=0)), 300, seed=0).data
    base = hotelling_statistic(x, system)
    assert base.rank == 9 and base.statistic > 1
    for scale in (1e-150, 1e-80, 1e40, 1e150):
        got = hotelling_statistic(x * scale, system)
        assert (got.dof, got.rank) == (base.dof, base.rank), scale
        assert got.statistic == pytest.approx(base.statistic, rel=1e-12), scale
