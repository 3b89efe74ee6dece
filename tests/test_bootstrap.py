"""Tests for the batched multiplier bootstrap and the quadratic-form check.

Hand-computed oracles use tiny columns where batch sums can be done on
paper; distributional claims (size, conditional variance, null mean of
the quadratic form) use fixed seeds and wide tolerance bands.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from numpy.random import SeedSequence

import treegof.bootstrap as btmod
from conftest import star_tree
from treegof.bootstrap import (
    BootstrapConfig,
    HotellingResult,
    batched_diag,
    bootstrap_coordinates,
    hotelling_statistic,
    multiplier_draws,
    quantile_from_draws,
    run_test,
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
    return EstimateSequence(values, 1, sided)


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


def test_draws_invariant_to_chunk_size(monkeypatch):
    rng = np.random.default_rng(5)
    seq = _seq(rng.normal(size=(33, 4)))
    full = multiplier_draws(seq, 3, 50, 99)
    diag = batched_diag(seq, 3)
    default = btmod._CHUNK_BUDGET
    monkeypatch.setattr(btmod, "_CHUNK_BUDGET", 7)
    chunked = multiplier_draws(seq, 3, 50, 99)
    # the multiplier stream is identical; only matmul blocking may differ
    np.testing.assert_allclose(chunked, full, rtol=1e-12)
    np.testing.assert_array_equal(batched_diag(seq, 3), diag)

    # whole runs: a budget of 1 gives one column per chunk, one draw per
    # multiplier chunk and one-column coordinate tiles; 3 * omega gives
    # three draws per chunk.  Per-column arithmetic does not depend on
    # the chunking, so the statistic is exact.
    for kwargs in ({"mode": "equalities"}, {"mode": "all"}, {"subsample": 15}):
        data, system, config = _null_case(6, 250, 3, **kwargs)
        monkeypatch.setattr(btmod, "_CHUNK_BUDGET", default)
        whole = run_test(data, system, config)
        omega = (250 - (2 if kwargs.get("mode") == "all" else 1)) // 3
        for budget in (1, 3 * omega):
            monkeypatch.setattr(btmod, "_CHUNK_BUDGET", budget)
            got = run_test(data, system, config)
            assert (got.statistic, got.k_effective, got.diag_floor_hits, got.reject) == (
                whole.statistic, whole.k_effective, whole.diag_floor_hits, whole.reject
            ), kwargs
            assert got.quantile == pytest.approx(whole.quantile, rel=1e-12, abs=0)
            assert got.p_value == pytest.approx(whole.p_value, rel=1e-12, abs=0)


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


def test_run_test_memory_below_estimate_matrix():
    # a 20-leaf star at n=500 has k=9,690 columns; the n x k estimate
    # matrix alone would take 37 MiB, the kept batch sums take 12 MiB
    system = enumerate_constraints(star_tree(20))
    data = sample(covariance_from_factor(setup_params(1, 20, seed=0)), 500, seed=1)
    matrix_bytes = 499 * system.n_equality_terms * 8
    tracemalloc.start()
    try:
        result = run_test(data, system, BootstrapConfig(seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.k_effective == 9690
    assert peak < matrix_bytes, f"traced peak {peak / 2**20:.1f} MiB"


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_run_test_overflowing_data_fails_loudly():
    # squared batch sums of data scaled by 1e40 overflow; the test must
    # not report statistic 0 and p = 1
    data, system, config = _null_case(6, 300, 0)
    with pytest.raises(ValueError, match="overflow"):
        run_test(data.data * 1e40, system, config)


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
    system4 = enumerate_constraints(star_tree(4))
    short = sample(np.eye(4), 2, seed=0)
    with pytest.raises(ValueError, match="need n > 2"):
        hotelling_statistic(short, system4)
    triangle = enumerate_constraints(star_tree(3))
    data3 = sample(np.eye(3), 50, seed=0)
    with pytest.raises(ValueError, match="no equality columns"):
        hotelling_statistic(data3, triangle)
