"""Tests for the batched multiplier bootstrap and the quadratic-form check.

Hand-computed oracles use tiny columns where batch sums can be done on
paper; distributional claims (size, conditional variance, null mean of
the quadratic form) use fixed seeds and wide tolerance bands.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence

import treegof.bootstrap as btmod
from conftest import product_columns, random_latent_tree, star_tree
from treegof.bootstrap import (
    BootstrapConfig,
    HotellingResult,
    Scratch,
    batched_diag,
    bootstrap_coordinates,
    hotelling_statistic,
    multiplier_draws,
    quantile_from_draws,
    run_test,
)
from treegof.bootstrap import test_statistic as sup_statistic
from treegof.estimators import (
    EstimateSequence,
    build_estimate_matrix,
    column_source,
    plugin_tetrads,
)
from treegof.model import (
    TreeModelParams,
    covariance_from_factor,
    covariance_from_tree,
    sample,
    setup_params,
)
from treegof.tree import ConstraintSystem, LatentTree, enumerate_constraints


def _folds(source, batch_size, jobs=1):
    # the folds of one call with a fresh scratch of its own, one group at
    # a time
    return (fold() for fold in btmod._folds(source, batch_size, Scratch(), jobs))


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
    # the sums match a plain Python loop bit for bit; the fold stores
    # each column's sums divided by sqrt(batch * omega) * sqrt(diag)
    rng = np.random.default_rng(8)
    values = rng.normal(size=(34, 8)) * 10.0 ** rng.integers(-3, 4, size=8)
    for batch in (3, 10):
        (fold,) = _folds(_seq(values), batch)
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
        _, sums, diag = btmod._moments(np.asfortranarray(values), omega, batch)
        np.testing.assert_array_equal(sums, expect)
        np.testing.assert_array_equal(fold.diag, diag)
        norm = math.sqrt(batch * omega) * np.sqrt(diag)
        np.testing.assert_array_equal(fold.sums, expect / norm)


@pytest.mark.parametrize("mode", ["equalities", "all"])
def test_stored_batch_sums_have_unit_norm(monkeypatch, mode):
    # every kept column of the store has Euclidean norm 1 within 4 ulps,
    # with the columns of a constant variable dropped, in four-column
    # chunks that the fold moves left past them, at one and two threads
    x, system, _ = _constant_column_case()
    source = column_source(x, system, mode)
    monkeypatch.setattr(btmod, "_BLOCK_BUDGET", 4 * source.n_rows)
    for jobs in (1, 2):
        (fold,) = _folds(source, 3, jobs)
        assert 0 < fold.k_effective < len(fold.diag)
        # each column's squares add pairwise as one contiguous vector
        norms = np.sqrt((fold.sums.T.copy() ** 2).sum(axis=1))
        assert np.abs(norms - 1.0).max() <= 4 * np.spacing(1.0), (mode, jobs)


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


@pytest.mark.parametrize("batch_size", [0, -1])
@pytest.mark.parametrize("call", [
    lambda seq, b: batched_diag(seq, b),
    lambda seq, b: sup_statistic(seq, b),
    lambda seq, b: multiplier_draws(seq, b, 10, 0),
    lambda seq, b: bootstrap_coordinates(seq, b, 10, 0),
], ids=["batched_diag", "test_statistic", "multiplier_draws", "bootstrap_coordinates"])
def test_whole_matrix_calls_refuse_batch_size_below_one(call, batch_size):
    # 59 rows: batch size 0 divided by zero, and -1 left -59 batches
    seq = _seq(np.arange(59.0))
    with pytest.raises(ValueError, match="^batch_size must be at least 1$"):
        call(seq, batch_size)


@pytest.mark.parametrize("num_draws", [0, -1])
@pytest.mark.parametrize("call", [multiplier_draws, bootstrap_coordinates])
def test_draw_calls_refuse_num_draws_below_one(call, num_draws):
    # 0 returned an empty array, and -1 failed inside numpy
    seq = _seq(np.arange(59.0))
    with pytest.raises(ValueError, match="^num_draws must be at least 1$"):
        call(seq, 3, num_draws, 0)


_SEQ59 = _seq(np.arange(59.0))


@pytest.mark.parametrize("name, value, call", [
    ("batch_size", 2.5, lambda v: BootstrapConfig(batch_size=v)),
    ("batch_size", 3.0, lambda v: BootstrapConfig(batch_size=v)),
    ("num_multipliers", 100.5, lambda v: BootstrapConfig(num_multipliers=v)),
    ("subsample", 3.5, lambda v: BootstrapConfig(subsample=v)),
    ("batch_size", 2.5, lambda v: batched_diag(_SEQ59, v)),
    ("num_draws", 10.0, lambda v: multiplier_draws(_SEQ59, 3, v, 0)),
    ("num_draws", 10.0, lambda v: bootstrap_coordinates(_SEQ59, 3, v, 0)),
], ids=[
    "config batch_size", "config integral float batch_size", "config num_multipliers",
    "config subsample", "batched_diag", "multiplier_draws", "bootstrap_coordinates",
])
def test_counts_refuse_non_integers_by_name(name, value, call):
    # a float count failed deep inside numpy, or Python's range, without
    # naming the field
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value}$"):
        call(value)


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


def test_no_columns_error():
    # no column at all is told apart from every column dropped
    seq = _seq(np.empty((12, 0)))
    for call in (
        lambda: sup_statistic(seq, 3),
        lambda: multiplier_draws(seq, 3, 5, 0),
        lambda: bootstrap_coordinates(seq, 3, 5, 0),
    ):
        with pytest.raises(ValueError, match="no test columns"):
            call()
    assert batched_diag(seq, 3).shape == (0,)


def test_overflowing_columns_fail_with_their_message():
    # a 6-variable tree in mode "all", with one variable in huge units:
    # the squared batch sums overflow, and the fold says so instead of
    # warning first
    tree = LatentTree(
        [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x2", "h"), ("h", "x5"), ("h", "x6")],
        ["x1", "x2", "x3", "x4", "x5", "x6"],
    )
    system = enumerate_constraints(tree)
    cov = covariance_from_tree(TreeModelParams(tree, {e: 0.6 for e in tree.edges}))
    data = sample(cov, 300, seed=0).data
    for var, scale in itertools.product((0, 1), (1e100, 1e150)):
        x = data.copy()
        x[:, var] *= scale
        seq = build_estimate_matrix(x, system, mode="all")
        for call in (
            lambda: sup_statistic(seq, 3),
            lambda: multiplier_draws(seq, 3, 20, 0),
            lambda: bootstrap_coordinates(seq, 3, 20, 0),
            lambda: batched_diag(seq, 3),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ValueError, match="overflow"):
                    call()


# ---------------------------------------------------------------------------
# multiplier draws and coordinates


def _draws_of(seq, stream):
    # the draws of the one column group of ``seq`` under a one-chunk
    # multiplier stream passed in
    (fold,) = _folds(seq, 3)
    return btmod._draws(fold, len(stream), None, Scratch(), stream=np.asarray(stream))


def test_draws_with_explicit_multipliers():
    # batch sums (-4.5, 4.5), diag 6.75; each multiplier row picks the first
    # batch: coordinate -4.5 / sqrt(6 * 6.75) = -sqrt(1/2)
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    draws = _draws_of(_seq(values), [[1.0, 0.0], [-1.0, 0.0]])
    np.testing.assert_allclose(draws, [math.sqrt(0.5)] * 2, rtol=1e-12)
    sided = _seq(values, one_sided=[True])
    draws = _draws_of(sided, [[1.0, 0.0], [-1.0, 0.0]])
    np.testing.assert_allclose(draws, [-math.sqrt(0.5), math.sqrt(0.5)], rtol=1e-12)


def test_zero_multipliers_give_zero_draws():
    rng = np.random.default_rng(0)
    seq = _seq(rng.normal(size=(30, 3)))
    np.testing.assert_array_equal(_draws_of(seq, np.zeros((5, 10))), np.zeros(5))


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

    # whole runs: budgets of 1 give one column per chunk and one draw per
    # multiplier chunk, and with a tile side of 1 one-coordinate tiles;
    # 3 * omega gives three draws per chunk.  Per-column arithmetic does
    # not depend on the chunking, so the statistic is exact.
    for kwargs in ({"mode": "equalities"}, {"mode": "all"}, {"subsample": 15}):
        data, system, config = _null_case(6, 250, 3, **kwargs)
        _set_budgets(monkeypatch, *defaults)
        monkeypatch.setattr(btmod, "_TILE_SIDE", side)
        whole = run_test(data, system, config)
        omega = (250 - (2 if kwargs.get("mode") == "all" else 1)) // 3
        for budget, tile_side in ((1, 1), (3 * omega, side)):
            _set_budgets(monkeypatch, budget, budget)
            monkeypatch.setattr(btmod, "_TILE_SIDE", tile_side)
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
    stat, draws = btmod._fold_and_draw([data], system, config, 1, Scratch())[:2]
    if case is _constant_column_case:
        assert base.diag_floor_hits == 20 and base.k_effective == 10
    # the chunks built in the fold's buffers reduce exactly like the
    # plain product expressions of the same columns
    mult_ss, sub_ss = btmod._seed_sequence(config.seed).spawn(2)
    sub = None if config.subsample is None else (config.subsample, sub_ss)
    source = column_source(data, system, config.mode, sub)
    x = np.asarray(getattr(data, "data", data))
    plain = EstimateSequence(
        product_columns(x - x.mean(axis=0), source.quads, source.triples, rows),
        source.one_sided,
    )
    assert sup_statistic(plain, config.batch_size) == stat
    np.testing.assert_array_equal(
        multiplier_draws(plain, config.batch_size, config.num_multipliers, mult_ss),
        draws,
    )
    # switch threads often, so that blocks finish out of order
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for jobs in (2, 3):
            monkeypatch.setattr(btmod, "_usable_cores", lambda: jobs)
            # every field compared with ==, floats included
            assert run_test(data, system, config) == base
            got_stat, got_draws, _, _ = btmod._fold_and_draw(
                [data], system, config, jobs, Scratch()
            )
            assert got_stat == stat
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


def _bits(value):
    """A result in a form that compares equal only bit for bit."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, EstimateSequence):
        return _bits(value.values), _bits(value.one_sided)
    return repr(value)


def _outcome(call, system):
    try:
        return _bits(call(system))
    except ValueError as exc:
        return repr(exc)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_results_do_not_depend_on_the_index_dtype(seed):
    # the variable indices are only gathered and compared, never used in
    # arithmetic, so the int16 index and an intp copy give the same bits
    rng = np.random.default_rng(seed)
    compact = enumerate_constraints(random_latent_tree(rng, m_lo=3, m_hi=12, n_hi=20))
    assert compact.index.dtype == np.int16
    wide = ConstraintSystem(compact.m, compact.kinds, compact.index.astype(np.intp))
    n = int(rng.integers(150, 250))
    x = rng.standard_normal((n, compact.m)) * rng.uniform(0.5, 2.0, compact.m)
    cov = np.cov(x, rowvar=False)
    columns = compact.n_equality_terms + len(compact.sign_triples())
    sub = (int(rng.integers(1, columns + 1)), seed)
    config = BootstrapConfig(num_multipliers=200, seed=seed, mode="all")
    calls = [
        lambda s: s.equality_residuals(cov),
        lambda s: s.inequality_values(cov),
        lambda s: build_estimate_matrix(x, s),
        lambda s: build_estimate_matrix(x, s, mode="all"),
        lambda s: build_estimate_matrix(x, s, mode="all", subsample=sub),
        lambda s: plugin_tetrads(x, s),
        lambda s: list(s.scalar_rows()),
    ]
    if compact.m <= 8:
        calls.append(lambda s: hotelling_statistic(x, s))
    for call in calls:
        assert _outcome(call, compact) == _outcome(call, wide)
    for jobs in (1, 2):
        with mock.patch.object(btmod, "_usable_cores", lambda: jobs):
            assert _outcome(lambda s: run_test(x, s, config), compact) == _outcome(
                lambda s: run_test(x, s, config), wide
            )


# column groups of one 4-column tile, of two tiles, and of every column
_GROUPINGS = {"1 tile": (1, 4), "2 tiles": (1, 8), "everything": (1 << 40, 4)}


def _grouped(budget, min_group, jobs, chunk=btmod._CHUNK_BUDGET):
    # the default chunk budget draws the test sizes' multiplier streams
    # as one chunk, drawn once for every group; 2,000 values make the
    # streams several chunks, which every group replays
    return mock.patch.multiple(
        btmod, _TILE_SIDE=4, _SUMS_BUDGET=budget, _MIN_GROUP=min_group,
        _CHUNK_BUDGET=chunk, _usable_cores=lambda: jobs,
    )


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["equalities", "all"]))
def test_results_invariant_to_column_groups(seed, mode):
    # every group draws from the same multiplier stream and the groups
    # combine by max, so only the tiles of the coordinate matmul change
    # with the grouping, and with them at most the low bits of the draws
    rng = np.random.default_rng(seed)
    system = enumerate_constraints(random_latent_tree(rng, m_lo=4, m_hi=9, n_hi=12))
    n = int(rng.integers(40, 150))
    x = rng.standard_normal((n, system.m)) * rng.uniform(0.1, 10.0, system.m)
    config = BootstrapConfig(num_multipliers=200, seed=seed, mode=mode)
    with mock.patch.object(btmod, "_usable_cores", lambda: 1):
        whole = run_test(x, system, config)
    for name, (budget, min_group) in _GROUPINGS.items():
        for jobs, chunk in ((1, btmod._CHUNK_BUDGET), (2, btmod._CHUNK_BUDGET), (2, 2000)):
            with _grouped(budget, min_group, jobs, chunk):
                got = run_test(x, system, config)
            assert (got.statistic, got.k_effective, got.diag_floor_hits, got.reject) == (
                whole.statistic, whole.k_effective, whole.diag_floor_hits, whole.reject
            ), (name, jobs, chunk)
            assert got.quantile == pytest.approx(whole.quantile, rel=1e-12, abs=0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([40, 255, 600, 1000]),
    st.floats(0.0, 1.0),
    st.sampled_from([None, 130, 300]),
    st.sampled_from(["equalities", "all"]),
    st.sampled_from([1, 2]),
    st.sampled_from([btmod._BLOCK_BUDGET, 37]),
)
@example(7, 1000, 0.4, 300, "all", 2, 37)
def test_stopped_draws_give_the_capped_full_count(
    seed, num_draws, share, chunk_rows, mode, jobs, block
):
    # ``simulate``'s stop at T: the draws made are the first ones of the
    # full run, bit for bit, the rest stay at -inf, drawing ends within a
    # tile height (256 draws) of the T-th draw to reach the statistic,
    # and the count capped at T is the full count capped at T.  E below
    # and not a multiple of the tile height, chunks of 300 draws, whose
    # last row of tiles is short, and of 130, below one tile height.  A
    # block budget below a tile's 256 x 256 coordinates sizes only the
    # column chunks, so a short row's tiles stay as wide as the chunk's
    rng = np.random.default_rng(seed)
    system = enumerate_constraints(random_latent_tree(rng, m_lo=4, m_hi=7))
    n = int(rng.integers(60, 200))
    x = rng.standard_normal((n, system.m))
    config = BootstrapConfig(num_multipliers=num_draws, seed=seed, mode=mode)
    stop = 1 + int(share * num_draws)
    omega = (n - (2 if mode == "all" else 1)) // 3
    budget = btmod._CHUNK_BUDGET if chunk_rows is None else chunk_rows * omega
    with mock.patch.multiple(btmod, _CHUNK_BUDGET=budget, _BLOCK_BUDGET=block):
        stat, full = btmod._fold_and_draw([x], system, config, 1, Scratch())[:2]
        got_stat, drawn, _, _ = btmod._fold_and_draw([x], system, config, jobs, Scratch(), stop)
    assert got_stat == stat
    made = int(np.isfinite(drawn).sum())
    np.testing.assert_array_equal(drawn[:made], full[:made])
    assert (drawn[made:] == -np.inf).all()
    count = int(np.count_nonzero(full >= stat))
    assert min(int(np.count_nonzero(drawn >= stat)), stop) == min(count, stop)
    assert np.count_nonzero(full[: max(made - 256, 0)] >= stat) < stop
    if made < num_draws:
        assert np.count_nonzero(full[:made] >= stat) >= stop


def test_stop_draws_everything_with_more_than_one_column_group():
    # the statistic is known only once every group is folded, so a stop
    # passed with several groups makes every draw
    data, system, config = _null_case(6, 250, 3)
    _, drawn, _, _ = btmod._fold_and_draw([data], system, config, 1, Scratch(), 1)
    assert np.isfinite(drawn).sum() < config.num_multipliers
    # 30 columns in four groups of at most eight, which share one held
    # stream or replay a stream of several chunks
    for chunk in (btmod._CHUNK_BUDGET, 2000):
        with _grouped(1, 8, 1, chunk):
            stat, full = btmod._fold_and_draw([data], system, config, 1, Scratch())[:2]
            got_stat, drawn, _, _ = btmod._fold_and_draw([data], system, config, 1, Scratch(), 1)
        assert got_stat == stat
        np.testing.assert_array_equal(drawn, full)


def test_degenerate_column_group_draws_nothing():
    # the first 20 of 30 columns hold the constant variable, so the
    # first five 4-column groups keep no column and draw nothing
    data, system, config = _constant_column_case()
    seq = build_estimate_matrix(data, system)
    whole = run_test(data, system, config)
    draws = multiplier_draws(seq, 3, 200, 5)
    diag = batched_diag(seq, 3)
    fold, kept = btmod._fold, []

    def recording_fold(*args):
        result = fold(*args)
        kept.append(result.k_effective)
        return result

    for name, (budget, min_group) in _GROUPINGS.items():
        for jobs, chunk in ((1, btmod._CHUNK_BUDGET), (2, btmod._CHUNK_BUDGET), (2, 2000)):
            kept.clear()
            with _grouped(budget, min_group, jobs, chunk):
                with mock.patch.object(btmod, "_fold", recording_fold):
                    got = run_test(data, system, config)
                got_draws = multiplier_draws(seq, 3, 200, 5)
                coords = bootstrap_coordinates(seq, 3, 200, 5)
                np.testing.assert_array_equal(batched_diag(seq, 3), diag)
            assert (got.statistic, got.k_effective, got.diag_floor_hits) == (
                whole.statistic, 10, 20
            ), (name, jobs, chunk)
            assert got.quantile == pytest.approx(whole.quantile, rel=1e-12, abs=0)
            np.testing.assert_allclose(got_draws, draws, rtol=1e-12, atol=0)
            np.testing.assert_array_equal(np.abs(coords).max(axis=1), got_draws)
            expect = {"1 tile": [0] * 5 + [4, 4, 2], "2 tiles": [0, 0, 4, 6]}
            assert kept == expect.get(name, [10]), (name, kept)
    # a constant variable of a 4-variable star leaves no column at all
    data, system, config = _null_case(4, 100, 3)
    x = data.data.copy()
    x[:, 2] = -1.0
    seq = build_estimate_matrix(x, system)
    for name, (budget, min_group) in _GROUPINGS.items():
        with _grouped(budget, min_group, 2):
            for call in (
                lambda: run_test(x, system, config),
                lambda: sup_statistic(seq, 3),
                lambda: multiplier_draws(seq, 3, 50, 1),
                lambda: bootstrap_coordinates(seq, 3, 50, 1),
            ):
                with pytest.raises(ValueError, match="every column is numerically constant"):
                    call()


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


@pytest.mark.parametrize("draws, alpha", [
    ([], 0.05),
    (np.ones((3, 3)), 0.05),
    (2.0, 0.05),
    ([1.0, 2.0, np.nan], 0.01),
    ([np.inf, 1.0, 2.0], 0.05),
    ([np.nan, 1.0, 2.0], 0.5),
    ([-np.inf, 1.0, 2.0], 0.5),
], ids=["empty", "3x3", "0-d", "nan last", "inf", "nan skipped", "-inf"])
def test_quantile_refuses_empty_shaped_or_non_finite_draws(draws, alpha):
    # a NaN or infinite quantile never rejects, and a NaN sorted last was
    # skipped at alpha = 0.5
    with pytest.raises(ValueError, match="non-empty 1-D array of finite values"):
        quantile_from_draws(draws, alpha)


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


def test_run_test_memory_below_batch_sum_store(monkeypatch):
    # m=20 star in 256-column groups, 38 of them: one group's batch sums
    # take 0.3 MB of the 12.9 MB omega x k store.  The rest of the peak
    # (about 3.7 MiB on one thread and 5.4 MiB on two) is the 1.3 MB of
    # multipliers kept for every group, one 1.5 MiB column workspace per
    # thread, and the coordinate tiles in flight.
    system = enumerate_constraints(star_tree(20))
    data = sample(covariance_from_factor(setup_params(1, 20, seed=0)), 500, seed=1)
    omega = 499 // 3
    store_bytes = omega * system.n_equality_terms * 8
    monkeypatch.setattr(btmod, "_SUMS_BUDGET", omega * 256)
    monkeypatch.setattr(btmod, "_MIN_GROUP", btmod._TILE_SIDE)
    assert len(btmod._column_groups(omega, system.n_equality_terms)) >= 3
    for jobs in (1, 2):
        monkeypatch.setattr(btmod, "_usable_cores", lambda: jobs)
        tracemalloc.start()
        try:
            result = run_test(data, system, BootstrapConfig(seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.k_effective == 9690
        assert peak < store_bytes / 2, f"jobs={jobs}: traced peak {peak / 2**20:.1f} MiB"


def test_draws_memory_flat_in_thread_count(monkeypatch):
    # many batches and two tiles per multiplier chunk, with tiles slower
    # than the draw of a chunk: the draws still run ahead by at most one
    # chunk, however many threads take the tiles
    system = enumerate_constraints(star_tree(8))
    data = sample(covariance_from_factor(setup_params(1, 8, seed=0)), 6002, seed=2)
    seq = build_estimate_matrix(data, system, mode="all")
    (fold,) = _folds(seq, 2)
    omega = (6002 - 2) // 2
    chunk_bytes = (btmod._CHUNK_BUDGET // omega) * omega * 8
    assert len(btmod._coordinate_tiles(fold, btmod._CHUNK_BUDGET // omega)) == 2
    tile_peaks = btmod._tile_peaks

    def slow_tile_peaks(*args):
        time.sleep(0.01)
        return tile_peaks(*args)

    monkeypatch.setattr(btmod, "_tile_peaks", slow_tile_peaks)
    peaks, draws, tiles = {}, {}, {}
    for jobs in (1, 16):
        tracemalloc.start()
        try:
            # the draws' scratch is traced: its chunks and its tile
            # buffers, one per thread and tile of a chunk
            scratch = Scratch()
            taken = _recorded(scratch)
            draws[jobs] = btmod._draws(fold, 1000, 3, scratch, jobs)
            _, peaks[jobs] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ((region, buffers),) = taken
        assert region == "work"
        tiles[jobs] = sum(buffer.ndim == 1 for buffer in buffers)
    np.testing.assert_array_equal(draws[16], draws[1])
    assert peaks[16] < peaks[1] + chunk_bytes / 2, {j: p / 2**20 for j, p in peaks.items()}
    # a tile buffer per thread would be 16 on a 16-core host, where the
    # chunk has only two tiles to run at once
    assert tiles == {1: 1, 16: 2}


def test_fold_chunks_hold_no_batch_sums_of_their_own(monkeypatch):
    # a tall 6-leaf star in mode "all": 50 one-column chunks of omega =
    # 19,999 batch sums each, a 7.6 MiB store.  Each chunk writes its
    # sums into the store, so chunks that finish long before the fold
    # takes their results hold no copy of them (2.4 times the store when
    # every finished chunk held its own sums)
    system = enumerate_constraints(star_tree(6))
    data = sample(covariance_from_factor(setup_params(1, 6, seed=0)), 60_000, seed=0)
    source = column_source(data, system, "all")
    store_bytes = (source.n_rows // 3) * source.n_columns * 8
    assert len(btmod._column_slices(source.n_rows, slice(0, source.n_columns))) == 50
    ordered_map = btmod._ordered_map

    @contextmanager
    def finishing_first(jobs):
        with ordered_map(jobs) as pool_map:
            # every chunk finishes before the first result is handed out
            yield lambda fn, items: iter(list(pool_map(fn, items)))

    monkeypatch.setattr(btmod, "_ordered_map", finishing_first)
    tracemalloc.start()
    try:
        (fold,) = _folds(source, 3, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fold.k_effective == 50
    assert peak < 1.75 * store_bytes, f"traced peak {peak / store_bytes:.2f} x the store"


def _unshared_result(data, system, config):
    """What ``_fold_and_draw`` returns, from a path whose scratch holds
    only the group store and one multiplier chunk: plain product
    columns, which need no column workspace, and the same seeded
    multiplier stream, in the same chunks, multiplied into coordinates
    written to an array of their own."""
    mult_ss, sub_ss = btmod._seed_sequence(config.seed).spawn(2)
    sub = None if config.subsample is None else (config.subsample, sub_ss)
    source = column_source(data, system, config.mode, sub)
    x = np.asarray(getattr(data, "data", data))
    plain = EstimateSequence(
        product_columns(x - x.mean(axis=0), source.quads, source.triples, source.n_rows),
        source.one_sided,
    )
    batch, draws = config.batch_size, config.num_multipliers
    coords = bootstrap_coordinates(plain, batch, draws, mult_ss)
    keep = batched_diag(plain, batch) > btmod.DIAG_FLOOR
    signed = np.where(plain.one_sided[keep], coords, np.abs(coords))
    return sup_statistic(plain, batch), signed.max(axis=1), coords.shape[1], len(keep)


def _scratch_cases():
    # (name, case, patched budgets), small shapes first, then the
    # largest, then small ones again, so that one scratch grows and
    # shrinks.  Groups of 8 columns with the default chunk budget keep a
    # one-chunk stream across groups; a 20,000-value chunk budget makes
    # the stream several chunks, and a block budget of one column per
    # chunk makes the fold tall, as in a tall dataset
    tall = _null_case(5, 3000, 6, n_multipliers=300, mode="all")
    groups = {"_TILE_SIDE": 4, "_SUMS_BUDGET": 1, "_MIN_GROUP": 8}
    defaults = {"_CHUNK_BUDGET": btmod._CHUNK_BUDGET}
    return [
        ("groups, kept stream", _null_case(7, 150, 1, n_multipliers=200), groups),
        ("groups, streamed", _null_case(7, 150, 2), {**groups, "_CHUNK_BUDGET": 2000}),
        ("tall, streamed", tall, {"_CHUNK_BUDGET": 20_000, "_BLOCK_BUDGET": 2998}),
        ("all, constant column", _constant_column_case(), groups),
        ("subsample", _null_case(6, 250, 5, subsample=15, mode="all"), defaults),
        ("one group", _null_case(6, 250, 3), defaults),
    ]


def _recorded(scratch):
    """The (region, buffers) of every ``take`` from ``scratch`` from now
    on, in order."""
    taken = []
    take = scratch.take

    def record(region, shapes):
        buffers = take(region, shapes)
        taken.append((region, buffers))
        return buffers

    scratch.take = record
    return taken


def _assert_disjoint(taken):
    # what may be in use at the same time never shares memory: the
    # store, a kept stream and the work region with each other, and the
    # buffers of one take (one thread's workspace or tile with another's,
    # the two multiplier chunks, chunks with tiles) with each other
    pairs = []
    for (region_a, a), (region_b, b) in itertools.combinations(taken, 2):
        if region_a != region_b:
            pairs += itertools.product(a, b)
    for _, buffers in taken:
        pairs += itertools.combinations(buffers, 2)
    for x, y in pairs:
        assert not np.shares_memory(x, y)


def test_reused_scratch_matches_unshared_buffers_bit_for_bit():
    # every case through one scratch, then each through a fresh scratch,
    # and each by a path that shares no workspace, chunk or tile memory:
    # a buffer overwritten while still in use changes draws or the
    # statistic, and the results must agree bit for bit
    shared = Scratch()
    for jobs in (1, 2):
        for name, (data, system, config), budgets in _scratch_cases():
            scratch = Scratch()
            taken = _recorded(scratch)
            with mock.patch.multiple(btmod, **budgets):
                expect = _unshared_result(data, system, config)
                reused = btmod._fold_and_draw([data], system, config, jobs, shared)
                fresh = btmod._fold_and_draw([data], system, config, jobs, scratch)
            for got in (reused, fresh):
                assert (got[0], got[2], got[3]) == (expect[0], expect[2], expect[3]), name
                np.testing.assert_array_equal(got[1], expect[1], err_msg=name)
            _assert_disjoint(taken)
            ((region, (store,)), *rest) = taken
            assert region == "store"
            groups = -(-expect[3] // store.shape[1])
            assert (groups > 2) == ("_SUMS_BUDGET" in budgets), name
            # a stream of one chunk is held across groups, and then the
            # draws take no chunk of their own
            streamed = name.endswith("streamed")
            held = [region for region, _ in rest if region == "stream"]
            assert len(held) == (groups > 1 and not streamed), name
            work = [buffers for region, buffers in rest if region == "work"]
            draws = [buffers for buffers in work if any(b.ndim == 1 for b in buffers)]
            chunks = {sum(buffer.ndim == 2 for buffer in buffers) for buffers in draws}
            assert chunks == {2 if streamed else 0 if held else 1}, name
            if name == "tall, streamed":
                # the work region grows between the fold and the draws
                fold_size, draw_size = (sum(b.size for b in buffers) for buffers in work)
                assert draw_size > fold_size, name
            if name == "all, constant column":
                assert expect[3] - expect[2] == 20


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="ru_minflt counts page faults on Linux"
)
def test_replications_through_one_scratch_fault_few_pages():
    # simulate-size's replications: after one warm-up replication, the
    # large buffers are the scratch's, and a replication faults only the
    # pages its small temporaries take.  Memory allocated and freed
    # between replications moves the heap, which must not matter: the
    # per-replication buffers made glibc trim the heap and fault it
    # back, about 130 to 600 pages per replication
    import resource

    system = enumerate_constraints(star_tree(10))
    cov = covariance_from_factor(setup_params(2, 10, seed=0))
    config = BootstrapConfig(num_multipliers=1000)
    scratch = Scratch()
    results, held = [], []

    def replicate(rep):
        x = sample(cov, 500, seed=rep).data
        results.append(btmod._fold_and_draw([x], system, replace(config, seed=rep), 1, scratch)[:2])

    def shift(form):
        if form == "one block":
            np.ones(3 << 17)
        elif form == "many blocks":
            [np.ones(1 << 14) for _ in range(24)]
        elif form == "held block":
            held.append(np.ones(1 << 17))
            del held[:-1]

    for form in ("none", "one block", "many blocks", "held block"):
        replicate(0)
        faults = 0
        for rep in range(1, 51):
            shift(form)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            replicate(rep)
            faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults <= 30 * 50, f"{form}: {faults / 50:.1f} faults per replication"


def _raises_unchanged(monkeypatch, run, match):
    # a worker's error reaches the caller as it is, whichever thread
    # raised it, and no thread outlives the call
    threads = threading.active_count()
    messages = []
    for jobs in (1, 2):
        monkeypatch.setattr(btmod, "_usable_cores", lambda: jobs)
        with pytest.raises(ValueError, match=match) as err:
            run()
        messages.append(str(err.value))
        assert threading.active_count() == threads
    assert messages[0] == messages[1]


def _assert_same_result(got, base):
    assert (got.reject, got.k_effective, got.diag_floor_hits) == (
        base.reject, base.k_effective, base.diag_floor_hits
    )
    assert got.statistic == pytest.approx(base.statistic, rel=1e-12, abs=0)
    assert got.quantile == pytest.approx(base.quantile, rel=1e-12, abs=0)
    assert got.p_value == pytest.approx(base.p_value, rel=1e-12, abs=0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_run_test_overflowing_data_fails_loudly(monkeypatch):
    # run_test scales each variable by a power of two, so data scaled by
    # 1e40, whose squared batch sums overflowed unscaled, and by 1e80,
    # whose estimate columns did, give the unscaled result
    data, system, config = _null_case(6, 300, 0)
    for mode in ("equalities", "all"):
        base = run_test(data, system, replace(config, mode=mode))
        for factor in (1e40, 1e80):
            for jobs in (1, 2):
                monkeypatch.setattr(btmod, "_usable_cores", lambda: jobs)
                got = run_test(data.data * factor, system, replace(config, mode=mode))
                _assert_same_result(got, base)
    # a chunk that overflows still fails the run instead of reporting
    # statistic 0 and p = 1.  One column per chunk, so the error comes
    # from one of many chunks in flight.
    monkeypatch.setattr(btmod, "_BLOCK_BUDGET", 1)
    moments = btmod._moments

    def run():
        calls = itertools.count()

        def seventh_overflows(values, omega, batch_size):
            if next(calls) == 6:
                values *= 1e300
            return moments(values, omega, batch_size)

        with mock.patch.object(btmod, "_moments", seventh_overflows):
            run_test(data, system, config)

    _raises_unchanged(monkeypatch, run, "overflow")


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-250.0, 250.0), min_size=6, max_size=6),
    st.sampled_from(["equalities", "all"]),
)
def test_results_invariant_to_variable_scales(exponents, mode):
    # unscaled, a variable in units of 1e-160 put every column that
    # holds it below the variance floor, and variables in units of 1e40
    # overflowed; run_test's power-of-two scaling keeps every column
    data, system, config = _null_case(6, 300, 0, n_multipliers=200, mode=mode)
    base = run_test(data, system, config)
    got = run_test(data.data * 10.0 ** np.array(exponents), system, config)
    _assert_same_result(got, base)


def test_run_test_non_finite_data_fails_loudly(monkeypatch):
    data, system, config = _null_case(6, 300, 0)
    x = data.data.copy()
    x[7, 3] = np.nan
    monkeypatch.setattr(btmod, "_BLOCK_BUDGET", 1)
    _raises_unchanged(monkeypatch, lambda: run_test(x, system, config), "non-finite")


def test_run_test_frees_a_temporary_argument_before_the_fold(monkeypatch):
    # the data array is passed as a temporary, so once the estimate
    # columns have their centred copy nothing holds it
    system = enumerate_constraints(star_tree(6))
    cov = covariance_from_factor(setup_params(1, 6, seed=0))
    refs, alive = [], []
    folds = btmod._folds

    def folding(*args):
        alive.append(refs[0]() is not None)
        return folds(*args)

    def make():
        x = np.array(sample(cov, 300, seed=0).data)
        refs.append(weakref.ref(x))
        return x

    monkeypatch.setattr(btmod, "_folds", folding)
    result = run_test(make(), system, BootstrapConfig(seed=0))
    assert result.k_effective == 30
    assert alive == [False]


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
    with pytest.raises(ValueError, match="^subsample must be at least 1 when given$"):
        BootstrapConfig(subsample=0)
    # numpy integers are counts too
    assert BootstrapConfig(batch_size=np.int64(4), subsample=np.int32(2)).batch_size == 4


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


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-250.0, 250.0), min_size=6, max_size=6),
    st.lists(st.sampled_from([1.0, -1.0]), min_size=6, max_size=6),
)
def test_hotelling_invariant_to_variable_scales_and_signs(exponents, signs):
    # the eigenvalue cutoff is relative to the largest eigenvalue; before
    # each variable was divided by its root mean square, one variable
    # x1e60 gave statistic 0.0 at rank 0
    system = enumerate_constraints(star_tree(6))
    x = sample(covariance_from_factor(setup_params(1, 6, seed=0)), 300, seed=0).data
    base = hotelling_statistic(x, system)
    got = hotelling_statistic(x * (np.array(signs) * 10.0 ** np.array(exponents)), system)
    assert (got.dof, got.rank) == (base.dof, base.rank) == (30, 9)
    assert got.statistic == pytest.approx(base.statistic, rel=1e-12)


def test_hotelling_refuses_an_all_zero_variable():
    system = enumerate_constraints(star_tree(4))
    x = sample(np.eye(4), 50, seed=0).data
    x[:, 2] = 0.0
    with pytest.raises(ValueError, match="data column 2 is all zeros"):
        hotelling_statistic(x, system)
