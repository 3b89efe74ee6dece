"""Batched multiplier bootstrap for max-type constraint statistics.

The estimate columns are dependent within a short range, so variances
are estimated from non-overlapping batch sums of deviations.  The test
statistic is the largest studentized column mean (absolute for equality
columns, signed for one-sided inequality columns); its null quantile
comes from Gaussian multipliers applied to the same batch sums.  A
quadratic-form statistic on the plug-in estimates is included for small
m as a classical comparison.
"""

from __future__ import annotations

import math
import os
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Optional, Union

import numpy as np

from .estimators import EstimateSequence, _data_array, column_source
from .tree import ConstraintSystem

__all__ = [
    "BootstrapConfig",
    "TestResult",
    "HotellingResult",
    "batched_diag",
    "test_statistic",
    "multiplier_draws",
    "bootstrap_coordinates",
    "quantile_from_draws",
    "run_test",
    "statistic_and_draws",
    "hotelling_statistic",
]

# columns whose batched variance falls below this are reported as
# degenerate and excluded from the max
DIAG_FLOOR = 1e-300

# budget, in doubles, of a multiplier chunk; every chunk rereads the
# whole batch-sum store, so chunks stay large
_CHUNK_BUDGET = 500_000

# budget, in doubles, of the block one thread works on at a time: an
# estimate-column chunk or a coordinate tile
_BLOCK_BUDGET = 65_536

# most draws and most columns of a coordinate tile.  Every tile
# repacks its multipliers and its batch sums for BLAS, so square tiles
# pack the least: wide-star's 1000 x 54,810 coordinates took 0.46 s in
# 256 x 256 tiles and 0.64 s in 1000 x 65 tiles (one core)
_TILE_SIDE = 256

# blocks in flight per thread.  Results are consumed in order, so with
# one per thread a thread that finishes early waits for the calling
# thread to hand it the next block, and a stalled core stalls the pass
# (wide-star's run_test on a 2-vCPU VM beside a busy process: 1.46 and
# 1.49 s at one block per thread, 1.37 and 1.40 s at two, 1.30 and
# 1.34 s at four; four gains little and holds more finished blocks).
_BLOCKS_PER_THREAD = 2


@dataclass(frozen=True)
class BootstrapConfig:
    """Knobs of one bootstrap test run.

    ``seed`` feeds a seed sequence from which the multiplier stream and
    the optional column-subsampling stream are split off, so one integer
    reproduces the full run.  ``subsample`` keeps that many columns,
    drawn without replacement after mode selection.
    """

    batch_size: int = 3
    num_multipliers: int = 1000
    alpha: float = 0.05
    seed: Union[int, np.random.SeedSequence, None] = None
    mode: str = "equalities"
    center: bool = True
    subsample: Optional[int] = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.num_multipliers < 1:
            raise ValueError("num_multipliers must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.mode not in ("equalities", "all"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.subsample is not None and self.subsample < 1:
            raise ValueError("subsample must be at least 1 when given")


@dataclass(frozen=True)
class TestResult:
    statistic: float
    quantile: float
    p_value: float
    reject: bool
    k_effective: int
    diag_floor_hits: int


@dataclass(frozen=True)
class HotellingResult:
    statistic: float
    dof: int
    rank: int


@dataclass(frozen=True)
class _Fold:
    """What the bootstrap keeps of the estimate columns after one pass:
    the statistic, every column's variance proxy, and the batch sums,
    scales and sidedness of the kept (non-degenerate) columns."""

    statistic: float
    diag: np.ndarray
    sums: np.ndarray
    scale: np.ndarray
    one_sided: np.ndarray

    @property
    def k_effective(self) -> int:
        return self.sums.shape[1]


def _usable_cores() -> int:
    """The cores this process may run on (``taskset`` restricts them)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _ordered_map(jobs: int):
    """An ``imap(fn, items)`` that runs ``fn`` on ``jobs`` threads and
    yields the results in item order, with at most
    ``_BLOCKS_PER_THREAD`` items per thread in flight; the first items
    are submitted when ``imap`` is called.  Inline when ``jobs`` is 1.

    numpy releases the GIL in the column build and in BLAS, and every
    result combines by position or by ``max``, so the outputs do not
    depend on ``jobs``.  A worker's exception is raised by the caller
    unchanged, and the threads are joined on exit.
    """
    if jobs == 1:
        yield map
        return
    # imported here: it pulls in logging, which ``import treegof`` skips
    from concurrent.futures import ThreadPoolExecutor

    depth = _BLOCKS_PER_THREAD * jobs
    with ThreadPoolExecutor(jobs) as pool:

        def imap(fn, items):
            items = iter(items)
            pending = deque(pool.submit(fn, item) for item in islice(items, depth))

            def results():
                while pending:
                    result = pending.popleft().result()
                    pending.extend(pool.submit(fn, item) for item in islice(items, 1))
                    yield result

            return results()

        yield imap


def _column_slices(rows: int, n_columns: int):
    """Column chunks of at most ``_BLOCK_BUDGET`` values (at least one
    column)."""
    width = max(1, _BLOCK_BUDGET // rows)
    return [slice(lo, lo + width) for lo in range(0, n_columns, width)]


def _moments(values: np.ndarray, omega: int, batch_size: int):
    """Column means, batch sums of deviations and variance proxies of
    one chunk; the chunk itself is dropped on return.

    The chunk is reduced in column-major layout, which the column
    builder already produces: numpy then sums each column as one
    contiguous vector (pairwise), so no result depends on how the
    columns are chunked.  Row-major blocks are summed row by row
    instead, and a lone column pairwise, which would tie the low bits
    to the chunk width.
    """
    values = np.asfortranarray(values)
    ybar = values.mean(axis=0)
    batches = (values[: omega * batch_size] - ybar).reshape(omega, batch_size, -1)
    # a batch's rows are added in row order, one row of every batch at a
    # time: ``sum(axis=1)`` over the short batch axis is ten times
    # slower.  The sums stay column-major, so each column's squares add
    # pairwise.
    sums = batches[:, 0].copy(order="K")
    for row in range(1, batch_size):
        sums += batches[:, row]
    return ybar, sums, (sums**2).sum(axis=0) / (batch_size * omega)


def _fold_chunk(block, rows, one_sided, batch_size, cols):
    """Reduce the columns ``cols``: their variance proxies and, for the
    kept (non-degenerate) ones, batch sums, scales, sidedness and the
    largest studentized mean (-inf when none is kept)."""
    omega = rows // batch_size
    ybar, sums, d = _moments(block(cols), omega, batch_size)
    keep = d > DIAG_FLOOR
    z = math.sqrt(rows) * ybar[keep] / np.sqrt(d[keep])
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(z))):
        raise ValueError(
            "variance proxies or studentized means overflow; rescale the data"
        )
    sided = one_sided[cols][keep]
    peak = float(np.where(sided, z, np.abs(z)).max()) if z.size else -math.inf
    scale = math.sqrt(batch_size * omega) * np.sqrt(d[keep])
    return d, sums[:, keep], scale, sided, peak


def _fold(
    block, rows: int, one_sided: np.ndarray, batch_size: int, imap=map
) -> _Fold:
    """One pass over the estimate columns, chunk by chunk in canonical
    order; ``block(cols)`` returns the rows x len(cols) values of the
    columns in the slice ``cols``.

    Per chunk (``_fold_chunk``, mapped by ``imap``): column means,
    non-overlapping batch sums of deviations from them, variance proxies
    (the diagonal of the batched covariance estimator) and the
    studentized means.  Rows beyond the largest multiple of the batch
    size are not batched (the means still use every row).  The chunks'
    results are stored in chunk order.
    """
    omega = rows // batch_size
    if omega < 2:
        raise ValueError(
            f"{rows} rows with batch size {batch_size} leave {omega} batches; "
            "need at least 2"
        )
    n_columns = len(one_sided)
    diag = np.empty(n_columns)
    sums = np.empty((omega, n_columns))
    scale = np.empty(n_columns)
    kept_sided = np.empty(n_columns, dtype=bool)
    statistic = -math.inf
    kept = 0
    slices = _column_slices(rows, n_columns)
    work = partial(_fold_chunk, block, rows, one_sided, batch_size)
    for cols, (d, chunk_sums, chunk_scale, sided, peak) in zip(
        slices, imap(work, slices)
    ):
        diag[cols] = d
        take = len(sided)
        statistic = max(statistic, peak)
        sums[:, kept : kept + take] = chunk_sums
        scale[kept : kept + take] = chunk_scale
        kept_sided[kept : kept + take] = sided
        kept += take
    return _Fold(statistic, diag, sums[:, :kept], scale[:kept], kept_sided[:kept])


def _require_columns(fold: _Fold) -> _Fold:
    if fold.k_effective == 0:
        raise ValueError("every column is numerically constant; nothing to test")
    return fold


def _seq_fold(seq: EstimateSequence, batch_size: int) -> _Fold:
    return _fold(lambda cols: seq.values[:, cols], seq.n_rows, seq.one_sided, batch_size)


def _multiplier_chunks(fold: _Fold, num_draws: int, seed, multipliers):
    """Yield (draw slice, multiplier chunk) pairs of about
    ``_CHUNK_BUDGET`` values each.

    A single generator instance produces the multiplier stream in
    row-major order, so the chunk size never changes the values drawn.
    """
    omega = fold.sums.shape[0]
    rng = np.random.default_rng(seed)
    if multipliers is not None:
        multipliers = np.asarray(multipliers, dtype=float)
        if multipliers.shape != (num_draws, omega):
            raise ValueError(
                f"multipliers must have shape {(num_draws, omega)}, "
                f"got {multipliers.shape}"
            )
    chunk = max(1, _CHUNK_BUDGET // omega)
    for start in range(0, num_draws, chunk):
        take = min(chunk, num_draws - start)
        if multipliers is None:
            e = rng.standard_normal((take, omega))
        else:
            e = multipliers[start : start + take]
        yield slice(start, start + take), e


def _coordinate_tiles(fold: _Fold, draws: int):
    """(draw rows, kept columns) tiles of a chunk of ``draws``
    multipliers: at most ``_TILE_SIDE`` rows and columns and
    ``_BLOCK_BUDGET`` coordinates each, and at most half the kept
    columns wide, so that two threads share even a narrow chunk.

    The sup-norm draws and the raw-coordinate diagnostic multiply
    exactly these tiles.  They depend only on the shapes, never on the
    thread count: BLAS blocking may change low bits with the tile shape.
    """
    kept = fold.k_effective
    height = max(1, min(draws, _TILE_SIDE, _BLOCK_BUDGET))
    width = max(1, min(_TILE_SIDE, _BLOCK_BUDGET // height, (kept + 1) // 2))
    return [
        (slice(lo, lo + height), slice(left, left + width))
        for left in range(0, kept, width)
        for lo in range(0, draws, height)
    ]


def _coordinates(fold: _Fold, e: np.ndarray, cols: slice) -> np.ndarray:
    """Studentized bootstrap coordinates of the kept columns ``cols``
    under the multiplier chunk ``e``."""
    coord = e @ fold.sums[:, cols]
    coord /= fold.scale[cols]
    return coord


def _tile_peaks(fold: _Fold, e: np.ndarray, tile) -> np.ndarray:
    """Per draw of a tile of the chunk ``e``, the tile's largest
    coordinate, signed for one-sided columns and absolute otherwise."""
    rows, cols = tile
    coord = _coordinates(fold, e[rows], cols)
    np.abs(coord, out=coord, where=~fold.one_sided[cols])
    return coord.max(axis=1)


def _draws(fold: _Fold, num_draws: int, seed, multipliers=None, imap=map) -> np.ndarray:
    """Sup-norm draws, multiplier chunk by multiplier chunk: the per-draw
    peaks of a chunk's tiles (``_tile_peaks``, mapped by ``imap``)
    combine by ``max``, which is exact.

    The calling thread draws the next chunk while the threads work on
    the current one, so at most two chunks are alive for any thread
    count.
    """
    out = np.full(num_draws, -np.inf)
    chunks = _multiplier_chunks(fold, num_draws, seed, multipliers)
    chunk = next(chunks, None)
    while chunk is not None:
        draws, e = chunk
        tiles = _coordinate_tiles(fold, len(e))
        peaks = imap(partial(_tile_peaks, fold, e), tiles)
        chunk = next(chunks, None)
        for (rows, _), tile_peaks in zip(tiles, peaks):
            np.maximum(out[draws][rows], tile_peaks, out=out[draws][rows])
    return out


def batched_diag(seq: EstimateSequence, batch_size: int) -> np.ndarray:
    """Per-column variance proxies from batch sums: the diagonal of the
    batched covariance estimator."""
    return _seq_fold(seq, batch_size).diag


def test_statistic(seq: EstimateSequence, batch_size: int) -> float:
    """Largest studentized column mean, scaled by the square root of the
    row count.

    Equality columns contribute absolute values; one-sided columns
    contribute signed values, so only positive deviations count against
    the null.
    """
    return _require_columns(_seq_fold(seq, batch_size)).statistic


def multiplier_draws(
    seq: EstimateSequence,
    batch_size: int,
    num_draws: int,
    seed,
    multipliers=None,
) -> np.ndarray:
    """Bootstrap sup-norm draws, in draw order.

    Each draw applies one standard-normal multiplier per batch to the
    batch sums, studentizes per column, and reduces like the test
    statistic (absolute for equality columns, signed for one-sided
    ones).  ``multipliers`` overrides the random draw for testing.
    """
    fold = _require_columns(_seq_fold(seq, batch_size))
    return _draws(fold, num_draws, seed, multipliers)


def bootstrap_coordinates(
    seq: EstimateSequence,
    batch_size: int,
    num_draws: int,
    seed,
    multipliers=None,
) -> np.ndarray:
    """Raw studentized bootstrap coordinates, one row per draw and one
    column per kept (non-degenerate) column.

    Diagnostic companion to ``multiplier_draws``: the same seed gives
    coordinates whose signed/absolute row maxima are exactly the draws.
    Conditionally on the data, every coordinate has variance 1.
    """
    fold = _require_columns(_seq_fold(seq, batch_size))
    out = np.empty((num_draws, fold.k_effective))
    for draws, e in _multiplier_chunks(fold, num_draws, seed, multipliers):
        for rows, cols in _coordinate_tiles(fold, len(e)):
            out[draws][rows, cols] = _coordinates(fold, e[rows], cols)
    return out


def quantile_from_draws(draws: np.ndarray, alpha: float) -> float:
    """Upper empirical quantile: the ceil((1-alpha) * E)-th order
    statistic, clamped into range."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    draws = np.sort(np.asarray(draws, dtype=float))
    e = draws.shape[0]
    idx = min(max(int(math.ceil((1.0 - alpha) * e)), 1), e)
    return float(draws[idx - 1])


def _fold_and_draw(
    data, constraints: ConstraintSystem, config: BootstrapConfig, jobs: int
):
    if isinstance(config.seed, np.random.SeedSequence):
        ss = config.seed
    else:
        ss = np.random.SeedSequence(config.seed)
    mult_ss, sub_ss = ss.spawn(2)
    subsample = None
    if config.subsample is not None:
        subsample = (config.subsample, sub_ss)
    source = column_source(data, constraints, config.mode, subsample, config.center)
    if source.n_columns == 0:
        raise ValueError("constraint system yields no test columns")
    with _ordered_map(jobs) as imap:
        fold = _fold(source.block, source.rows, source.one_sided, config.batch_size, imap)
        fold = _require_columns(fold)
        return fold, _draws(fold, config.num_multipliers, mult_ss, imap=imap)


def statistic_and_draws(data, constraints: ConstraintSystem, config: BootstrapConfig):
    """The test statistic and its bootstrap draws, from one pass over
    the estimate columns on the calling thread; ``run_test`` compares
    exactly these."""
    fold, draws = _fold_and_draw(data, constraints, config, 1)
    return fold.statistic, draws


def run_test(
    data, constraints: ConstraintSystem, config: BootstrapConfig
) -> TestResult:
    """Full bootstrap test of the constraint system on one dataset.

    The estimate columns are built, reduced and dropped chunk by chunk;
    only the batch sums of the kept columns are held for the draws.
    Column chunks and coordinate tiles run on one thread per usable
    core; the result is the same for any count.
    """
    fold, draws = _fold_and_draw(data, constraints, config, _usable_cores())
    stat = fold.statistic
    quantile = quantile_from_draws(draws, config.alpha)
    p_value = (float(np.count_nonzero(draws >= stat)) + 1.0) / (
        config.num_multipliers + 1.0
    )
    return TestResult(
        statistic=stat,
        quantile=quantile,
        p_value=p_value,
        reject=bool(stat > quantile),
        k_effective=fold.k_effective,
        diag_floor_hits=len(fold.diag) - fold.k_effective,
    )


def hotelling_statistic(
    data, constraints: ConstraintSystem, rank_rtol: Optional[float] = None
) -> HotellingResult:
    """Quadratic-form statistic on the plug-in equality estimates.

    The covariance of the plug-in vector is estimated by the delta
    method: gradients of each polynomial with respect to the symmetric
    second-moment entries, propagated through the Gaussian fourth-moment
    formula cov(s_ab, s_cd) = (s_ac s_bd + s_ad s_bc) / n.  The matrix
    is inverted by eigendecomposition with eigenvalues below
    ``rank_rtol`` times the largest treated as zero.

    The default cutoff is max(1e-10, 10/n): at singular points of the
    model the plug-in covariance is rank-deficient in population, and
    sampling noise lifts the null eigenvalues to order 1/n, so a cutoff
    of that order is needed to recover the population rank.

    Returns the statistic, the column count as nominal degrees of
    freedom, and the numerical rank actually used.
    """
    m = constraints.m
    x = _data_array(data, m)
    if m > 8:
        raise ValueError("quadratic-form statistic is limited to m <= 8")
    n = x.shape[0]
    k_cols = constraints.n_equality_terms
    if k_cols == 0:
        raise ValueError("constraint system has no equality columns")
    if n <= k_cols:
        raise ValueError(f"need n > {k_cols} rows for {k_cols} columns, got {n}")
    # a power-of-two scale to a largest entry in [0.5, 1) rounds nothing
    # and keeps v_hat, of degree 8 in the data, from overflowing or
    # underflowing; the statistic and rank do not depend on it
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    s = x.T @ x / n
    tau = constraints.equality_residuals(s)

    pa, pb = np.triu_indices(m)
    pair_id = np.empty((m, m), dtype=np.intp)
    pair_id[pa, pb] = pair_id[pb, pa] = np.arange(len(pa))
    a, b, c, d = constraints.equality_column_pairs().T
    grad = np.zeros((k_cols, len(pa)))
    rows = np.arange(k_cols)
    for i, j, value in (
        (a, b, s[c, d]), (c, d, s[a, b]), (a, d, -s[c, b]), (c, b, -s[a, d])
    ):
        np.add.at(grad, (rows, pair_id[i, j]), value)

    ra, rb = pa[:, None], pb[:, None]
    moment_cov = (s[ra, pa] * s[rb, pb] + s[ra, pb] * s[rb, pa]) / n
    v_hat = grad @ moment_cov @ grad.T

    eigvals, eigvecs = np.linalg.eigh(v_hat)
    top = eigvals[-1]
    if top <= 0:
        return HotellingResult(0.0, k_cols, 0)
    rtol = max(1e-10, 10.0 / n) if rank_rtol is None else rank_rtol
    keep = eigvals > rtol * top
    basis = eigvecs[:, keep]
    projected = basis.T @ tau
    stat = float(projected @ (projected / eigvals[keep]))
    return HotellingResult(stat, k_cols, int(keep.sum()))
