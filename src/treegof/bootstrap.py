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
    "hotelling_statistic",
]

# columns whose batched variance falls below this are reported as
# degenerate and excluded from the max
DIAG_FLOOR = 1e-300

# budget, in doubles, of a multiplier chunk; every chunk rereads the
# whole batch-sum store, so chunks stay large
_CHUNK_BUDGET = 500_000

# budget, in doubles, of the estimate-column chunk one thread builds
# and reduces at a time
_BLOCK_BUDGET = 65_536

# most draws and most columns of a coordinate tile.  Every tile
# repacks its multipliers and its batch sums for BLAS, so square tiles
# pack the least: wide-star's 1000 x 54,810 coordinates took 0.46 s in
# 256 x 256 tiles and 0.64 s in 1000 x 65 tiles (one core)
_TILE_SIDE = 256

# budget, in doubles, of one column group's batch sums.  The fold and the
# draws take the estimate columns a group at a time and hold one group's
# sums, so memory does not grow with the column count
_SUMS_BUDGET = 1 << 20

# fewest columns of a group.  A group replays a multiplier stream of
# more than one chunk, and one normal costs about as much as 330
# multiply-adds of the coordinate matmul (one BLAS thread, 2-vCPU VM),
# so a group of 4,096 columns or more spends at most 8% of its matmul
# time on the replay
_MIN_GROUP = 16 * _TILE_SIDE


def _require_count(name: str, value, when: str = "") -> None:
    # a count is an integer of at least 1; the error names the count
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1{when}")


@dataclass(frozen=True)
class BootstrapConfig:
    """Knobs of one bootstrap test run.

    ``seed`` feeds a seed sequence from which the multiplier stream and
    the optional column-subsampling stream are split off, so one integer
    or ``SeedSequence`` reproduces the full run: a ``SeedSequence`` is
    copied, not advanced, so a config gives the same run every time
    (``None`` draws fresh entropy each run).  ``subsample`` keeps that
    many columns, drawn without replacement after mode selection.
    """

    batch_size: int = 3
    num_multipliers: int = 1000
    alpha: float = 0.05
    seed: Union[int, np.random.SeedSequence, None] = None
    mode: str = "equalities"
    center: bool = True
    subsample: Optional[int] = None

    def __post_init__(self):
        _require_count("batch_size", self.batch_size)
        _require_count("num_multipliers", self.num_multipliers)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.mode not in ("equalities", "all"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.subsample is not None:
            _require_count("subsample", self.subsample, " when given")


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
    """What the bootstrap keeps of one column group after one pass: the
    statistic, every column's variance proxy, and the sidedness and
    unit-length batch sums of the kept (non-degenerate) columns: a
    column's sums over their norm, sqrt(batch size * omega * proxy).
    ``sums`` is omega x kept, the kept rows of the group store
    transposed."""

    statistic: float
    diag: np.ndarray
    sums: np.ndarray
    one_sided: np.ndarray

    @property
    def k_effective(self) -> int:
        return self.sums.shape[1]


class Scratch:
    """Memory that the bootstrap core takes its large buffers from, in
    three regions:

    - ``store``: one column group's W x omega batch sums, one row per
      column, unit-length once the column is kept;
    - ``work``: one group's fold workspaces, and then that group's
      multiplier chunks and coordinate tiles;
    - ``stream``: a one-chunk multiplier stream kept across groups.

    Each phase takes its buffers with ``take`` when it runs.  A group's
    fold always finishes before its draws start, so they share ``work``.
    A region grows to the largest request served and is kept, so a
    caller that runs many tests through one scratch (a ``simulate``
    worker, a block of replications at a time) allocates and faults it
    once.  A scratch serves one call at a time; results never point into
    it.
    """

    def __init__(self):
        self._regions = dict.fromkeys(("store", "work", "stream"), np.empty(0))

    def take(self, region: str, shapes) -> list:
        """Consecutive arrays of ``shapes`` from the front of ``region``;
        they overwrite what an earlier ``take`` of the region handed out."""
        size = sum(math.prod(shape) for shape in shapes)
        if len(self._regions[region]) < size:
            # give the old memory back before taking the new
            self._regions[region] = np.empty(0)
            self._regions[region] = np.empty(size)
        memory = self._regions[region]
        out = []
        for shape in shapes:
            size = math.prod(shape)
            out.append(memory[:size].reshape(shape))
            memory = memory[size:]
        return out


def _usable_cores() -> int:
    """The cores this process may run on (``taskset`` restricts them)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _ordered_map(jobs: int):
    """An ``imap(fn, items)`` that runs ``fn`` on ``jobs`` threads and
    yields the results in item order: builtin ``map`` when ``jobs`` is
    1, else a thread pool's ``map``, which submits every item at once
    (every result is small, so finished items cost little).

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

    with ThreadPoolExecutor(jobs) as pool:
        yield pool.map


def _column_groups(omega: int, n_columns: int):
    """Column ranges of ``max(_SUMS_BUDGET // omega, _MIN_GROUP)``
    columns, rounded down to whole tiles: when no column is dropped, the
    groups' coordinate tiles are those of one group of every column.
    Zero columns make one empty group."""
    width = max(_SUMS_BUDGET // omega, _MIN_GROUP) // _TILE_SIDE * _TILE_SIDE
    width = max(width, _TILE_SIDE)
    return [
        slice(lo, min(lo + width, n_columns))
        for lo in range(0, max(n_columns, 1), width)
    ]


def _column_slices(rows: int, group: slice):
    """Column chunks of ``group`` of at most ``_BLOCK_BUDGET`` values (at
    least one column)."""
    width = max(1, _BLOCK_BUDGET // rows)
    return [
        slice(lo, min(lo + width, group.stop))
        for lo in range(group.start, group.stop, width)
    ]


def _moments(rows: np.ndarray, sums: np.ndarray, batch_size: int):
    """Means and variance proxies of a chunk's rows, one row per column;
    each row's batch sums of deviations from its mean go to its row of
    ``sums``, and the rows are overwritten.

    Every row is contiguous, as every source's ``block`` returns it:
    numpy then sums each row as one contiguous vector (pairwise), so no
    result depends on how the columns are chunked.  The whole rows are
    centred, the unbatched tail too: numpy buffers a third as much for
    one contiguous operand as for the batched slice.
    """
    ybar = rows.mean(axis=1)
    rows -= ybar[:, None]
    omega = sums.shape[1]
    batches = rows[:, : omega * batch_size].reshape(len(rows), omega, batch_size)
    # a batch's entries are added in row order, one entry of every batch
    # at a time: ``sum(axis=2)`` over the short batch axis is ten times
    # slower
    sums[...] = batches[:, :, 0]
    for row in range(1, batch_size):
        sums += batches[:, :, row]
    # the squares go to the rows, which are read no more; an overflowing
    # square is reported by ``_fold_chunk``'s check
    with np.errstate(over="ignore"):
        squares = np.square(sums, out=rows[:, :omega])
    return ybar, squares.sum(axis=1) / (batch_size * omega)


def _fold_chunk(source, spare, batch_size, store, group, cols):
    """Reduce the columns ``cols`` of ``group`` into the chunk's own rows
    of ``store``: each column's batch sums, divided by their norm when
    the column is kept (non-degenerate).  Return every column's variance
    proxy and the kept columns' largest studentized mean (-inf when none
    is kept).

    The columns are built in a workspace taken from ``spare``, which
    gets it back when the chunk is reduced."""
    sums = store[cols.start - group.start : cols.stop - group.start]
    work = spare.pop()
    try:
        ybar, d = _moments(source.block(cols, work), sums, batch_size)
    finally:
        spare.append(work)
    keep = d > DIAG_FLOOR
    root = np.sqrt(d)
    z = math.sqrt(source.n_rows) * ybar[keep] / root[keep]
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(z))):
        raise ValueError(
            "variance proxies or studentized means overflow; rescale the data"
        )
    sided = source.one_sided[cols][keep]
    peak = float(np.where(sided, z, np.abs(z)).max()) if z.size else -math.inf
    norm = math.sqrt(batch_size * sums.shape[1]) * root[:, None]
    np.divide(sums, norm, out=sums, where=keep[:, None])
    return d, peak


def _fold(source, batch_size: int, group: slice, store: np.ndarray, scratch, jobs):
    """One pass over the estimate columns of ``group`` of ``source``,
    chunk by chunk in canonical order, on ``jobs`` threads of a pool of
    its own.

    Per chunk (``_fold_chunk``): column means,
    non-overlapping batch sums of deviations from them, variance proxies
    (the diagonal of the batched covariance estimator) and the
    studentized means.  Rows beyond the largest multiple of the batch
    size are not batched (the means still use every row).  Each chunk
    writes its columns' batch sums into its own rows of ``store``; the
    fold moves the kept ones up past the rows of the columns dropped
    before them, so the kept sums end up in the front rows of ``store``.

    Each chunk in flight has one workspace, as wide as the widest chunk,
    taken from the ``work`` region of ``scratch``: every group's fold
    reuses the memory of the first.
    """
    diag = np.empty(group.stop - group.start)
    statistic = -math.inf
    kept = 0
    slices = _column_slices(source.n_rows, group)
    space = source.workspace_shapes(slices[0].stop - slices[0].start if slices else 0)
    spaces = min(jobs, len(slices))
    buffers = scratch.take("work", space * spaces)
    n = len(space)
    spare = deque(tuple(buffers[i * n : i * n + n]) for i in range(spaces))
    work = partial(_fold_chunk, source, spare, batch_size, store, group)
    with _ordered_map(jobs) as imap:
        for cols, (d, peak) in zip(slices, imap(work, slices)):
            lo = cols.start - group.start
            diag[lo : lo + len(d)] = d
            statistic = max(statistic, peak)
            keep = d > DIAG_FLOOR
            take = np.count_nonzero(keep)
            if kept < lo or take < len(d):
                store[kept : kept + take] = store[lo : lo + len(d)][keep]
            kept += take
    return _Fold(statistic, diag, store[:kept].T, source.one_sided[group][diag > DIAG_FLOOR])


def _folds(source, batch_size: int, scratch: Scratch, jobs: int = 1):
    """One call per column group of ``source``, in order, that folds the
    group (``_fold``) and returns its ``_Fold``.

    ``source`` has ``n_rows``, ``one_sided``, ``workspace_shapes(width)``
    and ``block(cols, work)``: the values of the column slice ``cols``,
    one contiguous row per column, built in a workspace ``work`` of
    arrays of those shapes, which the fold overwrites.

    Every group's batch sums go to one W x omega store, one row per
    column, the ``store`` region of ``scratch``, so only one group's
    sums are alive, and a fold's ``sums`` (the transpose of the kept
    rows) hold only until the next group is folded.
    """
    _require_count("batch_size", batch_size)
    omega = source.n_rows // batch_size
    if omega < 2:
        raise ValueError(
            f"{source.n_rows} rows with batch size {batch_size} leave {omega} "
            "batches; need at least 2"
        )
    groups = _column_groups(omega, len(source.one_sided))
    (store,) = scratch.take("store", [(groups[0].stop, omega)])
    return [
        partial(_fold, source, batch_size, group, store, scratch, jobs)
        for group in groups
    ]


def _require_columns(kept: int, columns: int) -> int:
    if columns == 0:
        raise ValueError("constraint system yields no test columns")
    if kept == 0:
        raise ValueError("every column is numerically constant; nothing to test")
    return kept


def _seed_sequence(seed) -> np.random.SeedSequence:
    """``seed`` as a new ``SeedSequence``, from which every column group
    restarts the same multiplier stream (``None`` draws fresh entropy
    once).  A ``SeedSequence`` is copied with no child spawned, so
    spawning from the result never advances the caller's sequence."""
    if not isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed)
    return np.random.SeedSequence(
        seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size
    )


def _chunk_rows(num_draws: int, omega: int) -> int:
    """Draws per multiplier chunk: at most ``_CHUNK_BUDGET`` multipliers
    of ``omega`` batches, and at least one draw."""
    return max(1, min(num_draws, _CHUNK_BUDGET // omega))


def _multiplier_chunks(omega: int, num_draws: int, seed, buffers, kept=None):
    """Yield (draw slice, multipliers) pairs of chunks of ``_chunk_rows``
    draws of ``omega`` multipliers each: whole chunks, or, given
    ``kept``, a chunk's rows of tiles (``_tile_shape``) one at a time.

    A single generator instance produces the multiplier stream in
    row-major order, so the chunk size never changes the values drawn.
    ``seed`` is a ``SeedSequence``, so every column group draws the same
    stream.  The chunks are drawn into ``buffers``, of one chunk each, in
    turn, so a chunk (and a row of it, a view) is overwritten when
    ``len(buffers)`` more are drawn.
    """
    rng = np.random.default_rng(seed)
    chunk = _chunk_rows(num_draws, omega)
    for i, start in enumerate(range(0, num_draws, chunk)):
        take = min(chunk, num_draws - start)
        e = buffers[i % len(buffers)][:take]
        height = take if kept is None else _tile_shape(take, kept)[0]
        for lo in range(0, take, height):
            rows = e[lo : lo + height]
            rng.standard_normal(out=rows)
            yield slice(start + lo, start + lo + len(rows)), rows


def _tile_shape(draws: int, kept: int):
    """Most rows and columns of a coordinate tile of a chunk of
    ``draws`` multipliers over ``kept`` columns: at most ``_TILE_SIDE``
    of each, and at most half the kept columns wide, so that two threads
    share even a narrow chunk.  The width does not depend on ``draws``,
    so a row of a chunk's tiles, as a chunk of its own, has those tiles."""
    return min(draws, _TILE_SIDE), min(_TILE_SIDE, (kept + 1) // 2)


def _coordinate_tiles(fold: _Fold, draws: int):
    """(draw rows, kept columns) tiles of a chunk of ``draws``
    multipliers, of at most ``_tile_shape`` each.

    The sup-norm draws and the raw-coordinate diagnostic multiply
    exactly these tiles.  They depend only on the shapes, never on the
    thread count: BLAS blocking may change low bits with the tile shape.
    """
    kept = fold.k_effective
    height, width = _tile_shape(draws, kept)
    return [
        (slice(lo, min(lo + height, draws)), slice(left, min(left + width, kept)))
        for left in range(0, kept, width)
        for lo in range(0, draws, height)
    ]


def _tile_peaks(fold: _Fold, e: np.ndarray, spare: deque, tile) -> np.ndarray:
    """Per draw of a tile of the chunk ``e``, the tile's largest
    coordinate, signed for one-sided columns and absolute otherwise.

    The coordinates are written into a tile buffer taken from ``spare``,
    which gets it back when the peaks are taken."""
    rows, cols = tile
    e = e[rows]
    buffer = spare.pop()
    try:
        coord = buffer[: len(e) * (cols.stop - cols.start)].reshape(len(e), -1)
        np.matmul(e, fold.sums[:, cols], out=coord)
        sided = fold.one_sided[cols]
        # a masked ``abs`` takes twice as long as a plain one, so tiles of
        # one kind of column skip the mask
        if not sided.any():
            np.abs(coord, out=coord)
        elif not sided.all():
            np.abs(coord, out=coord, where=~sided)
        return coord.max(axis=1)
    finally:
        spare.append(buffer)


def _draws(fold: _Fold, num_draws: int, seed, scratch, jobs=1, stream=None, stop=None):
    """Sup-norm draws, multiplier chunk by multiplier chunk: the per-draw
    peaks of a chunk's tiles (``_tile_peaks``, on ``jobs`` threads of a
    pool of its own) combine by ``max``, which is exact.

    The calling thread draws the next chunk while the threads work on
    the current one, and takes every peak of a chunk before it draws the
    one after next, so two chunk buffers serve any thread count (one
    when the stream is one chunk, none when a one-chunk ``stream`` drawn
    from ``seed`` is passed in).
    Each tile in flight has a tile buffer, at most one per thread and
    per tile of a chunk.  The chunks and tiles come from the ``work``
    region of ``scratch``.

    Given ``stop``, each chunk is drawn and multiplied one row of tiles
    at a time, and drawing ends once ``stop`` draws reach
    ``fold.statistic``; the draws never made stay at -inf.  The stream
    fills the rows in order and a row's tiles are its chunk's, so the
    draws made are those of a full run, bit for bit.
    """
    omega = fold.sums.shape[0]
    size = _chunk_rows(num_draws, omega)
    chunks = 0 if stream is not None else 1 if size == num_draws else 2
    height, width = _tile_shape(size, fold.k_effective)
    in_flight = min(jobs, len(_coordinate_tiles(fold, size)))
    buffers = scratch.take("work", [(size, omega)] * chunks + [(height * width,)] * in_flight)
    out = np.full(num_draws, -np.inf)
    if stream is None:
        kept = None if stop is None else fold.k_effective
        drawn = _multiplier_chunks(omega, num_draws, seed, buffers[:chunks], kept)
    else:
        drawn = iter([(slice(0, num_draws), stream)])
    spare = deque(buffers[chunks:])
    reached = 0
    chunk = next(drawn, None)
    with _ordered_map(jobs) as imap:
        while chunk is not None:
            draws, e = chunk
            tiles = _coordinate_tiles(fold, len(e))
            peaks = imap(partial(_tile_peaks, fold, e, spare), tiles)
            # drawn while the threads work, unless this one may end the draws
            if stop is None:
                chunk = next(drawn, None)
            for (rows, _), tile_peaks in zip(tiles, peaks):
                np.maximum(out[draws][rows], tile_peaks, out=out[draws][rows])
            if stop is not None:
                reached += np.count_nonzero(out[draws] >= fold.statistic)
                chunk = next(drawn, None) if reached < stop else None
    return out


def _bootstrap(folds, num_draws: int, seed, scratch, jobs=1, stop=None):
    """The statistic, the sup-norm draws, the kept columns and all
    columns of the column groups of ``folds`` (from ``_folds``), each
    group folded and then drawn in the memory of ``scratch``.  ``folds``
    is emptied as the groups are folded.

    Every group's draws replay the multiplier stream from ``seed`` with
    a fresh generator, except that when there is more than one group, a
    stream of one chunk is drawn once into the ``stream`` region and
    kept for every group (drawn on the calling thread alone, between the
    first group's fold and its draws).  A group with no kept column draws nothing.  The
    groups' statistics and draws combine by ``max``, which is exact and
    independent of order.

    ``stop`` ends the draws once that many reach the statistic
    (``_draws``), and only when there is one group: with more, the
    statistic is not known until the last group is folded.
    """
    seed = _seed_sequence(seed)
    statistic = -math.inf
    draws = np.full(num_draws, -np.inf)
    kept = columns = 0
    groups = len(folds)
    stream = None
    while folds:
        # each group's call is dropped once run, so what only the fold
        # calls hold (the source's working copy) is freed before the last
        # group's draws
        fold = folds.pop(0)()
        statistic = max(statistic, fold.statistic)
        kept += fold.k_effective
        columns += len(fold.diag)
        if fold.k_effective and num_draws:
            omega = fold.sums.shape[0]
            one_chunk = _chunk_rows(num_draws, omega) == num_draws
            if stream is None and groups > 1 and one_chunk:
                (stream,) = scratch.take("stream", [(num_draws, omega)])
                np.random.default_rng(seed).standard_normal(out=stream)
            group_stop = stop if groups == 1 else None
            peaks = _draws(fold, num_draws, seed, scratch, jobs, stream, group_stop)
            np.maximum(draws, peaks, out=draws)
    return statistic, draws, _require_columns(kept, columns), columns


def batched_diag(seq: EstimateSequence, batch_size: int) -> np.ndarray:
    """Per-column variance proxies from batch sums: the diagonal of the
    batched covariance estimator."""
    return np.concatenate([fold().diag for fold in _folds(seq, batch_size, Scratch())])


def test_statistic(seq: EstimateSequence, batch_size: int) -> float:
    """Largest studentized column mean, scaled by the square root of the
    row count.

    Equality columns contribute absolute values; one-sided columns
    contribute signed values, so only positive deviations count against
    the null.
    """
    scratch = Scratch()
    return _bootstrap(_folds(seq, batch_size, scratch), 0, None, scratch)[0]


def multiplier_draws(
    seq: EstimateSequence, batch_size: int, num_draws: int, seed
) -> np.ndarray:
    """Bootstrap sup-norm draws, in draw order.

    Each draw applies one standard-normal multiplier per batch to the
    batch sums, studentizes per column, and reduces like the test
    statistic (absolute for equality columns, signed for one-sided
    ones).
    """
    _require_count("num_draws", num_draws)
    scratch = Scratch()
    return _bootstrap(_folds(seq, batch_size, scratch), num_draws, seed, scratch)[1]


def bootstrap_coordinates(
    seq: EstimateSequence, batch_size: int, num_draws: int, seed
) -> np.ndarray:
    """Raw studentized bootstrap coordinates, one row per draw and one
    column per kept (non-degenerate) column.

    Diagnostic companion to ``multiplier_draws``: the same seed gives
    coordinates whose signed/absolute row maxima are exactly the draws.
    Conditionally on the data, every coordinate has variance 1.
    """
    _require_count("num_draws", num_draws)
    seed = _seed_sequence(seed)
    scratch = Scratch()
    groups = []
    for fold_group in _folds(seq, batch_size, scratch):
        fold = fold_group()
        out = np.empty((num_draws, fold.k_effective))
        if fold.k_effective:
            omega = fold.sums.shape[0]
            buffer = scratch.take("work", [(_chunk_rows(num_draws, omega), omega)])
            for draws, e in _multiplier_chunks(omega, num_draws, seed, buffer):
                for rows, cols in _coordinate_tiles(fold, len(e)):
                    np.matmul(e[rows], fold.sums[:, cols], out=out[draws][rows, cols])
        groups.append(out)
    _require_columns(sum(block.shape[1] for block in groups), seq.n_columns)
    return np.hstack(groups)


def _quantile_index(num_draws: int, alpha: float) -> int:
    """Position in sorted draws of the ceil((1-alpha) * E)-th order
    statistic, clamped into range."""
    return min(max(int(math.ceil((1.0 - alpha) * num_draws)), 1), num_draws) - 1


def quantile_from_draws(draws: np.ndarray, alpha: float) -> float:
    """Upper empirical quantile: the ceil((1-alpha) * E)-th order
    statistic, clamped into range.  A NaN or infinite quantile would
    never reject, so non-finite draws are refused."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 1 or draws.size == 0 or not np.isfinite(draws).all():
        raise ValueError("draws must be a non-empty 1-D array of finite values")
    draws = np.sort(draws)
    return float(draws[_quantile_index(draws.shape[0], alpha)])


def _fold_and_draw(
    held: list, constraints: ConstraintSystem, config: BootstrapConfig, jobs: int, scratch,
    stop=None,
):
    """``_bootstrap`` of the estimate columns of the data in the one-item
    list ``held``, on ``jobs`` threads, with the large buffers taken from
    ``scratch``, and with its ``stop``.

    Each copy of the data lives only while a phase reads it: ``held`` is
    emptied once the column source has its own centred copy, so data that
    the list alone holds is freed before the fold, and only the fold calls
    hold the source, so its copy is freed before the last group's draws.
    """
    mult_ss, sub_ss = _seed_sequence(config.seed).spawn(2)
    subsample = None
    if config.subsample is not None:
        subsample = (config.subsample, sub_ss)
    source = column_source(held.pop(), constraints, config.mode, subsample, config.center)
    # columns are homogeneous in each variable and studentized, so scaling
    # each variable by a power of two to a largest magnitude in [0.5, 1)
    # changes no result, and tiny or huge units neither underflow nor overflow
    x = source.x
    np.ldexp(x, -np.frexp(np.maximum(x.max(axis=0), -x.min(axis=0)))[1], out=x)
    folds = _folds(source, config.batch_size, scratch, jobs)
    del source, x
    return _bootstrap(folds, config.num_multipliers, mult_ss, scratch, jobs, stop)


def run_test(
    data, constraints: ConstraintSystem, config: BootstrapConfig
) -> TestResult:
    """Full bootstrap test of the constraint system on one dataset.

    The estimate columns are built, reduced and dropped chunk by chunk,
    one column group at a time; only one group's batch sums of the kept
    columns are held, for that group's draws.  Column chunks and
    coordinate tiles run on one thread per usable core; the result is
    the same for any count.  An array passed as a temporary (``treegof
    test`` passes its parsed CSV so) is freed once its centred working
    copy is made, and that copy before the last group's draws.
    """
    # the list alone holds the data in this frame, and the fold empties it
    held = [data]
    del data
    stat, draws, kept, columns = _fold_and_draw(
        held, constraints, config, _usable_cores(), Scratch()
    )
    quantile = quantile_from_draws(draws, config.alpha)
    p_value = (float(np.count_nonzero(draws >= stat)) + 1.0) / (
        config.num_multipliers + 1.0
    )
    return TestResult(
        statistic=stat,
        quantile=quantile,
        p_value=p_value,
        reject=bool(stat > quantile),
        k_effective=kept,
        diag_floor_hits=columns - kept,
    )


def hotelling_statistic(data, constraints: ConstraintSystem) -> HotellingResult:
    """Quadratic-form statistic on the plug-in equality estimates.

    The covariance of the plug-in vector is estimated by the delta
    method: gradients of each polynomial with respect to the symmetric
    second-moment entries, propagated through the Gaussian fourth-moment
    formula cov(s_ab, s_cd) = (s_ac s_bd + s_ad s_bc) / n.  The matrix
    is inverted by eigendecomposition with eigenvalues below
    max(1e-10, 10/n) times the largest treated as zero: at singular
    points of the model the plug-in covariance is rank-deficient in
    population, and sampling noise lifts the null eigenvalues to order
    1/n, so a cutoff of that order is needed to recover the population
    rank.  The cutoff is relative to the largest eigenvalue, so each
    variable is first divided by its root mean square (the raw second
    moment, which the estimates use, not the standard deviation): the
    statistic and rank do not depend on each variable's scale or sign.
    A variable that is all zeros raises ``ValueError``.

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
    # a power-of-two scale of each variable to a largest entry in
    # [0.5, 1) rounds nothing, so its root mean square neither overflows
    # nor underflows; after the division v_hat, of degree 8 in the data,
    # does not either
    x = np.ldexp(x, -np.frexp(np.abs(x).max(axis=0))[1])
    rms = np.sqrt(np.mean(x * x, axis=0))
    if not rms.all():
        raise ValueError(f"data column {int(np.argmin(rms))} is all zeros")
    x /= rms
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
    keep = eigvals > max(1e-10, 10.0 / n) * top
    basis = eigvecs[:, keep]
    projected = basis.T @ tau
    stat = float(projected @ (projected / eigvals[keep]))
    return HotellingResult(stat, k_cols, int(keep.sum()))
