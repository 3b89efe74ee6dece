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
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .estimators import EstimateSequence, column_source, plugin_tetrads
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

# budget, in doubles, of every intermediate block: an estimate-column
# chunk, a multiplier chunk and a coordinate tile
_CHUNK_BUDGET = 500_000


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


def _column_slices(rows: int, n_columns: int):
    """Column chunks of at most ``_CHUNK_BUDGET`` values (at least one
    column)."""
    width = max(1, _CHUNK_BUDGET // rows)
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
    if not np.all(np.isfinite(values)):
        raise ValueError("estimate values contain non-finite entries")
    values = np.asfortranarray(values)
    ybar = values.mean(axis=0)
    dev = values[: omega * batch_size] - ybar
    sums = dev.reshape(omega, batch_size, -1).sum(axis=1)
    return ybar, sums, (sums**2).sum(axis=0) / (batch_size * omega)


def _fold(block, rows: int, one_sided: np.ndarray, batch_size: int) -> _Fold:
    """One pass over the estimate columns, chunk by chunk in canonical
    order; ``block(cols)`` returns the rows x len(cols) values of the
    columns in the slice ``cols``.

    Per chunk: column means, non-overlapping batch sums of deviations
    from them, variance proxies (the diagonal of the batched covariance
    estimator) and the studentized means.  Rows beyond the largest
    multiple of the batch size are not batched (the means still use
    every row).
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
    for cols in _column_slices(rows, n_columns):
        ybar, chunk_sums, d = _moments(block(cols), omega, batch_size)
        keep = d > DIAG_FLOOR
        z = math.sqrt(rows) * ybar[keep] / np.sqrt(d[keep])
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(z))):
            raise ValueError(
                "variance proxies or studentized means overflow; "
                "rescale the data"
            )
        diag[cols] = d
        take = z.shape[0]
        if take:
            sided = one_sided[cols][keep]
            statistic = max(statistic, float(np.where(sided, z, np.abs(z)).max()))
            sums[:, kept : kept + take] = chunk_sums[:, keep]
            scale[kept : kept + take] = math.sqrt(batch_size * omega) * np.sqrt(d[keep])
            kept_sided[kept : kept + take] = sided
            kept += take
    return _Fold(statistic, diag, sums[:, :kept], scale[:kept], kept_sided[:kept])


def _require_columns(fold: _Fold) -> _Fold:
    if fold.k_effective == 0:
        raise ValueError("every column is numerically constant; nothing to test")
    return fold


def _seq_fold(seq: EstimateSequence, batch_size: int) -> _Fold:
    return _fold(lambda cols: seq.values[:, cols], seq.n_rows, seq.one_sided, batch_size)


def _coordinate_tiles(fold: _Fold, num_draws: int, seed, multipliers):
    """Yield (draw slice, column slice, studentized coordinates) tiles,
    draw chunk by draw chunk; one generator serves both the sup-norm
    reduction and the raw-coordinate diagnostic.

    A single generator instance produces the multiplier stream in
    row-major order, so the chunk size never changes the values drawn.
    """
    omega, kept = fold.sums.shape
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
        width = max(1, _CHUNK_BUDGET // take)
        for lo in range(0, kept, width):
            cols = slice(lo, lo + width)
            coord = e @ fold.sums[:, cols]
            coord /= fold.scale[cols]
            yield slice(start, start + take), cols, coord


def _draws(fold: _Fold, num_draws: int, seed, multipliers=None) -> np.ndarray:
    """Sup-norm draws: per draw, the largest coordinate, signed for
    one-sided columns and absolute otherwise."""
    out = np.full(num_draws, -np.inf)
    for draws, cols, coord in _coordinate_tiles(fold, num_draws, seed, multipliers):
        np.abs(coord, out=coord, where=~fold.one_sided[cols])
        np.maximum(out[draws], coord.max(axis=1), out=out[draws])
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
    for draws, cols, coord in _coordinate_tiles(fold, num_draws, seed, multipliers):
        out[draws, cols] = coord
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


def _fold_and_draw(data, constraints: ConstraintSystem, config: BootstrapConfig):
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
    fold = _fold(source.block, source.rows, source.one_sided, config.batch_size)
    fold = _require_columns(fold)
    return fold, _draws(fold, config.num_multipliers, mult_ss)


def statistic_and_draws(data, constraints: ConstraintSystem, config: BootstrapConfig):
    """The test statistic and its bootstrap draws, from one pass over
    the estimate columns; ``run_test`` compares exactly these."""
    fold, draws = _fold_and_draw(data, constraints, config)
    return fold.statistic, draws


def run_test(
    data, constraints: ConstraintSystem, config: BootstrapConfig
) -> TestResult:
    """Full bootstrap test of the constraint system on one dataset.

    The estimate columns are built, reduced and dropped chunk by chunk;
    only the batch sums of the kept columns are held for the draws.
    """
    fold, draws = _fold_and_draw(data, constraints, config)
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


def _sym_pairs(m: int):
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    index = {p: k for k, p in enumerate(pairs)}
    return pairs, index


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
    if m > 8:
        raise ValueError("quadratic-form statistic is limited to m <= 8")
    x = np.asarray(data.data if hasattr(data, "data") else data, dtype=float)
    n = x.shape[0]
    k_cols = constraints.n_equality_terms
    if k_cols == 0:
        raise ValueError("constraint system has no equality columns")
    if n <= k_cols:
        raise ValueError(f"need n > {k_cols} rows for {k_cols} columns, got {n}")
    tau = plugin_tetrads(x, constraints)
    s = x.T @ x / n

    pairs, index = _sym_pairs(m)
    grad = np.zeros((k_cols, len(pairs)))

    def bump(row, i, j, value):
        grad[row, index[(min(i, j), max(i, j))]] += value

    for row, ((a, b), (c, d)) in enumerate(constraints.equality_column_pairs()):
        bump(row, a, b, s[c, d])
        bump(row, c, d, s[a, b])
        bump(row, a, d, -s[c, b])
        bump(row, c, b, -s[a, d])

    moment_cov = np.empty((len(pairs), len(pairs)))
    for u, (a, b) in enumerate(pairs):
        for v, (c, d) in enumerate(pairs):
            moment_cov[u, v] = (s[a, c] * s[b, d] + s[a, d] * s[b, c]) / n
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
