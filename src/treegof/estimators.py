"""Unbiased per-sample estimates of the constraint polynomials.

Equality constraints are quadratic in the covariance, so products of two
consecutive sample rows estimate them without bias; the resulting column
sequences are 1-dependent.  Sign inequalities are cubic and use three
consecutive rows, giving 2-dependent sequences.  Columns follow the
canonical constraint order; the bootstrap builds them chunk by chunk
from a ``ColumnSource``, in buffers it reuses from chunk to chunk, and
``build_estimate_matrix`` copies the same chunks into one matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import SampleMatrix
from .tree import ConstraintSystem

__all__ = [
    "EstimateSequence",
    "build_estimate_matrix",
    "plugin_tetrads",
]

# most values of a column block whose finiteness ``EstimateSequence``
# checks at once: ``isfinite`` of the whole matrix holds a boolean copy
# of it, an eighth of its size
_CHECK_BLOCK = 65_536


def _data_array(data, m: int) -> np.ndarray:
    """``data`` (an array or a ``SampleMatrix``) as an n x m float array
    of finite entries: the one check of every entry point that takes
    data."""
    if isinstance(data, SampleMatrix):
        data = data.data
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise ValueError("data must be a two-dimensional array")
    if x.shape[1] != m:
        raise ValueError(f"data has {x.shape[1]} columns but constraints expect {m}")
    if not np.all(np.isfinite(x)):
        raise ValueError("data contains non-finite entries")
    return x


def _gather(xt: np.ndarray, idx: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """The variables ``idx`` of the C-contiguous n-column ``xt``, one row
    each, written into the front rows of ``gather``.

    ``mode="clip"`` lets ``np.take`` write into ``gather`` directly (the
    indices are in range), and from a contiguous source it copies only
    the rows it takes."""
    return np.take(xt, idx, axis=0, out=gather[: len(idx)], mode="clip")


def _difference_columns(xt, quads, out, second, gather):
    """Write into the rows of ``out`` one column per (a, b, c, d) row of
    ``quads``: products of consecutive samples, unbiased for
    sigma_ab * sigma_cd - sigma_ad * sigma_cb.

    ``xt`` holds one variable per row; ``out`` and ``second`` have one
    row per column and one entry per estimate.  Both products multiply
    in the order of u_a*u_b*v_c*v_d - u_a*u_d*v_c*v_b, with u the
    earlier and v the later sample, so the values do not depend on the
    buffers."""
    rows = out.shape[1]
    a, b, c, d = quads.T
    second = second[: len(quads)]
    ua = _gather(xt, a, gather)[:, :rows]
    out[...] = ua
    second[...] = ua
    out *= _gather(xt, b, gather)[:, :rows]
    second *= _gather(xt, d, gather)[:, :rows]
    vc = _gather(xt, c, gather)[:, 1 : rows + 1]
    out *= vc
    second *= vc
    out *= _gather(xt, d, gather)[:, 1 : rows + 1]
    second *= _gather(xt, b, gather)[:, 1 : rows + 1]
    out -= second


def _monomial_columns(xt, triples, out, gather):
    """Write into the rows of ``out`` one column per (p, q, r) row of
    ``triples``: products over three consecutive samples w0, w1, w2,
    unbiased for sigma_pq * sigma_pr * sigma_qr, multiplied in the order
    of w0_p*w0_q*w1_p*w1_r*w2_q*w2_r."""
    rows = out.shape[1]
    p, q, r = triples.T
    out[...] = _gather(xt, p, gather)[:, :rows]
    for idx, lag in ((q, 0), (p, 1), (r, 1), (q, 2), (r, 2)):
        out *= _gather(xt, idx, gather)[:, lag : lag + rows]


@dataclass(frozen=True)
class EstimateSequence:
    """Estimate columns in canonical constraint order.

    ``values`` has one row per estimate (n - 1 for equality columns,
    n - 2 once sign columns are on); ``one_sided[k]`` marks inequality
    columns, which enter max statistics without absolute value.
    """

    values: np.ndarray
    one_sided: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be two-dimensional")
        width = max(1, _CHECK_BLOCK // max(values.shape[0], 1))
        for lo in range(0, values.shape[1], width):
            if not np.isfinite(values[:, lo : lo + width]).all():
                raise ValueError("estimate values contain non-finite entries")
        one_sided = np.asarray(self.one_sided, dtype=bool)
        if one_sided.shape != (values.shape[1],):
            raise ValueError("one_sided mask must have one entry per column")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "one_sided", one_sided)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]

    def workspace_shapes(self, width: int):
        return ()

    def block(self, cols: slice, work) -> np.ndarray:
        """A column-major copy of the columns ``cols``, for the fold to overwrite."""
        return self.values[:, cols].copy(order="F")


@dataclass(frozen=True)
class ColumnSource:
    """The estimate columns of one dataset in canonical constraint order,
    built on demand by column range so that the full matrix need never
    exist.

    ``quads`` holds one (a, b, c, d) row per difference column and
    ``triples`` one (p, q, r) row per sign column; sign columns follow
    every difference column.  ``n_rows`` is n - 1, or n - 2 when there
    are sign columns (three consecutive rows per estimate).
    """

    x: np.ndarray
    quads: np.ndarray
    triples: np.ndarray
    n_rows: int

    @property
    def n_columns(self) -> int:
        return len(self.quads) + len(self.triples)

    @cached_property
    def one_sided(self) -> np.ndarray:
        return np.arange(self.n_columns) >= len(self.quads)

    def workspace_shapes(self, width: int):
        """Shapes of the buffers of a workspace for chunks of up to
        ``width`` columns: the columns, the second product of the
        difference columns and one gathered variable per column."""
        return (width, self.n_rows), (width, self.n_rows), (width, self.x.shape[0])

    def block(self, cols: slice, work) -> np.ndarray:
        """Columns ``cols.start`` to ``cols.stop - 1``, one row per
        estimate, in column-major layout; sign columns hold negated
        monomial estimates, so that large positive values indicate
        violation.

        The columns are built in ``work``, arrays of the
        ``workspace_shapes`` of at least ``len(cols)`` columns, and the
        result is a view of it."""
        split = len(self.quads)
        quads = self.quads[cols]
        triples = self.triples[max(cols.start - split, 0) : max(cols.stop - split, 0)]
        out, second, gather = work
        out = out[: len(quads) + len(triples)]
        # the working copy is column-major, so its transpose holds each
        # variable's samples contiguously
        xt = self.x.T
        _difference_columns(xt, quads, out[: len(quads)], second, gather)
        if len(triples):
            signs = out[len(quads) :]
            _monomial_columns(xt, triples, signs, gather)
            np.negative(signs, out=signs)
        return out.T


def column_source(
    data,
    constraints: ConstraintSystem,
    mode: str = "equalities",
    subsample=None,
    center: bool = True,
) -> ColumnSource:
    """Validate the data and select the estimate columns of a constraint
    system; the parameters are those of ``build_estimate_matrix``.

    A subsample is drawn before any column is built.
    """
    x = _data_array(data, constraints.m)
    n = x.shape[0]
    # The builders gather whole variables, so the working copy is
    # column-major; the products are elementwise and round the same in
    # any layout.  The mean is summed over C-ordered rows whatever the
    # input layout, since numpy sums the two layouts differently.  The
    # copy is the source's own, which the bootstrap scales in place.
    if center and n > 0:
        x = np.subtract(x, np.ascontiguousarray(x).mean(axis=0), order="F")
    else:
        x = np.array(x, order="F")
    quads = constraints.equality_column_pairs()
    if mode == "equalities":
        if n < 2:
            raise ValueError("need at least 2 rows for equality columns")
        order = 1
        triples = np.empty((0, 3), dtype=np.intp)
    elif mode == "all":
        if n < 3:
            raise ValueError("need at least 3 rows when inequality columns are on")
        order = 2
        triples = constraints.sign_triples()
    else:
        raise ValueError(f"unknown mode {mode!r}, expected 'equalities' or 'all'")
    if subsample is not None:
        k, sub_seed = subsample
        total = len(quads) + len(triples)
        if not 1 <= k:
            raise ValueError("subsample size must be at least 1")
        if k > total:
            raise ValueError(
                f"subsample size {k} exceeds the {total} available columns"
            )
        rng = np.random.default_rng(sub_seed)
        sel = np.sort(rng.choice(total, size=k, replace=False))
        split = np.searchsorted(sel, len(quads))
        triples = triples[sel[split:] - len(quads)]
        quads = quads[sel[:split]]
    return ColumnSource(x, quads, triples, n - order)


def build_estimate_matrix(
    data,
    constraints: ConstraintSystem,
    mode: str = "equalities",
    subsample=None,
    center: bool = True,
) -> EstimateSequence:
    """Assemble the full estimate matrix, a fold chunk at a time in one workspace.

    Parameters
    ----------
    mode : {"equalities", "all"}
        "equalities" builds the 1-dependent difference columns only.
        "all" appends one 2-dependent column per sign inequality, holding
        the negated monomial estimates so that large positive values
        indicate violation; every column is then truncated to n - 2 rows.
        The squared bound inequalities have no low-order unbiased
        estimator and are never given columns.
    subsample : optional (k, seed)
        Keep k columns drawn without replacement (order preserved).
    center : bool
        Subtract column means first.  Disable to reproduce the exact
        mean-zero construction.
    """
    from .bootstrap import _column_slices  # ``bootstrap`` imports this module
    source = column_source(data, constraints, mode, subsample, center)
    slices = _column_slices(source.n_rows, slice(0, source.n_columns))
    width = slices[0].stop - slices[0].start if slices else 0
    work = [np.empty(shape) for shape in source.workspace_shapes(width)]
    values = np.empty((source.n_rows, source.n_columns), order="F")
    for cols in slices:
        values[:, cols] = source.block(cols, work)
    return EstimateSequence(values, source.one_sided)


def plugin_tetrads(data, constraints: ConstraintSystem) -> np.ndarray:
    """Equality polynomials evaluated at the raw second-moment matrix
    S = X'X / n, in canonical order."""
    x = _data_array(data, constraints.m)
    n = x.shape[0]
    if n < 1:
        raise ValueError("plug-in estimation needs at least 1 row")
    return constraints.equality_residuals(x.T @ x / n)
