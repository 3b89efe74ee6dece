"""Unbiased per-sample estimates of the constraint polynomials.

Equality constraints are quadratic in the covariance, so products of two
consecutive sample rows estimate them without bias; the resulting column
sequences are 1-dependent.  Sign inequalities are cubic and use three
consecutive rows, giving 2-dependent sequences.  Columns follow the
canonical constraint order; the bootstrap builds them chunk by chunk
from a ``ColumnSource``, ``build_estimate_matrix`` as one matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SampleMatrix
from .tree import ConstraintSystem

__all__ = [
    "EstimateSequence",
    "build_estimate_matrix",
    "plugin_tetrads",
]


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


def _difference_columns(x: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """One column per (a, b, c, d) row of ``quads``: products of
    consecutive rows, unbiased for sigma_ab * sigma_cd - sigma_ad * sigma_cb."""
    a, b, c, d = quads.T
    u = x[:-1]
    v = x[1:]
    return u[:, a] * u[:, b] * v[:, c] * v[:, d] - u[:, a] * u[:, d] * v[:, c] * v[:, b]


def _monomial_columns(x: np.ndarray, triples: np.ndarray) -> np.ndarray:
    """One column per (p, q, r) row of ``triples``: products over three
    consecutive rows, unbiased for sigma_pq * sigma_pr * sigma_qr."""
    p, q, r = triples.T
    w0 = x[:-2]
    w1 = x[1:-1]
    w2 = x[2:]
    return w0[:, p] * w0[:, q] * w1[:, p] * w1[:, r] * w2[:, q] * w2[:, r]


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
        if not np.all(np.isfinite(values)):
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


@dataclass(frozen=True)
class ColumnSource:
    """The estimate columns of one dataset in canonical constraint order,
    built on demand by column range so that the full matrix need never
    exist.

    ``quads`` holds one (a, b, c, d) row per difference column and
    ``triples`` one (p, q, r) row per sign column; sign columns follow
    every difference column.  ``rows`` is n - 1, or n - 2 when there
    are sign columns (three consecutive rows per estimate).
    """

    x: np.ndarray
    quads: np.ndarray
    triples: np.ndarray
    rows: int

    @property
    def n_columns(self) -> int:
        return len(self.quads) + len(self.triples)

    @property
    def one_sided(self) -> np.ndarray:
        return np.arange(self.n_columns) >= len(self.quads)

    def block(self, cols: slice) -> np.ndarray:
        """Columns ``cols.start`` to ``cols.stop - 1``, one row per
        estimate; sign columns hold negated monomial estimates, so that
        large positive values indicate violation."""
        split = len(self.quads)
        quads = self.quads[cols]
        triples = self.triples[max(cols.start - split, 0) : max(cols.stop - split, 0)]
        eq = _difference_columns(self.x[: self.rows + 1], quads)
        if len(triples) == 0:
            return eq
        return np.hstack([eq, -_monomial_columns(self.x, triples)])


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
    # input layout, since numpy sums the two layouts differently.
    if center and n > 0:
        x = np.subtract(x, np.ascontiguousarray(x).mean(axis=0), order="F")
    else:
        x = np.asfortranarray(x)
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
    """Assemble the full estimate matrix for a constraint system.

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
    source = column_source(data, constraints, mode, subsample, center)
    values = source.block(slice(0, source.n_columns))
    return EstimateSequence(values, source.one_sided)


def plugin_tetrads(data, constraints: ConstraintSystem) -> np.ndarray:
    """Equality polynomials evaluated at the raw second-moment matrix
    S = X'X / n, in canonical order."""
    x = _data_array(data, constraints.m)
    n = x.shape[0]
    if n < 1:
        raise ValueError("plug-in estimation needs at least 1 row")
    return constraints.equality_residuals(x.T @ x / n)
