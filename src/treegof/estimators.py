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


def _data_array(data) -> np.ndarray:
    if isinstance(data, SampleMatrix):
        return data.data
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise ValueError("data must be a two-dimensional array")
    return arr


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

    ``values`` has n - dependence_order rows; ``one_sided[k]`` marks
    inequality columns, which enter max statistics without absolute
    value.
    """

    values: np.ndarray
    dependence_order: int
    one_sided: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be two-dimensional")
        if not np.all(np.isfinite(values)):
            raise ValueError("estimate values contain non-finite entries")
        if self.dependence_order not in (1, 2):
            raise ValueError("dependence_order must be 1 or 2")
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
    every difference column.  ``rows`` is n - dependence_order.
    """

    x: np.ndarray
    quads: np.ndarray
    triples: np.ndarray
    rows: int
    dependence_order: int

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
    x = _data_array(data)
    n, m = x.shape
    if m != constraints.m:
        raise ValueError(
            f"data has {m} columns but constraints expect {constraints.m}"
        )
    if center and n > 0:
        x = x - x.mean(axis=0)
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
    return ColumnSource(x, quads, triples, n - order, order)


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
    return EstimateSequence(values, source.dependence_order, source.one_sided)


def plugin_tetrads(data, constraints: ConstraintSystem) -> np.ndarray:
    """Equality polynomials evaluated at the raw second-moment matrix
    S = X'X / n, in canonical order."""
    x = _data_array(data)
    n = x.shape[0]
    if n < 1:
        raise ValueError("plug-in estimation needs at least 1 row")
    if x.shape[1] != constraints.m:
        raise ValueError(
            f"data has {x.shape[1]} columns but constraints expect {constraints.m}"
        )
    s = x.T @ x / n
    a, b, c, d = constraints.equality_column_pairs().T
    return s[a, b] * s[c, d] - s[a, d] * s[c, b]
