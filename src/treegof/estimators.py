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
    "TetradIndex",
    "EstimateSequence",
    "tetrad_value",
    "tetrad_estimates",
    "monomial_estimates",
    "build_estimate_matrix",
    "column_means",
    "plugin_tetrads",
]


@dataclass(frozen=True)
class TetradIndex:
    """A 2x2 covariance minor sigma_ab * sigma_cd - sigma_ad * sigma_cb,
    identified by rows (a, b) and cols (c, d).

    Four sign-preserving rewritings describe the same polynomial; the
    constructor stores the lexicographically smallest, so equal
    polynomials compare equal.
    """

    rows: tuple
    cols: tuple

    def __post_init__(self):
        flat = tuple(self.rows) + tuple(self.cols)
        if len(flat) != 4:
            raise ValueError("rows and cols must each hold two indices")
        if any(not isinstance(i, (int, np.integer)) or i < 0 for i in flat):
            raise ValueError("indices must be nonnegative integers")
        if len(set(flat)) != 4:
            raise ValueError("tetrad needs four distinct variable indices")
        a, b, c, d = (int(i) for i in flat)
        best = min((a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a))
        object.__setattr__(self, "rows", (best[0], best[1]))
        object.__setattr__(self, "cols", (best[2], best[3]))


def tetrad_value(cov, idx: TetradIndex) -> float:
    """Evaluate the tetrad polynomial on a covariance matrix."""
    cov = np.asarray(cov, dtype=float)
    a, b = idx.rows
    c, d = idx.cols
    if max(a, b, c, d) >= cov.shape[0]:
        raise IndexError(
            f"tetrad index {max(a, b, c, d)} out of range for m={cov.shape[0]}"
        )
    return float(cov[a, b] * cov[c, d] - cov[a, d] * cov[c, b])


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


def _index_rows(items, width: int) -> np.ndarray:
    return np.asarray(items, dtype=np.intp).reshape(-1, width)


def tetrad_estimates(data, idx: TetradIndex) -> np.ndarray:
    """Length n-1 unbiased estimate sequence of one tetrad.

    Raw products of the given data; no centering is applied here.
    """
    x = _data_array(data)
    if x.shape[0] < 2:
        raise ValueError("tetrad estimation needs at least 2 rows")
    if max(*idx.rows, *idx.cols) >= x.shape[1]:
        raise IndexError("tetrad index out of range for data width")
    return _difference_columns(x, _index_rows([idx.rows + idx.cols], 4))[:, 0]


def monomial_estimates(data, triple) -> np.ndarray:
    """Length n-2 unbiased estimate sequence of sigma_pq sigma_pr sigma_qr."""
    x = _data_array(data)
    if x.shape[0] < 3:
        raise ValueError("monomial estimation needs at least 3 rows")
    p, q, r = triple
    if len({p, q, r}) != 3:
        raise ValueError("triple indices must be distinct")
    if max(p, q, r) >= x.shape[1]:
        raise IndexError("triple index out of range for data width")
    return _monomial_columns(x, _index_rows([(p, q, r)], 3))[:, 0]


def _pair_id(pair) -> str:
    (a, b), (c, d) = pair
    return f"t{a + 1}.{b + 1}|{c + 1}.{d + 1}"


def _triple_id(triple) -> str:
    p, q, r = triple
    return f"m{p + 1}.{q + 1}.{r + 1}"


@dataclass(frozen=True)
class EstimateSequence:
    """Estimate columns in canonical constraint order.

    ``values`` has n - dependence_order rows; ``one_sided[k]`` marks
    inequality columns, which enter max statistics without absolute
    value.
    """

    values: np.ndarray
    dependence_order: int
    ids: tuple
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
        if len(self.ids) != values.shape[1]:
            raise ValueError("ids must have one entry per column")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "one_sided", one_sided)
        object.__setattr__(self, "ids", tuple(self.ids))

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

    def ids(self) -> list:
        return [_pair_id(((a, b), (c, d))) for a, b, c, d in self.quads.tolist()] + [
            _triple_id(t) for t in self.triples.tolist()
        ]


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
    return EstimateSequence(
        values, source.dependence_order, tuple(source.ids()), source.one_sided
    )


def column_means(seq: EstimateSequence) -> np.ndarray:
    """Per-column arithmetic means of the estimate matrix."""
    if seq.n_rows == 0:
        raise ValueError("cannot average an empty estimate sequence")
    return seq.values.mean(axis=0)


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
