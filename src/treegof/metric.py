"""Path-length pseudo-metrics on latent trees and realizability checks.

A nonnegative edge weighting induces a pseudo-metric on the observed
nodes by summing weights along paths.  A given symmetric matrix is
realizable as such a metric on a fixed tree exactly when additivity
holds along every observed chain and the four-point sums behave
correctly on every quadruple; ``is_t_induced`` reports violations of
these conditions and serves as an independent oracle for the covariance
constraint system via delta = -log |correlation|.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .tree import (
    _PAIRINGS,
    LatentTree,
    _classification_blocks,
    _edge_map,
    _pairing_sums,
    _path_fold,
)

__all__ = [
    "Violation",
    "MetricReport",
    "induced_metric",
    "is_t_induced",
    "correlation_metric",
]

# residuals above this are reported as violations
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class Violation:
    kind: str
    indices: tuple
    residual: float


@dataclass(frozen=True)
class MetricReport:
    """Outcome of a tree-realizability check on one matrix."""

    is_induced: bool
    is_pseudo_metric: bool
    metric_violations: tuple
    three_point_violations: tuple
    four_point_violations: tuple

    @property
    def all_violations(self) -> tuple:
        return (
            self.metric_violations
            + self.three_point_violations
            + self.four_point_violations
        )


def induced_metric(tree: LatentTree, weights) -> np.ndarray:
    """Pairwise observed path lengths under a nonnegative edge weighting.

    Parameters
    ----------
    weights : mapping
        Edge pair (either orientation, each edge once) to weight >= 0.

    Returns
    -------
    ndarray
        m x m symmetric matrix with zero diagonal.
    """
    wmap = _edge_map(tree, weights, "weight")
    for e, w in wmap.items():
        if w < 0:
            raise ValueError(f"negative weight {w!r} on edge {e!r}")
    return _path_fold(tree, wmap, operator.add, 0.0)


def _pseudo_metric_violations(delta: np.ndarray) -> tuple:
    """Violations of symmetry, zero diagonal, nonnegativity, finiteness,
    and the triangle inequality."""
    m = delta.shape[0]
    out = []
    for i in range(m):
        if abs(delta[i, i]) > DEFAULT_TOL:
            out.append(Violation("diagonal", (i,), float(abs(delta[i, i]))))
    for i, j in itertools.combinations(range(m), 2):
        gap = abs(delta[i, j] - delta[j, i])
        if gap > DEFAULT_TOL or math.isnan(gap):
            out.append(Violation("symmetry", (i, j), float(gap)))
        if delta[i, j] < -DEFAULT_TOL:
            out.append(Violation("negative", (i, j), float(-delta[i, j])))
        if not np.isfinite(delta[i, j]):
            out.append(Violation("non-finite", (i, j), math.inf))
    for i, j in itertools.combinations(range(m), 2):
        for k in range(m):
            if k == i or k == j:
                continue
            slack = delta[i, j] - delta[i, k] - delta[k, j]
            if slack > DEFAULT_TOL:
                out.append(Violation("triangle", (i, k, j), float(slack)))
    return tuple(out)


def _flagged(kinds, rows, residuals) -> tuple:
    """Violations for the residuals above ``DEFAULT_TOL`` or NaN, row by
    row and within a row in ``kinds`` order."""
    i, j = np.nonzero((residuals > DEFAULT_TOL) | np.isnan(residuals))
    return tuple(
        Violation(kinds[kind], tuple(row), value)
        for kind, row, value in zip(
            j.tolist(), rows[i].tolist(), residuals[i, j].tolist()
        )
    )


def is_t_induced(delta, tree: LatentTree) -> MetricReport:
    """Full realizability check of a matrix as a path-length metric on
    the given tree.

    Pseudo-metric axiom failures are reported separately from the
    tree-specific chain and quadruple conditions; the matrix is induced
    only when every list is empty.

    Three-point: for each triple classified as a chain with middle q the
    residual is |delta_pq + delta_qr - delta_pr|.  Four-point: for each
    pairing {a,b} | {c,d} whose two paths share no edge, the sum
    delta_ab + delta_cd must not exceed the other two pairing sums, and
    those two must agree.  Degenerate quadruples have all three pairings
    edge-disjoint, split quadruples exactly one.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (tree.m, tree.m):
        raise ValueError(f"matrix shape {delta.shape} does not match m={tree.m}")
    metric = _pseudo_metric_violations(delta)
    three, four = (), ()
    # block by block, in chain and in quadruple order
    for chains, _, quads, pairing in _classification_blocks(tree):
        a, mid, b = chains.T
        res = np.abs(delta[a, mid] + delta[mid, b] - delta[a, b])
        three += _flagged(("three-point",), chains, res[:, None])

        # one row per edge-disjoint pairing, in quadruple then pairing order
        row, k = np.nonzero((pairing[:, None] < 0) | (pairing[:, None] == np.arange(3)))
        sums = _pairing_sums(delta, quads)[row]
        own = sums[np.arange(len(row)), k]
        others = np.array([[1, 2], [0, 2], [0, 1]])[k]
        first, second = np.take_along_axis(sums, others, axis=1).T
        lower = np.where(second < first, second, first)
        res = np.stack([np.abs(first - second), own - lower], axis=1)
        blocks = quads[row[:, None], _PAIRINGS[k]]
        four += _flagged(("four-point-eq", "four-point-ineq"), blocks, res)

    return MetricReport(
        is_induced=not (metric or three or four),
        is_pseudo_metric=not metric,
        metric_violations=metric,
        three_point_violations=three,
        four_point_violations=four,
    )


def correlation_metric(cov) -> np.ndarray:
    """Map a covariance matrix to delta = -log |correlation|.

    Zero correlations map to +inf; the realizability checks then flag
    them as non-finite.  Requires a strictly positive diagonal.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance matrix must be square")
    d = np.diag(cov)
    if np.any(d <= 0):
        raise ValueError("covariance diagonal must be strictly positive")
    scale = np.sqrt(d)
    corr = cov / np.outer(scale, scale)
    with np.errstate(divide="ignore"):
        delta = -np.log(np.abs(corr))
    np.fill_diagonal(delta, 0.0)
    return delta
