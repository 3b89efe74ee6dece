"""Path-length pseudo-metrics on latent trees and realizability checks.

A nonnegative edge weighting induces a pseudo-metric on the observed
nodes by summing weights along paths.  A given symmetric matrix is
realizable as such a metric on a fixed tree exactly when additivity
holds along every observed chain and the four-point sums behave
correctly on every quadruple; the checks below report violations of
these conditions and serve as an independent oracle for the covariance
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
    _classify,
    _norm_edge,
    _pairing_sums,
    _path_fold,
)

__all__ = [
    "Violation",
    "MetricReport",
    "induced_metric",
    "check_pseudo_metric",
    "check_three_point",
    "check_four_point",
    "is_t_induced",
    "enumerate_splits",
    "correlation_metric",
]

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
        Edge pair (either orientation) to weight >= 0.

    Returns
    -------
    ndarray
        m x m symmetric matrix with zero diagonal.
    """
    wmap = {}
    for (a, b), w in weights.items():
        if w < 0:
            raise ValueError(f"negative weight {w!r} on edge ({a!r}, {b!r})")
        wmap[_norm_edge(a, b)] = float(w)
    missing = [e for e in tree.edges if e not in wmap]
    if missing:
        raise ValueError(f"missing weight for edge {missing[0]!r}")
    return _path_fold(tree, wmap, operator.add, 0.0)


def _as_delta(delta, m: int) -> np.ndarray:
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (m, m):
        raise ValueError(f"matrix shape {delta.shape} does not match m={m}")
    return delta


def check_pseudo_metric(delta, tol: float = DEFAULT_TOL) -> list:
    """Violations of symmetry, zero diagonal, nonnegativity, finiteness,
    and the triangle inequality."""
    delta = np.asarray(delta, dtype=float)
    if delta.ndim != 2 or delta.shape[0] != delta.shape[1]:
        raise ValueError("pseudo-metric matrix must be square")
    m = delta.shape[0]
    out = []
    for i in range(m):
        if abs(delta[i, i]) > tol:
            out.append(Violation("diagonal", (i,), float(abs(delta[i, i]))))
    for i, j in itertools.combinations(range(m), 2):
        gap = abs(delta[i, j] - delta[j, i])
        if gap > tol or math.isnan(gap):
            out.append(Violation("symmetry", (i, j), float(gap)))
        if delta[i, j] < -tol:
            out.append(Violation("negative", (i, j), float(-delta[i, j])))
        if not np.isfinite(delta[i, j]):
            out.append(Violation("non-finite", (i, j), math.inf))
    for i, j in itertools.combinations(range(m), 2):
        for k in range(m):
            if k == i or k == j:
                continue
            slack = delta[i, j] - delta[i, k] - delta[k, j]
            if slack > tol:
                out.append(Violation("triangle", (i, k, j), float(slack)))
    return out


def _flagged(kinds, rows, residuals, tol) -> list:
    """Violations for the residuals above ``tol`` or NaN, row by row and
    within a row in ``kinds`` order."""
    i, j = np.nonzero((residuals > tol) | np.isnan(residuals))
    return [
        Violation(kinds[kind], tuple(row), value)
        for kind, row, value in zip(
            j.tolist(), rows[i].tolist(), residuals[i, j].tolist()
        )
    ]


def check_three_point(delta, tree: LatentTree, tol: float = DEFAULT_TOL) -> list:
    """Additivity violations along every observed chain of the tree.

    For each triple classified as a chain with middle q the residual is
    |delta_pq + delta_qr - delta_pr|.
    """
    delta = _as_delta(delta, tree.m)
    chains = _classify(tree)[0]
    a, mid, b = chains.T
    res = np.abs(delta[a, mid] + delta[mid, b] - delta[a, b])
    return _flagged(("three-point",), chains, res[:, None], tol)


def check_four_point(delta, tree: LatentTree, tol: float = DEFAULT_TOL) -> list:
    """Four-point violations over every quadruple of the tree.

    For each pairing {a,b} | {c,d} whose two paths share no edge, the sum
    delta_ab + delta_cd must not exceed the other two pairing sums, and
    those two must agree.  Degenerate quadruples have all three pairings
    edge-disjoint, split quadruples exactly one.
    """
    delta = _as_delta(delta, tree.m)
    _, _, quads, pairing = _classify(tree)
    # one row per edge-disjoint pairing, in quadruple then pairing order
    row, k = np.nonzero((pairing[:, None] < 0) | (pairing[:, None] == np.arange(3)))
    sums = _pairing_sums(delta, quads)[row]
    own = sums[np.arange(len(row)), k]
    others = np.array([[1, 2], [0, 2], [0, 1]])[k]
    first, second = np.take_along_axis(sums, others, axis=1).T
    lower = np.where(second < first, second, first)
    res = np.stack([np.abs(first - second), own - lower], axis=1)
    blocks = quads[row[:, None], _PAIRINGS[k]]
    return _flagged(("four-point-eq", "four-point-ineq"), blocks, res, tol)


def is_t_induced(delta, tree: LatentTree, tol: float = DEFAULT_TOL) -> MetricReport:
    """Full realizability check of a matrix as a path-length metric on
    the given tree.

    Pseudo-metric axiom failures are reported separately from the
    tree-specific chain and quadruple conditions; the matrix is induced
    only when every list is empty.
    """
    delta = _as_delta(delta, tree.m)
    metric = tuple(check_pseudo_metric(delta, tol))
    three = tuple(check_three_point(delta, tree, tol))
    four = tuple(check_four_point(delta, tree, tol))
    return MetricReport(
        is_induced=not (metric or three or four),
        is_pseudo_metric=not metric,
        metric_violations=metric,
        three_point_violations=three,
        four_point_violations=four,
    )


def enumerate_splits(tree: LatentTree) -> frozenset:
    """Observed-index bipartitions induced by deleting single edges.

    Each split is a pair of sorted index tuples, the block holding the
    smallest index first.  Distinct edges normally give distinct splits;
    duplicates are merged.
    """
    pos = {v: i for i, v in enumerate(tree.observed)}
    splits = set()
    for a, b in tree.edges:
        side = {a}
        stack = [a]
        while stack:
            v = stack.pop()
            for w in tree.neighbors(v):
                if {v, w} == {a, b}:
                    continue
                if w not in side:
                    side.add(w)
                    stack.append(w)
        block1 = tuple(sorted(pos[v] for v in side if v in pos))
        block2 = tuple(sorted(i for i in range(tree.m) if i not in set(block1)))
        if not block1 or not block2:
            continue
        if block1[0] > block2[0]:
            block1, block2 = block2, block1
        splits.add((block1, block2))
    return frozenset(splits)


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
