"""Gaussian parameterizations of latent trees and data generation.

Covariances come from the path-product rule: the correlation of two
observed variables is the product of edge correlations along the path
between them, scaled by per-node standard deviations.  One-factor
models (a loading vector plus independent noise) are the special case
of a star tree and drive the simulation setups used in the size
experiments.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tree import LatentTree, _edge_map, _path_fold

__all__ = [
    "TreeModelParams",
    "OneFactorParams",
    "SampleMatrix",
    "covariance_from_tree",
    "covariance_from_factor",
    "sample",
    "setup_params",
]

# relative eigenvalue floor below which a covariance is refused rather
# than silently regularized
NEAR_SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class TreeModelParams:
    """Edge correlations and observed-node scales for one latent tree.

    Latent nodes are standardized to unit variance; only the observed
    standard deviations enter the covariance.  Every edge correlation
    must lie in (-1, 1) and be nonzero so the covariance has no zero
    entries.
    """

    tree: LatentTree
    edge_corr: dict
    node_sd: Optional[dict] = None

    def __post_init__(self):
        corr = _edge_map(self.tree, self.edge_corr, "correlation")
        for e, rho in corr.items():
            if not 0.0 < abs(rho) < 1.0:
                raise ValueError(
                    f"edge correlation {rho!r} on {e!r} not in (-1,1) minus zero"
                )
        object.__setattr__(self, "edge_corr", corr)
        if self.node_sd is not None:
            sds = {v: float(s) for v, s in self.node_sd.items()}
            for v in sds:
                if v not in self.tree.observed:
                    raise ValueError(f"standard deviation for unobserved node {v!r}")
            for v in self.tree.observed:
                if v not in sds:
                    raise ValueError(f"missing standard deviation for node {v!r}")
                if sds[v] <= 0:
                    raise ValueError(f"standard deviation for {v!r} must be > 0")
            object.__setattr__(self, "node_sd", sds)


@dataclass(frozen=True)
class OneFactorParams:
    """Single latent factor with loadings ``beta`` and independent noise;
    generation is mean-zero."""

    beta: np.ndarray
    noise_var: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        noise = np.asarray(self.noise_var, dtype=float)
        if beta.ndim != 1 or noise.shape != beta.shape:
            raise ValueError("beta and noise_var must be equal-length vectors")
        if np.any(noise <= 0):
            raise ValueError("noise variances must be strictly positive")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "noise_var", noise)

    @property
    def m(self) -> int:
        return self.beta.shape[0]


@dataclass(frozen=True)
class SampleMatrix:
    """An n x m data matrix with column names."""

    data: np.ndarray
    names: tuple

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ValueError("data must be two-dimensional")
        if data.shape[1] != len(self.names):
            raise ValueError("column count does not match names")
        if not np.all(np.isfinite(data)):
            raise ValueError("data contains non-finite entries")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1]


def covariance_from_tree(params: TreeModelParams) -> np.ndarray:
    """Observed covariance of a tree parameterization.

    Off-diagonal entries are the products of edge correlations along the
    connecting path times both node scales; diagonal entries are the
    squared scales.
    """
    tree = params.tree
    m = tree.m
    sds = (
        np.ones(m)
        if params.node_sd is None
        else np.array([params.node_sd[v] for v in tree.observed])
    )
    return np.outer(sds, sds) * _path_fold(tree, params.edge_corr, operator.mul, 1.0)


def covariance_from_factor(params: OneFactorParams) -> np.ndarray:
    """Covariance of a one-factor model: outer product of the loadings
    plus diagonal noise."""
    return np.outer(params.beta, params.beta) + np.diag(params.noise_var)


def _validate_covariance(cov: np.ndarray) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance matrix must be square")
    if not np.allclose(cov, cov.T, atol=1e-12, rtol=0.0):
        raise ValueError("covariance matrix must be symmetric")
    eigs = np.linalg.eigvalsh(cov)
    if eigs[0] <= 0:
        raise ValueError(f"covariance not positive definite (min eig {eigs[0]:.3e})")
    if eigs[0] < NEAR_SINGULAR_RTOL * eigs[-1]:
        raise ValueError(
            "covariance is near-singular "
            f"(min/max eigenvalue ratio {eigs[0] / eigs[-1]:.3e}); refusing to sample"
        )
    return cov


def _cholesky(cov) -> np.ndarray:
    """Lower Cholesky factor of ``cov``, after ``_validate_covariance``."""
    return np.linalg.cholesky(_validate_covariance(cov))


def _draw(chol: np.ndarray, n: int, seed) -> np.ndarray:
    """n mean-zero Gaussian rows with covariance ``chol @ chol.T``: the
    Cholesky factor applied to ``numpy.random.default_rng(seed)``'s
    standard normals.  ``sample`` and every ``simulate`` replication
    draw through this one function, so their rows are bit-identical for
    one seed."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    z = np.random.default_rng(seed).standard_normal((n, chol.shape[0]))
    return z @ chol.T


def sample(cov, n: int, seed, names=None) -> SampleMatrix:
    """Draw n mean-zero Gaussian rows with the given covariance.

    The generator is ``numpy.random.default_rng(seed)`` and rows are the
    Cholesky factor applied to standard normals, so identical seeds give
    bit-identical output.  ``seed`` may be anything ``default_rng``
    accepts, including a SeedSequence.

    Raises
    ------
    ValueError
        For non-positive-definite or near-singular covariance.
    """
    chol = _cholesky(cov)
    data = _draw(chol, n, seed)
    m = chol.shape[0]
    if names is None:
        names = tuple(f"x{i}" for i in range(1, m + 1))
    if len(names) != m:
        raise ValueError("names length does not match covariance size")
    return SampleMatrix(data, tuple(names))


def setup_params(setup: int, m: int, seed) -> OneFactorParams:
    """One-factor parameters for the two simulation setups.

    Setup 1: unit loadings, unit noise.  Setup 2: the first two loadings
    are 10, the rest are drawn i.i.d. mean-zero normal with variance 0.2
    (that is, standard deviation sqrt(0.2)) from ``seed``, and all noise
    variances are 1/3.
    """
    if m < 4:
        raise ValueError("simulation setups need m >= 4")
    if setup == 1:
        return OneFactorParams(np.ones(m), np.ones(m))
    if setup == 2:
        rng = np.random.default_rng(seed)
        beta = np.empty(m)
        beta[:2] = 10.0
        beta[2:] = rng.normal(0.0, math.sqrt(0.2), size=m - 2)
        return OneFactorParams(beta, np.full(m, 1.0 / 3.0))
    raise ValueError(f"unknown setup {setup!r}, expected 1 or 2")
