"""Covariance construction, sampling, and the simulation setups."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    caterpillar,
    inner_node_tree,
    observed_chain,
    random_latent_tree,
    star_tree,
)
from treegof.model import (
    OneFactorParams,
    TreeModelParams,
    covariance_from_factor,
    covariance_from_tree,
    sample,
    setup_params,
)
from treegof.tree import enumerate_constraints


def random_tree_params(tree, rng, with_sds=False):
    corr = {}
    for e in tree.edges:
        rho = float(rng.uniform(0.3, 0.9))
        if rng.random() < 0.5:
            rho = -rho
        corr[e] = rho
    sds = None
    if with_sds:
        sds = {v: float(rng.uniform(0.5, 2.0)) for v in tree.observed}
    return TreeModelParams(tree, corr, sds)


def test_star_covariance_constant_correlation():
    t = star_tree(4)
    params = TreeModelParams(t, {e: 0.6 for e in t.edges})
    cov = covariance_from_tree(params)
    off = cov[~np.eye(4, dtype=bool)]
    np.testing.assert_allclose(off, 0.36)
    np.testing.assert_allclose(np.diag(cov), 1.0)


def test_chain_covariance_product_rule():
    t = observed_chain(3)
    params = TreeModelParams(t, {("1", "2"): 0.8, ("2", "3"): -0.5})
    cov = covariance_from_tree(params)
    assert cov[0, 2] == pytest.approx(-0.4)
    assert cov[0, 1] * cov[1, 2] - cov[1, 1] * cov[0, 2] == pytest.approx(0.0)


def test_tree_params_validation():
    t = observed_chain(3)
    with pytest.raises(ValueError, match="missing correlation"):
        TreeModelParams(t, {("1", "2"): 0.5})
    with pytest.raises(ValueError, match="not in"):
        TreeModelParams(t, {("1", "2"): 0.5, ("2", "3"): 1.0})
    with pytest.raises(ValueError, match="not in"):
        TreeModelParams(t, {("1", "2"): 0.5, ("2", "3"): 0.0})
    with pytest.raises(ValueError, match="must be > 0"):
        TreeModelParams(
            t,
            {("1", "2"): 0.5, ("2", "3"): 0.5},
            {"1": 1.0, "2": 0.0, "3": 1.0},
        )
    with pytest.raises(ValueError, match="not an edge"):
        TreeModelParams(t, {("1", "2"): 0.5, ("2", "3"): 0.5, ("1", "3"): 0.5})
    with pytest.raises(ValueError, match="both orientations"):
        TreeModelParams(t, {("1", "2"): 0.5, ("2", "3"): 0.5, ("2", "1"): 0.7})
    with pytest.raises(ValueError, match="unobserved node 'h'"):
        TreeModelParams(
            t,
            {("1", "2"): 0.5, ("2", "3"): 0.5},
            {"1": 1.0, "2": 1.0, "3": 1.0, "h": 4.0},
        )


def test_factor_covariance():
    params = OneFactorParams(np.zeros(4), np.array([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_allclose(
        covariance_from_factor(params), np.diag([1.0, 2.0, 3.0, 4.0])
    )


def test_setup1_covariance_entries():
    cov = covariance_from_factor(setup_params(1, 20, seed=0))
    assert cov.shape == (20, 20)
    np.testing.assert_allclose(np.diag(cov), 2.0)
    off = cov[~np.eye(20, dtype=bool)]
    np.testing.assert_allclose(off, 1.0)


def test_setup2_parameters():
    params = setup_params(2, 20, seed=7)
    assert params.beta[0] == 10.0
    assert params.beta[1] == 10.0
    np.testing.assert_allclose(params.noise_var, 1.0 / 3.0)
    assert np.all(np.abs(params.beta[2:]) < 5.0)
    again = setup_params(2, 20, seed=7)
    np.testing.assert_array_equal(params.beta, again.beta)
    other = setup_params(2, 20, seed=8)
    assert not np.array_equal(params.beta, other.beta)


def test_setup_params_rejects_small_m():
    with pytest.raises(ValueError, match="m >= 4"):
        setup_params(1, 3, seed=0)
    with pytest.raises(ValueError, match="unknown setup"):
        setup_params(3, 6, seed=0)


def test_factor_equals_star_reparameterization():
    rng = np.random.default_rng(21)
    for _ in range(10):
        m = int(rng.integers(4, 9))
        beta = rng.uniform(0.2, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
        noise = rng.uniform(0.1, 2.0, size=m)
        direct = covariance_from_factor(OneFactorParams(beta, noise))
        # the matching star: edge correlation beta / sd, leaf sd
        # sqrt(beta^2 + noise), unit-variance hub
        tree = star_tree(m)
        sd = np.sqrt(beta**2 + noise)
        star = TreeModelParams(
            tree,
            {("h", v): beta[i] / sd[i] for i, v in enumerate(tree.observed)},
            {v: sd[i] for i, v in enumerate(tree.observed)},
        )
        np.testing.assert_allclose(covariance_from_tree(star), direct, atol=1e-12)


def test_tree_covariances_satisfy_all_constraints():
    rng = np.random.default_rng(1312)
    corpus = [
        star_tree(4),
        star_tree(8),
        observed_chain(5),
        caterpillar(),
        inner_node_tree(),
    ]
    corpus += [random_latent_tree(rng, m_lo=4, m_hi=6) for _ in range(5)]
    for tree in corpus:
        sys = enumerate_constraints(tree)
        for _ in range(3):
            params = random_tree_params(tree, rng, with_sds=bool(rng.integers(2)))
            cov = covariance_from_tree(params)
            res = np.array(sys.equality_residuals(cov))
            assert np.max(np.abs(res)) <= 1e-10
            vals = np.array(sys.inequality_values(cov))
            assert np.max(vals) <= 1e-10


def test_sample_deterministic_and_shaped():
    cov = covariance_from_factor(setup_params(1, 5, seed=0))
    s1 = sample(cov, 100, seed=5)
    s2 = sample(cov, 100, seed=5)
    np.testing.assert_array_equal(s1.data, s2.data)
    assert s1.names == ("x1", "x2", "x3", "x4", "x5")
    assert s1.n == 100 and s1.m == 5

    s3 = sample(cov, 100, seed=6)
    assert not np.array_equal(s1.data, s3.data)

    empty = sample(cov, 0, seed=1)
    assert empty.data.shape == (0, 5)


def test_sample_matches_identity_covariance():
    n = 100_000
    bound = 4.0 / np.sqrt(n)
    for seed in (0, 1, 123):
        x = sample(np.eye(4), n, seed=seed).data
        s = x.T @ x / n
        assert np.max(np.abs(s - np.eye(4))) < bound


def test_sample_moment_accuracy_setup1():
    n = 10_000
    cov = covariance_from_factor(setup_params(1, 6, seed=0))
    bound = 5.0 * 2.0 * np.sqrt(np.log(6) / n)
    for seed in (0, 1, 2):
        x = sample(cov, n, seed=seed).data
        s = x.T @ x / n
        assert np.max(np.abs(s - cov)) < bound


def test_sample_rejects_bad_covariance():
    with pytest.raises(ValueError, match="positive definite"):
        sample(np.array([[1.0, 2.0], [2.0, 1.0]]), 10, seed=0)
    with pytest.raises(ValueError, match="near-singular"):
        sample(np.ones((3, 3)) + np.eye(3) * 1e-15, 10, seed=0)
    with pytest.raises(ValueError, match="symmetric"):
        sample(np.array([[1.0, 0.5], [0.2, 1.0]]), 10, seed=0)
