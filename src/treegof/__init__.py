"""Goodness-of-fit testing for Gaussian latent tree models.

Builds the polynomial constraint system of a latent tree, evaluates it on
covariance matrices, estimates the constraints from data with low-order
dependent averages, and calibrates a max-type test statistic with a batched
multiplier bootstrap.
"""

from __future__ import annotations

from .bootstrap import (
    BootstrapConfig,
    HotellingResult,
    TestResult,
    batched_diag,
    bootstrap_coordinates,
    hotelling_statistic,
    multiplier_draws,
    quantile_from_draws,
    run_test,
    test_statistic,
)
from .estimators import (
    EstimateSequence,
    build_estimate_matrix,
    plugin_tetrads,
)
from .metric import (
    MetricReport,
    Violation,
    correlation_metric,
    induced_metric,
    is_t_induced,
)
from .model import (
    OneFactorParams,
    SampleMatrix,
    TreeModelParams,
    covariance_from_factor,
    covariance_from_tree,
    sample,
    setup_params,
)
from .tree import (
    ConstraintSystem,
    LatentTree,
    TreeError,
    enumerate_constraints,
    load_tree,
    parse_tree,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapConfig",
    "ConstraintSystem",
    "EstimateSequence",
    "HotellingResult",
    "LatentTree",
    "MetricReport",
    "OneFactorParams",
    "SampleMatrix",
    "TestResult",
    "TreeError",
    "TreeModelParams",
    "Violation",
    "batched_diag",
    "bootstrap_coordinates",
    "build_estimate_matrix",
    "correlation_metric",
    "covariance_from_factor",
    "covariance_from_tree",
    "enumerate_constraints",
    "hotelling_statistic",
    "induced_metric",
    "is_t_induced",
    "load_tree",
    "multiplier_draws",
    "parse_tree",
    "plugin_tetrads",
    "quantile_from_draws",
    "run_test",
    "sample",
    "setup_params",
    "test_statistic",
    "__version__",
]
