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
    TetradIndex,
    build_estimate_matrix,
    column_means,
    monomial_estimates,
    plugin_tetrads,
    tetrad_estimates,
    tetrad_value,
)
from .metric import (
    MetricReport,
    Violation,
    check_four_point,
    check_pseudo_metric,
    check_three_point,
    correlation_metric,
    enumerate_splits,
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
    star_equivalent,
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
    "TetradIndex",
    "TreeError",
    "TreeModelParams",
    "Violation",
    "batched_diag",
    "bootstrap_coordinates",
    "build_estimate_matrix",
    "check_four_point",
    "check_pseudo_metric",
    "check_three_point",
    "column_means",
    "correlation_metric",
    "covariance_from_factor",
    "covariance_from_tree",
    "enumerate_constraints",
    "enumerate_splits",
    "hotelling_statistic",
    "induced_metric",
    "is_t_induced",
    "load_tree",
    "monomial_estimates",
    "multiplier_draws",
    "parse_tree",
    "plugin_tetrads",
    "quantile_from_draws",
    "run_test",
    "sample",
    "setup_params",
    "star_equivalent",
    "tetrad_estimates",
    "tetrad_value",
    "test_statistic",
    "__version__",
]
