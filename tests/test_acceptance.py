"""Acceptance gate: one test per shipping criterion.

Each test pins its tolerance and its wall-clock budget.  The suite
covers constraint counting, the algebraic oracle pair, estimator
unbiasedness, bootstrap normalization, empirical size at desk scale,
behaviour near singular parameters, the quadratic-form comparison, and
byte-level determinism of the command-line outputs.  A larger size
study, an m=50 peak-memory check of ``test`` and two m=80 ones of the
constraint enumeration run only when TREEGOF_SLOW=1 is set.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

import treegof
from conftest import random_latent_tree, star_tree
from treegof.bootstrap import (
    bootstrap_coordinates,
    hotelling_statistic,
    multiplier_draws,
    quantile_from_draws,
)
from treegof.bootstrap import test_statistic as sup_statistic
from treegof.cli import main
from treegof.estimators import build_estimate_matrix
from treegof.metric import correlation_metric, is_t_induced
from treegof.model import (
    TreeModelParams,
    covariance_from_factor,
    covariance_from_tree,
    sample,
    setup_params,
)
from treegof.tree import enumerate_constraints


def _star_file(tmp_path, m):
    lines = [f"EDGE h x{i}" for i in range(1, m + 1)]
    lines += [f"OBS x{i}" for i in range(1, m + 1)]
    path = tmp_path / f"star{m}.tree"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _tetrad_row_count(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return sum(1 for row in rows[1:] if row[1] == "tetrad")


def _empirical_sizes(setup, m, n, reps, entropy, alphas, num_multipliers=1000):
    """Size of the bootstrap test at each level, over fresh null data.

    Per replication the data stream and the test stream come from
    disjoint spawn keys of the master entropy, mirroring the simulate
    command.
    """
    system = enumerate_constraints(star_tree(m))
    params = setup_params(setup, m, SeedSequence(entropy=entropy, spawn_key=(0, 2)))
    cov = covariance_from_factor(params)
    rejects = np.zeros((len(alphas), reps))
    for rep in range(reps):
        x = sample(cov, n, SeedSequence(entropy=entropy, spawn_key=(rep, 0))).data
        mult_ss, _ = SeedSequence(entropy=entropy, spawn_key=(rep, 1)).spawn(2)
        seq = build_estimate_matrix(x, system)
        stat = sup_statistic(seq, 3)
        draws = multiplier_draws(seq, 3, num_multipliers, mult_ss)
        for i, alpha in enumerate(alphas):
            rejects[i, rep] = stat > quantile_from_draws(draws, alpha)
    return rejects.mean(axis=1)


def test_a1_star_constraint_counts(tmp_path, capsys):
    started = time.perf_counter()
    out8 = tmp_path / "c8.csv"
    out20 = tmp_path / "c20.csv"
    assert main(["enumerate", "--tree", str(_star_file(tmp_path, 8)),
                 "--out", str(out8)]) == 0
    assert main(["enumerate", "--tree", str(_star_file(tmp_path, 20)),
                 "--out", str(out20)]) == 0
    capsys.readouterr()
    assert _tetrad_row_count(out8) == 140
    assert _tetrad_row_count(out20) == 9690
    assert time.perf_counter() - started < 1.0


def test_a2_oracle_equivalence():
    started = time.perf_counter()
    # on-model: every enumerated constraint holds to near machine precision
    rng = default_rng(7)
    worst = 0.0
    for _ in range(50):
        tree = random_latent_tree(rng, m_lo=3, m_hi=6)
        system = enumerate_constraints(tree)
        for _ in range(20):
            corr = {
                e: rng.uniform(0.3, 0.9) * (1.0 if rng.random() < 0.5 else -1.0)
                for e in tree.edges
            }
            sds = {v: rng.uniform(0.5, 2.0) for v in tree.observed}
            cov = covariance_from_tree(TreeModelParams(tree, corr, sds))
            if system.n_equality_terms:
                worst = max(worst, float(np.max(np.abs(system.equality_residuals(cov)))))
            values = np.asarray(system.inequality_values(cov))
            if values.size:
                worst = max(worst, float(np.max(values)))
    assert worst <= 1e-10

    # off-model: dense random covariances violate, and the tree-metric
    # oracle on -log|correlation| confirms each violation independently.
    # m >= 4 guarantees equality constraints exist (an m=3 star imposes
    # only inequalities, which a random matrix can satisfy by luck).
    rng = default_rng(42)
    confirmed = 0
    for _ in range(50):
        tree = random_latent_tree(rng, m_lo=4, m_hi=6)
        a = rng.normal(size=(tree.m, tree.m))
        s = a @ a.T + 0.1 * np.eye(tree.m)
        assert not np.any(s == 0.0)
        system = enumerate_constraints(tree)
        violated = float(np.max(np.abs(system.equality_residuals(s)))) > 1e-6
        values = np.asarray(system.inequality_values(s))
        if values.size:
            violated = violated or float(np.max(values)) > 1e-6
        if violated and not is_t_induced(correlation_metric(s), tree).is_induced:
            confirmed += 1
    assert confirmed >= 48  # 95% of 50
    assert time.perf_counter() - started < 60.0


def test_a3_estimator_unbiasedness():
    started = time.perf_counter()
    system = enumerate_constraints(star_tree(6))
    cov = covariance_from_factor(setup_params(1, 6, seed=0))
    triples = system.sign_triples()
    monomial_targets = np.array(
        [cov[p, q] * cov[p, r] * cov[q, r] for (p, q, r) in triples]
    )
    reps = 2000
    means = None
    for rep in range(reps):
        x = sample(cov, 50, SeedSequence(entropy=55, spawn_key=(rep,))).data
        seq = build_estimate_matrix(x, system, mode="all", center=False)
        if means is None:
            means = np.zeros((reps, seq.n_columns))
            one_sided = seq.one_sided
        means[rep] = seq.values.mean(axis=0)
    grand = means.mean(axis=0)
    stderr = means.std(axis=0, ddof=1) / np.sqrt(reps)
    targets = np.zeros(grand.size)
    targets[one_sided] = -monomial_targets  # the columns carry negated products
    z = (grand - targets) / stderr
    assert float(np.max(np.abs(z[~one_sided]))) <= 4.0
    assert float(np.max(np.abs(z[one_sided]))) <= 4.0
    assert time.perf_counter() - started < 120.0


def test_a4_bootstrap_conditional_normalization():
    started = time.perf_counter()
    system = enumerate_constraints(star_tree(6))
    cov = covariance_from_factor(setup_params(1, 6, seed=0))
    data = sample(cov, 250, seed=0)
    seq = build_estimate_matrix(data, system)
    num_draws = 10_000
    coords = bootstrap_coordinates(seq, 3, num_draws, 2024)
    variances = coords.var(axis=0)
    band = 5.0 / np.sqrt(num_draws)
    assert float(variances.min()) >= 1.0 - band
    assert float(variances.max()) <= 1.0 + band
    assert time.perf_counter() - started < 60.0


def test_a5_size_calibration_desk_scale():
    started = time.perf_counter()
    sizes = _empirical_sizes(1, 10, 250, 300, entropy=1001, alphas=(0.05, 0.10))
    assert 0.0 <= sizes[0] <= 0.08
    assert 0.0 <= sizes[1] <= 0.13
    assert time.perf_counter() - started < 1800.0


@pytest.mark.skipif(
    not os.environ.get("TREEGOF_SLOW"),
    reason="large size study; set TREEGOF_SLOW=1 to run",
)
def test_a5_size_calibration_m20():
    sizes = _empirical_sizes(1, 20, 250, 500, entropy=1003, alphas=(0.05, 0.10))
    assert 0.0 <= sizes[0] <= 0.08
    assert 0.0 <= sizes[1] <= 0.13


@pytest.mark.skipif(
    not os.environ.get("TREEGOF_SLOW"),
    reason="large memory study; set TREEGOF_SLOW=1 to run",
)
def test_m50_star_peak_rss_below_200mb(tmp_path, capsys):
    # k = 460,600 columns over 166 batches: the omega x k batch-sum store
    # alone would take 612 MB, and one column group's sums take 8 MB
    data = tmp_path / "data.csv"
    assert main(["generate", "--setup", "1", "--m", "50", "--n", "500",
                 "--seed", "0", "--out", str(data)]) == 0
    capsys.readouterr()
    child = (
        "import resource, sys\n"
        "from treegof.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    src = os.path.dirname(os.path.dirname(treegof.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", child, "test", "--tree", str(_star_file(tmp_path, 50)),
         "--data", str(data), "--seed", "0"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        check=True,
    )
    assert json.loads(proc.stdout)["k_effective"] == 460_600
    peak_mb = int(proc.stderr.split()[-1]) / 1024
    assert peak_mb < 200.0, f"peak RSS {peak_mb:.0f} MB"


@pytest.mark.skipif(
    not os.environ.get("TREEGOF_SLOW"),
    reason="large memory study; set TREEGOF_SLOW=1 to run",
)
def test_star80_enumeration_peak_rss_below_150mb():
    # 3,491,800 terms in a child that only enumerates, 115 MB with an
    # int64 index and 31 MB with the int16 one.  Classifying every
    # quadruple at once and sorting them in one pass peaked at 661 MB;
    # one first variable at a time, joining every block's terms at the
    # end, near 250 MB; writing the equality terms in place and holding
    # only the inequality terms near 75 MB
    child = (
        "import resource\n"
        "from treegof.tree import LatentTree, enumerate_constraints\n"
        "leaves = [f'x{i}' for i in range(1, 81)]\n"
        "system = enumerate_constraints(LatentTree([('h', v) for v in leaves], leaves))\n"
        "print(len(system.kinds), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = os.path.dirname(os.path.dirname(treegof.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), check=True,
    )
    terms, peak_kb = map(int, proc.stdout.split())
    assert terms == 3_491_800
    assert peak_kb / 1024 < 150.0, f"peak RSS {peak_kb / 1024:.0f} MB"


def test_a6_size_near_singular_parameters():
    started = time.perf_counter()
    sizes = _empirical_sizes(2, 10, 500, 300, entropy=1002, alphas=(0.05,))
    assert sizes[0] <= 0.10
    assert time.perf_counter() - started < 1800.0


def test_a7_quadratic_form_mean_matches_rank():
    started = time.perf_counter()
    system = enumerate_constraints(star_tree(5))
    cov = covariance_from_factor(setup_params(1, 5, seed=0))
    stats = []
    ranks = set()
    for rep in range(500):
        data = sample(cov, 1000, SeedSequence(entropy=77, spawn_key=(rep,)))
        result = hotelling_statistic(data, system)
        stats.append(result.statistic)
        ranks.add(result.rank)
    assert ranks == {5}
    mean = float(np.mean(stats))
    assert abs(mean / 5.0 - 1.0) <= 0.15
    assert time.perf_counter() - started < 600.0


def test_a8_command_outputs_are_byte_identical(tmp_path, capsys):
    runs = {
        "enumerate": ["enumerate", "--tree", str(_star_file(tmp_path, 6))],
        "generate": ["generate", "--setup", "2", "--m", "5", "--n", "40",
                     "--seed", "3"],
        "simulate": ["simulate", "--setup", "1", "--m", "4", "--n", "60",
                     "--reps", "4", "--multipliers", "200", "--seed", "9",
                     "--alpha-grid", "0.05,0.1"],
    }
    for name, args in runs.items():
        first = tmp_path / f"{name}_1.csv"
        second = tmp_path / f"{name}_2.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name
    capsys.readouterr()
    assert (tmp_path / "simulate_1.svg").read_bytes() == (
        tmp_path / "simulate_2.svg"
    ).read_bytes()
