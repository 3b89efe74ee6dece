"""End-to-end tests of the command-line interface.

Commands run in-process through ``main(argv)``; a few tests go through a
real subprocess to cover the module entry point.  File outputs land in
pytest temp dirs and determinism is checked byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mixed_tree, random_latent_tree, reference_listing
import treegof
import treegof.cli as climod
import treegof.model
import treegof.tree
from treegof.bootstrap import (
    BootstrapConfig,
    Scratch,
    quantile_from_draws,
    run_test,
    statistic_and_draws,
)
from treegof.cli import _parse_alpha_grid, main
from treegof.metric import induced_metric
from treegof.model import covariance_from_factor, sample, setup_params
from treegof.tree import LatentTree, enumerate_constraints, load_tree


def star_file(tmp_path, m, name="star.tree"):
    lines = [f"EDGE h x{i}" for i in range(1, m + 1)]
    lines += [f"OBS x{i}" for i in range(1, m + 1)]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def chain_file(tmp_path):
    path = tmp_path / "chain.tree"
    path.write_text("EDGE a b\nEDGE b c\nOBS a\nOBS b\nOBS c\n", encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def write_data_csv(path, names, values):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for row in values:
            writer.writerow([format(v, ".17g") for v in row])


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_star4(tmp_path, capsys):
    tree = star_file(tmp_path, 4)
    out = tmp_path / "constraints.csv"
    assert main(["enumerate", "--tree", str(tree), "--out", str(out)]) == 0
    capsys.readouterr()
    header, rows = read_csv(out)
    assert header == ["constraint_id", "kind", "indices", "polynomial"]
    kinds = [r[1] for r in rows]
    assert kinds.count("tetrad") == 2
    assert len(rows) == 18
    assert rows[0] == ["c001", "tetrad", "x1 x2 x3 x4", "s14*s23 - s13*s24"]
    assert rows[1][3] == "s12*s34 - s13*s24"


def test_enumerate_chain_to_stdout(tmp_path, capsys):
    tree = chain_file(tmp_path)
    assert main(["enumerate", "--tree", str(tree)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in rows] == ["chain", "sign"]
    assert rows[0][3] == "s12*s23 - s22*s13"


def test_enumerate_malformed_tree(tmp_path, capsys):
    bad = tmp_path / "bad.tree"
    bad.write_text("EDGE a b\nEDGE a\nOBS a\n", encoding="utf-8")
    assert main(["enumerate", "--tree", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_enumerate_counts_star8(tmp_path, capsys):
    tree = star_file(tmp_path, 8)
    out = tmp_path / "c8.csv"
    assert main(["enumerate", "--tree", str(tree), "--out", str(out)]) == 0
    capsys.readouterr()
    _, rows = read_csv(out)
    assert sum(1 for r in rows if r[1] == "tetrad") == 140


def _reference_enumerate(tree):
    """The enumerate CSV as csv.writer writes the per-row listing."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("constraint_id", "kind", "indices", "polynomial"))
    rows = reference_listing(enumerate_constraints(tree))
    for i, (kind, variables, poly) in enumerate(rows, start=1):
        names = " ".join(tree.observed[v] for v in variables)
        writer.writerow((f"c{i:03d}", kind, names, poly))
    return buf.getvalue()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 7),
    st.lists(
        st.text(alphabet='x,"é\x00', min_size=1, max_size=3),
        min_size=12, max_size=12, unique=True,
    ),
)
def test_enumerate_matches_csv_writer_listing(tmp_path_factory, seed, block, ids):
    # ids with commas, quotes, non-ASCII letters and trailing NULs, over
    # blocks of a few rows
    tree = random_latent_tree(np.random.default_rng(seed), m_lo=3, m_hi=9, n_hi=12)
    rename = dict(zip(tree.observed, ids))
    tree = LatentTree(
        [(rename.get(a, a), rename.get(b, b)) for a, b in tree.edges],
        [rename[v] for v in tree.observed],
    )
    path = tmp_path_factory.mktemp("enum") / "odd.tree"
    path.write_text(
        "".join(f"EDGE {a} {b}\n" for a, b in tree.edges)
        + "".join(f"OBS {v}\n" for v in tree.observed),
        encoding="utf-8",
    )
    out = path.with_suffix(".csv")
    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
        mp.setattr(treegof.tree, "_ROW_BLOCK", block)
        assert main(["enumerate", "--tree", str(path), "--out", str(out)]) == 0
        assert main(["enumerate", "--tree", str(path)]) == 0
    expected = _reference_enumerate(tree)
    assert out.read_bytes() == expected.encode("utf-8")
    assert stdout.getvalue() == expected


def test_enumerate_peaks_below_5mib(tmp_path):
    # the 34-variable mixed tree: 114,296 terms, 1.0 MiB of kinds and
    # int16 index.  Joining every block's terms at the end and formatting
    # 4,096 rows at a time peaked at 8.5 MiB
    tree = mixed_tree(7, 4)
    path = tmp_path / "mixed.tree"
    path.write_text(
        "".join(f"EDGE {a} {b}\n" for a, b in tree.edges)
        + "".join(f"OBS {v}\n" for v in tree.observed),
        encoding="utf-8",
    )
    tracemalloc.start()
    try:
        assert main(["enumerate", "--tree", str(path), "--out", str(tmp_path / "c.csv")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def test_enumerate_quiet_on_closed_pipe(tmp_path):
    tree = star_file(tmp_path, 20)
    src = os.path.dirname(os.path.dirname(treegof.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "treegof.cli", "enumerate", "--tree", str(tree)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.readline() == b"constraint_id,kind,indices,polynomial\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_enumerate_into_a_closed_pipe_returns_1_in_process(tmp_path, capsys):
    # the branch of the subprocess test above, in this process: stdout's
    # descriptor is pointed at devnull, so closing stdout, which flushes
    # what is still buffered, does not fail again
    tree = star_file(tmp_path, 30)
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as stdout, pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdout", stdout)
        assert main(["enumerate", "--tree", str(tree)]) == 1
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    assert capsys.readouterr() == ("", "")


# ---------------------------------------------------------------------------
# generate


def test_generate_setup_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["generate", "--setup", "1", "--m", "5", "--n", "40", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_csv(out1)
    assert header == ["x1", "x2", "x3", "x4", "x5"]
    assert len(rows) == 40
    values = np.array([[float(v) for v in row] for row in rows])
    assert np.isfinite(values).all()


def test_generate_different_seeds_differ(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["generate", "--setup", "2", "--m", "4", "--n", "10"]
    assert main(base + ["--seed", "1", "--out", str(out1)]) == 0
    assert main(base + ["--seed", "2", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() != out2.read_bytes()


def test_generate_from_tree_params(tmp_path, capsys):
    tree = chain_file(tmp_path)
    params = tmp_path / "params.txt"
    params.write_text(
        "# chain parameters\n"
        "CORR a b 0.8\nCORR b c 0.5\nSD a 2.0\nSD b 1.0\nSD c 1.5\n",
        encoding="utf-8",
    )
    out = tmp_path / "data.csv"
    assert main([
        "generate", "--tree", str(tree), "--params", str(params),
        "--n", "100000", "--seed", "4", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    header, rows = read_csv(out)
    assert header == ["a", "b", "c"]
    values = np.array([[float(v) for v in row] for row in rows])
    cov = values.T @ values / len(values)
    # population values: cov(a,b) = 2*1*0.8, cov(a,c) = 2*1.5*0.4
    assert cov[0, 1] == pytest.approx(1.6, abs=0.05)
    assert cov[0, 2] == pytest.approx(1.2, abs=0.05)


def test_generate_from_tree_ignores_hash_seed(tmp_path):
    # path products over a frozenset of edges used to follow string hash
    # order, so the bytes changed with PYTHONHASHSEED
    tree = tmp_path / "spine.tree"
    spine = [f"v{i}" for i in range(1, 9)]
    edges = [f"EDGE {a} {b}" for a, b in zip(spine, spine[1:])]
    edges += [f"EDGE {v} l{v}" for v in spine[1:-1]]
    observed = spine + [f"l{v}" for v in spine[1:-1]]
    tree.write_text("\n".join(edges + [f"OBS {v}" for v in observed]) + "\n")
    corr = np.linspace(0.71, 0.97, len(edges)).tolist()
    params = tmp_path / "params.txt"
    params.write_text("".join(
        f"CORR {line.split()[1]} {line.split()[2]} {rho!r}\n"
        for line, rho in zip(edges, corr)
    ))
    src = os.path.dirname(os.path.dirname(treegof.__file__))
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "treegof.cli", "generate", "--tree", str(tree),
             "--params", str(params), "--n", "20", "--seed", "5"],
            capture_output=True, env=env, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_generate_params_missing_edge(tmp_path, capsys):
    tree = chain_file(tmp_path)
    params = tmp_path / "params.txt"
    params.write_text("CORR a b 0.8\n", encoding="utf-8")
    rc = main([
        "generate", "--tree", str(tree), "--params", str(params),
        "--n", "5", "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 1
    assert "missing correlation" in capsys.readouterr().err


def test_generate_params_bad_line(tmp_path, capsys):
    tree = chain_file(tmp_path)
    params = tmp_path / "params.txt"
    params.write_text("CORR a b 0.8\nWEIGHT a 1\n", encoding="utf-8")
    rc = main([
        "generate", "--tree", str(tree), "--params", str(params),
        "--n", "5", "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


STAR3_CORR = "CORR h x1 0.5\nCORR h x2 0.6\nCORR h x3 0.7\n"
STAR3_SD = "SD x1 1\nSD x2 1\nSD x3 1\n"


@pytest.mark.parametrize(
    "text,message",
    [
        # a pair that is not an edge of the star
        (STAR3_CORR + "CORR x1 x2 0.9\n", "('x1', 'x2') is not an edge of the tree"),
        # the same edge twice, the second time reversed
        ("CORR h x1 0.5\nCORR x1 h 0.7\nCORR h x2 0.6\nCORR h x3 0.7\n",
         "line 2: duplicate CORR edge 'x1' 'h'"),
        (STAR3_CORR + "SD x1 1\nSD x1 2\n", "line 5: duplicate SD node 'x1'"),
        # a node the tree does not observe
        (STAR3_CORR + STAR3_SD + "SD zz 4\n", "standard deviation for unobserved node 'zz'"),
    ],
)
def test_generate_params_refuses_bad_entries(tmp_path, capsys, text, message):
    tree = star_file(tmp_path, 3)
    params = tmp_path / "params.txt"
    params.write_text(text, encoding="utf-8")
    out = tmp_path / "x.csv"
    rc = main([
        "generate", "--tree", str(tree), "--params", str(params),
        "--n", "5", "--out", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err
    if "line" in message:
        assert err.startswith(f"error: {params} line ")
    assert not out.exists()


def test_generate_needs_exactly_one_source(tmp_path, capsys):
    # argparse refuses neither flag and both flags, naming both
    for source in ([], ["--setup", "1", "--m", "4", "--tree", "t.tree"]):
        with pytest.raises(SystemExit) as info:
            main(["generate", "--n", "5", *source])
        assert info.value.code == 2, source
        last = capsys.readouterr().err.splitlines()[-1]
        assert "--setup" in last and "--tree" in last, last


@pytest.mark.parametrize(
    "source,pair",
    [
        (["--setup", "1"], "--setup and --m"),
        (["--setup", "1", "--m", "4", "--params", "missing.txt"], "--tree and --params"),
        (["--tree", "TREE", "--params", "PARAMS", "--m", "4"], "--setup and --m"),
        (["--tree", "TREE"], "--tree and --params"),
    ],
)
def test_generate_pairs_setup_with_m_and_tree_with_params(tmp_path, capsys, source, pair):
    # --m is read only with --setup and --params only with --tree, so
    # either one with the other source is refused, not ignored
    tree = star_file(tmp_path, 3)
    params = tmp_path / "params.txt"
    params.write_text(STAR3_CORR, encoding="utf-8")
    paths = {"TREE": str(tree), "PARAMS": str(params)}
    out = tmp_path / "x.csv"
    argv = ["generate", *(paths.get(a, a) for a in source), "--n", "5", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {pair} go together\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# test


def test_test_command_null_report(tmp_path, capsys):
    tree = star_file(tmp_path, 6)
    data = tmp_path / "data.csv"
    assert main([
        "generate", "--setup", "1", "--m", "6", "--n", "250",
        "--seed", "0", "--out", str(data),
    ]) == 0
    capsys.readouterr()
    out = tmp_path / "report.json"
    rc = main([
        "test", "--tree", str(tree), "--data", str(data),
        "--alpha", "0.1", "--seed", "0", "--out", str(out),
    ])
    printed = capsys.readouterr().out
    assert rc == 0
    # the report is the ``TestResult`` as it is, then the level and seed
    values = np.loadtxt(data, delimiter=",", skiprows=1)
    result = run_test(values, enumerate_constraints(load_tree(tree)),
                      BootstrapConfig(alpha=0.1, seed=0))
    expected = json.dumps({**asdict(result), "alpha": 0.1, "seed": 0}, indent=2) + "\n"
    assert printed == expected
    assert out.read_text(encoding="utf-8") == expected
    report = json.loads(printed)
    assert list(report) == [
        "statistic", "quantile", "p_value", "reject", "k_effective",
        "diag_floor_hits", "alpha", "seed",
    ]
    assert report["k_effective"] == 30
    assert report["reject"] is False
    assert 0.0 < report["p_value"] <= 1.0


def test_test_command_determinism(tmp_path, capsys):
    tree = star_file(tmp_path, 4)
    data = tmp_path / "data.csv"
    main(["generate", "--setup", "1", "--m", "4", "--n", "80",
          "--seed", "7", "--out", str(data)])
    capsys.readouterr()
    args = ["test", "--tree", str(tree), "--data", str(data), "--seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_test_command_reject_exit_code(tmp_path, capsys):
    # two independent factors: the cross-block tetrad is 16, far off null
    loadings = np.array([[2.0, 0.0], [2.0, 0.0], [0.0, 2.0], [0.0, 2.0]])
    cov = loadings @ loadings.T + np.eye(4)
    values = sample(cov, 1000, seed=5).data
    data = tmp_path / "alt.csv"
    write_data_csv(data, ["x1", "x2", "x3", "x4"], values)
    tree = star_file(tmp_path, 4)
    base = ["test", "--tree", str(tree), "--data", str(data), "--seed", "5"]
    assert main(base) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["reject"] is True
    assert main(base + ["--exit-on-reject"]) == 3
    capsys.readouterr()


def test_test_command_column_mismatch(tmp_path, capsys):
    tree = star_file(tmp_path, 5)
    data = tmp_path / "data.csv"
    main(["generate", "--setup", "1", "--m", "4", "--n", "30",
          "--seed", "0", "--out", str(data)])
    capsys.readouterr()
    rc = main(["test", "--tree", str(tree), "--data", str(data)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "4 columns" in err and "5 variables" in err


def test_test_command_reorders_named_columns(tmp_path, capsys):
    tree = star_file(tmp_path, 4)
    gen = tmp_path / "data.csv"
    main(["generate", "--setup", "1", "--m", "4", "--n", "120",
          "--seed", "2", "--out", str(gen)])
    capsys.readouterr()
    header, rows = read_csv(gen)
    values = np.array([[float(v) for v in row] for row in rows])
    shuffled = tmp_path / "shuffled.csv"
    order = [2, 0, 3, 1]
    write_data_csv(shuffled, [header[j] for j in order], values[:, order])
    args_a = ["test", "--tree", str(tree), "--data", str(gen), "--seed", "1"]
    args_b = ["test", "--tree", str(tree), "--data", str(shuffled), "--seed", "1"]
    assert main(args_a) == 0
    first = capsys.readouterr().out
    assert main(args_b) == 0
    second = capsys.readouterr().out
    assert json.loads(first) == json.loads(second)


def _swap_first_last(tmp_path, gen, name, prefix=""):
    header, rows = read_csv(gen)
    values = np.array([[float(v) for v in row] for row in rows])
    order = list(range(len(header)))
    order[0], order[-1] = order[-1], order[0]
    path = tmp_path / name
    write_data_csv(path, [header[j] for j in order], values[:, order])
    path.write_bytes(prefix.encode("utf-8") + path.read_bytes())
    return path


def test_test_command_byte_order_mark_keeps_names(tmp_path, capsys):
    # a BOM before the first name must not demote the header to
    # positional matching
    tree = star_file(tmp_path, 4)
    gen = tmp_path / "data.csv"
    main(["generate", "--setup", "1", "--m", "4", "--n", "200",
          "--seed", "4", "--out", str(gen)])
    capsys.readouterr()
    plain = _swap_first_last(tmp_path, gen, "plain.csv")
    bom = _swap_first_last(tmp_path, gen, "bom.csv", prefix="\ufeff")
    reports = []
    for path in (gen, plain, bom):
        assert main(["test", "--tree", str(tree), "--data", str(path)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2]


def test_test_command_header_naming_some_ids_must_name_all(tmp_path, capsys):
    tree = star_file(tmp_path, 3)
    data = tmp_path / "typo.csv"
    write_data_csv(data, ["x1", "x2", "xx3"], np.ones((10, 3)))
    assert main(["test", "--tree", str(tree), "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lacks x3" in err


def test_test_command_header_naming_no_ids_is_positional(tmp_path, capsys):
    tree = star_file(tmp_path, 3)
    values = sample(np.full((3, 3), 0.5) + 0.5 * np.eye(3), 150, seed=6).data
    named = tmp_path / "named.csv"
    write_data_csv(named, ["x1", "x2", "x3"], values)
    other = tmp_path / "other.csv"
    write_data_csv(other, ["a", "b", "c"], values)
    reports = []
    for path in (named, other):
        args = ["test", "--tree", str(tree), "--data", str(path), "--mode", "all"]
        assert main(args) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("center", [True, False], ids=["centred", "no-center"])
def test_test_command_holds_one_copy_of_the_data(tmp_path, capsys, monkeypatch, center):
    # a tall 6-leaf star in mode "all": 50 columns over omega = 39,999
    # batches, one column per fold chunk.  The parsed CSV is freed once
    # the estimate columns have their own copy, and that copy before the
    # draws, so the traced peak is the fold's: the store, one copy of the
    # data and one workspace per thread, plus 3 MiB (34.3 MiB when the
    # CSV and the copy were both held through the run)
    m, n = 6, 120_000
    tree = star_file(tmp_path, m)
    data = tmp_path / "data.csv"
    assert main([
        "generate", "--setup", "1", "--m", str(m), "--n", str(n),
        "--seed", "0", "--out", str(data),
    ]) == 0
    source = treegof.bootstrap.column_source(
        np.zeros((n, m)), enumerate_constraints(load_tree(tree)), "all"
    )
    (cols, *_) = treegof.bootstrap._column_slices(
        source.n_rows, slice(0, source.n_columns)
    )
    workspace = sum(np.prod(s) for s in source.workspace_shapes(cols.stop - cols.start))
    budget = 8 * ((source.n_rows // 3) * source.n_columns + n * m + 2 * workspace)
    budget += 3 * 2**20
    monkeypatch.setattr(treegof.bootstrap, "_usable_cores", lambda: 2)
    argv = ["test", "--tree", str(tree), "--data", str(data), "--mode", "all"]
    argv += [] if center else ["--no-center"]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["k_effective"] == 50
    assert peak < budget, f"traced peak {peak / 2**20:.2f} of {budget / 2**20:.2f} MiB"


@pytest.mark.parametrize("jobs", [1, 2])
def test_test_command_frees_each_data_copy_after_its_phase(
    tmp_path, capsys, monkeypatch, jobs
):
    # nine column groups of eight columns: the parsed CSV is dead before
    # the first fold, and the source's working copy lives through every
    # group's fold and is dead when the last group's draws start
    btmod = treegof.bootstrap
    tree = star_file(tmp_path, 7)
    data = tmp_path / "data.csv"
    assert main([
        "generate", "--setup", "1", "--m", "7", "--n", "150",
        "--seed", "0", "--out", str(data),
    ]) == 0
    refs = {}
    read, make_source = climod._read_matrix_csv, btmod.column_source
    fold, draws = btmod._fold, btmod._draws

    def reading(path):
        names, values = read(path)
        refs["csv"] = weakref.ref(values)
        return names, values

    def making(*args):
        source = make_source(*args)
        refs["copy"] = weakref.ref(source.x)
        return source

    alive = []

    def folding(*args):
        alive.append(("fold", refs["csv"]() is not None, refs["copy"]() is not None))
        return fold(*args)

    def drawing(*args, **kwargs):
        alive.append(("draws", refs["csv"]() is not None, refs["copy"]() is not None))
        return draws(*args, **kwargs)

    monkeypatch.setattr(climod, "_read_matrix_csv", reading)
    monkeypatch.setattr(btmod, "column_source", making)
    monkeypatch.setattr(btmod, "_fold", folding)
    monkeypatch.setattr(btmod, "_draws", drawing)
    monkeypatch.setattr(btmod, "_usable_cores", lambda: jobs)
    for name, value in {"_TILE_SIDE": 4, "_SUMS_BUDGET": 1, "_MIN_GROUP": 8}.items():
        monkeypatch.setattr(btmod, name, value)
    assert main(["test", "--tree", str(tree), "--data", str(data), "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["k_effective"] == 70
    # each group is folded and then drawn
    assert alive == [
        ("fold", False, True), ("draws", False, True)
    ] * 8 + [("fold", False, True), ("draws", False, False)]


# ---------------------------------------------------------------------------
# data CSV reader

# numbers both readers take, padded with whitespace as ``str.isspace``
# knows it (``float`` alone refuses the ASCII separators \x1c-\x1f)
_NUMBERS = st.builds(
    lambda pad, number, tail: pad + number + tail,
    st.sampled_from(["", "", " ", "\t", "\x1c", "\x1f", "\u00a0"]),
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.floats(-1e6, 1e6).map(lambda v: format(v, ".17g")),
        st.sampled_from(["nan", "-inf", "Infinity", "NaN", "1e-3", "+.5", "-0"]),
    ),
    st.sampled_from(["", "", " ", "\t", "\x1d", "\x1e"]),
)
# fields only the loop takes, or neither
_OTHERS = st.sampled_from(["1_0", '"2.5"', '"3,5"', "#4", "", " ", "abc", "0x10"])
_EXTRA_LINES = st.sampled_from(["", " ", "\t", "# comment", "#1,2", '"1",2'])


@st.composite
def _csv_texts(draw):
    width = draw(st.integers(1, 4))
    lines = [",".join(f"x{i}" for i in range(1, width + 1))]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(_EXTRA_LINES))
            continue
        count = width + draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1]))
        fields = [
            draw(_OTHERS if draw(st.integers(0, 9)) == 0 else _NUMBERS)
            for _ in range(count)
        ]
        lines.append(",".join(fields))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines)
    if draw(st.booleans()):
        text += newline
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text


def _read_outcome(read, path):
    try:
        names, values = read(path)
    except ValueError as exc:
        return str(exc)
    return names, values.shape, values.tobytes()


@settings(max_examples=300, deadline=None)
@given(_csv_texts())
def test_csv_fast_path_matches_the_loop(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _read_outcome(climod._read_matrix_csv, path) == _read_outcome(
        climod._read_csv_loop, path
    )


@pytest.mark.parametrize(
    "text",
    [
        'a,b\n"1\n",2\n3,x\n',  # a quoted field spans lines 2 and 3
        '"a\nb",c\n1,2\n3,x\n',  # the header spans lines 1 and 2
    ],
)
def test_csv_error_names_the_file_line(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    for read in (climod._read_matrix_csv, climod._read_csv_loop):
        with pytest.raises(ValueError) as info:
            read(path)
        assert str(info.value) == f"{path} line 4: non-numeric field"


def test_csv_fast_path_reads_plain_numbers_alone(tmp_path, monkeypatch):
    def refuse(path):
        raise AssertionError("the loop was not expected to run")

    plain = tmp_path / "plain.csv"
    plain.write_bytes("\ufeffa,b\r\n1,nan\r\n\r\n-inf, 2e3 \r\n3,4".encode("utf-8"))
    quoted = tmp_path / "quoted.csv"
    quoted.write_text('a,b\n"1",2\n', encoding="utf-8")
    expected = climod._read_csv_loop(plain)
    monkeypatch.setattr(climod, "_read_csv_loop", refuse)
    names, values = climod._read_matrix_csv(plain)
    assert names == expected[0] == ["a", "b"]
    assert values.tobytes() == expected[1].tobytes()
    with pytest.raises(AssertionError):
        climod._read_matrix_csv(quoted)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_curve_and_svg(tmp_path, capsys):
    out = tmp_path / "sizes.csv"
    args = [
        "simulate", "--setup", "1", "--m", "4", "--n", "60", "--reps", "8",
        "--multipliers", "200", "--seed", "1", "--alpha-grid", "0.05,0.2",
        "--out", str(out),
    ]
    assert main(args) == 0
    capsys.readouterr()
    header, rows = read_csv(out)
    assert header == ["alpha", "empirical_size", "reps"]
    assert [r[0] for r in rows] == ["0.05", "0.2"]
    sizes = [float(r[1]) for r in rows]
    assert all(s in {i / 8 for i in range(9)} for s in sizes)
    assert sizes[0] <= sizes[1]
    assert [r[2] for r in rows] == ["8", "8"]
    svg = (tmp_path / "sizes.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg ")
    assert svg.count("<circle") == 2
    assert "empirical size (8 runs)" in svg

    again = tmp_path / "again.csv"
    assert main(args[:-1] + [str(again)]) == 0
    capsys.readouterr()
    assert again.read_bytes() == out.read_bytes()


def test_simulate_single_rep_sizes_are_binary(tmp_path, capsys):
    out = tmp_path / "one.csv"
    assert main([
        "simulate", "--setup", "2", "--m", "4", "--n", "50", "--reps", "1",
        "--multipliers", "100", "--seed", "3", "--alpha-grid",
        "0.02:0.10:0.02", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    _, rows = read_csv(out)
    assert len(rows) == 5
    assert set(float(r[1]) for r in rows) <= {0.0, 1.0}


def test_simulate_parallel_matches_serial(tmp_path, capsys, monkeypatch):
    # 7 replications do not split evenly over 2 or 3 workers.  The
    # workers take blocks of consecutive replications, about sixteen per
    # worker: 33 replications over 2 workers are sixteen blocks of 2 and
    # a last block of 1.  Workers are forked on Linux and spawned
    # elsewhere; the spawn case below keeps the macOS and Windows path
    # covered on Linux.  The `python -m treegof.cli` case runs the module
    # entry point, whose spawned workers import its __main__ again
    base = [
        "simulate", "--setup", "1", "--m", "4", "--n", "40", "--reps", "7",
        "--multipliers", "100", "--seed", "11", "--alpha-grid", "0.05,0.1,0.3",
    ]
    # at alpha 0.99 almost every replication rejects, so a lost
    # replication would show in the sizes
    short_last = base[:8] + ["33"] + base[9:-1] + ["0.05,0.5,0.99"]

    def run(argv, name):
        out = tmp_path / f"{name}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        # the pool's workers are gone once main returns
        assert multiprocessing.active_children() == []
        return out.read_bytes(), out.with_suffix(".svg").read_bytes()

    outputs = {jobs: run(base + ["--jobs", jobs], f"jobs{jobs}") for jobs in ("1", "2", "3")}
    short = {jobs: run(short_last + ["--jobs", jobs], f"short{jobs}") for jobs in ("1", "2")}
    with monkeypatch.context() as m:
        m.setattr(climod, "_START_METHOD", "spawn")
        spawned = run(base + ["--jobs", "2"], "spawn2")
    capsys.readouterr()
    assert short["2"] == short["1"]
    assert short["1"][0].endswith(b"0.99,1,33\n")
    out = tmp_path / "module.csv"
    src = os.path.dirname(os.path.dirname(treegof.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "treegof.cli", *base, "--jobs", "2", "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert outputs["2"] == outputs["1"]
    assert outputs["3"] == outputs["1"]
    assert spawned == outputs["1"]
    assert (out.read_bytes(), out.with_suffix(".svg").read_bytes()) == outputs["1"]


def test_simulate_block_counts_decide_like_the_public_quantiles():
    # E=10: levels 0.05 and 0.06 both take the 10th order statistic, so
    # two levels share one index
    m, n, entropy = 4, 40, 8
    alphas = [0.05, 0.06, 0.5, 0.95]
    config = BootstrapConfig(num_multipliers=10)
    levels = [climod._quantile_index(10, a) for a in alphas]
    assert levels[:2] == [9, 9]
    system = enumerate_constraints(climod._star_tree(m))
    cov = covariance_from_factor(setup_params(2, m, seed=1))
    counts = climod._simulate_block(cov, system, n, config, entropy, range(2, 6))
    assert len(counts) == 4
    for rep, count in zip(range(2, 6), counts):
        data_ss = np.random.SeedSequence(entropy=entropy, spawn_key=(rep, 0))
        test_ss = np.random.SeedSequence(entropy=entropy, spawn_key=(rep, 1))
        x = sample(cov, n, data_ss)
        stat, draws = statistic_and_draws(
            x, system, replace(config, seed=test_ss), Scratch()
        )
        assert type(count) is int
        assert count == np.count_nonzero(draws >= stat)
        for alpha, j in zip(alphas, levels):
            assert (count < 10 - j) == (stat > quantile_from_draws(draws, alpha))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=60),
    st.integers(-4, 4),
    st.floats(1e-6, 1 - 1e-6),
)
def test_draw_count_decides_like_the_quantile_on_tied_draws(values, stat, alpha):
    # ``simulate`` decides a level from the count of draws at or above the
    # statistic; on draws with many ties that must agree with comparing
    # the statistic to the quantile
    draws = np.array(values, dtype=float)
    count = int(np.count_nonzero(draws >= stat))
    bound = len(draws) - climod._quantile_index(len(draws), alpha)
    assert (count < bound) == (stat > quantile_from_draws(draws, alpha))


def test_simulate_levels_sharing_an_order_statistic(tmp_path, capsys):
    argv = [
        "simulate", "--setup", "2", "--m", "4", "--n", "40", "--reps", "9",
        "--multipliers", "10", "--seed", "6", "--alpha-grid", "0.05,0.06",
    ]
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
        outputs.append((out.read_bytes(), out.with_suffix(".svg").read_bytes()))
    capsys.readouterr()
    assert outputs[1] == outputs[0]
    _, rows = read_csv(tmp_path / "jobs1.csv")
    assert [r[0] for r in rows] == ["0.05", "0.06"]
    assert rows[0][1] == rows[1][1]


def test_simulate_refuses_zero_multipliers_before_any_pool(tmp_path, capsys):
    # _quantile_index(0, alpha) is -1, not an error, so the config must
    # be checked before the levels are indexed and the pool started
    out = tmp_path / "sizes.csv"
    rc = main([
        "simulate", "--setup", "1", "--m", "4", "--n", "40", "--reps", "4",
        "--multipliers", "0", "--jobs", "2", "--out", str(out),
    ])
    assert rc == 1
    assert capsys.readouterr().err == "error: num_multipliers must be at least 1\n"
    assert not out.exists()
    assert not (tmp_path / "sizes.svg").exists()
    assert multiprocessing.active_children() == []


def test_simulate_parent_holds_no_replications_by_draws_array(tmp_path, capsys):
    # the workers send back each replication's statistic and one order
    # statistic per level; the parent's traced peak stays below one
    # reps x E float64 array (1.9 MB here), which it held when the
    # workers sent back every draw
    reps, draws = 48, 5000
    argv = [
        "simulate", "--setup", "1", "--m", "4", "--n", "40", "--reps", str(reps),
        "--multipliers", str(draws), "--seed", "3", "--jobs", "2",
        "--out", str(tmp_path / "sizes.csv"),
    ]
    # a first run imports what the pool needs, outside the traced run
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < reps * draws * 8, f"traced peak {peak / 2**20:.2f} MiB"


def test_simulate_validates_covariance_once_per_block(tmp_path, capsys, monkeypatch):
    # every replication draws from the one covariance of the run, so it
    # is validated and factored once per block of replications, not once
    # per replication; --jobs 1 runs one block
    calls = []
    validate = treegof.model._validate_covariance

    def counting(cov):
        calls.append(cov.shape)
        return validate(cov)

    monkeypatch.setattr(treegof.model, "_validate_covariance", counting)
    assert main([
        "simulate", "--setup", "2", "--m", "5", "--n", "40", "--reps", "6",
        "--multipliers", "50", "--seed", "4", "--alpha-grid", "0.05",
        "--jobs", "1", "--out", str(tmp_path / "sizes.csv"),
    ]) == 0
    capsys.readouterr()
    assert calls == [(5, 5)]


def test_simulate_replications_run_single_threaded(tmp_path, capsys, monkeypatch):
    # replications are spread over --jobs processes; a thread pool per
    # replication on top of them would oversubscribe the cores
    seen = []
    ordered_map = treegof.bootstrap._ordered_map

    def recording(jobs):
        seen.append(jobs)
        return ordered_map(jobs)

    monkeypatch.setattr(treegof.bootstrap, "_usable_cores", lambda: 4)
    monkeypatch.setattr(treegof.bootstrap, "_ordered_map", recording)
    assert main([
        "simulate", "--setup", "1", "--m", "4", "--n", "40", "--reps", "3",
        "--multipliers", "50", "--seed", "2", "--alpha-grid", "0.05",
        "--out", str(tmp_path / "sizes.csv"),
    ]) == 0
    capsys.readouterr()
    assert seen == [1, 1, 1]


_WORKER_FAULTS = """
import resource, sys
from treegof.cli import main
rc = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt, file=sys.stderr)
sys.exit(rc)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="ru_minflt counts page faults on Linux"
)
@pytest.mark.parametrize("m, reps, bound", [
    (10, 400, 20_000),
    pytest.param(20, 80, 28_000, marks=pytest.mark.skipif(
        not os.environ.get("TREEGOF_SLOW"), reason="set TREEGOF_SLOW=1 to run"
    )),
], ids=["m10", "m20"])
def test_simulate_workers_fault_few_pages_through_their_scratch(m, reps, bound):
    # simulate-size's run (m=10) and an m=20 run on two forked workers,
    # whose page faults the parent reads once they are reaped.  Reusing
    # one scratch per block, the workers faulted 11.7K pages at m=10 and
    # 14.1K at m=20; with the group store and the held stream taken
    # afresh in every call, 28K to 35K and 38K to 58K, and with every
    # region taken afresh, 39K to 41K and 64K to 72K (2-vCPU VM, one BLAS
    # thread).  A scratch made for each replication faults like a reused
    # one: glibc hands the freed regions back from its heap.  No --out,
    # so no path's length moves the heap
    src = os.path.dirname(os.path.dirname(treegof.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER_FAULTS, "simulate", "--setup", "2",
         "--m", str(m), "--n", "500", "--reps", str(reps), "--jobs", "2", "--seed", "0"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.stdout.startswith("alpha,empirical_size,reps\n")
    faults = int(proc.stderr.split()[-1])
    assert faults < bound, f"the workers faulted {faults} pages"


def test_simulate_has_no_alpha_flag(tmp_path, capsys):
    # simulate decides every level of --alpha-grid, so a single test
    # level would be read by nothing
    out = tmp_path / "sizes.csv"
    with pytest.raises(SystemExit) as info:
        main([
            "simulate", "--setup", "1", "--m", "4", "--n", "40", "--reps", "2",
            "--alpha", "0.5", "--out", str(out),
        ])
    assert info.value.code == 2
    assert "--alpha" in capsys.readouterr().err.splitlines()[-1]
    assert not out.exists()


def test_simulate_bad_alpha_grid(tmp_path, capsys):
    rc = main([
        "simulate", "--setup", "1", "--m", "4", "--n", "40", "--reps", "2",
        "--alpha-grid", "0.5:0.1:0.1", "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 1
    assert "alpha grid" in capsys.readouterr().err


def test_simulate_refuses_repeated_alpha_levels(tmp_path, capsys):
    # a listed level twice, or a step below the 1e-10 rounding of each
    # level, would estimate and write the same row twice
    out = tmp_path / "sizes.csv"
    for spec in ("0.1,0.1", "0.5:0.5:1e-12"):
        level = spec.split(",")[0].split(":")[0]
        rc = main([
            "simulate", "--setup", "1", "--m", "4", "--n", "40", "--reps", "2",
            "--alpha-grid", spec, "--out", str(out),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: alpha grid '{spec}' repeats level {level}\n"
        assert not out.exists()


def test_simulate_rejects_nonpositive_reps(tmp_path, capsys):
    # --jobs below 1 is refused like --reps, before any file is written
    for flag, value in (("--reps", "0"), ("--reps", "-3"), ("--jobs", "0"), ("--jobs", "-3")):
        out = tmp_path / "sizes.csv"
        counts = {"--reps": "2", "--jobs": "1", flag: value}
        rc = main([
            "simulate", "--setup", "1", "--m", "4", "--n", "40",
            "--reps", counts["--reps"], "--jobs", counts["--jobs"], "--out", str(out),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} must be at least 1, got {value}\n"
        assert not out.exists()
        assert not (tmp_path / "sizes.svg").exists()


def test_parse_alpha_grid_forms():
    assert _parse_alpha_grid("0.01:0.05:0.01") == [0.01, 0.02, 0.03, 0.04, 0.05]
    assert _parse_alpha_grid("0.05") == [0.05]
    assert _parse_alpha_grid("0.1,0.2") == [0.1, 0.2]
    with pytest.raises(ValueError, match="not in"):
        _parse_alpha_grid("0.0,0.5")
    with pytest.raises(ValueError, match="step"):
        _parse_alpha_grid("0.1:0.5:0")
    # each of these used to loop until memory ran out
    for spec in ("0.01:0.1:inf", "0.01:0.1:nan", "nan:0.1:0.01", "0.01:inf:0.01"):
        with pytest.raises(ValueError, match=f"alpha grid '{spec}' needs finite"):
            _parse_alpha_grid(spec)
    with pytest.raises(ValueError, match="alpha grid '0.01:0.1:1e-300' has more than"):
        _parse_alpha_grid("0.01:0.1:1e-300")
    assert len(_parse_alpha_grid("0.00005:0.99995:0.0001")) == 10_000


# ---------------------------------------------------------------------------
# check-metric


def test_check_metric_verdicts(tmp_path, capsys):
    tree_path = star_file(tmp_path, 4)
    tree = load_tree(tree_path)
    delta = induced_metric(tree, {e: 1.0 for e in tree.edges})
    good = tmp_path / "good.csv"
    write_data_csv(good, tree.observed, delta)
    assert main(["check-metric", "--tree", str(tree_path), "--data", str(good)]) == 0
    out = capsys.readouterr().out
    assert "t-induced: yes" in out
    assert "violations: 0" in out

    bad_delta = delta.copy()
    bad_delta[0, 1] = bad_delta[1, 0] = 10.0
    bad = tmp_path / "bad.csv"
    write_data_csv(bad, tree.observed, bad_delta)
    assert main(["check-metric", "--tree", str(tree_path), "--data", str(bad)]) == 0
    out = capsys.readouterr().out
    assert "t-induced: no" in out
    assert "four-point" in out


def test_check_metric_matches_permuted_header(tmp_path, capsys):
    # an asymmetric, off-model matrix: a header that permutes the
    # observed ids must reorder rows and columns alike
    tree_path = star_file(tmp_path, 5)
    names = load_tree(tree_path).observed
    delta = np.random.default_rng(5).uniform(0.0, 3.0, size=(5, 5))
    np.fill_diagonal(delta, 0.0)
    ordered = tmp_path / "ordered.csv"
    write_data_csv(ordered, names, delta)
    assert main(["check-metric", "--tree", str(tree_path), "--data", str(ordered)]) == 0
    expected = capsys.readouterr().out
    assert "t-induced: no" in expected and "symmetry" in expected

    perm = [3, 0, 4, 2, 1]
    permuted = tmp_path / "permuted.csv"
    write_data_csv(permuted, [names[i] for i in perm], delta[np.ix_(perm, perm)])
    assert main(["check-metric", "--tree", str(tree_path), "--data", str(permuted)]) == 0
    assert capsys.readouterr().out == expected


def test_header_only_csv_fails_cleanly(tmp_path, capsys):
    tree_path = star_file(tmp_path, 4)
    data = tmp_path / "header.csv"
    data.write_text("x3,x1,x4,x2\n", encoding="utf-8")
    for command in ("check-metric", "test"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, "--tree", str(tree_path), "--data", str(data)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no data rows" in err
        assert "Traceback" not in err


def test_check_metric_requires_square(tmp_path, capsys):
    tree_path = star_file(tmp_path, 4)
    data = tmp_path / "rect.csv"
    write_data_csv(data, ["x1", "x2", "x3", "x4"], np.zeros((2, 4)))
    assert main(["check-metric", "--tree", str(tree_path), "--data", str(data)]) == 1
    assert "square" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# entry point


def test_module_entry_point(tmp_path):
    tree = star_file(tmp_path, 4)
    proc = subprocess.run(
        [sys.executable, "-m", "treegof.cli", "enumerate", "--tree", str(tree)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "constraint_id,kind,indices,polynomial"


_STARTUP_PROBE = """
import json, sys
import numpy
baseline = set(sys.modules)
import treegof.cli
imported = set(sys.modules) - baseline
tree, delta, out = sys.argv[1:]
assert treegof.cli.main(["enumerate", "--tree", tree, "--out", out]) == 0
assert treegof.cli.main(["check-metric", "--tree", tree, "--data", delta]) == 0
ran = set(sys.modules) - baseline
print(json.dumps({"import": sorted(imported), "run": sorted(ran)}))
"""


def test_tree_tools_load_neither_numpy_random_nor_multiprocessing(tmp_path):
    # only simulate and generate draw, and only simulate --jobs > 1 starts
    # a pool; loading numpy.random and multiprocessing would add about
    # 6 MB to the start-up of enumerate and check-metric.  numpy 1.x
    # imports numpy.random itself, so only what treegof adds counts
    tree_path = star_file(tmp_path, 5)
    tree = load_tree(tree_path)
    delta = tmp_path / "delta.csv"
    write_data_csv(delta, tree.observed, induced_metric(tree, {e: 1.0 for e in tree.edges}))
    src = os.path.dirname(os.path.dirname(treegof.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, str(tree_path), str(delta),
         str(tmp_path / "c.csv")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout.splitlines()[-1])
    for stage in ("import", "run"):
        loaded = [
            name for name in added[stage]
            if name.startswith(("multiprocessing", "numpy.random"))
        ]
        assert loaded == [], f"{stage} loads {loaded}"
