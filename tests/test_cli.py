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
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_latent_tree, reference_listing
import treegof
import treegof.cli as climod
import treegof.tree
from treegof.cli import _parse_alpha_grid, main
from treegof.metric import induced_metric
from treegof.model import sample
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
    with pytest.raises(SystemExit) as info:
        main(["generate", "--n", "5"])
    assert info.value.code == 2
    capsys.readouterr()


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
        "--seed", "0", "--out", str(out),
    ])
    printed = capsys.readouterr().out
    assert rc == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert json.loads(printed) == report
    assert set(report) == {
        "statistic", "quantile", "p_value", "reject", "k_effective",
        "diag_floor_hits", "alpha", "seed",
    }
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


def test_simulate_parallel_matches_serial(tmp_path, capsys):
    # 7 replications do not split evenly over 2 or 3 workers
    base = [
        "simulate", "--setup", "1", "--m", "4", "--n", "40", "--reps", "7",
        "--multipliers", "100", "--seed", "11", "--alpha-grid", "0.05,0.1,0.3",
    ]
    outputs = {}
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(base + ["--jobs", jobs, "--out", str(out)]) == 0
        outputs[jobs] = (out.read_bytes(), out.with_suffix(".svg").read_bytes())
    capsys.readouterr()
    assert outputs["2"] == outputs["1"]
    assert outputs["3"] == outputs["1"]


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


def test_simulate_bad_alpha_grid(tmp_path, capsys):
    rc = main([
        "simulate", "--setup", "1", "--m", "4", "--n", "40", "--reps", "2",
        "--alpha-grid", "0.5:0.1:0.1", "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 1
    assert "alpha grid" in capsys.readouterr().err


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
