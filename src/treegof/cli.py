"""Command-line front end.

Subcommands: ``enumerate`` lists the polynomial constraints of a tree,
``test`` runs the bootstrap test on a data CSV, ``simulate`` estimates
empirical size curves under the two factor-model setups, ``generate``
draws Gaussian samples, and ``check-metric`` applies the tree-metric
oracle to a distance matrix.  CSV is the canonical output; the
simulation additionally writes a static SVG of size versus level.

Every command is deterministic given its flags.  The master seed of
``simulate`` derives one seed pair per replication (data stream, test
stream) through ``SeedSequence`` spawn keys, so replications can run in
a worker pool and still aggregate identically.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, replace
from functools import partial

import numpy as np

from ._svg import size_plot
from .bootstrap import BootstrapConfig, Scratch, _fold_and_draw, _quantile_index, run_test
from .metric import is_t_induced
from .model import (
    TreeModelParams,
    _cholesky,
    _draw,
    covariance_from_factor,
    covariance_from_tree,
    sample,
    setup_params,
)
from .tree import KINDS, LatentTree, TreeError, enumerate_constraints, load_tree

_FLOAT = ".17g"
# a start:stop:step alpha grid with more levels is refused as malformed
_MAX_ALPHA_LEVELS = 10_000
# how ``simulate --jobs N`` starts its workers.  A forked worker starts
# with numpy, treegof and the caller's main module already imported; a
# spawned one imports them again before its first replication.  Windows
# has no fork, and on macOS it is unsafe with system frameworks.  Named
# even on Linux, where Python 3.14's default is forkserver, which starts
# a fresh interpreter too.  Forking is safe because no thread of
# treegof's runs then (``bootstrap._ordered_map`` joins its threads),
# and OpenBLAS stops its own threads around a fork.
_START_METHOD = "fork" if sys.platform == "linux" else "spawn"


def _fmt(x) -> str:
    return format(float(x), _FLOAT)


@contextmanager
def _output(path):
    """``path`` opened for writing text, or stdout when path is None."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _write_rows(path, header, rows):
    """Write one CSV table to ``path``, or stdout when path is None."""
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _csv_header(path, reader):
    try:
        return next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file")


def _read_csv_loop(path):
    """Read a CSV with one header row of names and float rows, field by
    field; an error names the file's line (the last line of a record
    whose quoted fields span lines)."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        names = _csv_header(path, reader)
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(names):
                raise ValueError(
                    f"{path} line {reader.line_num}: expected {len(names)} "
                    f"fields, got {len(row)}"
                )
            try:
                rows.append([float(v.strip()) for v in row])
            except ValueError:
                raise ValueError(f"{path} line {reader.line_num}: non-numeric field")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return [n.strip() for n in names], np.asarray(rows, dtype=float)


def _read_matrix_csv(path):
    """Read a CSV with one header row of names and float rows.

    ``np.loadtxt`` parses the body when it can: unquoted numbers, as
    many per row as the header has names.  Anything else, errors
    included, is read again by ``_read_csv_loop``, which gives the same
    values for what both accept and names the line of an error.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        names = _csv_header(path, csv.reader(fh))
        try:
            with warnings.catch_warnings():
                # a body without rows warns; the loop reports it
                warnings.simplefilter("ignore")
                values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            values = None
    if values is None or values.shape[0] == 0 or values.shape[1] != len(names):
        return _read_csv_loop(path)
    return [n.strip() for n in names], values


def _observed_order(names, tree):
    """Positions of the tree's observed variables among the CSV columns,
    or None when the columns are already in the tree's order.

    A header that names no observed id is matched by position, so only
    the counts must agree.  Any other header must be a permutation of
    the observed ids and is matched by name.
    """
    observed = list(tree.observed)
    problems = []
    if len(names) != len(observed):
        problems.append(
            f"data has {len(names)} columns but the tree observes "
            f"{len(observed)} variables"
        )
    positional = set(names).isdisjoint(observed)
    missing = [] if positional else [v for v in observed if v not in names]
    if missing:
        problems.append("the data header lacks " + ", ".join(missing))
    if problems:
        raise ValueError("; ".join(problems))
    if positional or names == observed:
        return None
    return [names.index(v) for v in observed]


def _star_tree(m: int) -> LatentTree:
    names = tuple(f"x{i}" for i in range(1, m + 1))
    return LatentTree(tuple(("h", v) for v in names), names)


def _parse_alpha_grid(spec: str):
    """Parse 'start:stop:step' or a comma-separated list of levels."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"alpha grid {spec!r} is not start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"alpha grid {spec!r} needs finite start, stop and step")
        if step <= 0:
            raise ValueError("alpha grid step must be positive")
        last = (stop - start) / step
        if last >= _MAX_ALPHA_LEVELS:
            raise ValueError(
                f"alpha grid {spec!r} has more than {_MAX_ALPHA_LEVELS} levels"
            )
        # one candidate past ``last`` covers the slack at stop; levels rise
        # with k, so the kept ones are a prefix
        levels = (round(start + k * step, 10) for k in range(math.floor(last) + 2))
        grid = [a for a in levels if a <= stop + step * 1e-9]
    else:
        grid = [round(float(p), 10) for p in spec.split(",") if p.strip()]
    if not grid:
        raise ValueError(f"alpha grid {spec!r} is empty")
    seen = set()
    for a in grid:
        if not 0.0 < a < 1.0:
            raise ValueError(f"alpha {a} not in (0, 1)")
        if a in seen:
            raise ValueError(f"alpha grid {spec!r} repeats level {a}")
        seen.add(a)
    return grid


def _parse_params_file(path):
    """Read edge correlations and node scales.

    Lines are ``CORR <id> <id> <rho>`` or ``SD <id> <value>``; ``#``
    comments and blank lines are skipped.  An edge (in either
    orientation) or a node may appear once.
    """
    edge_corr = {}
    node_sd = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            try:
                if fields[0] == "CORR" and len(fields) == 4:
                    a, b = fields[1], fields[2]
                    if (a, b) in edge_corr or (b, a) in edge_corr:
                        raise ValueError(f"duplicate CORR edge {a!r} {b!r}")
                    edge_corr[(a, b)] = float(fields[3])
                elif fields[0] == "SD" and len(fields) == 3:
                    if fields[1] in node_sd:
                        raise ValueError(f"duplicate SD node {fields[1]!r}")
                    node_sd[fields[1]] = float(fields[2])
                else:
                    raise ValueError("expected 'CORR a b rho' or 'SD v s'")
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}")
    return edge_corr, (node_sd or None)


# ---------------------------------------------------------------------------
# subcommands


def cmd_enumerate(args) -> int:
    tree = load_tree(args.tree)
    system = enumerate_constraints(tree)
    # the indices field as csv.writer writes it: quoted, with quotes
    # doubled, when a name holds a comma, quote or line break.  Object
    # arrays, because numpy's str arrays drop trailing NULs.
    names = [v.replace('"', '""') for v in tree.observed]
    first = np.array(names + [""], dtype=object)
    rest = np.array([" " + v for v in names] + [""], dtype=object)
    quote = np.array([any(ch in v for ch in ',"\r\n') for v in tree.observed] + [False])
    kind_text = np.array(KINDS)
    with _output(args.out) as fh:
        fh.write("constraint_id,kind,indices,polynomial\n")
        count = 0
        for kinds, variables, _, polynomials in system.listing_blocks():
            indices = first[variables[:, 0]] + rest[variables[:, 1]]
            indices += rest[variables[:, 2]] + rest[variables[:, 3]]
            quoted = quote[variables].any(axis=1)
            indices[quoted] = '"' + indices[quoted] + '"'
            ids = ["c%03d" % i for i in range(count + 1, count + len(kinds) + 1)]
            count += len(kinds)
            columns = ids, kind_text[kinds].tolist(), indices.tolist(), polynomials.tolist()
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")
    return 0


def _bootstrap_config(args, **fields) -> BootstrapConfig:
    return BootstrapConfig(
        batch_size=args.batch,
        num_multipliers=args.multipliers,
        seed=args.seed,
        mode=args.mode,
        center=not args.no_center,
        subsample=args.subsample,
        **fields,
    )


def _test_data(path, tree):
    """The values of the data CSV at ``path``, with the columns in the
    order of the tree's observed variables."""
    names, values = _read_matrix_csv(path)
    order = _observed_order(names, tree)
    return values if order is None else values[:, order]


def cmd_test(args) -> int:
    tree = load_tree(args.tree)
    system = enumerate_constraints(tree)
    config = _bootstrap_config(args, alpha=args.alpha)
    result = run_test(_test_data(args.data, tree), system, config)
    report = {**asdict(result), "alpha": args.alpha, "seed": args.seed}
    text = json.dumps(report, indent=2)
    print(text)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if result.reject and args.exit_on_reject:
        return 3
    return 0


def _simulate_block(cov, system, n, config, entropy, stop, reps):
    """The count of draws at or above the statistic of each replication
    of ``reps``, in order, capped at ``stop``.  Only these counts reach
    the parent, which never holds a replications x draws array.

    A count capped at the largest threshold of the levels decides each
    level as the full count does, so a replication stops drawing once
    ``stop`` draws reach its statistic (``bootstrap._draws``), and no
    output byte changes.  A fold of more than one column group makes
    every draw: its statistic is known only once every group is folded.

    The replications run through one bootstrap ``Scratch``: its buffers
    are allocated once per block, not once per replication, and so are
    the covariance's validation and Cholesky factor.  They are not
    computed in the parent of a ``--jobs N`` run: there the first LAPACK
    call would fault in about 0.9 MB of library code, and with forked
    workers the parent's RSS is the run's peak.

    Replication ``rep`` draws its data from ``SeedSequence(entropy,
    spawn_key=(rep, 0))`` and its test from ``SeedSequence(entropy,
    spawn_key=(rep, 1))``, split like ``run_test`` splits its seed.
    ``treegof test --seed`` takes an integer, so a replication can be
    rerun through the Python API with these seed sequences, not from the
    command line.
    """
    chol = _cholesky(cov)
    scratch = Scratch()
    counts = []
    for rep in reps:
        data_ss = np.random.SeedSequence(entropy=entropy, spawn_key=(rep, 0))
        test_ss = np.random.SeedSequence(entropy=entropy, spawn_key=(rep, 1))
        x = _draw(chol, n, data_ss)
        test_config = replace(config, seed=test_ss)
        stat, draws, _, _ = _fold_and_draw([x], system, test_config, 1, scratch, stop)
        counts.append(min(int(np.count_nonzero(draws >= stat)), stop))
    return counts


def cmd_simulate(args) -> int:
    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    alphas = _parse_alpha_grid(args.alpha_grid)
    # the config first, so that it refuses a draw count below 1, for
    # which ``_quantile_index`` gives -1 and no error
    config = _bootstrap_config(args)
    num_draws = config.num_multipliers
    system = enumerate_constraints(_star_tree(args.m))
    params_ss = np.random.SeedSequence(entropy=args.seed, spawn_key=(0, 2))
    params = setup_params(args.setup, args.m, params_ss)
    # the statistic exceeds the order statistic at index j of the E sorted
    # draws exactly when fewer than E - j draws reach it
    thresholds = [num_draws - _quantile_index(num_draws, a) for a in alphas]
    run_block = partial(
        _simulate_block, covariance_from_factor(params), system, args.n,
        config, args.seed, max(thresholds),
    )
    blocks = [range(args.reps)]
    with ExitStack() as stack:
        imap = map
        if args.jobs > 1:
            from multiprocessing import get_context

            # about sixteen blocks of consecutive replications per worker,
            # handed out one at a time, so that a worker slowed by other
            # load takes fewer and the workers finish within one short
            # block of each other (``Pool.map``'s four chunks per worker
            # left them up to 0.6 s apart on a 400-replication run)
            size = -(-args.reps // (16 * args.jobs))
            blocks = [range(lo, min(lo + size, args.reps)) for lo in range(0, args.reps, size)]
            imap = stack.enter_context(get_context(_START_METHOD).Pool(args.jobs)).imap
        counts = np.array([count for block in imap(run_block, blocks) for count in block])
    sizes = [(counts < threshold).mean() for threshold in thresholds]

    rows = [(repr(a), _fmt(s), args.reps) for a, s in zip(alphas, sizes)]
    _write_rows(args.out, ("alpha", "empirical_size", "reps"), rows)
    svg_path = args.svg
    if svg_path is None and args.out is not None:
        base = args.out[:-4] if args.out.endswith(".csv") else args.out
        svg_path = base + ".svg"
    if svg_path is not None:
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(size_plot(alphas, sizes, args.reps))
    return 0


def cmd_generate(args) -> int:
    # argparse lets through exactly one of --setup and --tree
    if (args.setup is None) != (args.m is None):
        raise ValueError("--setup and --m go together")
    if (args.tree is None) != (args.params is None):
        raise ValueError("--tree and --params go together")
    params_ss, data_ss = np.random.SeedSequence(args.seed).spawn(2)
    if args.tree is not None:
        tree = load_tree(args.tree)
        edge_corr, node_sd = _parse_params_file(args.params)
        cov = covariance_from_tree(TreeModelParams(tree, edge_corr, node_sd))
        names = tuple(tree.observed)
    else:
        cov = covariance_from_factor(setup_params(args.setup, args.m, params_ss))
        names = tuple(f"x{i}" for i in range(1, args.m + 1))
    data = sample(cov, args.n, data_ss, names)
    rows = ([_fmt(v) for v in row] for row in data.data)
    _write_rows(args.out, names, rows)
    return 0


def cmd_check_metric(args) -> int:
    tree = load_tree(args.tree)
    names, values = _read_matrix_csv(args.data)
    if values.shape[0] != values.shape[1]:
        raise ValueError(
            f"distance matrix must be square, got {values.shape[0]}x"
            f"{values.shape[1]}"
        )
    order = _observed_order(names, tree)
    delta = values if order is None else values[np.ix_(order, order)]
    report = is_t_induced(delta, tree)
    print("t-induced:", "yes" if report.is_induced else "no")
    violations = report.all_violations
    print(f"violations: {len(violations)}")
    for v in violations:
        label = " ".join(tree.observed[j] for j in v.indices)
        print(f"  {v.kind} [{label}] residual {format(v.residual, '.6g')}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_bootstrap_flags(p):
    p.add_argument("--batch", type=int, default=3, help="batch size for variance")
    p.add_argument(
        "--multipliers", type=int, default=1000, help="bootstrap draw count"
    )
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument(
        "--subsample", type=int, default=None, metavar="K",
        help="test a random subset of K columns",
    )
    p.add_argument(
        "--mode", choices=("equalities", "all"), default="equalities",
        help="constraint families to test",
    )
    p.add_argument(
        "--no-center", action="store_true", help="skip column centering"
    )


def build_parser() -> argparse.ArgumentParser:
    # no abbreviated flags anywhere: a flag added later would change what
    # a shorter spelling means, as ``--alpha`` once read ``--alpha-grid``
    parser = argparse.ArgumentParser(
        prog="treegof",
        description="Goodness-of-fit tests for Gaussian latent tree models.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    p = sub.add_parser("enumerate", help="list the constraints of a tree")
    p.add_argument("--tree", required=True, help="tree file")
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("test", help="bootstrap test of a data CSV")
    p.add_argument("--tree", required=True, help="tree file")
    p.add_argument("--data", required=True, help="data CSV with header row")
    p.add_argument("--out", default=None, help="also write the report here")
    p.add_argument(
        "--exit-on-reject", action="store_true",
        help="exit with status 3 when the test rejects",
    )
    p.add_argument("--alpha", type=float, default=0.05, help="test level")
    _add_bootstrap_flags(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("simulate", help="empirical size curve of the test")
    p.add_argument("--setup", type=int, choices=(1, 2), required=True)
    p.add_argument("--m", type=int, required=True, help="observed variables")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--reps", type=int, required=True, help="replications")
    p.add_argument(
        "--alpha-grid", default="0.01:0.10:0.01",
        help="start:stop:step or comma-separated levels",
    )
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--out", default=None, help="size-curve CSV (default stdout)")
    p.add_argument(
        "--svg", default=None,
        help="SVG plot path (default: the CSV path with .svg)",
    )
    _add_bootstrap_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("generate", help="draw Gaussian samples")
    model = p.add_mutually_exclusive_group(required=True)
    model.add_argument("--setup", type=int, choices=(1, 2), default=None)
    model.add_argument("--tree", default=None, help="tree file")
    p.add_argument("--m", type=int, default=None, help="observed variables")
    p.add_argument("--params", default=None, help="CORR/SD parameter file")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "check-metric", help="tree-metric oracle on a distance matrix"
    )
    p.add_argument("--tree", required=True, help="tree file")
    p.add_argument("--data", required=True, help="square distance CSV")
    p.set_defaults(func=cmd_check_metric)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout (``treegof enumerate ... | head``); send
        # what is still buffered to devnull, so the exit flush does not
        # fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (TreeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
