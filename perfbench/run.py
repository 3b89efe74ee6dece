"""Benchmark of the treegof command line on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-reference

Run it from the repository root; it imports treegof from ``src``.  The
inputs of a seed are written once, before anything is timed, under
``perfbench/.work``.  Every child gets OPENBLAS/OMP/MKL_NUM_THREADS=1
and NUMPY_MADVISE_HUGEPAGE=0 (see STEADY_ENV).

``--trace 0`` repeats one cold CLI run after another, each in a fresh
interpreter, while the next run and the setup starts still due fit
before ``--seconds`` from the start, input preparation included (at
least MIN_RUNS runs), checks every
output and prints the end-to-end metrics as medians over the runs:
``wall_s`` (the ``cli.main`` calls, timed in the child after import),
``setup_s`` (interpreter start plus ``import treegof``, the median of
SETUP_STARTS fresh starts interleaved with the runs), ``peak_rss_mb``
(the child or its workers, whichever is larger) and ``ok_frac`` (the
share of runs whose outputs pass every check; a crashed run is a miss).

``--trace 1`` makes one untraced run, then runs the outside-in trace of
traced.py in fresh children, as many passes as fit in ``--seconds`` (at
least one); every run counts as attempted and is checked.  It prints a
self-time table, the tracing overhead and the layer shares, writes the
spans as JSON lines and reports the per-layer metrics as medians over
the passes.

``--write-reference`` stores the default seed's outputs in
reference.json; the default seed's runs are compared against them.

This process imports no numpy and reads no outputs: on Linux a child's
``ru_maxrss`` starts at the peak RSS of the process that started it, so
inputs are written and outputs checked in child processes.  The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
NAMES = ("wide-star", "tall-all", "tree-tools", "simulate-size")

# One BLAS thread per child.  numpy asks for transparent huge pages on
# large arrays; whether the kernel finds free 2 MiB pages depends on how
# fragmented the host's memory is, which drifts over minutes.  With the
# advice on, one cold wide-star call varied by 18% (IQR/median over 10
# calls), against 6% with it off.  The call is slower without it (about
# 5.0 s against 3.6 s on a 2-vCPU VM): every first touch of a 4 KiB
# page counts.
STEADY_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMPY_MADVISE_HUGEPAGE": "0"}
MIN_RUNS = 3
SETUP_STARTS = 24
CHILD_TIMEOUT = 120


def child_env():
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0", **STEADY_ENV)


def python(script, *args, **kwargs):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, script), *args], env=child_env(),
        cwd=ROOT, stdin=subprocess.DEVNULL, **kwargs,
    )


def prepare(name, seed):
    """Write the seed's inputs in a child; return the inputs and CLI calls."""
    out = os.path.join(WORK, f"out-{name}")
    proc = python("workloads.py", name, str(seed), WORK, out,
                  capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(proc.stderr.strip() or f"preparing {name} failed")
    reference = None
    if seed == DEFAULT_SEED and os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh).get(name)
    return {"workload": name, "seed": seed, "out": out, "reference": reference,
            **json.loads(proc.stdout)}


def time_import():
    """Seconds from spawning a fresh interpreter to ``import treegof``
    done, as the child's own monotonic clock reads it."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", "import treegof, time; print(repr(time.monotonic()))"],
        env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
        text=True, check=True, timeout=60,
    )
    return float(proc.stdout) - start


def _wait_group(pgid, seconds):
    """Wait until no process of the group is left; False on timeout."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.01)
    return False


def run_child(job, trace, collect_reference=False):
    """One fresh child in its own process group, on a clean output
    directory.  Returns its report, or None when it crashed."""
    out = job["out"]
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    spec = dict(job, report=os.path.join(out, "report.json"), trace=trace,
                collect_reference=collect_reference)
    with open(os.path.join(out, "stdout.txt"), "w") as so, \
            open(os.path.join(out, "stderr.txt"), "w") as se:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            stdout=so, stderr=se, stdin=subprocess.DEVNULL, env=child_env(),
            cwd=ROOT, start_new_session=True,
        )
        try:
            proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        if not _wait_group(proc.pid, 5.0):
            os.killpg(proc.pid, signal.SIGKILL)
            _wait_group(proc.pid, 5.0)
    if proc.returncode != 0 or not os.path.exists(spec["report"]):
        with open(os.path.join(out, "stderr.txt")) as fh:
            tail = fh.read()[-2000:]
        print(f"{job['workload']}: child exited with {proc.returncode}\n{tail}", file=sys.stderr)
        return None
    with open(spec["report"]) as fh:
        report = json.load(fh)
    if not report["module"].startswith(SRC + os.sep):
        raise SystemExit(f"imported treegof from {report['module']}, not from {SRC}")
    return report


def failures(report):
    return ["crashed"] if report is None else report["failed"]


def measure(job, deadline):
    setup, walls, rss = [], [], []
    runs = failed = 0
    env = None
    cycle = 0.0

    def owed():
        """Seconds the setup starts still due after the next run will take."""
        return max(SETUP_STARTS - len(setup) - 1, 0) * statistics.median(setup)

    while runs < MIN_RUNS or time.monotonic() + cycle + owed() < deadline:
        start = time.monotonic()
        setup.append(time_import())
        report = run_child(job, trace=False)
        cycle = time.monotonic() - start
        runs += 1
        if report is not None:
            walls.append(report["wall_s"])
            rss.append(report["peak_rss_mb"])
            env = report["env"]
        if failures(report):
            failed += 1
            print(f"run {runs} failed: {', '.join(failures(report))}", file=sys.stderr)
    while len(setup) < SETUP_STARTS:
        setup.append(time_import())
    if not walls:
        raise SystemExit(f"{job['workload']}: every run crashed")
    print(f"env: {env}")
    print(f"{job['workload']} seed {job['seed']}: {runs} cold runs, {len(setup)} setup starts")
    print("wall_s per run: " + " ".join(f"{w:.3f}" for w in walls))
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_frac": ((runs - failed) / runs, "ratio"),
    }
    return runs, failed, metrics


def trace(job, deadline):
    name = job["workload"]
    spans_path = os.path.join(WORK, f"spans-{name}-{job['seed']}.jsonl")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    base = run_child(job, trace=False)
    failed = 0
    if failures(base):
        failed += 1
        print(f"untraced run failed: {', '.join(failures(base))}", file=sys.stderr)
        base = None
    passes, tables = [], []
    traced = 0
    took = 0.0
    while traced < 1 or time.monotonic() + took < deadline:
        start = time.monotonic()
        report = run_child(job, trace=True)
        took = time.monotonic() - start
        traced += 1
        if failures(report):
            failed += 1
            print(f"pass {traced} failed: {', '.join(failures(report))}", file=sys.stderr)
        if report is None:
            continue
        for s in report["spans"]:
            s["pass"] = traced
        spans.write_jsonl(report["spans"], spans_path)
        passes.append(spans.layer_metrics(report["spans"], report["blocking"], report["jobs"]))
        tables.append(dict(spans.table(report["spans"])))
        last = report
    if not passes:
        raise SystemExit(f"{name}: every traced pass crashed")
    metrics = {
        key: (statistics.median(p[key][0] for p in passes), unit)
        for key, (_, unit) in passes[0].items()
    }

    def median_of(span, i):
        return statistics.median(t[span][i] for t in tables)

    blocking, jobs = last["blocking"], last["jobs"]
    print(f"env: {last['env']}")
    print(f"{name} seed {job['seed']}: {len(passes)} traced passes; spans in {spans_path}")
    print(f"{'span (median over passes)':40s} {'calls':>6s} {'total_s':>9s} {'self_s':>9s}")
    for span in sorted(tables[0], key=lambda n: -tables[0][n][2]):
        print(f"{span:40s} {median_of(span, 0):6.0f} {median_of(span, 1):9.4f} "
              f"{median_of(span, 2):9.4f}")
    cli_s = metrics["cli.main_s"][0]
    shares = [
        f"{span} {median_of(span, 1) / (jobs if span == 'simulate.rep' else 1) / cli_s:.1%}"
        for span in blocking
    ]
    shares.append(f"cli.self {metrics['cli.self_s'][0] / cli_s:.1%}")
    print("blocking-path shares of cli.main: " + ", ".join(shares))
    n_spans, cost = len(last["spans"]), last["span_cost_s"]
    print(f"tracing overhead: {n_spans} spans x {cost * 1e6:.1f} us = "
          f"{n_spans * cost:.4f} s per pass")
    if base is not None:
        print(f"traced cli.main {cli_s:.4f} s - untraced wall_s {base['wall_s']:.4f} s = "
              f"{cli_s - base['wall_s']:+.4f} s (the traced call shares its "
              "process with the replayed calls)")
        if name == "wide-star":
            print("ROADMAP baseline row: | m | k | enumerate | build matrix | "
                  "run_test (incl. build) | peak RSS | BLAS threads |")
            print(f"| 30 | {metrics['estimators.columns'][0]:,} | "
                  f"{metrics['tree.enumerate_s'][0]:.2f} s | "
                  f"{metrics['estimators.build_s'][0]:.2f} s | "
                  f"{metrics['bootstrap.run_test_s'][0]:.2f} s | "
                  f"{base['peak_rss_mb'] / 1024:.2f} GB | 1 |")
    return 1 + traced, failed, metrics


def write_reference():
    ref = {"seed": DEFAULT_SEED}
    for name in NAMES:
        job = dict(prepare(name, DEFAULT_SEED), reference=None)
        report = run_child(job, trace=False, collect_reference=True)
        if failures(report):
            raise SystemExit(f"{name}: {', '.join(failures(report))}; no reference written")
        ref[name] = report["reference"]
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "treegof", "__init__.py")):
        parser.exit(2, f"no treegof sources under {SRC}\n")
    os.makedirs(WORK, exist_ok=True)
    if args.write_reference:
        write_reference()
        return
    if args.workload is None:
        parser.error("--workload is required")
    deadline = time.monotonic() + args.seconds
    job = prepare(args.workload, args.seed)
    attempted, failed, metrics = (trace if args.trace else measure)(job, deadline)
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
