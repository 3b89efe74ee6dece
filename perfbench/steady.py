"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steady.py [--first-seed 1]

Runs ``run.py`` on every workload of BENCHMARK.json once for each of
SEEDS seeds from ``--first-seed`` on, with its command and
``run_seconds``.  The workloads run round-robin, each
seed starting one workload further on, so that slow drift of the host
spreads over all of them.  For each workload and metric it prints the
median over seeds and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound.  Each result line is kept in perfbench/.work.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    log = os.path.join(HERE, ".work", f"steady-{int(time.time())}.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)

    values = {n: {m: [] for m in bounds} for n in names}
    for i in range(SEEDS):
        seed = args.first_seed + i
        for j in range(len(names)):
            name = names[(i + j) % len(names)]
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            took = time.monotonic() - start
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(log, "a", encoding="utf-8") as fh:
                runs = [ln for ln in proc.stdout.splitlines() if ln.startswith("wall_s per run")]
                fh.write(json.dumps({"workload": name, "seed": seed, "took_s": took,
                                     "runs": runs, **result}) + "\n")
            for metric, entry in result["metrics"].items():
                values[name][metric].append(entry["value"])
            print(f"{name} seed {seed} ({took:.0f} s): " + ", ".join(
                f"{m} {e['value']:.4g}" for m, e in result["metrics"].items()), flush=True)

    print(f"\n{'workload':14s} {'metric':12s} {'median':>10s} {'IQR/med':>8s} {'bound':>6s}")
    for name in names:
        for metric, bound in bounds.items():
            iqr, med = spread(values[name][metric])
            flag = "" if iqr < bound / 3 else "  <-- above bound/3"
            print(f"{name:14s} {metric:12s} {med:10.4f} {iqr:8.4f} {bound:6.3f}{flag}")
    print(f"results in {log}")


if __name__ == "__main__":
    main()
