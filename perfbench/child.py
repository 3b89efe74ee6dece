"""One cold run of a workload in a fresh interpreter.

    python child.py SPEC

SPEC is a JSON object with ``workload``, ``seed``, ``calls`` (argument
lists for ``treegof.cli.main``), ``inputs`` and ``out`` (directories),
``reference`` (the stored outputs of the default seed, or null),
``report`` (where to write the result as JSON), ``trace`` (replay the
workload with spans instead of timing the bare calls) and
``collect_reference`` (add the outputs to store as the reference).  The
CLI writes its standard output to this process's standard output.

The outputs are checked here, after the measurement: checking them in
the benchmark's own process would raise its peak RSS, and on Linux a
child's ``ru_maxrss`` starts at the peak of the process that started it.

Entry code sits under the ``__main__`` check: ``simulate --jobs`` starts
spawn workers, which import this module again.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

import numpy as np

import treegof
from treegof import cli


def peak_rss_mb():
    """Peak RSS of this process or of any waited-for child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    pinned = " ".join(
        f"{k}={v}" for k, v in sorted(os.environ.items())
        if k.endswith("_NUM_THREADS") or k == "NUMPY_MADVISE_HUGEPAGE"
    )
    return (f"python {platform.python_version()}, numpy {np.__version__}, BLAS {blas}, "
            f"{pinned}, nproc {len(os.sched_getaffinity(0))} of {os.cpu_count()} CPUs")


def failed_checks(workload, spec, report):
    """Names of the failed output checks; empty when all passed."""
    found = [f"exit code {c}" for c in report["codes"] if c != 0]
    if report.get("replay_matches") is False:
        found.append("replay differs from the CLI")
    try:
        results = workload.check(spec["inputs"], spec["out"], spec["reference"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return found + [f"check raised {exc!r}"]
    return found + [name for name, ok in results if not ok]


def main():
    spec = json.loads(sys.argv[1])
    if spec["trace"]:
        import traced

        report = traced.run(spec)
    else:
        start = time.perf_counter()
        codes = [cli.main(argv) for argv in spec["calls"]]
        report = {"wall_s": time.perf_counter() - start, "codes": codes}
        sys.stdout.flush()
    report.update(peak_rss_mb=peak_rss_mb(), module=treegof.__file__, env=environment())
    # imported after the measurement, so that spawn workers do not load it
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    report["failed"] = failed_checks(workload, spec, report)
    if spec["collect_reference"] and not report["failed"]:
        report["reference"] = workload.reference(spec["inputs"], spec["out"])
    with open(spec["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
