"""Output checks behind ``ok_frac``.

Each check returns a list of ``(name, passed)`` pairs.  Invariants hold
for every seed; the reference comparisons apply to the default seed,
whose outputs are stored in ``reference.json``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re

import numpy as np

EQUALITY_KINDS = ("chain", "split", "tetrad")

# s13 for one-digit indices, s3_12 otherwise (1-based observed indices)
_SYMBOL = re.compile(r"s(?:(\d+)_(\d+)|(\d)(\d))")


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def bootstrap_report(text, multipliers, expected_k, reference=None):
    """The JSON report of ``treegof test``."""
    try:
        rep = json.loads(text)
        stat, quant, p = rep["statistic"], rep["quantile"], rep["p_value"]
        reject = rep["reject"]
        k_eff, floor_hits = rep["k_effective"], rep["diag_floor_hits"]
    except (ValueError, KeyError, TypeError):
        return [("test.parse", False)]
    scaled = p * (multipliers + 1)
    out = [
        ("test.reject_matches", reject == (stat > quant)),
        ("test.p_value_grid", abs(scaled - round(scaled)) < 1e-6 and 0 < p <= 1),
        ("test.columns", k_eff + floor_hits == expected_k),
    ]
    if reference is not None:
        out += [
            ("test.ref_exact", (reject, k_eff, floor_hits) == (
                reference["reject"], reference["k_effective"],
                reference["diag_floor_hits"])),
            ("test.ref_statistic", _close(stat, reference["statistic"], 1e-9)),
            ("test.ref_quantile", _close(quant, reference["quantile"], 1e-9)),
        ]
    return out


def enumerate_csv(data, expected_counts, cov, reference_sha=None):
    """The ``treegof enumerate`` CSV (bytes).

    Row counts per kind must match the benchmark's own classification,
    and every equality polynomial must vanish, relative to the size of
    its two products, on a covariance built from the tree.
    """
    try:
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    except UnicodeDecodeError:
        return [("enumerate.parse", False)]
    if not rows or rows[0] != ["constraint_id", "kind", "indices", "polynomial"]:
        return [("enumerate.parse", False)]
    body = rows[1:]
    counts = {}
    for row in body:
        counts[row[1]] = counts.get(row[1], 0) + 1
    polys = " ".join(r[3] for r in body if r[1] in EQUALITY_KINDS)
    idx = np.array(
        [(int(a or c), int(b or d)) for a, b, c, d in _SYMBOL.findall(polys)]
    ) - 1
    vanish = False
    if idx.size and idx.shape[0] % 4 == 0:
        terms = cov[idx[:, 0], idx[:, 1]].reshape(-1, 4)
        left = terms[:, 0] * terms[:, 1]
        right = terms[:, 2] * terms[:, 3]
        vanish = bool(np.all(np.abs(left - right) <= 1e-9 * (np.abs(left) + np.abs(right))))
    out = [
        ("enumerate.counts", counts == expected_counts),
        ("enumerate.equalities_vanish", vanish),
    ]
    if reference_sha is not None:
        out.append(("enumerate.ref_bytes", hashlib.sha256(data).hexdigest() == reference_sha))
    return out


def check_metric_text(text):
    """``treegof check-metric`` on a tree metric must find no violation."""
    return [("check_metric.induced", text == "t-induced: yes\nviolations: 0\n")]


def sizes_csv(text, alphas, reps, reference=None):
    """The ``treegof simulate`` size-curve CSV."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
        ok_shape = rows[0] == ["alpha", "empirical_size", "reps"] and len(rows) == len(alphas) + 1
        got_alphas = [float(r[0]) for r in rows[1:]]
        sizes = [float(r[1]) for r in rows[1:]]
        got_reps = {int(r[2]) for r in rows[1:]}
    except (IndexError, ValueError):
        return [("simulate.parse", False)]
    out = [
        ("simulate.grid", ok_shape and got_alphas == list(alphas) and got_reps == {reps}),
        ("simulate.multiples", all(
            math.isclose(s * reps, round(s * reps), abs_tol=1e-9) and 0 <= s <= 1
            for s in sizes)),
        ("simulate.monotone", all(a <= b for a, b in zip(sizes, sizes[1:]))),
    ]
    if reference is not None:
        out.append(("simulate.ref_bytes", text == reference))
    return out
