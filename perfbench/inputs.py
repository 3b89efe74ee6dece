"""Seeded benchmark inputs, built with numpy alone.

Nothing here imports treegof: the program under test only ever sees the
files written below.  The same seed gives byte-identical files.

Trees are (edges, observed) pairs of string node ids.  Distances and
covariances come from one path-sum primitive: a covariance with edge
correlations rho is exp(-d) for the path sums d of -log(rho).
"""

from __future__ import annotations

import glob
import itertools
import os
import shutil

import numpy as np


def star_tree(m):
    """Latent hub ``h`` with observed leaves x1..xm."""
    observed = [f"x{i}" for i in range(1, m + 1)]
    return [("h", v) for v in observed], observed


def caterpillar_tree():
    """Nine observed variables: eight leaves and one observed inner hub.

    Spine h1 - x9 - h2 - h3 with leaves x1, x2 on h1, x3 on x9, x4, x5 on
    h2 and x6, x7, x8 on h3.  x9 lies inside observed chains, h1 | h2
    gives splits and the h3 leaves give degenerate quadruples, so chain,
    split, tetrad and sign columns all appear.
    """
    edges = [
        ("h1", "x1"), ("h1", "x2"), ("h1", "x9"),
        ("x9", "x3"), ("x9", "h2"),
        ("h2", "x4"), ("h2", "x5"), ("h2", "h3"),
        ("h3", "x6"), ("h3", "x7"), ("h3", "x8"),
    ]
    return edges, [f"x{i}" for i in range(1, 10)]


def mixed_tree(hubs=7, leaves=4):
    """Latent hubs with ``leaves`` observed leaves each, joined in a row
    through observed degree-two connectors c1..c(hubs-1)."""
    edges = []
    observed = []
    for h in range(1, hubs + 1):
        for j in range(1, leaves + 1):
            leaf = f"l{h}_{j}"
            edges.append((f"h{h}", leaf))
            observed.append(leaf)
        if h < hubs:
            edges += [(f"h{h}", f"c{h}"), (f"c{h}", f"h{h + 1}")]
            observed.append(f"c{h}")
    return edges, observed


def tree_text(edges, observed):
    lines = [f"EDGE {a} {b}" for a, b in edges]
    lines += [f"OBS {v}" for v in observed]
    return "\n".join(lines) + "\n"


def path_sums(edges, observed, weights=None):
    """m x m matrix of path sums between observed nodes.

    ``weights`` holds one value per edge, in edge order; unit weights
    (hop counts) when omitted.
    """
    if weights is None:
        weights = np.ones(len(edges))
    adj = {}
    for (a, b), w in zip(edges, weights):
        adj.setdefault(a, []).append((b, float(w)))
        adj.setdefault(b, []).append((a, float(w)))
    pos = {v: i for i, v in enumerate(observed)}
    out = np.zeros((len(observed), len(observed)))
    for i, src in enumerate(observed):
        dist = {src: 0.0}
        stack = [src]
        while stack:
            v = stack.pop()
            for w, length in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + length
                    stack.append(w)
        for v, d in dist.items():
            if v in pos:
                out[i, pos[v]] = d
    return out


def path_product_cov(edges, observed, rho):
    """Unit-variance covariance whose entries are products of edge
    correlations along paths (all correlations in (0, 1))."""
    return np.exp(-path_sums(edges, observed, -np.log(rho)))


def gaussian_rows(cov, n, rng):
    chol = np.linalg.cholesky(cov)
    return rng.standard_normal((n, cov.shape[0])) @ chol.T


def write_csv(path, names, values):
    np.savetxt(
        path, values, fmt="%.17g", delimiter=",",
        header=",".join(names), comments="",
    )


def classify(edges, observed):
    """Expected scalar-constraint counts per kind, from hop distances.

    A triple is a chain when one node's distances to the other two add
    up to theirs; a quadruple is degenerate when its three pairing sums
    agree and a split otherwise (the four-point condition on a tree).
    """
    d = path_sums(edges, observed)
    m = len(observed)
    tri = np.array(list(itertools.combinations(range(m), 3)))
    p, q, r = tri.T
    chain = (
        (d[p, q] + d[q, r] == d[p, r])
        | (d[q, p] + d[p, r] == d[q, r])
        | (d[p, r] + d[r, q] == d[p, q])
    )
    quad = np.array(list(itertools.combinations(range(m), 4)))
    a, b, c, e = quad.T
    s1 = d[a, b] + d[c, e]
    s2 = d[a, c] + d[b, e]
    s3 = d[a, e] + d[b, c]
    degenerate = (s1 == s2) & (s2 == s3)
    n_chain = int(chain.sum())
    n_star = len(tri) - n_chain
    n_deg = int(degenerate.sum())
    n_split = len(quad) - n_deg
    return {
        "chain": n_chain,
        "split": n_split,
        "tetrad": 2 * n_deg,
        "sign": len(tri),
        "triangle-bound": 3 * n_star,
        "split-bound": n_split,
    }


def _seeded_dir(root, name, seed, build):
    """Run ``build(tmpdir, rng)`` once per (name, seed) and return the
    directory; a half-written directory is never reused, and the inputs
    of the workload's other seeds are removed."""
    final = os.path.join(root, f"{name}-{seed}")
    if os.path.isdir(final):
        return final
    for old in glob.glob(os.path.join(root, f"{name}-*")):
        shutil.rmtree(old)
    tmp = final + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp, np.random.default_rng([seed, sum(map(ord, name))]))
    os.replace(tmp, final)
    return final


def _write_tree(dirname, edges, observed):
    with open(os.path.join(dirname, "tree.txt"), "w", encoding="utf-8") as fh:
        fh.write(tree_text(edges, observed))


def wide_star(root, seed, m=30, n=500):
    """Setup 1 one-factor data (unit loadings, unit noise) on a star."""

    def build(dirname, rng):
        edges, observed = star_tree(m)
        _write_tree(dirname, edges, observed)
        cov = np.ones((m, m)) + np.eye(m)
        write_csv(os.path.join(dirname, "data.csv"), observed,
                  gaussian_rows(cov, n, rng))

    return _seeded_dir(root, "wide-star", seed, build)


def tall_all(root, seed, n=120_000):
    """Many rows of caterpillar data with random edge correlations."""

    def build(dirname, rng):
        edges, observed = caterpillar_tree()
        _write_tree(dirname, edges, observed)
        rho = rng.uniform(0.6, 0.9, size=len(edges))
        cov = path_product_cov(edges, observed, rho)
        write_csv(os.path.join(dirname, "data.csv"), observed,
                  gaussian_rows(cov, n, rng))

    return _seeded_dir(root, "tall-all", seed, build)


def tree_tools(root, seed):
    """The mixed tree and its path-sum metric under random weights."""

    def build(dirname, rng):
        edges, observed = mixed_tree()
        _write_tree(dirname, edges, observed)
        weights = rng.uniform(0.1, 1.0, size=len(edges))
        np.save(os.path.join(dirname, "weights.npy"), weights)
        write_csv(os.path.join(dirname, "delta.csv"), observed,
                  path_sums(edges, observed, weights))

    return _seeded_dir(root, "tree-tools", seed, build)
