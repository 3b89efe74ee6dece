"""Shared tree builders for the test suite.

The corpus:

  star_tree(m)       hub ``h`` with leaves ``x1 .. xm``, observed in leaf
                     order.  Every triple is a star, every quadruple
                     degenerate.
  observed_chain(k)  path ``1 - 2 - ... - k`` with every node observed.
  caterpillar()      latent hubs ``5`` and ``6`` joined by an edge, leaves
                     1, 3 under 5 and 2, 4 under 6; observed order 1, 2,
                     3, 4.  The quadruple splits {1,3} | {2,4}.
  inner_node_tree()  latent ``4`` with leaves 1 and 2; observed ``5``
                     adjacent to 4 and to leaf 3; observed order 1, 2,
                     3, 5.  Node 5 sits inside two observed chains.
  mixed_tree(h, l)   latent hubs ``h1 .. hh`` with ``l`` observed leaves
                     each, joined in a row through observed degree-two
                     connectors ``c1 .. c(h-1)``: chains, splits, stars
                     and degenerate quadruples all occur.

random_latent_tree draws a uniform labeled tree from its sequence
encoding, forces degree <= 2 nodes to be observed, promotes higher-degree
nodes with probability one half, and rejects until the observed count
lands in the requested range.

reference_classes classifies observed triples and quadruples by walking
paths, independently of the package's distance-based classification.

reference_listing gives the (kind, indices, polynomial) rows of a
constraint system one term at a time, from the per-row polynomial
formulas, independently of the package's block formatter.

product_columns gives estimate columns as the plain product expressions
on row-major data, independently of the package's buffered builder.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from treegof.tree import KINDS, LatentTree


def star_tree(m: int) -> LatentTree:
    leaves = [f"x{i}" for i in range(1, m + 1)]
    return LatentTree([("h", leaf) for leaf in leaves], leaves)


def observed_chain(k: int) -> LatentTree:
    ids = [str(i) for i in range(1, k + 1)]
    return LatentTree(list(zip(ids, ids[1:])), ids)


def caterpillar() -> LatentTree:
    edges = [("1", "5"), ("3", "5"), ("2", "6"), ("4", "6"), ("5", "6")]
    return LatentTree(edges, ["1", "2", "3", "4"])


def inner_node_tree() -> LatentTree:
    edges = [("1", "4"), ("2", "4"), ("4", "5"), ("3", "5")]
    return LatentTree(edges, ["1", "2", "3", "5"])


def mixed_tree(hubs: int, leaves: int) -> LatentTree:
    edges, observed = [], []
    for h in range(1, hubs + 1):
        for j in range(1, leaves + 1):
            edges.append((f"h{h}", f"l{h}_{j}"))
            observed.append(f"l{h}_{j}")
        if h < hubs:
            edges += [(f"h{h}", f"c{h}"), (f"c{h}", f"h{h + 1}")]
            observed.append(f"c{h}")
    return LatentTree(edges, observed)


def _edges_from_sequence(seq, n):
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return edges


def random_latent_tree(rng: np.random.Generator, m_lo=3, m_hi=6, n_hi=10):
    """Random latent tree with between m_lo and m_hi observed nodes."""
    while True:
        n = int(rng.integers(3, n_hi + 1))
        seq = [int(v) for v in rng.integers(0, n, size=n - 2)]
        edges = _edges_from_sequence(seq, n)
        degree = [0] * n
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        observed = [v for v in range(n) if degree[v] <= 2]
        for v in range(n):
            if degree[v] >= 3 and rng.random() < 0.5:
                observed.append(v)
        observed.sort()
        if not m_lo <= len(observed) <= m_hi:
            continue
        str_edges = [(str(a), str(b)) for a, b in edges]
        return LatentTree(str_edges, [str(v) for v in observed])


def _path(tree: LatentTree, a, b) -> list:
    """Nodes of the path from ``a`` to ``b``, both included."""
    parent = {a: None}
    queue = [a]
    for v in queue:
        for w in tree.neighbors(v):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return path


def reference_classes(tree: LatentTree):
    """Chains and splits of the observed variables, by the path rule.

    A triple is a chain when one of its nodes lies inside the path
    between the other two; a quadruple is a split when exactly one of
    its three pairings has edge-disjoint paths, and degenerate when all
    three do.  Returns ``{sorted triple: middle}`` over the chains and
    ``{sorted quadruple: blocks or None}`` with split blocks as two
    sorted pairs, the one holding the smallest index first.
    """
    ids = tree.observed
    paths = {}
    for i, j in itertools.combinations(range(tree.m), 2):
        nodes = _path(tree, ids[i], ids[j])
        paths[i, j] = (set(nodes[1:-1]), {frozenset(e) for e in zip(nodes, nodes[1:])})
    chains = {}
    for tri in itertools.combinations(range(tree.m), 3):
        for mid in tri:
            a, b = (i for i in tri if i != mid)
            if ids[mid] in paths[a, b][0]:
                chains[tri] = mid
    quads = {}
    for p, q, r, s in itertools.combinations(range(tree.m), 4):
        disjoint = [
            blocks
            for blocks in (((p, q), (r, s)), ((p, r), (q, s)), ((p, s), (q, r)))
            if not paths[blocks[0]][1] & paths[blocks[1]][1]
        ]
        assert len(disjoint) in (1, 3)
        quads[p, q, r, s] = disjoint[0] if len(disjoint) == 1 else None
    return chains, quads


def _s(i: int, j: int) -> str:
    a, b = sorted((i + 1, j + 1))
    return f"s{a}{b}" if b < 10 else f"s{a}_{b}"


# polynomial text of a term from its index row (a, b, c, d): the tetrad
# form, its squared bound and the negated triple product over (a, b, c)
REFERENCE_POLYNOMIALS = {
    "chain": lambda a, b, c, d: f"{_s(a, b)}*{_s(c, d)} - {_s(c, b)}*{_s(a, d)}",
    "split": lambda a, b, c, d: f"{_s(a, b)}*{_s(c, d)} - {_s(a, d)}*{_s(c, b)}",
    "tetrad": lambda a, b, c, d: f"{_s(a, b)}*{_s(c, d)} - {_s(a, d)}*{_s(c, b)}",
    "sign": lambda a, b, c, d: f"-{_s(a, b)}*{_s(a, c)}*{_s(b, c)}",
    "triangle-bound": lambda a, b, c, d: (
        f"{_s(a, b)}^2*{_s(c, d)}^2 - {_s(c, b)}^2*{_s(a, d)}^2"
    ),
    "split-bound": lambda a, b, c, d: (
        f"{_s(a, b)}^2*{_s(c, d)}^2 - {_s(a, d)}^2*{_s(c, b)}^2"
    ),
}


def reference_listing(system):
    """(kind, sorted variables, polynomial) per term, row by row."""
    for code, row in zip(system.kinds.tolist(), system.index.tolist()):
        kind = KINDS[code]
        variables = tuple(sorted({v for v in row if v >= 0}))
        yield kind, variables, REFERENCE_POLYNOMIALS[kind](*row)


def product_columns(x, quads, triples, rows):
    """Difference columns of the (a, b, c, d) rows ``quads``, then the
    negated monomial columns of the (p, q, r) rows ``triples``, on the
    first ``rows`` estimates of the data ``x``, gathered from C-ordered
    rows with one product expression each."""
    x = np.ascontiguousarray(x)
    a, b, c, d = np.asarray(quads, dtype=np.intp).reshape(-1, 4).T
    u, v = x[:rows], x[1 : rows + 1]
    eq = u[:, a] * u[:, b] * v[:, c] * v[:, d] - u[:, a] * u[:, d] * v[:, c] * v[:, b]
    if len(triples) == 0:
        return eq
    p, q, r = np.asarray(triples, dtype=np.intp).T
    w0, w1, w2 = x[:rows], x[1 : rows + 1], x[2 : rows + 2]
    mono = w0[:, p] * w0[:, q] * w1[:, p] * w1[:, r] * w2[:, q] * w2[:, r]
    return np.hstack([eq, -mono])
