"""Latent tree graphs and the covariance constraints they induce.

An undirected tree together with an ordered list of observed nodes.
Unobserved (latent) nodes must have degree at least three, so every leaf
and every degree-two node carries an observed variable.  Observed triples
classify as chains or stars, observed quadruples as split or degenerate
configurations, and those classes determine a system of polynomial
equality and inequality constraints that a covariance matrix satisfies
exactly when it arises from some Gaussian parameterization of the tree.

Both classes are read off the observed hop-distance matrix (Buneman's
four-point condition with unit edge weights), and the constraint system
is held as integer arrays, one row per scalar term.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TreeError",
    "LatentTree",
    "ConstraintSystem",
    "enumerate_constraints",
    "parse_tree",
    "load_tree",
]


class TreeError(ValueError):
    """Malformed tree structure or tree file."""


def _norm_edge(a, b):
    return (a, b) if str(a) <= str(b) else (b, a)


def _edge_sort_key(e):
    return (str(e[0]), str(e[1]))


class LatentTree:
    """Undirected tree with an ordered observed-node labeling.

    Parameters
    ----------
    edges : iterable of (id, id)
        Unordered node pairs.  Ids may be any hashable; the file parser
        produces strings.
    observed : sequence of ids
        Observed nodes in variable order; position ``k`` in this sequence
        is variable ``k`` everywhere downstream (data columns, constraint
        indices).

    Raises
    ------
    TreeError
        If the graph is not a tree, an unobserved node has degree below
        three, or the observed labeling repeats a node.
    """

    def __init__(self, edges, observed):
        edge_list = []
        seen = set()
        adj: dict = {}
        for a, b in edges:
            if a == b:
                raise TreeError(f"self-loop at node {a!r}")
            e = _norm_edge(a, b)
            if e in seen:
                raise TreeError(f"duplicate edge {e!r}")
            seen.add(e)
            edge_list.append(e)
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        observed = tuple(observed)
        if len(set(observed)) != len(observed):
            raise TreeError("observed labeling repeats a node")
        nodes = set(adj)
        nodes.update(observed)
        if not nodes:
            raise TreeError("empty tree")
        for v in observed:
            adj.setdefault(v, [])
        if len(edge_list) != len(nodes) - 1:
            raise TreeError(
                f"{len(edge_list)} edges for {len(nodes)} nodes is not a tree"
            )
        start = next(iter(nodes))
        reached = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if reached != nodes:
            raise TreeError("graph is not connected")
        obs_set = frozenset(observed)
        for v in nodes:
            if len(adj[v]) <= 2 and v not in obs_set:
                raise TreeError(
                    f"unobserved node {v!r} has degree {len(adj[v])}, needs >= 3"
                )
        self._adj = {v: tuple(ws) for v, ws in adj.items()}
        self.edges = tuple(sorted(edge_list, key=_edge_sort_key))
        self.observed = observed

    @property
    def m(self) -> int:
        return len(self.observed)

    def neighbors(self, v) -> tuple:
        return self._adj[v]


def _edge_map(tree: LatentTree, values, what: str) -> dict:
    """A user's edge -> value mapping keyed by normalized edge, as floats.

    Raises ValueError for a key that is not an edge of ``tree``, an edge
    given in both orientations, or an edge with no value ("missing
    {what} for edge ...").
    """
    edges = set(tree.edges)
    out = {}
    for (a, b), value in values.items():
        e = _norm_edge(a, b)
        if e not in edges:
            raise ValueError(f"({a!r}, {b!r}) is not an edge of the tree")
        if e in out:
            raise ValueError(f"edge ({a!r}, {b!r}) is given in both orientations")
        out[e] = float(value)
    missing = [e for e in tree.edges if e not in out]
    if missing:
        raise ValueError(f"missing {what} for edge {missing[0]!r}")
    return out


def _path_fold(tree: LatentTree, edge_values, op, unit) -> np.ndarray:
    """Fold per-edge values along every observed-to-observed path.

    Entry (i, j), i < j, is ``op(...op(op(unit, v1), v2)..., vk)`` over
    the values of the path's edges in walk order from observed node i to
    observed node j; the matrix is symmetric with ``unit`` on the
    diagonal.  ``edge_values`` maps normalized edges to values.  Summing
    ones gives hop counts, summing weights path lengths, multiplying
    correlations path products.  The fixed order keeps floating-point
    results independent of string hashing.
    """
    m = tree.m
    out = [[unit] * m for _ in range(m)]
    for i, src in enumerate(tree.observed):
        acc = {src: unit}
        queue = [src]
        for v in queue:
            for w in tree.neighbors(v):
                if w not in acc:
                    acc[w] = op(acc[v], edge_values[_norm_edge(v, w)])
                    queue.append(w)
        for j in range(i + 1, m):
            out[i][j] = out[j][i] = acc[tree.observed[j]]
    return np.array(out)


def _combinations(m: int, k: int) -> np.ndarray:
    """Every k-subset of range(m) as a sorted row, in lexicographic order."""
    rows = np.arange(m, dtype=np.intp)[:, None]
    for _ in range(k - 1):
        grow = m - 1 - rows[:, -1]
        prev = np.repeat(rows, grow, axis=0)
        offset = np.arange(len(prev)) - np.repeat(np.cumsum(grow) - grow, grow)
        rows = np.hstack([prev, (prev[:, -1] + 1 + offset)[:, None]])
    return rows


# the pairings p q|r s, p r|q s and p s|q r of a sorted quadruple, as
# column positions (block 1, block 2)
_PAIRINGS = np.array([[0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 1, 2]])


def _pairing_sums(d: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """d_ab + d_cd for the three pairings ab|cd of every quadruple row."""
    q = quads[:, _PAIRINGS]
    return d[q[..., 0], q[..., 1]] + d[q[..., 2], q[..., 3]]


def _classify(tree: LatentTree):
    """Chain/star class of every observed triple and split/degenerate
    class of every observed quadruple.

    With unit edge weights, a triple is a chain with middle q exactly
    when d_pq + d_qr = d_pr, and a quadruple is a split exactly when one
    pairing sum is strictly smallest (that pairing's two paths share no
    edge); it is degenerate when all three sums agree.

    Returns
    -------
    chains : (c, 3) rows (a, middle, b) with a < b
    stars : (t, 3) sorted rows
    quads : (C(m, 4), 4) sorted rows, lexicographic
    pairing : per quadruple, the index into ``_PAIRINGS`` of its split,
        or -1 when degenerate

    Chains, stars and quadruples each follow lexicographic order.
    """
    hops = _path_fold(tree, dict.fromkeys(tree.edges, 1), operator.add, 0)
    tri = _combinations(tree.m, 3)
    p, q, r = tri.T
    is_mid = np.stack(
        [
            hops[q, p] + hops[p, r] == hops[q, r],
            hops[p, q] + hops[q, r] == hops[p, r],
            hops[p, r] + hops[r, q] == hops[p, q],
        ],
        axis=1,
    )
    chain = is_mid.any(axis=1)
    order = np.array([[1, 0, 2], [0, 1, 2], [0, 2, 1]])[is_mid.argmax(axis=1)]
    chains = np.take_along_axis(tri, order, axis=1)[chain]
    quads = _combinations(tree.m, 4)
    sums = _pairing_sums(hops, quads)
    lowest = sums == sums.min(axis=1, keepdims=True)
    pairing = np.where(lowest.sum(axis=1) == 1, lowest.argmax(axis=1), -1)
    return chains, tri[~chain], quads, pairing


# kind codes: equalities first, each side in listing rank
KINDS = ("chain", "split", "tetrad", "sign", "triangle-bound", "split-bound")
CHAIN, SPLIT, TETRAD, SIGN, TRIANGLE, SPLIT_BOUND = range(len(KINDS))

_ROW_BLOCK = 4096


def _sym(i: int, j: int) -> str:
    a, b = (i, j) if i <= j else (j, i)
    a += 1
    b += 1
    if a < 10 and b < 10:
        return f"s{a}{b}"
    return f"s{a}_{b}"


def _polynomials(sym: np.ndarray, kinds: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Polynomial text of each term from its kind and index row
    (a, b, c, d), given the s_ij names ``sym``: the tetrad form
    s_ab*s_cd - s_ad*s_cb, its squared bound, and -s_ab*s_ac*s_bc for a
    sign term.  Chain and triangle-bound rows print s_cb before s_ad.  A
    sign row's d is -1, and the four-term text built for it is dropped."""
    add = np.char.add
    a, b, c, d = index.T
    power = np.where(kinds >= TRIANGLE, "^2", "")
    cb_first = (kinds == CHAIN) | (kinds == TRIANGLE)
    ad, cb = add(sym[a, d], power), add(sym[c, b], power)
    left = add(add(add(sym[a, b], power), "*"), add(sym[c, d], power))
    right = add(add(np.where(cb_first, cb, ad), "*"), np.where(cb_first, ad, cb))
    sign = add(add(add("-", sym[a, b]), "*"), add(add(sym[a, c], "*"), sym[b, c]))
    return np.where(kinds == SIGN, sign, add(add(left, " - "), right))


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """Scalar constraint terms of one latent tree, in canonical order.

    ``kinds[t]`` is the code of term t (a position in ``KINDS``) and
    ``index[t]`` its four variable indices (a, b, c, d):

    - chain, split and tetrad equalities: s_ab*s_cd - s_ad*s_cb = 0; a
      chain with middle q is (a, q, q, b), a split ab|cd is (a, c, b, d),
      and a degenerate quadruple p<q<r<s gives (p, s, q, r) and
      (p, q, s, r);
    - triangle and split bounds: s_ab^2*s_cd^2 - s_ad^2*s_cb^2 <= 0; a
      star triple gives (a, v, v, b) per pivot v, a split ab|cd gives
      (a, c, d, b);
    - sign: (p, q, r, -1), with -s_pq*s_pr*s_qr <= 0.

    Equalities come first; each side is ordered by the term's sorted
    variable tuple, then by kind, then by pivot (the middle, last and
    first variable of a star triple) or tetrad order.
    """

    m: int
    kinds: np.ndarray
    index: np.ndarray

    @property
    def n_equality_terms(self) -> int:
        return int(np.count_nonzero(self.kinds < SIGN))

    @property
    def n_inequality_terms(self) -> int:
        return len(self.kinds) - self.n_equality_terms

    def equality_column_pairs(self) -> np.ndarray:
        """(k, 4) rows (a, b, c, d), one per equality term, each standing
        for s_ab*s_cd - s_ad*s_cb."""
        return self.index[: self.n_equality_terms]

    def sign_triples(self) -> np.ndarray:
        """(p, q, r) rows of the sign inequalities, in canonical order."""
        return self.index[self.kinds == SIGN, :3]

    def equality_residuals(self, cov) -> np.ndarray:
        """Equality polynomials evaluated on a symmetric matrix."""
        cov = np.asarray(cov, dtype=float)
        a, b, c, d = self.equality_column_pairs().T
        return cov[a, b] * cov[c, d] - cov[a, d] * cov[c, b]

    def inequality_values(self, cov) -> np.ndarray:
        """Less-than forms on a symmetric matrix; each entry should be
        <= 0 on-model."""
        cov = np.asarray(cov, dtype=float)
        n_eq = self.n_equality_terms
        sign = self.kinds[n_eq:] == SIGN
        rows = self.index[n_eq:]
        out = np.empty(len(rows))
        p, q, r, _ = rows[sign].T
        out[sign] = -(cov[p, q] * cov[p, r] * cov[q, r])
        a, b, c, d = rows[~sign].T
        out[~sign] = cov[a, b] ** 2 * cov[c, d] ** 2 - cov[a, d] ** 2 * cov[c, b] ** 2
        return out

    def listing_blocks(self):
        """The listing, ``_ROW_BLOCK`` terms at a time: per block the kind
        codes, the sorted variables as rows of four padded with ``m``,
        the number of variables per row and the polynomial texts."""
        sym = np.array([[_sym(i, j) for j in range(self.m)] for i in range(self.m)])
        for start in range(0, len(self.kinds), _ROW_BLOCK):
            kinds = self.kinds[start : start + _ROW_BLOCK]
            index = self.index[start : start + _ROW_BLOCK]
            variables = np.sort(index, axis=1)
            # a three-variable term repeats a variable or pads with -1:
            # move that slot last and cut it off
            spare = np.c_[variables[:, :1] < 0, variables[:, 1:] == variables[:, :-1]]
            variables[spare] = self.m
            variables.sort(axis=1)
            yield kinds, variables, 4 - spare.sum(axis=1), _polynomials(sym, kinds, index)

    def scalar_rows(self):
        """(side, kind, indices, polynomial) per scalar term, for listings;
        ``indices`` are the term's sorted variables."""
        for kinds, variables, width, polynomials in self.listing_blocks():
            for kind, var, w, poly in zip(
                kinds.tolist(), variables.tolist(), width.tolist(), polynomials.tolist()
            ):
                side = "equality" if kind < SIGN else "inequality"
                yield (side, KINDS[kind], tuple(var[:w]), poly)


def enumerate_constraints(tree: LatentTree) -> ConstraintSystem:
    """Build the full constraint system for a latent tree.

    Every triple contributes a sign constraint; star triples add the three
    pivot bounds; chain triples add the chain equality instead.  Every
    quadruple contributes either the split equality plus its bound or, in
    the degenerate case, two tetrad equalities.

    Raises
    ------
    TreeError
        If fewer than three observed variables.
    """
    if tree.m < 3:
        raise TreeError("constraint enumeration needs at least 3 observed nodes")
    chains, stars, quads, pairing = _classify(tree)
    # sort keys of three-variable terms: the sorted triple, then -1
    chain_key = np.c_[np.sort(chains, axis=1), np.full(len(chains), -1)]
    star_key = np.c_[stars, np.full(len(stars), -1)]
    split, degenerate = quads[pairing >= 0], quads[pairing < 0]
    # blocks ab|cd of each split, min-first
    a, b, c, d = np.take_along_axis(split, _PAIRINGS[pairing[pairing >= 0]], axis=1).T
    p, q, r = stars.T
    w, x, y, z = degenerate.T
    # (kind, tie-break, index rows, sort key) per family of terms
    families = [
        (CHAIN, 0, chains[:, [0, 1, 1, 2]], chain_key),
        (SIGN, 0, chain_key, chain_key),
        (SIGN, 0, star_key, star_key),
        (SPLIT, 0, np.c_[a, c, b, d], split),
        (SPLIT_BOUND, 0, np.c_[a, c, d, b], split),
        (TRIANGLE, 0, np.c_[p, q, q, r], star_key),
        (TRIANGLE, 1, np.c_[p, r, r, q], star_key),
        (TRIANGLE, 2, np.c_[q, p, p, r], star_key),
        (TETRAD, 0, np.c_[w, z, x, y], degenerate),
        (TETRAD, 1, np.c_[w, x, z, y], degenerate),
    ]
    kinds = np.concatenate([np.full(len(f[3]), f[0], dtype=np.int8) for f in families])
    subs = np.concatenate([np.full(len(f[3]), f[1]) for f in families])
    index = np.concatenate([f[2] for f in families])
    keys = np.concatenate([f[3] for f in families])
    order = np.lexsort((subs, kinds, *keys.T[::-1], kinds >= SIGN))
    return ConstraintSystem(tree.m, kinds[order], index[order])


def parse_tree(text: str) -> LatentTree:
    """Parse the line-oriented tree format.

    Lines are ``EDGE <id> <id>`` or ``OBS <id>`` (one per observed node,
    order significant); ``#`` starts a comment line; blank lines are
    ignored.  Raises TreeError with a line number on malformed input.
    """
    edges = []
    seen_edges = set()
    observed = []
    seen_obs = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "EDGE":
            if len(tokens) != 3:
                raise TreeError(f"line {lineno}: EDGE needs exactly two node ids")
            a, b = tokens[1], tokens[2]
            if a == b:
                raise TreeError(f"line {lineno}: self-loop at {a!r}")
            e = _norm_edge(a, b)
            if e in seen_edges:
                raise TreeError(f"line {lineno}: duplicate edge {a!r} {b!r}")
            seen_edges.add(e)
            edges.append((a, b))
        elif tokens[0] == "OBS":
            if len(tokens) != 2:
                raise TreeError(f"line {lineno}: OBS needs exactly one node id")
            v = tokens[1]
            if v in seen_obs:
                raise TreeError(f"line {lineno}: duplicate OBS {v!r}")
            seen_obs.add(v)
            observed.append(v)
        else:
            raise TreeError(f"line {lineno}: unknown directive {tokens[0]!r}")
    try:
        return LatentTree(edges, observed)
    except TreeError as exc:
        raise TreeError(f"tree invariant violated: {exc}") from exc


def load_tree(path) -> LatentTree:
    """Read a tree file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree(fh.read())
