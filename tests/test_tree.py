"""Structure, classification, and constraint enumeration for latent trees."""

from __future__ import annotations

import itertools
import operator
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _path,
    caterpillar,
    inner_node_tree,
    mixed_tree,
    observed_chain,
    random_latent_tree,
    reference_classes,
    reference_listing,
    star_tree,
)
import treegof.tree as treemod
from treegof.tree import (
    _PAIRINGS,
    CHAIN,
    KINDS,
    SIGN,
    SPLIT,
    SPLIT_BOUND,
    TETRAD,
    TRIANGLE,
    LatentTree,
    TreeError,
    _combinations,
    _pairing_sums,
    _path_fold,
    enumerate_constraints,
    parse_tree,
)


def test_rejects_unobserved_low_degree_node():
    with pytest.raises(TreeError, match="degree"):
        LatentTree([("a", "b"), ("b", "c")], ["a", "c"])


def test_rejects_cycle():
    edges = [("a", "b"), ("b", "c"), ("c", "a")]
    with pytest.raises(TreeError, match="not a tree"):
        LatentTree(edges, ["a", "b", "c"])


def test_rejects_disconnected():
    edges = [("a", "b"), ("c", "d"), ("e", "f")]
    with pytest.raises(TreeError):
        LatentTree(edges, ["a", "b", "c", "d", "e", "f"])


def test_rejects_self_loop_and_duplicate_edge():
    with pytest.raises(TreeError, match="self-loop"):
        LatentTree([("a", "a")], ["a"])
    with pytest.raises(TreeError, match="duplicate"):
        LatentTree([("a", "b"), ("b", "a")], ["a", "b"])


def test_rejects_repeated_observed_label():
    with pytest.raises(TreeError, match="repeats"):
        LatentTree([("a", "b")], ["a", "a"])


def _walks(tree):
    """Every observed-to-observed path as its edges in walk order."""
    labels = {e: f"{e[0]}{e[1]} " for e in tree.edges}
    return _path_fold(tree, labels, operator.add, "")


def test_path_edges_through_hub():
    walks = _walks(star_tree(3))
    assert walks[0, 2] == walks[2, 0] == "hx1 hx3 "
    assert walks[1, 2] == "hx2 hx3 "
    assert walks[0, 0] == ""


def test_path_edges_along_chain():
    walks = _walks(observed_chain(4))
    assert walks[0, 3] == "12 23 34 "
    # folded from the smaller observed index on both sides of the diagonal
    assert walks[3, 1] == walks[1, 3] == "23 34 "


def _terms(system):
    """(kind, index row) per scalar term, in canonical order."""
    return [
        (KINDS[k], tuple(row))
        for k, row in zip(system.kinds.tolist(), system.index.tolist())
    ]


def _chains(system):
    """{sorted triple: middle} read from the chain rows (a, q, q, b)."""
    return {
        tuple(sorted((a, q, b))): q
        for kind, (a, q, _, b) in _terms(system)
        if kind == "chain"
    }


def _splits(system):
    """{sorted quadruple: blocks} read from the split rows (a, c, b, d)
    of the blocks ab|cd."""
    return {
        tuple(sorted(row)): ((row[0], row[2]), (row[1], row[3]))
        for kind, row in _terms(system)
        if kind == "split"
    }


def test_classify_triple_star_and_chain():
    assert _chains(enumerate_constraints(star_tree(4))) == {}
    assert _chains(enumerate_constraints(observed_chain(3))) == {(0, 1, 2): 1}

    # middle detection does not depend on the observed order
    relabelled = LatentTree(observed_chain(3).edges, ["3", "1", "2"])
    assert _chains(enumerate_constraints(relabelled)) == {(0, 1, 2): 2}


def test_classify_triple_inner_observed_node():
    system = enumerate_constraints(inner_node_tree())
    chains = _chains(system)
    assert (0, 1, 2) not in chains
    assert chains[(0, 2, 3)] == 3


def test_classify_quadruple_star_is_degenerate():
    system = enumerate_constraints(star_tree(4))
    assert _splits(system) == {}
    assert [row for kind, row in _terms(system) if kind == "tetrad"] == [
        (0, 3, 1, 2),
        (0, 1, 3, 2),
    ]


def test_classify_quadruple_caterpillar_split():
    assert _splits(enumerate_constraints(caterpillar())) == {
        (0, 1, 2, 3): ((0, 2), (1, 3))
    }


def test_classify_quadruple_chain_split():
    assert _splits(enumerate_constraints(observed_chain(4))) == {
        (0, 1, 2, 3): ((0, 1), (2, 3))
    }


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_classified_split_matches_direct_path_check(seed):
    tree = random_latent_tree(np.random.default_rng(seed), m_lo=3, m_hi=10, n_hi=14)
    chains, quads = reference_classes(tree)
    system = enumerate_constraints(tree)
    assert _chains(system) == chains
    assert _splits(system) == {q: b for q, b in quads.items() if b is not None}
    tetrads = {tuple(sorted(row)) for kind, row in _terms(system) if kind == "tetrad"}
    assert tetrads == {q for q, b in quads.items() if b is None}


def _restricted(tree, ids):
    """The tree spanned by the observed nodes ``ids``, observed in that
    order, with its unobserved degree-two nodes suppressed."""
    nodes = set()
    for a, b in itertools.combinations(ids, 2):
        nodes.update(_path(tree, a, b))
    adj = {v: {w for w in tree.neighbors(v) if w in nodes} for v in nodes}
    for v in [v for v in nodes if v not in ids and len(adj[v]) == 2]:
        a, b = adj.pop(v)
        adj[a] = (adj[a] - {v}) | {b}
        adj[b] = (adj[b] - {v}) | {a}
    edges = {(a, b) for a in adj for b in adj[a] if str(a) < str(b)}
    return LatentTree(edges, ids)


def test_classification_survives_restriction():
    rng = np.random.default_rng(7180)
    for _ in range(25):
        tree = random_latent_tree(rng, m_lo=4, m_hi=6)
        ids = tree.observed
        system = enumerate_constraints(tree)
        chains, splits = _chains(system), _splits(system)
        for quad in itertools.combinations(range(tree.m), 4):
            sub = enumerate_constraints(_restricted(tree, [ids[i] for i in quad]))
            sub_splits = _splits(sub)
            if quad in splits:
                blocks = {tuple(quad[i] for i in b) for b in sub_splits[0, 1, 2, 3]}
                assert blocks == set(splits[quad])
            else:
                assert sub_splits == {}
        for tri in itertools.combinations(range(tree.m), 3):
            sub = enumerate_constraints(_restricted(tree, [ids[i] for i in tri]))
            sub_chains = _chains(sub)
            if tri in chains:
                assert tri[sub_chains[0, 1, 2]] == chains[tri]
            else:
                assert sub_chains == {}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_relabelling_observed_order_keeps_constraint_rows(seed, data):
    tree = random_latent_tree(np.random.default_rng(seed), m_lo=3, m_hi=10, n_hi=14)
    relabelled = LatentTree(tree.edges, data.draw(st.permutations(tree.observed)))

    def rows(t):
        return Counter(
            (kind, frozenset(t.observed[i] for i in indices))
            for _, kind, indices, _ in enumerate_constraints(t).scalar_rows()
        )

    assert rows(relabelled) == rows(tree)


def test_chain_of_three_constraint_system():
    sys = enumerate_constraints(observed_chain(3))
    assert _terms(sys) == [("chain", (0, 1, 1, 2)), ("sign", (0, 1, 2, -1))]
    assert sys.n_equality_terms == 1
    assert sys.n_inequality_terms == 1


def test_observed_chain_four_constraint_system():
    sys = enumerate_constraints(observed_chain(4))
    assert [(kind, indices) for _, kind, indices, _ in sys.scalar_rows()] == [
        ("chain", (0, 1, 2)),
        ("split", (0, 1, 2, 3)),
        ("chain", (0, 1, 3)),
        ("chain", (0, 2, 3)),
        ("chain", (1, 2, 3)),
        ("sign", (0, 1, 2)),
        ("split-bound", (0, 1, 2, 3)),
        ("sign", (0, 1, 3)),
        ("sign", (0, 2, 3)),
        ("sign", (1, 2, 3)),
    ]
    assert [row[1] for kind, row in _terms(sys) if kind == "chain"] == [1, 1, 2, 2]


def test_inner_node_tree_constraint_order():
    sys = enumerate_constraints(inner_node_tree())
    rows = list(sys.scalar_rows())
    summary = [(kind, indices) for side, kind, indices, _ in rows if side == "equality"]
    assert summary == [
        ("split", (0, 1, 2, 3)),
        ("chain", (0, 2, 3)),
        ("chain", (1, 2, 3)),
    ]
    assert _splits(sys) == {(0, 1, 2, 3): ((0, 1), (2, 3))}
    assert set(_chains(sys).values()) == {3}

    detail = [
        (kind, indices, index[1] if kind == "triangle-bound" else None)
        for (side, kind, indices, _), index in zip(rows, sys.index.tolist())
        if side == "inequality"
    ]
    assert detail == [
        ("sign", (0, 1, 2), None),
        ("triangle-bound", (0, 1, 2), 1),
        ("triangle-bound", (0, 1, 2), 2),
        ("triangle-bound", (0, 1, 2), 0),
        ("split-bound", (0, 1, 2, 3), None),
        ("sign", (0, 1, 3), None),
        ("triangle-bound", (0, 1, 3), 1),
        ("triangle-bound", (0, 1, 3), 3),
        ("triangle-bound", (0, 1, 3), 0),
        ("sign", (0, 2, 3), None),
        ("sign", (1, 2, 3), None),
    ]


@pytest.mark.parametrize(
    "m,n_tetrads",
    [(4, 2), (5, 10), (8, 140), (20, 9690)],
)
def test_star_tetrad_counts(m, n_tetrads):
    sys = enumerate_constraints(star_tree(m))
    assert {KINDS[k] for k in sys.kinds[: sys.n_equality_terms]} == {"tetrad"}
    assert sys.n_equality_terms == n_tetrads
    n_triples = m * (m - 1) * (m - 2) // 6
    assert sys.n_inequality_terms == 4 * n_triples


def test_enumerate_needs_three_observed():
    t = LatentTree([("a", "b")], ["a", "b"])
    with pytest.raises(TreeError, match="at least 3"):
        enumerate_constraints(t)


def test_enumerate_refuses_more_variables_than_int16_holds(monkeypatch):
    # the index is int16, so the limit is 32767 variables; the check
    # comes before the O(m^2) hop matrix, which would take 8 GiB here
    def no_classification(tree):
        raise AssertionError("classified before the size check")

    monkeypatch.setattr(treemod, "_hop_matrix", no_classification)
    with pytest.raises(TreeError, match="at most 32767 observed nodes"):
        enumerate_constraints(star_tree(32768))


def _whole_array_system(tree):
    """(kinds, index) of the constraint system from one classification of
    every triple and quadruple at once and one global sort: the
    reference for the block-wise enumeration."""
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
    stars = tri[~chain]
    quads = _combinations(tree.m, 4)
    sums = _pairing_sums(hops, quads)
    lowest = sums == sums.min(axis=1, keepdims=True)
    pairing = np.where(lowest.sum(axis=1) == 1, lowest.argmax(axis=1), -1)

    chain_key = np.c_[np.sort(chains, axis=1), np.full(len(chains), -1)]
    star_key = np.c_[stars, np.full(len(stars), -1)]
    split, degenerate = quads[pairing >= 0], quads[pairing < 0]
    a, b, c, d = np.take_along_axis(split, _PAIRINGS[pairing[pairing >= 0]], axis=1).T
    p, q, r = stars.T
    w, x, y, z = degenerate.T
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
    return kinds[order], index[order]


def _assert_matches_whole_array(tree):
    system = enumerate_constraints(tree)
    kinds, index = _whole_array_system(tree)
    # the reference sorts intp rows; the system stores them as int16
    compact = index.astype(np.int16)
    assert np.array_equal(compact.astype(index.dtype), index)
    assert system.kinds.dtype == kinds.dtype and system.index.dtype == np.int16
    assert system.kinds.tobytes() == kinds.tobytes()
    assert system.index.shape == index.shape
    assert system.index.tobytes() == compact.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_block_enumeration_matches_whole_array_random_trees(seed):
    _assert_matches_whole_array(
        random_latent_tree(np.random.default_rng(seed), m_lo=3, m_hi=12, n_hi=20)
    )


@pytest.mark.parametrize(
    "tree",
    [star_tree(m) for m in range(3, 31)] + [caterpillar(), mixed_tree(7, 4)],
    ids=[f"star{m}" for m in range(3, 31)] + ["caterpillar", "mixed"],
)
def test_block_enumeration_matches_whole_array(tree):
    _assert_matches_whole_array(tree)


def test_enumeration_peaks_below_two_and_a_half_systems():
    # a 40-leaf star: 222,300 terms, 1.9 MiB of kinds and int16 index.
    # The blocks of one first variable hold at most a tenth of them, so
    # the peak is the system, the held inequality terms and the first
    # block's sort
    tree = star_tree(40)
    tracemalloc.start()
    try:
        system = enumerate_constraints(tree)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = system.kinds.nbytes + system.index.nbytes
    assert peak <= 2.5 * size, f"peak {peak / size:.2f} times the system"


def test_chain_equality_residual_and_sign_value():
    sys = enumerate_constraints(observed_chain(3))
    cov = np.array([[1.0, 0.6, 0.3], [0.6, 1.0, 0.5], [0.3, 0.5, 1.0]])
    assert sys.equality_residuals(cov).tolist() == [pytest.approx(0.0, abs=1e-15)]
    assert sys.inequality_values(cov).tolist() == [pytest.approx(-0.09)]


def _star_cov(weights):
    w = np.asarray(weights, dtype=float)
    cov = np.outer(w, w)
    np.fill_diagonal(cov, 1.0)
    return cov


def test_degenerate_quad_residuals():
    cov = _star_cov([0.9, 0.8, 0.7, 0.6])
    sys = enumerate_constraints(star_tree(4))
    assert sys.equality_residuals(cov).tolist() == [
        pytest.approx(0.0, abs=1e-15),
        pytest.approx(0.0, abs=1e-15),
    ]
    bumped = cov.copy()
    bumped[0, 3] += 0.01
    bumped[3, 0] += 0.01
    r1, r2 = sys.equality_residuals(bumped)
    assert r1 == pytest.approx(0.01 * 0.56)
    assert r2 == pytest.approx(0.0, abs=1e-15)


def test_triangle_bound_value():
    cov = _star_cov([0.9, 0.8, 0.7, 0.6])
    sys = enumerate_constraints(star_tree(4))
    pos = _terms(sys).index(("triangle-bound", (0, 1, 1, 2)))
    values = sys.inequality_values(cov)
    assert values[pos - sys.n_equality_terms] == pytest.approx(-0.23432976)


def _caterpillar_cov(a, b, c, d, e):
    # observed order 1, 2, 3, 4; leaves 1, 3 under one hub, 2, 4 under
    # the other, hub-hub weight e
    cov = np.eye(4)
    cov[0, 1] = cov[1, 0] = a * e * b
    cov[0, 2] = cov[2, 0] = a * c
    cov[0, 3] = cov[3, 0] = a * e * d
    cov[1, 2] = cov[2, 1] = b * e * c
    cov[1, 3] = cov[3, 1] = b * d
    cov[2, 3] = cov[3, 2] = c * e * d
    return cov


def test_split_equality_and_bound_values():
    cov = _caterpillar_cov(0.9, 0.8, 0.7, 0.6, 0.5)
    sys = enumerate_constraints(caterpillar())
    kinds = [kind for kind, _ in _terms(sys)]
    assert kinds.count("split") == 1
    assert _splits(sys) == {(0, 1, 2, 3): ((0, 2), (1, 3))}
    residual = sys.equality_residuals(cov)[kinds.index("split")]
    assert residual == pytest.approx(0.0, abs=1e-15)

    assert kinds.count("split-bound") == 1
    bound = kinds.index("split-bound") - sys.n_equality_terms
    assert sys.inequality_values(cov)[bound] == pytest.approx(-0.0857304)


def _polynomials(tree, kind):
    rows = enumerate_constraints(tree).scalar_rows()
    return [poly for _, k, _, poly in rows if k == kind]


def test_polynomial_strings():
    assert _polynomials(observed_chain(3), "chain") == ["s12*s23 - s22*s13"]
    assert _polynomials(star_tree(4), "tetrad") == [
        "s14*s23 - s13*s24",
        "s12*s34 - s13*s24",
    ]
    assert _polynomials(observed_chain(4), "split") == ["s13*s24 - s14*s23"]
    assert _polynomials(observed_chain(3), "sign") == ["-s12*s13*s23"]
    assert _polynomials(star_tree(4), "triangle-bound")[0] == (
        "s12^2*s23^2 - s22^2*s13^2"
    )
    assert _polynomials(observed_chain(4), "split-bound") == [
        "s13^2*s24^2 - s12^2*s34^2"
    ]


def test_polynomials_match_per_row_reference():
    rng = np.random.default_rng(20)
    corpus = [star_tree(11), observed_chain(11)]
    corpus += [random_latent_tree(rng, m_lo=3, m_hi=12, n_hi=16) for _ in range(30)]
    kinds, symbols = set(), set()
    for tree in corpus:
        system = enumerate_constraints(tree)
        rows = [(kind, indices, poly) for _, kind, indices, poly in system.scalar_rows()]
        assert rows == list(reference_listing(system))
        kinds.update(kind for kind, _, _ in rows)
        symbols.update(re.findall(r"s\d+(_)?\d+", " ".join(poly for _, _, poly in rows)))
    assert kinds == set(KINDS)
    # both symbol forms: s12 below index 10, s3_12 from there on
    assert symbols == {"", "_"}


def test_scalar_rows_cover_both_sides():
    sys = enumerate_constraints(observed_chain(4))
    rows = list(sys.scalar_rows())
    assert len(rows) == sys.n_equality_terms + sys.n_inequality_terms
    sides = [r[0] for r in rows]
    assert sides == ["equality"] * 5 + ["inequality"] * 5


def test_parse_round_trip():
    text = """\
# two hubs with two leaves each
EDGE 1 5
EDGE 3 5

EDGE 2 6
EDGE 4 6
EDGE 5 6
OBS 1
OBS 2
OBS 3
OBS 4
"""
    t = parse_tree(text)
    ref = caterpillar()
    assert t.edges == ref.edges
    assert t.observed == ref.observed


def test_parse_reports_line_numbers():
    with pytest.raises(TreeError, match="line 2: EDGE needs exactly two"):
        parse_tree("EDGE a b\nEDGE a\nOBS a\n")
    with pytest.raises(TreeError, match="line 3: unknown directive 'NODE'"):
        parse_tree("EDGE a b\nOBS a\nNODE c\n")
    with pytest.raises(TreeError, match="line 4: duplicate OBS"):
        parse_tree("EDGE a b\nOBS a\nOBS b\nOBS a\n")
    with pytest.raises(TreeError, match="line 2: duplicate edge"):
        parse_tree("EDGE a b\nEDGE b a\n")


def test_parse_enforces_tree_invariants():
    with pytest.raises(TreeError, match="invariant"):
        parse_tree("EDGE a b\nEDGE b c\nOBS a\nOBS c\n")
