"""Exhaustive oracles: best subset, minimal retaining size, occlusion."""

import itertools

import numpy as np
import pytest
from conftest import detector_model, random_model, random_small_graph

from gxplain.errors import TooLarge
from gxplain.graphs import NodeSet, build_graph, node_induced_subgraph
from gxplain.model import _block_rows, forward
from gxplain.oracle import (
    MAX_ORACLE_NODES,
    _subset_blocks,
    _subsets,
    brute_force_best_subset,
    exhaustive_sparsity,
    occlusion_scores,
    oracle_report,
)


def hot_graph(hot=2, n=5, gid="hot"):
    attrs = np.zeros((n, 1))
    attrs[hot, 0] = 1.0
    edges = [(i, (i + 1) % n) for i in range(n)]
    return build_graph(n, edges, attrs, False, label=1, graph_id=gid)


def test_brute_force_matches_manual_enumeration():
    rng = np.random.default_rng(0)
    model = random_model(rng)
    g = random_small_graph(rng, n_lo=5, n_hi=7, gid="bf")
    pred = forward(model, g).predicted_class
    best, best_p = brute_force_best_subset(model, g, k=3)
    probs = {}
    for combo in itertools.combinations(range(g.node_count), 3):
        sub = node_induced_subgraph(g, NodeSet(combo))
        probs[combo] = forward(model, sub).probabilities[pred]
    assert best_p == pytest.approx(max(probs.values()), abs=0)
    assert probs[best.members] == best_p


def test_brute_force_prefers_lexicographically_first_tie():
    # all-zero attributes make every subset identical
    model = detector_model()
    g = build_graph(4, [(0, 1), (2, 3)], np.zeros((4, 1)), False, graph_id="t")
    best, _ = brute_force_best_subset(model, g, k=2)
    assert best.members == (0, 1)


def test_brute_force_dominates_any_explainer_subset():
    rng = np.random.default_rng(1)
    model = random_model(rng)
    for i in range(5):
        g = random_small_graph(rng, n_lo=4, n_hi=8, gid=f"d{i}")
        pred = forward(model, g).predicted_class
        _, best_p = brute_force_best_subset(model, g, k=3)
        keep = NodeSet(rng.choice(g.node_count, min(3, g.node_count), replace=False).tolist())
        p = forward(model, node_induced_subgraph(g, keep)).probabilities[pred]
        assert best_p >= p


def test_exhaustive_sparsity_on_detector():
    model = detector_model()
    g = hot_graph()
    # one node (the hot one) already retains class 1
    assert exhaustive_sparsity(model, g) == 1


def test_exhaustive_sparsity_is_minimal():
    rng = np.random.default_rng(2)
    model = random_model(rng)
    g = random_small_graph(rng, n_lo=4, n_hi=7, gid="mink")
    pred = forward(model, g).predicted_class
    min_k = exhaustive_sparsity(model, g)
    for size in range(1, min_k):
        for combo in itertools.combinations(range(g.node_count), size):
            sub = node_induced_subgraph(g, NodeSet(combo))
            assert forward(model, sub).predicted_class != pred


def test_occlusion_scores_single_out_the_live_arc():
    model = detector_model()
    attrs = np.zeros((4, 1))
    attrs[0, 0] = 1.0
    g = build_graph(4, [(0, 1), (2, 3)], attrs, False, graph_id="occ")
    drops = occlusion_scores(model, g)
    assert drops.shape == (4,)
    # mates of one undirected edge are occluded together and share a drop
    assert drops[0] == drops[1]
    assert drops[2] == drops[3]
    assert drops[0] > drops[2]
    # arcs between zero-attribute nodes carry nothing
    assert drops[2] == pytest.approx(0.0, abs=1e-12)


def test_occlusion_on_directed_graph_is_per_arc():
    model = detector_model()
    attrs = np.zeros((3, 1))
    attrs[0, 0] = 1.0
    g = build_graph(3, [(0, 1), (1, 2)], attrs, True, graph_id="docc")
    drops = occlusion_scores(model, g)
    assert drops.shape == (2,)
    assert drops[0] != drops[1]


def test_size_guard():
    model = detector_model()
    n = MAX_ORACLE_NODES + 1
    g = build_graph(n, [], np.zeros((n, 1)), True, graph_id="big")
    with pytest.raises(TooLarge):
        brute_force_best_subset(model, g, k=2)
    with pytest.raises(TooLarge):
        exhaustive_sparsity(model, g)


def test_oracle_report_bundles_all_three():
    model = detector_model()
    g = hot_graph(gid="rep")
    result = oracle_report(model, g, k=2)
    assert 0.0 <= result.best_probability <= 1.0
    assert 1 <= result.exhaustive_min_k <= g.node_count
    assert result.occlusion_drop.shape == (g.arc_count,)
    assert 2 in result.best_subset


def test_subset_rows_are_the_combinations_in_order_and_read_only():
    total = 0
    for n in range(MAX_ORACLE_NODES + 1):
        for k in range(n + 1):
            rows = _subsets(n, k)
            want = list(itertools.combinations(range(n), k))
            assert rows.shape == (len(want), k) and rows.dtype == np.int64
            assert [tuple(r) for r in rows.tolist()] == want
            assert not rows.flags.writeable
            assert _subsets(n, k) is rows
            total += rows.nbytes
            blocks = list(_subset_blocks(n, k))
            assert all(len(b) <= _block_rows(k) for b in blocks)
            assert np.concatenate(blocks).tolist() == rows.tolist()
            with pytest.raises(ValueError):
                blocks[0][:1] = 0
    # every (n, k) the oracle can ask for takes about 1.7 MB
    assert total < 1.8e6
