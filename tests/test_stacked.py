"""Stacked scoring of candidate subgraphs: every slice of a stack must be
bit-identical to extracting that subgraph and running the forward pass."""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    best_subset_alone,
    detector_model,
    random_model,
    random_small_graph,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gxplain
from gxplain.explain import Explanation
from gxplain.graphs import NodeSet, build_graph, node_induced_subgraph
from gxplain.metrics import (
    default_prediction,
    evaluate,
    resolve_budget,
    sweep,
)
from gxplain.model import (
    GnnModel,
    Layer,
    MaskedInput,
    _adjacency,
    _block_rows,
    _induced_probabilities,
    forward,
)
from gxplain.oracle import occlusion_scores


@st.composite
def graph_and_model(draw):
    n = draw(st.integers(1, 10))
    directed = draw(st.booleans())
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=3 * n))
    attr_dim = draw(st.integers(1, 3))
    widths = draw(st.lists(st.integers(1, 5), max_size=3))
    acts = draw(
        st.lists(
            st.sampled_from(["relu", "identity"]),
            min_size=len(widths) + 1,
            max_size=len(widths) + 1,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = build_graph(
        n, edges, rng.normal(size=(n, attr_dim)), directed, graph_id="h"
    )
    layers, dim = [], attr_dim
    for width, act in zip(widths, acts):
        layers.append(
            Layer(rng.normal(size=(dim, width)), rng.normal(size=width), act)
        )
        dim = width
    classes = int(rng.integers(2, 4))
    head = Layer(
        rng.normal(size=(2 * dim, classes)), rng.normal(size=classes), acts[-1]
    )
    return g, GnnModel(attr_dim, classes, tuple(layers), (head,))


@settings(max_examples=40, deadline=None)
@given(graph_and_model())
def test_stacked_subsets_are_bitwise_the_extracted_forward(case):
    g, model = case
    n = g.node_count
    for k in range(n + 1):
        combos = list(itertools.combinations(range(n), k))
        rows = np.array(combos, dtype=np.int64).reshape(len(combos), k)
        probs = _induced_probabilities(
            model, _adjacency([g]), g.attributes[None], 0, rows
        )
        for row, p in zip(combos, probs):
            sub = node_induced_subgraph(g, NodeSet(row))
            assert np.array_equal(forward(model, sub).probabilities, p)


def test_stacks_of_several_graphs_match_each_graph_alone():
    rng = np.random.default_rng(5)
    model = random_model(rng, hidden=(4, 3))
    graphs = [random_small_graph(rng, 7, 7, gid=f"s{i}") for i in range(6)]
    rows = np.sort(
        [rng.permutation(g.node_count)[:3] for g in graphs], axis=1
    )
    stacked = _induced_probabilities(
        model,
        _adjacency(graphs),
        np.stack([g.attributes for g in graphs]),
        np.arange(len(graphs)),
        rows,
    )
    for g, row, p in zip(graphs, rows, stacked, strict=True):
        alone = _induced_probabilities(
            model, _adjacency([g]), g.attributes[None], 0, row[None]
        )[0]
        assert np.array_equal(alone, p)


def test_ties_across_blocks_keep_the_lexicographically_first_subset(
    blocks, oracle_passes
):
    # every subset ties; the 32 distinct inputs (which of the 5 pairs of
    # neighbouring positions are linked) span many 3-row blocks
    g = build_graph(
        12, [(i, i + 1) for i in range(11)], np.zeros((12, 1)), False
    )
    best, _ = best_subset_alone(detector_model(), g, k=6)
    assert best.members == (0, 1, 2, 3, 4, 5)
    assert sum(oracle_passes) == 32 < math.comb(12, 6)
    assert len(oracle_passes) == math.ceil(32 / _block_rows(6))
    if blocks == "3-row blocks":
        assert len(oracle_passes) > 2


def test_large_graphs_get_fewer_rows_per_block():
    assert _block_rows(0) == _block_rows(13) == 128
    assert _block_rows(64) == 8
    assert _block_rows(10_000) == 1


def test_occlusion_equals_one_gated_forward_per_arc(blocks):
    rng = np.random.default_rng(8)
    model = random_model(rng, hidden=(5, 4))
    for i, directed in enumerate((True, False, True, False)):
        g = random_small_graph(rng, 2, 9, directed=directed, gid=f"o{i}")
        target = forward(model, g).predicted_class
        p0 = forward(model, g).probabilities[target]
        drops = occlusion_scores(model, g)
        for a in range(g.arc_count):
            gate = np.ones(g.arc_count)
            mate = a if directed else a ^ 1
            gate[[a, mate]] = 0.0
            masked = MaskedInput(gate, np.ones((g.node_count, g.attr_dim)))
            p = forward(model, g, masked).probabilities[target]
            assert drops[a] == p0 - p


def _verdict_by_definition(model, g, expl, budget, default):
    def retains(keep):
        sub = node_induced_subgraph(g, keep)
        return forward(model, sub).predicted_class == expl.original_prediction

    kept = rest = None
    if budget is not None:
        keep = NodeSet(expl.node_ranking[:budget])
        rest = NodeSet(set(range(g.node_count)) - set(keep.members))
        kept, rest = retains(keep), retains(rest)
    min_k = None
    if expl.original_prediction != default:
        min_k = next(
            (
                k
                for k in range(1, g.node_count + 1)
                if retains(NodeSet(expl.node_ranking[:k]))
            ),
            g.node_count,
        )
    return kept, rest, min_k


def _assert_rows_by_definition(model, graphs, expls, rows, budgets, min_k):
    """Each row against :func:`_verdict_by_definition`, with its budget
    from ``budgets``; its ``min_k`` must be ``None`` unless ``min_k``."""
    default = default_prediction(model)
    by_id = {g.graph_id: g for g in graphs}
    for row, budget in zip(rows, budgets, strict=True):
        g, expl = by_id[row.graph_id], expls[row.graph_id]
        kept, rest, want_k = _verdict_by_definition(
            model, g, expl, budget, default
        )
        assert row.budget == budget
        assert (row.retained_explained, row.retained_remaining) == (kept, rest)
        assert row.min_k == (want_k if min_k else None)
        assert row.eligible == (expl.original_prediction != default)


def _evaluate_by_definition(model, graphs, expls, sparsity=True, **budget):
    report = evaluate(
        model, graphs, expls, compute_sparsity=sparsity, **budget
    )
    ids = sorted(expls)
    assert [r.graph_id for r in report.per_graph] == ids
    nodes = {g.graph_id: g.node_count for g in graphs}
    want = [resolve_budget(nodes[i], **budget) for i in ids]
    _assert_rows_by_definition(
        model, graphs, expls, report.per_graph, want, sparsity
    )
    return report


def _sweep_by_definition(model, graphs, expls):
    rows = sweep(model, graphs, expls)
    ids = sorted(expls)
    max_n = max((g.node_count for g in graphs), default=0)
    assert [r.graph_id for r in rows] == ids * max_n
    nodes = {g.graph_id: g.node_count for g in graphs}
    want = [
        b if b <= nodes[i] else None for b in range(1, max_n + 1) for i in ids
    ]
    _assert_rows_by_definition(model, graphs, expls, rows, want, True)
    return rows


def _mixed_case():
    """40 graphs of 1 to 12 nodes, some directed, plus one of 0 nodes;
    every fifth explanation, and the empty graph's, names a class its
    graph is not predicted as, so its prefixes may never retain it."""
    rng = np.random.default_rng(13)
    model = random_model(rng, hidden=(6, 6), num_classes=3)
    graphs, expls = [], {}
    for i in range(40):
        directed = bool(i % 3)
        g = random_small_graph(rng, 1, 12, directed=directed, gid=f"g{i:02d}")
        graphs.append(g)
        original = forward(model, g).predicted_class
        if i % 5 == 4:
            # an explanation of another model: no prefix may retain it
            original = (original + 1) % 3
        expls[g.graph_id] = Explanation(
            graph_id=g.graph_id,
            arcs=tuple(map(tuple, g.arcs.tolist())),
            original_prediction=original,
            original_probability=0.5,
            edge_score=np.zeros(g.arc_count),
            attr_score=np.zeros((g.node_count, g.attr_dim)),
            node_attr_score=np.zeros(g.node_count),
            node_score=np.zeros(g.node_count),
            node_ranking=tuple(int(v) for v in rng.permutation(g.node_count)),
        )
    empty = build_graph(0, [], np.zeros((0, 3)), False, graph_id="g40")
    graphs.append(empty)
    expls["g40"] = Explanation(
        graph_id="g40",
        arcs=(),
        original_prediction=(default_prediction(model) + 1) % 3,
        original_probability=0.5,
        edge_score=np.zeros(0),
        attr_score=np.zeros((0, 3)),
        node_attr_score=np.zeros(0),
        node_score=np.zeros(0),
        node_ranking=(),
    )
    return model, graphs, expls


@pytest.mark.parametrize("budget", [{"k": 3}, {"k": 6}, {"rate": 0.4}])
def test_evaluate_matches_a_per_subgraph_loop_on_mixed_sizes(budget, blocks):
    report = _evaluate_by_definition(*_mixed_case(), **budget)
    assert sum(r.eligible for r in report.per_graph) >= 5


def test_sweep_matches_a_per_subgraph_loop_on_mixed_sizes(blocks):
    model, graphs, expls = _mixed_case()
    rows = _sweep_by_definition(model, graphs, expls)
    report = evaluate(model, graphs, expls, k=3)
    min_k = {r.graph_id: r.min_k for r in report.per_graph}
    assert min_k["g40"] == 0
    assert all(r.min_k == min_k[r.graph_id] for r in rows)
    assert sweep(model, [], {}) == []


@st.composite
def scan_case(draw):
    """A model of 3 classes and up to 8 graphs of 0 to 12 nodes, directed
    or not, each explained by a drawn ranking; an explanation names its
    graph's prediction or another class, which no prefix may retain."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_model(rng, hidden=(4, 4), num_classes=3)
    graphs, expls = [], {}
    for i in range(draw(st.integers(0, 8))):
        n = draw(st.integers(0, 12))
        nodes = st.integers(0, max(n - 1, 0))
        edges = draw(st.lists(st.tuples(nodes, nodes), max_size=2 * n))
        g = build_graph(
            n,
            edges,
            rng.normal(size=(n, 3)),
            draw(st.booleans()),
            graph_id=f"g{i}",
        )
        graphs.append(g)
        predicted = forward(model, g).predicted_class
        expls[g.graph_id] = Explanation(
            graph_id=g.graph_id,
            arcs=tuple(map(tuple, g.arcs.tolist())),
            original_prediction=draw(
                st.sampled_from([predicted, (predicted + 1) % 3])
            ),
            original_probability=0.5,
            edge_score=np.zeros(g.arc_count),
            attr_score=np.zeros((n, 3)),
            node_attr_score=np.zeros(n),
            node_score=np.zeros(n),
            node_ranking=tuple(draw(st.permutations(range(n)))),
        )
    return model, graphs, expls


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scan_case())
def test_scan_matches_a_per_subgraph_loop_on_random_graphs(blocks, case):
    for budget in ({"k": 1}, {"k": 4}, {"rate": 0.3}, {"rate": 1.0}):
        for sparsity in (True, False):
            _evaluate_by_definition(*case, sparsity, **budget)
    _sweep_by_definition(*case)


def test_hot_paths_do_not_extract_one_subgraph_per_candidate():
    src = Path(gxplain.__file__).parent
    users = [
        name
        for name in ("oracle.py", "metrics.py")
        if "node_induced_subgraph(" in (src / name).read_text("utf-8")
    ]
    assert users == []


def _calls(tree, name):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == name
    ]


def test_one_scan_scores_subsets_and_eval_calls_each_entry_point_once():
    src = Path(gxplain.__file__).parent
    metrics = ast.parse((src / "metrics.py").read_text("utf-8"))
    assert len(_calls(metrics, "_induced_probabilities")) == 1
    (scan,) = [f for f in metrics.body if getattr(f, "name", "") == "_scan"]
    assert not _calls(scan, "NodeSet")
    cli = ast.parse((src / "cli.py").read_text("utf-8"))
    loops = (
        ast.For,
        ast.While,
        ast.ListComp,
        ast.SetComp,
        ast.DictComp,
        ast.GeneratorExp,
    )
    looped = {
        id(node)
        for loop in ast.walk(cli)
        if isinstance(loop, loops)
        for node in ast.walk(loop)
    }
    for name in ("evaluate", "sweep"):
        (call,) = _calls(cli, name)
        assert id(call) not in looped
