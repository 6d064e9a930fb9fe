"""Exhaustive oracles: best subset, minimal retaining size, occlusion."""

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

from gxplain import oracle
from gxplain.errors import TooLarge
from gxplain.graphs import NodeSet, build_graph, node_induced_subgraph
from gxplain.model import GnnModel, Layer, _block_rows, forward
from gxplain.oracle import (
    MAX_ORACLE_NODES,
    _attribute_ids,
    _subset_cells,
    _subsets,
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
    report = oracle_report(model, g, k=3)
    best, best_p = report.best_subset, report.best_probability
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
    best = oracle_report(model, g, k=2).best_subset
    assert best.members == (0, 1)


def test_brute_force_dominates_any_explainer_subset():
    rng = np.random.default_rng(1)
    model = random_model(rng)
    for i in range(5):
        g = random_small_graph(rng, n_lo=4, n_hi=8, gid=f"d{i}")
        pred = forward(model, g).predicted_class
        best_p = oracle_report(model, g, k=3).best_probability
        keep = NodeSet(rng.choice(g.node_count, min(3, g.node_count), replace=False).tolist())
        p = forward(model, node_induced_subgraph(g, keep)).probabilities[pred]
        assert best_p >= p


def test_exhaustive_sparsity_on_detector():
    model = detector_model()
    g = hot_graph()
    # one node (the hot one) already retains class 1
    assert oracle_report(model, g, k=1).exhaustive_min_k == 1


def test_exhaustive_sparsity_is_minimal():
    rng = np.random.default_rng(2)
    model = random_model(rng)
    g = random_small_graph(rng, n_lo=4, n_hi=7, gid="mink")
    pred = forward(model, g).predicted_class
    min_k = oracle_report(model, g, k=1).exhaustive_min_k
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
        oracle_report(model, g, k=2)


def test_oracle_report_bundles_all_three():
    model = detector_model()
    g = hot_graph(gid="rep")
    result = oracle_report(model, g, k=2)
    assert 0.0 <= result.best_probability <= 1.0
    assert 1 <= result.exhaustive_min_k <= g.node_count
    assert result.occlusion_drop.shape == (g.arc_count,)
    assert 2 in result.best_subset


def test_subset_rows_are_the_combinations_in_order_and_read_only():
    total = total_cells = 0
    for n in range(MAX_ORACLE_NODES + 1):
        for k in range(n + 1):
            rows = _subsets(n, k)
            want = list(itertools.combinations(range(n), k))
            assert rows.shape == (len(want), k) and rows.dtype == np.int64
            assert [tuple(r) for r in rows.tolist()] == want
            assert not rows.flags.writeable
            assert _subsets(n, k) is rows
            total += rows.nbytes
            cells = _subset_cells(n, k)
            assert _subset_cells(n, k) is cells and cells.dtype == np.uint8
            assert np.array_equal(
                cells, rows[:, :, None] * n + rows[:, None, :]
            )
            with pytest.raises(ValueError):
                cells[:1] = 0
            total_cells += cells.nbytes
    # every (n, k) the oracle can ask for takes about 1.7 MB of rows and
    # 1.5 MB of cells
    assert total < 1.8e6 and total_cells < 1.6e6
    _subset_cells.cache_clear()


def test_edge_budgets_give_the_one_subset_of_that_size():
    model = random_model(np.random.default_rng(3))
    empty = build_graph(0, [], np.zeros((0, 3)), False, graph_id="e")
    g = random_small_graph(np.random.default_rng(4), 6, 6, gid="edge")
    for graph in (empty, g):
        p = forward(model, graph).probabilities
        target = int(np.argmax(p))
        for k in {0, graph.node_count}:
            sub = node_induced_subgraph(graph, NodeSet(range(k)))
            want = forward(model, sub).probabilities[target]
            report = oracle_report(model, graph, k)
            assert report.best_subset.members == tuple(range(k))
            assert report.best_probability == want
    assert oracle_report(model, empty, 0).exhaustive_min_k == 0


def test_attribute_ids_compare_rows_as_bytes():
    x = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.5, 1.0]])
    ids = _attribute_ids(x)
    assert ids[0] == ids[2]
    assert len({ids[0], ids[1], ids[3]}) == 3
    assert _attribute_ids(np.zeros((3, 0))).tolist() == [0, 0, 0]
    assert _attribute_ids(np.zeros((0, 2))).shape == (0,)


@st.composite
def oracle_case(draw, max_nodes=9):
    n = draw(st.integers(0, max_nodes))
    directed = draw(st.booleans())
    node = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    edges = [(s, d) for s, d in pairs if s != d]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    attr_dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        # a two-row pool: many nodes alike, so many subsets alike
        pool = rng.normal(size=(2, attr_dim))
        attrs = pool[rng.integers(0, 2, size=n)]
    else:
        attrs = rng.normal(size=(n, attr_dim))
    g = build_graph(n, edges, attrs, directed, graph_id="h")
    widths = draw(st.lists(st.integers(1, 4), max_size=2))
    layers, dim = [], attr_dim
    for width in widths:
        layers.append(
            Layer(rng.normal(size=(dim, width)), rng.normal(size=width), "relu")
        )
        dim = width
    classes = int(rng.integers(2, 4))
    head = Layer(
        rng.normal(size=(2 * dim, classes)), rng.normal(size=classes), "identity"
    )
    return g, GnnModel(attr_dim, classes, tuple(layers), (head,))


def _by_definition(model, g):
    """Per k, the first subset of maximum target probability and that
    probability, from one extracted forward per subset; and the smallest
    k whose subsets include one that keeps the prediction."""
    target = int(np.argmax(forward(model, g).probabilities))
    best, min_k = {}, None
    for k in range(g.node_count + 1):
        top = None
        for combo in itertools.combinations(range(g.node_count), k):
            sub = node_induced_subgraph(g, NodeSet(combo))
            p = forward(model, sub).probabilities
            if top is None or p[target] > top[1]:
                top = (combo, p[target])
            if min_k is None and k and int(np.argmax(p)) == target:
                min_k = k
        best[k] = top
    return best, g.node_count if min_k is None else min_k


@settings(max_examples=30, deadline=None)
@given(oracle_case())
def test_searches_match_one_forward_per_subset(case):
    g, model = case
    best, min_k = _by_definition(model, g)
    for k, (combo, p) in best.items():
        report = oracle_report(model, g, k)
        assert report.best_subset.members == combo
        assert report.best_probability == p
        assert report.exhaustive_min_k == min_k


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(oracle_case(MAX_ORACLE_NODES), st.data())
def test_report_equals_its_parts_bit_for_bit(blocks, oracle_stacks, case, data):
    g, model = case
    k = data.draw(st.integers(0, g.node_count), label="k")
    without_arcs = build_graph(
        g.node_count, [], g.attributes, g.directed, graph_id="bare"
    )
    for graph in (g, without_arcs):
        oracle_stacks.clear()
        report = oracle_report(model, graph, k)
        # one stack: the graph, then one copy per occluded edge, in blocks
        rows = 1 + graph.arc_count // (1 if graph.directed else 2)
        step = _block_rows(graph.node_count)
        assert oracle_stacks == [
            min(step, rows - start) for start in range(0, rows, step)
        ]
        drops = occlusion_scores(model, graph)
        assert _same_bits(report.occlusion_drop, drops)
        _, _, original, _ = oracle._original(model, graph)
        assert _same_bits(original, forward(model, graph).probabilities)


def _distinct_inputs(g, k):
    """The index of the first k-subset of each distinct induced input,
    its 0/1 block and attribute rows compared as bytes, ascending."""
    links = np.zeros((g.node_count, g.node_count), dtype=bool)
    for s, d in g.arcs.tolist():
        links[d, s] = True
    first = {}
    for i, c in enumerate(itertools.combinations(range(g.node_count), k)):
        key = (links[np.ix_(c, c)].tobytes(), g.attributes[list(c)].tobytes())
        first.setdefault(key, i)
    return sorted(first.values())


@pytest.mark.parametrize("alike", [True, False])
def test_stacked_rows_are_the_distinct_subset_inputs(alike, oracle_passes):
    rng = np.random.default_rng(6)
    g = random_small_graph(rng, 10, 10, gid="count")
    if alike:
        g = build_graph(
            10, g.arcs.tolist(), np.full((10, 3), 0.1), False, graph_id="c"
        )
    model = random_model(rng)
    for k in (3, 5):
        oracle_passes.clear()
        best_subset_alone(model, g, k)
        want = len(_distinct_inputs(g, k))
        assert sum(oracle_passes) == want
        assert (want < math.comb(10, k)) == alike


def _oracle_functions():
    tree = ast.parse(Path(oracle.__file__).read_text("utf-8"))
    return {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}


def _called(function):
    return {
        getattr(c.func, "id", getattr(c.func, "attr", ""))
        for c in ast.walk(function)
        if isinstance(c, ast.Call)
    }


def test_searches_score_subsets_only_through_one_helper():
    functions = _oracle_functions()
    scorers = {
        "_subset_probabilities",
        "_block_probabilities",
        "_layer_stack",
        "_induced_probabilities",
        "_induced_operands",
        "forward",
        "_propagation",
    }
    for name in ("_best_subset", "_min_k"):
        assert _called(functions[name]) & scorers == {
            "_subset_probabilities"
        }, name
    # and the subsets' operators are normalized in the model module
    assert _called(functions["_subset_probabilities"]) & scorers == {
        "_block_probabilities"
    }
    assert "_subset_blocks" not in functions


@pytest.mark.parametrize("directed", [False, True])
def test_keys_of_several_words_find_the_first_subset_of_each_input(
    directed, oracle_passes
):
    rng = np.random.default_rng(11)
    n = MAX_ORACLE_NODES
    model = random_model(rng)
    pool = rng.normal(size=(2, 3))
    path = [(i, i + 1) for i in range(n - 1)]
    chords = [tuple(rng.choice(n, 2, replace=False).tolist()) for _ in range(n)]
    for edges in (path, path + chords):
        g = build_graph(
            n, edges, pool[rng.integers(0, 2, n)], directed, graph_id="w"
        )
        links, ids, _, _ = oracle._original(model, g)
        for k in range(8, n):
            # 64 to 169 block cells: two to four words of 52
            assert 2 <= math.ceil(k * k / 52) <= 4
            oracle_passes.clear()
            first, probs = oracle._subset_probabilities(model, g, k, links, ids)
            assert first.tolist() == _distinct_inputs(g, k)
            assert sum(oracle_passes) == len(first) == len(probs)
            for i in (0, len(first) - 1):
                keep = NodeSet(_subsets(n, k)[first[i]].tolist())
                sub = node_induced_subgraph(g, keep)
                assert _same_bits(probs[i], forward(model, sub).probabilities)


def test_one_stack_runs_the_graph_and_searches_read_distinct_rows():
    functions = _oracle_functions()
    # the graph and its occluded copies run in one place
    assert "_occlusion" not in functions
    assert {
        name for name, f in functions.items() if "_layer_stack" in _called(f)
    } == {"_original"}
    # the searches read the distinct rows; nothing is scattered back
    for name in ("_best_subset", "_min_k"):
        assert "take" not in _called(functions[name]), name
    # a subset key holds one attribute id per position as a hex digit
    assert MAX_ORACLE_NODES < 16
