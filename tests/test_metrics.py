"""Budget resolution, EP metrics, sparsity, and the evaluation report."""

import csv
import dataclasses

import numpy as np
import pytest
from conftest import detector_model, random_model, random_small_graph

from gxplain.errors import InvalidBudget, MissingExplanation, ShapeMismatch
from gxplain.explain import (
    ExplainConfig,
    Explanation,
    explain,
    node_importance,
)
from gxplain.graphs import build_graph
from gxplain.metrics import (
    default_prediction,
    evaluate,
    keep_top_attributes,
    resolve_budget,
    sweep,
    write_eval_csv,
)
from gxplain.model import forward


def manual_explanation(g, node_order, pred=1, prob=0.9):
    """Explanation whose ranking is given explicitly; scores descend along it."""
    n = g.node_count
    score = np.zeros(n)
    for pos, v in enumerate(node_order):
        score[v] = 1.0 - pos / (n + 1)
    return Explanation(
        graph_id=g.graph_id,
        arcs=tuple(map(tuple, g.arcs.tolist())),
        original_prediction=pred,
        original_probability=prob,
        edge_score=np.full(g.arc_count, 0.5),
        attr_score=np.full((n, g.attr_dim), 0.5),
        node_attr_score=np.full(n, 0.5),
        node_score=score,
        node_ranking=tuple(node_order),
    )


def hot_path_graph(gid="hot"):
    # node 2 carries the only attribute mass; 5 nodes on a path
    attrs = np.zeros((5, 1))
    attrs[2, 0] = 1.0
    edges = [(i, i + 1) for i in range(4)]
    return build_graph(5, edges, attrs, False, label=1, graph_id=gid)


def test_resolve_budget_exactly_one_selector():
    assert resolve_budget(10, k=3) == 3
    assert resolve_budget(10, rate=0.5) == 5
    with pytest.raises(InvalidBudget):
        resolve_budget(10)
    with pytest.raises(InvalidBudget):
        resolve_budget(10, k=3, rate=0.5)
    with pytest.raises(InvalidBudget):
        resolve_budget(10, k=0)
    with pytest.raises(InvalidBudget):
        resolve_budget(10, rate=1.5)


def test_resolve_budget_skips_oversized_k_and_rounds_half_up():
    # absolute budgets beyond the graph mean "skip this graph"
    assert resolve_budget(4, k=9) is None
    # floor(0.3 * 5 + 0.5) = 2
    assert resolve_budget(5, rate=0.3) == 2
    assert resolve_budget(4, rate=0.01) == 1


def test_default_prediction_is_head_of_zero_readout():
    assert default_prediction(detector_model()) == 0


def test_keep_top_attributes_zeroes_the_rest():
    g = build_graph(2, [(0, 1)], [[3.0, 1.0, 2.0], [5.0, 6.0, 4.0]], True)
    score = np.array([[0.9, 0.1, 0.5], [0.2, 0.8, 0.3]])
    kept = keep_top_attributes(g, score, top_t=2)
    assert kept.attributes.tolist() == [[3.0, 0.0, 2.0], [0.0, 6.0, 4.0]]
    assert kept.arcs.tolist() == g.arcs.tolist()


def test_ep_explained_counts_retaining_subgraphs():
    model = detector_model()
    good = hot_path_graph("good")  # hot node ranked first
    bad = hot_path_graph("bad")  # hot node ranked last
    expls = {
        "good": manual_explanation(good, [2, 1, 3, 0, 4]),
        "bad": manual_explanation(bad, [0, 4, 1, 3, 2]),
    }
    report = evaluate(model, [good, bad], expls, k=2, compute_sparsity=False)
    assert report.ep_explained == pytest.approx(0.5)
    assert report.evaluated_count == 2
    by_id = {r.graph_id: r for r in report.per_graph}
    assert by_id["good"].retained_explained is True
    assert by_id["bad"].retained_explained is False
    # removing the top-2 of the bad ranking keeps the hot node alive
    assert by_id["bad"].retained_remaining is True
    assert by_id["good"].retained_remaining is False
    assert report.ep_remaining == pytest.approx(0.5)


def test_ep_explained_full_budget_is_one():
    rng = np.random.default_rng(0)
    model = random_model(rng)
    graphs, expls = [], {}
    for i in range(6):
        g = random_small_graph(rng, gid=f"g{i}")
        graphs.append(g)
        expls[g.graph_id] = explain(model, g, ExplainConfig(epochs=3))
    n_max = max(g.node_count for g in graphs)
    report = evaluate(model, graphs, expls, k=n_max, compute_sparsity=False)
    assert report.ep_explained == 1.0


def test_ep_attribute_at_full_width_is_one():
    rng = np.random.default_rng(1)
    model = random_model(rng)
    graphs, expls = [], {}
    for i in range(4):
        g = random_small_graph(rng, gid=f"a{i}")
        graphs.append(g)
        expls[g.graph_id] = explain(model, g, ExplainConfig(epochs=3))
    report = evaluate(
        model, graphs, expls, k=2, attr_top=3, compute_sparsity=False
    )
    assert report.ep_attribute == 1.0


def test_sparsity_excludes_default_prediction_graphs():
    model = detector_model()
    hot = hot_path_graph("hot")
    cold = build_graph(
        5, [(i, i + 1) for i in range(4)], np.zeros((5, 1)), False, label=0,
        graph_id="cold",
    )
    # cold predicts the empty-graph default class, so it is ineligible
    assert forward(model, cold).predicted_class == default_prediction(model)
    expls = {
        "hot": manual_explanation(hot, [2, 0, 1, 3, 4]),
        "cold": manual_explanation(cold, [0, 1, 2, 3, 4], pred=0),
    }
    report = evaluate(model, [hot, cold], expls, rate=1.0)
    assert report.eligible_count == 1
    # hot ranking starts at the hot node: one node already retains class 1
    assert report.sparsity == pytest.approx(1.0)


def test_sparsity_min_k_walks_the_ranking_prefix():
    model = detector_model()
    hot = hot_path_graph("walk")
    expls = {"walk": manual_explanation(hot, [4, 3, 0, 2, 1])}
    report = evaluate(model, [hot], expls, rate=1.0)
    # prefixes {4}, {4,3}, {4,3,0} miss the hot node; {4,3,0,2} retains
    assert report.eligible_count == 1
    assert report.sparsity == pytest.approx(4.0)


def test_sparsity_none_when_no_graph_is_eligible():
    model = detector_model()
    cold = build_graph(3, [], np.zeros((3, 1)), True, graph_id="c")
    expls = {"c": manual_explanation(cold, [0, 1, 2], pred=0)}
    report = evaluate(model, [cold], expls, rate=1.0)
    assert report.sparsity is None
    assert report.eligible_count == 0


def test_evaluate_requires_every_explanation():
    model = detector_model()
    g = hot_path_graph("missing")
    with pytest.raises(MissingExplanation):
        evaluate(model, [g], {}, k=2)


def path_graph(n):
    return build_graph(
        n, [(i, i + 1) for i in range(n - 1)], np.zeros((n, 1)), False
    )


# graphs whose explanation must not be scored as one of hot_path_graph's
FOREIGN_GRAPHS = {
    "another graph": lambda: build_graph(
        5, [(0, v) for v in range(1, 5)], np.zeros((5, 1)), False
    ),
    "a node missing": lambda: path_graph(4),
    "an extra node": lambda: path_graph(6),
}


@pytest.mark.parametrize("scorer", ["evaluate", "sweep"])
@pytest.mark.parametrize("foreign", sorted(FOREIGN_GRAPHS))
def test_explanation_of_a_foreign_graph_is_refused(scorer, foreign):
    model = detector_model()
    g = hot_path_graph("g")
    other = FOREIGN_GRAPHS[foreign]()
    expls = {"g": manual_explanation(other, range(other.node_count))}
    with pytest.raises(ShapeMismatch, match="graph 'g' has 5 nodes, 8 arcs"):
        if scorer == "evaluate":
            evaluate(model, [g], expls, k=2)
        else:
            sweep(model, [g], expls)


# rankings of hot_path_graph's 5 nodes that are not permutations of them
BAD_RANKINGS = {
    "an entry of -1": (2, 0, 1, 3, -1),
    "an entry of n": (2, 0, 1, 3, 5),
    "a repeated node": (2, 0, 1, 3, 3),
}


@pytest.mark.parametrize("scorer", ["evaluate", "sweep", "node_importance"])
@pytest.mark.parametrize("bad", sorted(BAD_RANKINGS))
def test_a_ranking_that_is_not_a_permutation_is_refused(scorer, bad):
    model = detector_model()
    g = hot_path_graph("g")
    expl = dataclasses.replace(
        manual_explanation(g, range(5)), node_ranking=BAD_RANKINGS[bad]
    )
    with pytest.raises(ShapeMismatch, match="not a permutation of its 5"):
        if scorer == "evaluate":
            evaluate(model, [g], {"g": expl}, k=2)
        elif scorer == "sweep":
            sweep(model, [g], {"g": expl})
        else:
            node_importance(expl, g)


@pytest.mark.parametrize("scorer", ["evaluate", "sweep"])
@pytest.mark.parametrize("pred", [-1, 2, 7])
def test_a_prediction_outside_the_model_classes_is_refused(scorer, pred):
    model = detector_model()
    g = hot_path_graph("g")
    expls = {"g": manual_explanation(g, range(5), pred=pred)}
    with pytest.raises(ShapeMismatch, match=rf"names class {pred}, outside"):
        if scorer == "evaluate":
            evaluate(model, [g], expls, k=2)
        else:
            sweep(model, [g], expls)


def test_report_fractions_and_counts_in_range():
    model = detector_model()
    graphs, expls = [], {}
    rng = np.random.default_rng(2)
    for i in range(5):
        n = int(rng.integers(3, 7))
        attrs = np.zeros((n, 1))
        attrs[int(rng.integers(0, n)), 0] = 1.0
        g = build_graph(
            n, [(j, (j + 1) % n) for j in range(n)], attrs, False,
            graph_id=f"r{i}",
        )
        graphs.append(g)
        order = rng.permutation(n).tolist()
        expls[g.graph_id] = manual_explanation(g, order)
    report = evaluate(model, graphs, expls, k=2)
    for frac in (report.ep_explained, report.ep_remaining):
        assert 0.0 <= frac <= 1.0
    assert report.eligible_count <= len(graphs)
    if report.sparsity is not None:
        assert report.sparsity <= max(g.node_count for g in graphs)


def test_write_eval_csv_round_trips_rows(tmp_path):
    model = detector_model()
    g = hot_path_graph("csv")
    expls = {"csv": manual_explanation(g, [2, 0, 1, 3, 4])}
    report = evaluate(model, [g], expls, k=2)
    path = tmp_path / "rows.csv"
    write_eval_csv(path, report.per_graph)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["graph_id"] == "csv"
    assert rows[0]["budget"] == "2"
    # booleans go out as 1/0, absent values as empty cells
    assert rows[0]["retained_explained"] == "1"
