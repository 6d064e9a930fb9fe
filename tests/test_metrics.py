"""Budget resolution, EP metrics, sparsity, and the evaluation report."""

import csv
import dataclasses

import numpy as np
import pytest
from conftest import detector_model, random_model, random_small_graph
from hypothesis import given, settings
from hypothesis import strategies as st
from references import keeps_class_on_top_attributes

from gxplain.errors import (
    InvalidBudget,
    MissingExplanation,
    ShapeMismatch,
    ValidationError,
)
from gxplain.explain import (
    ExplainConfig,
    Explanation,
    explain,
    init_masks,
    node_importance,
)
from gxplain.graphs import build_graph
from gxplain.metrics import (
    _attribute_hits,
    _stack_by_size,
    default_prediction,
    evaluate,
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


@pytest.mark.parametrize("budget", [{"k": 1}, {"rate": 0.5}, {"rate": 1.0}])
def test_a_graph_without_nodes_is_skipped_under_a_rate_as_under_k(budget):
    assert resolve_budget(0, **budget) is None
    model = detector_model()
    empty = build_graph(0, [], np.zeros((0, 1)), False, graph_id="empty")
    hot = hot_path_graph("hot")
    expls = {
        "empty": manual_explanation(empty, [], pred=0),
        "hot": manual_explanation(hot, [2, 1, 3, 0, 4]),
    }
    report = evaluate(model, [empty, hot], expls, **budget)
    assert report.evaluated_count == 1
    assert (report.ep_explained, report.ep_remaining) == (1.0, 0.0)
    row = report.per_graph[0]
    assert row.graph_id == "empty"
    assert (row.budget, row.retained_explained, row.retained_remaining) == (
        None,
        None,
        None,
    )


def test_default_prediction_is_head_of_zero_readout():
    assert default_prediction(detector_model()) == 0


@st.composite
def attribute_cases(draw):
    """A model, 1-6 graphs of 0-5 nodes (node-less ones in any width),
    attribute scores from four values, so that ties are common, and an
    attribute budget from 1 to one past the model's width."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 4))
    hidden = draw(st.lists(st.integers(1, 4), max_size=2))
    model = random_model(rng, d, hidden, draw(st.integers(2, 3)))
    graphs, expls = [], {}
    sizes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=6))
    for i, n in enumerate(sizes):
        width = draw(st.integers(0, 4)) if n == 0 else d
        edges = rng.integers(0, max(n, 1), (2 * n, 2)).tolist()
        attrs = rng.normal(size=(n, width))
        directed = bool(rng.integers(2))
        g = build_graph(n, edges, attrs, directed, graph_id=f"g{i}")
        expls[g.graph_id] = dataclasses.replace(
            manual_explanation(g, range(n), rng.integers(model.num_classes)),
            attr_score=rng.choice([0.0, 0.25, 0.5, 1.0], size=(n, width)),
        )
        graphs.append(g)
    return model, graphs, expls, draw(st.integers(1, d + 1))


@settings(max_examples=80, deadline=None)
@given(attribute_cases())
def test_attribute_budget_scores_each_graph_as_its_reference(case):
    model, graphs, expls, top_t = case
    want = [
        keeps_class_on_top_attributes(
            model, g, expls[g.graph_id].attr_score, top_t,
            expls[g.graph_id].original_prediction,
        )
        for g in graphs
    ]
    stacks = _stack_by_size(
        model,
        graphs,
        [expls[g.graph_id].node_ranking for g in graphs],
        [expls[g.graph_id].original_prediction for g in graphs],
    )
    scores = [expls[g.graph_id].attr_score for g in graphs]
    assert _attribute_hits(model, stacks, scores, top_t) == want
    report = evaluate(model, graphs, expls, k=1, attr_top=top_t)
    assert report.ep_attribute == sum(want) / len(want)


def test_attribute_budget_takes_a_node_less_graph_of_any_width():
    # as the scan does: the zero readout reads no attribute column
    model = detector_model()
    empty = build_graph(0, [], np.zeros((0, 3)), True, graph_id="empty")
    hot = hot_path_graph("hot")
    expls = {
        "empty": manual_explanation(empty, [], pred=0),
        "hot": manual_explanation(hot, [2, 0, 1, 3, 4]),
    }
    assert evaluate(model, [empty, hot], expls, k=1).ep_attribute is None
    report = evaluate(model, [empty, hot], expls, k=1, attr_top=1)
    assert report.ep_attribute == 1.0
    # a graph with nodes must have the model's width
    wide = build_graph(2, [(0, 1)], np.ones((2, 3)), True, graph_id="wide")
    expls["wide"] = manual_explanation(wide, [0, 1])
    refused = "graph has 3 attributes, model expects 1"
    for attr_top in (None, 1):
        with pytest.raises(ShapeMismatch, match=refused):
            evaluate(model, [empty, hot, wide], expls, k=1, attr_top=attr_top)


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


@pytest.mark.parametrize("value", [2.5, True, "2"])
def test_budgets_that_are_not_integers_are_refused(value):
    with pytest.raises(InvalidBudget, match="k must be an integer"):
        resolve_budget(10, k=value)
    # each before any graph is read
    for budget in ({"k": value}, {"k": 1, "attr_top": value}):
        with pytest.raises(InvalidBudget, match="must be an integer"):
            evaluate(detector_model(), [hot_path_graph("gone")], {}, **budget)


@pytest.mark.parametrize("rate", [True, np.True_, "0.3"])
def test_a_rate_that_is_a_bool_or_not_a_number_is_refused(rate):
    with pytest.raises(InvalidBudget, match="rate"):
        resolve_budget(10, rate=rate)
    with pytest.raises(InvalidBudget, match="rate"):
        evaluate(detector_model(), [hot_path_graph("gone")], {}, rate=rate)


def test_numpy_integer_budgets_score_as_python_integers():
    model = detector_model()
    g = hot_path_graph()
    expls = {"hot": manual_explanation(g, [2, 1, 3, 0, 4])}
    assert resolve_budget(10, k=np.int64(3)) == 3
    want = evaluate(model, [g], expls, k=2, attr_top=1)
    got = evaluate(model, [g], expls, k=np.int32(2), attr_top=np.int64(1))
    assert got == want


def test_a_graph_id_repeated_among_the_scored_graphs_is_refused():
    model = detector_model()
    g = hot_path_graph()
    expls = {"hot": manual_explanation(g, [2, 1, 3, 0, 4])}
    with pytest.raises(ValidationError, match="hot"):
        evaluate(model, [g, hot_path_graph("cold"), g], expls, k=2)
    with pytest.raises(ValidationError, match="hot"):
        sweep(model, [g, g], expls)


def test_evaluate_checks_attr_top_before_reading_any_graph():
    model = detector_model()
    with pytest.raises(InvalidBudget, match="attr_top"):
        evaluate(model, [], {}, k=1, attr_top=0)
    # before a missing explanation is looked for, too
    with pytest.raises(InvalidBudget, match="attr_top"):
        evaluate(model, [hot_path_graph("missing")], {}, k=1, attr_top=0)


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


@pytest.mark.parametrize(
    "fault",
    ["repeated id", "missing explanations", "foreign graph", "bad ranking",
     "class outside", "masks of another graph"],
)
def test_an_error_naming_a_long_graph_id_stays_one_short_line(fault):
    # the id is cut by _schema._shown, a list of ids after its first three
    long = "s" * 100_000
    g = hot_path_graph(long)
    graphs, expls = [g], {long: manual_explanation(g, range(5))}
    if fault == "repeated id":
        graphs = [g, g]
    elif fault == "missing explanations":
        graphs = [hot_path_graph(long + str(i)) for i in range(5)]
    elif fault == "foreign graph":
        expls = {long: manual_explanation(path_graph(4), range(4))}
    elif fault == "bad ranking":
        expls[long] = dataclasses.replace(
            expls[long], node_ranking=(0, 0, 1, 2, 3)
        )
    elif fault == "class outside":
        expls = {long: manual_explanation(g, range(5), pred=7)}
    errors = (ValidationError, MissingExplanation, ShapeMismatch)
    with pytest.raises(errors) as refused:
        if fault == "masks of another graph":
            init_masks(path_graph(4), ExplainConfig(), 0).check_graph(g)
        else:
            evaluate(detector_model(), graphs, expls, k=2)
    message = str(refused.value)
    assert len(message) < 400 and f"'{'s' * 56}..." in message
    if fault == "missing explanations":
        assert message.endswith(" and 2 more")


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
