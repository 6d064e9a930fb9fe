"""Mask learning, score aggregation, and explanation serialization."""

import json

import numpy as np
import pytest
from conftest import detector_model, random_model, random_small_graph, ring_graph

from gxplain.errors import DomainError, NotUndirected, ShapeMismatch
from gxplain.explain import (
    ExplainConfig,
    HardConcreteConfig,
    explain,
    explanation_to_dict,
    importance_from_mask,
    init_masks,
    learn_masks,
    load_explanation,
    node_importance,
    save_explanation,
)
from gxplain.graphs import build_graph

FAST = ExplainConfig(epochs=5)


def test_config_rejects_bad_values():
    with pytest.raises(DomainError):
        ExplainConfig(learning_rate=0.0)
    with pytest.raises(DomainError):
        ExplainConfig(lambda_edge_size=-0.1)
    with pytest.raises(DomainError):
        ExplainConfig(agg1="median")
    with pytest.raises(DomainError):
        ExplainConfig(mode="edges")
    with pytest.raises(DomainError):
        ExplainConfig(sharing="tied")


def test_init_masks_layouts():
    g = ring_graph(5)
    m = init_masks(g, FAST, seed=0)
    assert m.edge_logits.shape == (10,)
    assert m.attr_logits.shape == (5,)
    assert m.edge_slot.tolist() == list(range(10))

    shared = init_masks(
        g, ExplainConfig(sharing="undirected_pair_shared"), seed=0
    )
    # mates sit at adjacent arc positions and share one slot
    assert shared.edge_slot.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]

    per_node = init_masks(
        g, ExplainConfig(sharing="per_node_attr_shared"), seed=0
    )
    assert per_node.attr_logits.shape == (5,)
    assert (per_node.attr_slot == np.arange(5).reshape(5, 1)).all()


def test_pair_sharing_requires_undirected():
    g = build_graph(3, [(0, 1)], np.zeros((3, 1)), True)
    with pytest.raises(NotUndirected):
        init_masks(g, ExplainConfig(sharing="undirected_pair_shared"), seed=0)


def scored_explanation(seed=0, epochs=40, **kw):
    rng = np.random.default_rng(seed)
    model = random_model(rng)
    g = random_small_graph(rng, gid="expl")
    cfg = ExplainConfig(epochs=epochs, **kw)
    return model, g, explain(model, g, cfg), cfg


def test_scores_lie_in_unit_interval():
    _, g, expl, _ = scored_explanation()
    for arr in (expl.edge_score, expl.attr_score, expl.node_attr_score, expl.node_score):
        assert (arr >= 0.0).all() and (arr <= 1.0).all()


def test_ranking_is_permutation_consistent_with_scores():
    _, g, expl, _ = scored_explanation(seed=1)
    rank = list(expl.node_ranking)
    assert sorted(rank) == list(range(g.node_count))
    scores = expl.node_score
    for a, b in zip(rank, rank[1:]):
        assert scores[a] > scores[b] or (
            scores[a] == scores[b] and a < b
        )


def test_message_importance_is_arc_times_source_attr_score():
    _, g, expl, _ = scored_explanation(seed=3)
    # max/max is the best message on any incident arc, a message being the
    # arc's edge score times its source node's attribute score
    omega = node_importance(expl, g, agg1="max", agg2="max")
    for v in range(g.node_count):
        incident = [
            s * expl.node_attr_score[i]
            for (i, j), s in zip(expl.arcs, expl.edge_score)
            if v in (i, j)
        ]
        expected = max(incident) if incident else expl.node_attr_score[v]
        assert omega[v] == pytest.approx(expected, abs=1e-12)


def test_node_importance_max_max_equals_direct_recomputation():
    model, g, expl, _ = scored_explanation(seed=2)
    # with all attribute scores forced to 1, max/max reduces to the best
    # incident arc score
    pinned = type(expl)(
        graph_id=expl.graph_id,
        arcs=expl.arcs,
        original_prediction=expl.original_prediction,
        original_probability=expl.original_probability,
        edge_score=expl.edge_score,
        attr_score=np.ones_like(expl.attr_score),
        node_attr_score=np.ones(g.node_count),
        node_score=expl.node_score,
        node_ranking=expl.node_ranking,
    )
    omega = node_importance(pinned, g, agg1="max", agg2="max")
    for v in range(g.node_count):
        incident = [
            s for (i, j), s in zip(expl.arcs, expl.edge_score) if v in (i, j)
        ]
        expected = max(incident) if incident else 0.0
        assert omega[v] == pytest.approx(expected, abs=1e-12)


def test_node_importance_refuses_a_graph_of_another_node_count():
    _, g, expl, _ = scored_explanation(seed=2)
    # the same arcs plus an isolated node
    n = g.node_count + 1
    wider = build_graph(n, g.arcs, np.zeros((n, g.attr_dim)), g.directed)
    assert tuple(map(tuple, wider.arcs.tolist())) == expl.arcs
    with pytest.raises(ShapeMismatch, match=f"has {n} nodes"):
        node_importance(expl, wider)


def _loop_node_scores(node_count, src, dst, message, node_attr, agg1, agg2):
    # reference: one pass per node over all arcs
    agg = {"max": np.max, "mean": np.mean}
    out = np.empty(node_count)
    for i in range(node_count):
        sides = [
            agg[agg1](side)
            for side in (message[src == i], message[dst == i])
            if side.size
        ]
        out[i] = agg[agg2](np.asarray(sides)) if sides else node_attr[i]
    return out


@pytest.mark.parametrize("agg1", ["max", "mean"])
@pytest.mark.parametrize("agg2", ["max", "mean"])
def test_vectorised_node_scores_match_the_per_node_loop(agg1, agg2):
    from gxplain.explain import _node_scores_from_messages

    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(1, 16))
        # a hub with many arcs, random extra arcs, some nodes left isolated
        edges = [(0, int(v)) for v in range(1, n) if rng.random() < 0.7]
        edges += [
            (int(rng.integers(n)), int(rng.integers(n))) for _ in range(n)
        ]
        g = build_graph(
            n, edges, np.ones((n, 1)), directed=bool(trial % 2), graph_id="v"
        )
        src, dst = g.arc_index_arrays()
        message = rng.random(g.arc_count)
        node_attr = rng.random(n)
        got = _node_scores_from_messages(
            n, src, dst, message, node_attr, agg1, agg2
        )
        want = _loop_node_scores(n, src, dst, message, node_attr, agg1, agg2)
        if agg1 == "max":
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_node_attr_importance_is_geometric_mean_within_bounds():
    _, g, expl, _ = scored_explanation(seed=4)
    for v in range(g.node_count):
        geo = expl.node_attr_score[v]
        row = np.maximum(expl.attr_score[v], 1e-12)
        assert geo == pytest.approx(float(np.exp(np.log(row).mean())), rel=1e-9)
        assert row.min() - 1e-12 <= geo <= row.max() + 1e-12


def test_pair_aggregation_collapses_directions():
    rng = np.random.default_rng(5)
    model = random_model(rng, attr_dim=2)
    g = build_graph(3, [(0, 1), (1, 2)], rng.normal(size=(3, 2)), False)
    for agg, fn in (("mean", np.mean), ("max", np.max), ("min", np.min)):
        cfg = ExplainConfig(epochs=10, pair_agg=agg)
        masks, expl = learn_masks(model, g, cfg)
        arc_score = importance_from_mask(
            masks.edge_logit_per_arc(), cfg.hard_concrete.beta
        )
        pair = expl.edge_score
        # one value per pair, repeated at both mate positions
        assert pair.shape == (4,)
        assert pair[0] == pair[1] == pytest.approx(fn(arc_score[0:2]))
        assert pair[2] == pair[3] == pytest.approx(fn(arc_score[2:4]))


def test_pair_shared_masks_give_equal_mate_scores():
    rng = np.random.default_rng(6)
    model = random_model(rng, attr_dim=2)
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)], rng.normal(size=(4, 2)), False)
    expl = explain(
        model, g, ExplainConfig(epochs=15, sharing="undirected_pair_shared")
    )
    assert expl.edge_score[0::2] == pytest.approx(expl.edge_score[1::2], abs=0)


def test_per_node_sharing_makes_attr_scores_equal_within_node():
    rng = np.random.default_rng(7)
    model = random_model(rng, attr_dim=3)
    g = random_small_graph(rng, gid="pn")
    expl = explain(
        model, g, ExplainConfig(epochs=15, sharing="per_node_attr_shared")
    )
    assert (expl.attr_score == expl.attr_score[:, :1]).all()


def test_edge_only_pins_attribute_side_to_one():
    rng = np.random.default_rng(8)
    model = random_model(rng)
    g = random_small_graph(rng, gid="eo")
    expl = explain(model, g, ExplainConfig(epochs=20, mode="edge_only"))
    assert (expl.attr_score == 1.0).all()
    assert (expl.node_attr_score == 1.0).all()


def test_edge_only_and_full_coincide_when_attrs_pinned():
    """Pinning the attribute side reduces full mode to edge-only learning.

    Both runs must consume the identical uniform stream for the edge
    parameters, so the learned edge scores agree exactly.
    """
    rng = np.random.default_rng(9)
    model = random_model(rng)
    g = random_small_graph(rng, gid="pin")
    cfg_eo = ExplainConfig(epochs=25, mode="edge_only")
    expl_eo = explain(model, g, cfg_eo)

    cfg_full = ExplainConfig(epochs=25, mode="full", lambda_attr_size=0.0, lambda_attr_entropy=0.0)
    masks = init_masks(g, cfg_full, cfg_full.hard_concrete.seed)
    masks.attr_logits[:] = 500.0  # gate saturates at exactly 1
    _, expl_full = learn_masks(model, g, cfg_full, initial_masks=masks)
    assert expl_full.edge_score == pytest.approx(expl_eo.edge_score, abs=1e-12)


def test_deterministic_mode_is_pure():
    rng = np.random.default_rng(10)
    model = random_model(rng)
    g = random_small_graph(rng, gid="det")
    cfg = ExplainConfig(
        epochs=20, hard_concrete=HardConcreteConfig(stochastic=False)
    )
    a = explain(model, g, cfg)
    b = explain(model, g, cfg)
    assert np.array_equal(a.edge_score, b.edge_score)
    assert np.array_equal(a.attr_score, b.attr_score)
    assert a.node_ranking == b.node_ranking


def test_stochastic_mode_is_reproducible_by_seed():
    rng = np.random.default_rng(11)
    model = random_model(rng)
    g = random_small_graph(rng, gid="rep")
    a = explain(model, g, ExplainConfig(epochs=20))
    b = explain(model, g, ExplainConfig(epochs=20))
    c = explain(
        model, g, ExplainConfig(epochs=20, hard_concrete=HardConcreteConfig(seed=1))
    )
    assert np.array_equal(a.edge_score, b.edge_score)
    assert not np.array_equal(a.edge_score, c.edge_score)


def test_learning_recovers_the_informative_arc():
    """The arc carrying all class evidence outranks inert decoys."""
    n = 6
    attrs = np.zeros((n, 1))
    attrs[0, 0] = 1.0
    edges = [(0, 1), (2, 3), (3, 4), (4, 5), (2, 5)]
    g = build_graph(n, edges, attrs, True, graph_id="needle")
    cfg = ExplainConfig(
        epochs=150,
        lambda_edge_size=0.05,
        lambda_attr_size=0.05,
        lambda_edge_entropy=0.0,
        lambda_attr_entropy=0.0,
    )
    expl = explain(detector_model(), g, cfg)
    assert int(np.argmax(expl.edge_score)) == 0


def test_zero_epochs_returns_initial_scores():
    rng = np.random.default_rng(12)
    model = random_model(rng)
    g = random_small_graph(rng, gid="z")
    cfg = ExplainConfig(epochs=0)
    masks, expl = learn_masks(model, g, cfg)
    init = init_masks(g, cfg, cfg.hard_concrete.seed)
    assert np.array_equal(masks.edge_logits, init.edge_logits)


def test_on_epoch_callback_sees_every_epoch():
    rng = np.random.default_rng(13)
    model = random_model(rng)
    g = random_small_graph(rng, gid="cb")
    seen = []
    learn_masks(model, g, FAST, on_epoch=lambda e, m: seen.append(e))
    assert seen == list(range(5))


def test_save_load_round_trip(tmp_path):
    model, g, expl, cfg = scored_explanation(seed=14, epochs=10)
    path = tmp_path / "expl.json"
    save_explanation(expl, cfg, path)
    loaded, meta = load_explanation(path)
    assert loaded.graph_id == expl.graph_id
    assert loaded.arcs == expl.arcs
    assert np.array_equal(loaded.edge_score, expl.edge_score)
    assert np.array_equal(loaded.attr_score, expl.attr_score)
    assert loaded.node_ranking == expl.node_ranking
    assert meta["epochs"] == 10


def test_explanation_dict_is_json_stable():
    model, g, expl, cfg = scored_explanation(seed=15, epochs=10)
    doc1 = json.dumps(explanation_to_dict(expl, cfg), sort_keys=True)
    doc2 = json.dumps(explanation_to_dict(expl, cfg), sort_keys=True)
    assert doc1 == doc2
