"""Optimizer behavior and end-to-end training."""

import numpy as np
import pytest

from gxplain.datasets import Dataset, generate_ba2motifs
from gxplain.graphs import build_graph
from gxplain.model import _forward_trace, forward, loss, normalize_adjacency
from gxplain.optim import Adam
from gxplain.training import (
    _assemble,
    calibrate_parameters,
    evaluate_accuracy,
    init_parameters,
    train_model,
)


def test_adam_first_step_equals_lr_for_clean_gradient():
    p = np.array([1.0])
    opt = Adam([p], learning_rate=0.01)
    opt.step([np.array([0.5])])
    # bias-corrected first step: mhat / (sqrt(vhat) + eps) = g / |g|
    assert p[0] == pytest.approx(1.0 - 0.01, rel=1e-6)


def test_adam_hand_computed_second_step():
    p = np.array([0.0])
    opt = Adam([p], learning_rate=0.1)
    g1, g2 = 1.0, -0.5
    opt.step([np.array([g1])])
    opt.step([np.array([g2])])
    m2 = 0.9 * (0.1 * g1) + 0.1 * g2
    v2 = 0.999 * (0.001 * g1 * g1) + 0.001 * g2 * g2
    mhat = m2 / (1 - 0.9**2)
    vhat = v2 / (1 - 0.999**2)
    p1 = 0.0 - 0.1 * (0.1 * g1 / (1 - 0.9)) / (
        np.sqrt(0.001 * g1 * g1 / (1 - 0.999)) + 1e-8
    )
    expected = p1 - 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
    assert p[0] == pytest.approx(expected, abs=1e-12)


def test_adam_updates_in_place_and_counts_steps():
    p = np.zeros(3)
    opt = Adam([p], learning_rate=0.5)
    opt.step([np.ones(3)])
    assert opt.step_count == 1
    assert (p != 0).all()
    with pytest.raises(ValueError):
        opt.step([np.ones(3), np.ones(1)])


def tiny_dataset():
    """Two separable graphs: signal on node 0 versus no signal."""
    hot = np.zeros((4, 2))
    hot[0] = (1.0, 0.5)
    g0 = build_graph(4, [(0, 1), (1, 2), (2, 3)], hot, False, label=1, graph_id="hot")
    g1 = build_graph(4, [(0, 1), (1, 2), (2, 3)], np.full((4, 2), 0.05), False, label=0, graph_id="cold")
    return Dataset("tiny", [g0, g1], 2, 2, splits={"train": [0, 1]})


def path_copy(label, gid):
    return build_graph(
        4, [(0, 1), (1, 2), (2, 3)], np.full((4, 2), 0.3), False,
        label=label, graph_id=gid,
    )


def test_memorizes_single_repeated_graph():
    copies = [path_copy(1, f"c{i}") for i in range(3)]
    ds = Dataset("memo", copies, 2, 2, splits={"train": [0, 1, 2]})
    result = train_model(ds, hidden_dims=(4,), learning_rate=0.05, epochs=300, seed=0)
    assert result.train_accuracy[-1] == 1.0
    assert result.train_loss[-1] < 1e-3


def test_identical_graphs_with_opposite_labels_score_half():
    ds = Dataset(
        "conflict",
        [path_copy(0, "a"), path_copy(1, "b")],
        2,
        2,
        splits={"train": [0, 1]},
    )
    result = train_model(ds, hidden_dims=(4,), epochs=50, seed=0)
    assert result.train_accuracy[-1] == 0.5


def test_training_is_deterministic_per_seed():
    ds = generate_ba2motifs(40, seed=1)
    a = train_model(ds, epochs=5, seed=4).model
    b = train_model(ds, epochs=5, seed=4).model
    for la, lb in zip(a.gcn_layers + a.head_layers, b.gcn_layers + b.head_layers):
        assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(la.bias, lb.bias)


def test_different_seeds_give_different_parameters():
    ds = generate_ba2motifs(40, seed=1)
    a = train_model(ds, epochs=2, seed=0).model
    b = train_model(ds, epochs=2, seed=1).model
    assert not np.array_equal(a.gcn_layers[0].weight, b.gcn_layers[0].weight)


def test_calibration_centers_and_scales_preactivations():
    ds = generate_ba2motifs(40, seed=2)
    graphs = ds.split_graphs("train")
    params = init_parameters(ds.attr_dim, ds.num_classes, (8, 8), seed=0)
    adjacency = [normalize_adjacency(g) for g in graphs]
    calibrate_parameters(params, (8, 8), graphs, adjacency)

    # the first layer's pre-activations, as the model's own forward pass
    # computes them
    model = _assemble(ds.attr_dim, ds.num_classes, (8, 8), params)
    pre = np.vstack([_forward_trace(model, g, None).node_z[0] for g in graphs])
    assert np.abs(pre.mean(axis=0)).max() < 1e-9
    assert pre.std(axis=0) == pytest.approx(np.ones(8), abs=1e-9)


def test_evaluate_accuracy_counts_correct_predictions():
    ds = tiny_dataset()
    model = train_model(ds, hidden_dims=(4,), epochs=300, seed=0).model
    assert evaluate_accuracy(model, ds.graphs) == 1.0


def test_loss_history_decreases_overall():
    ds = generate_ba2motifs(40, seed=3)
    result = train_model(ds, epochs=60, seed=0)
    assert result.train_loss[-1] < result.train_loss[0]
    assert len(result.train_loss) == 60
