"""Exact mask gradients against analytic values and finite differences."""

import numpy as np
import pytest
from conftest import random_model, random_small_graph, two_node_chain
from references import loss

from gxplain.model import Layer, GnnModel, MaskedInput, mask_gradients

FD_STEP = 1e-4
KINK_TOL = 1e-6


def central_diff_edge(model, g, mask, target, arc):
    eg = np.array(mask.edge_gate)
    eg[arc] += FD_STEP
    hi = loss(model, g, MaskedInput(eg, mask.attribute_gate), target)
    eg[arc] -= 2 * FD_STEP
    lo = loss(model, g, MaskedInput(eg, mask.attribute_gate), target)
    return (hi - lo) / (2 * FD_STEP)


def central_diff_attr(model, g, mask, target, node, col):
    ag = np.array(mask.attribute_gate)
    ag[node, col] += FD_STEP
    hi = loss(model, g, MaskedInput(mask.edge_gate, ag), target)
    ag[node, col] -= 2 * FD_STEP
    lo = loss(model, g, MaskedInput(mask.edge_gate, ag), target)
    return (hi - lo) / (2 * FD_STEP)


def relu_kink_free(model, g, mask):
    """True when no pre-activation sits within KINK_TOL of a relu kink.

    Finite differences straddle the kink and disagree with the exact
    one-sided derivative there, so those draws are skipped.
    """
    from gxplain.model import _adjacency, _forward_trace, _propagation

    trace = _forward_trace(model, g, mask, _propagation(_adjacency([g]))[0])
    pres = list(trace.node_z) + list(trace.head_z)
    layers = list(model.gcn_layers) + list(model.head_layers)
    for layer, pre in zip(layers, pres):
        if layer.activation == "relu" and np.any(np.abs(pre) < KINK_TOL):
            return False
    return True


def test_edge_gradient_matches_hand_value():
    # identity convolution on the 2-chain: p(class 0) = sigmoid(e / (2 sqrt 2))
    g = two_node_chain()
    gcn = (Layer(np.array([[1.0]]), np.zeros(1), "relu"),)
    head = (Layer(np.eye(2), np.zeros(2), "identity"),)
    model = GnnModel(1, 2, gcn, head)
    mask = MaskedInput.all_ones(g)
    grads = mask_gradients(model, g, mask, 0)
    z = 1.0 / (2.0 * np.sqrt(2.0))
    expected = (1.0 / (1.0 + np.exp(-z)) - 1.0) / (2.0 * np.sqrt(2.0))
    assert grads.edge_gate[0] == pytest.approx(expected, abs=1e-12)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    checked = 0
    trials = 0
    while checked < 20 and trials < 60:
        trials += 1
        model = random_model(rng, attr_dim=3, hidden=(4, 3))
        g = random_small_graph(rng, n_lo=3, n_hi=8, gid=f"fd{trials}")
        mask = MaskedInput(
            rng.uniform(0.2, 0.8, g.arc_count),
            rng.uniform(0.2, 0.8, (g.node_count, 3)),
        )
        if not relu_kink_free(model, g, mask):
            continue
        target = int(rng.integers(0, 2))
        grads = mask_gradients(model, g, mask, target)
        for arc in range(min(g.arc_count, 4)):
            fd = central_diff_edge(model, g, mask, target, arc)
            scale = max(abs(fd), abs(grads.edge_gate[arc]), 1e-8)
            assert abs(grads.edge_gate[arc] - fd) / scale < 1e-4
        for node in range(min(g.node_count, 3)):
            fd = central_diff_attr(model, g, mask, target, node, 0)
            scale = max(abs(fd), abs(grads.attribute_gate[node, 0]), 1e-8)
            assert abs(grads.attribute_gate[node, 0] - fd) / scale < 1e-4
        checked += 1
    assert checked == 20


def test_gradient_shapes_match_graph():
    rng = np.random.default_rng(12)
    model = random_model(rng)
    g = random_small_graph(rng, gid="shape")
    grads = mask_gradients(model, g, MaskedInput.all_ones(g), 0)
    assert grads.edge_gate.shape == (g.arc_count,)
    assert grads.attribute_gate.shape == (g.node_count, g.attr_dim)


def test_gradient_of_inert_arc_is_zero():
    # zero attributes upstream make the arc's message identically zero
    g = two_node_chain()
    gcn = (Layer(np.array([[1.0]]), np.zeros(1), "relu"),)
    head = (Layer(np.eye(2), np.zeros(2), "identity"),)
    model = GnnModel(1, 2, gcn, head)
    mask = MaskedInput(np.ones(1), np.array([[0.0], [1.0]]))
    grads = mask_gradients(model, g, mask, 0)
    assert grads.edge_gate[0] == 0.0


def _with_parameter(model, index, value):
    """``model`` with parameter ``index`` (W0, b0, W1, b1, ... over the GCN
    and then the head layers) replaced by ``value``."""
    layers = list(model.gcn_layers) + list(model.head_layers)
    i, part = divmod(index, 2)
    w, b = layers[i].weight, layers[i].bias
    layers[i] = Layer(
        value if part == 0 else w, value if part == 1 else b,
        layers[i].activation,
    )
    n_gcn = len(model.gcn_layers)
    return GnnModel(
        model.attr_dim, model.num_classes, layers[:n_gcn], layers[n_gcn:]
    )


def central_diff_weights(model, g, target):
    """Central differences of the loss for every entry of every W and b."""
    layers = list(model.gcn_layers) + list(model.head_layers)
    params = [p for layer in layers for p in (layer.weight, layer.bias)]
    out = []
    for index, p in enumerate(params):
        fd = np.zeros(p.shape)
        for pos in np.ndindex(p.shape):
            step = np.array(p)
            step[pos] += FD_STEP
            hi = loss(_with_parameter(model, index, step), g, None, target)
            step[pos] -= 2 * FD_STEP
            lo = loss(_with_parameter(model, index, step), g, None, target)
            fd[pos] = (hi - lo) / (2 * FD_STEP)
        out.append(fd)
    return out


def readout_tie_free(model, g):
    """True when each max-pooled column has a clear winner: a finite step
    that swaps the argmax makes central differences straddle a kink."""
    from gxplain.model import _forward_trace

    top2 = np.sort(_forward_trace(model, g, None).node_h[-1], axis=0)[-2:]
    return bool(np.all(top2[1] - top2[0] > 1e-3))


def test_weight_gradients_match_finite_differences_alone_and_stacked():
    from gxplain.model import (
        _adjacency,
        _backward,
        _forward_trace,
        _layer_stack,
        _propagation,
    )

    rng = np.random.default_rng(13)
    checked = 0
    for trial in range(40):
        model = random_model(rng, attr_dim=3, hidden=(4, 3))
        # a relu layer inside the head, so the head's chain rule is covered
        inner = Layer(rng.normal(size=(6, 5)), rng.normal(size=5), "relu")
        outer = Layer(rng.normal(size=(5, 2)), rng.normal(size=2), "identity")
        model = GnnModel(3, 2, model.gcn_layers, (inner, outer))
        # equal node counts, so the graphs stack
        graphs = [
            random_small_graph(rng, 6, 6, gid=f"w{trial}.{i}") for i in range(3)
        ]
        if not all(
            relu_kink_free(model, g, None) and readout_tie_free(model, g)
            for g in graphs
        ):
            continue
        targets = rng.integers(0, 2, len(graphs))
        a = np.stack([_propagation(_adjacency([g]))[0] for g in graphs])
        x = np.stack([g.attributes for g in graphs])
        stacked = _backward(model, _layer_stack(model, a, x), targets)
        for i, (g, target) in enumerate(zip(graphs, targets)):
            alone = _backward(model, _forward_trace(model, g, None), target)
            fd = central_diff_weights(model, g, int(target))
            assert len(alone) == len(fd) == 2 * 4
            for grad, grad_stacked, expected in zip(alone, stacked, fd):
                np.testing.assert_allclose(grad, expected, rtol=1e-4, atol=1e-7)
                assert np.array_equal(grad_stacked[i], grad)
        checked += 1
        if checked == 4:
            break
    assert checked == 4


def test_floored_target_has_zero_gradients_alone_and_stacked():
    from gxplain.model import (
        PROBABILITY_FLOOR,
        _adjacency,
        _backward,
        _forward_trace,
        _layer_stack,
        _propagation,
    )

    rng = np.random.default_rng(5)
    # identity GCN layers: no dead relu zeroes the unfloored gradients
    gcn = (
        Layer(rng.normal(size=(3, 4)), rng.normal(size=4), "identity"),
        Layer(rng.normal(size=(4, 3)), rng.normal(size=3), "identity"),
    )
    # class 1 outscores class 0 by about 28 nats: p(0) sits below the floor
    head = Layer(
        1e-3 * rng.normal(size=(6, 2)), np.array([0.0, 28.0]), "identity"
    )
    model = GnnModel(3, 2, gcn, (head,))
    graphs = [random_small_graph(rng, 6, 6, gid=f"f{i}") for i in range(2)]
    mask = MaskedInput(
        rng.uniform(size=graphs[0].arc_count),
        rng.uniform(size=(6, 3)),
    )
    assert forward_probability(model, graphs[0], mask, 0) < PROBABILITY_FLOOR

    grads = mask_gradients(model, graphs[0], mask, 0)
    assert not grads.edge_gate.any() and not grads.attribute_gate.any()
    assert mask_gradients(model, graphs[0], mask, 1).edge_gate.any()

    a = np.stack([_propagation(_adjacency([g]))[0] for g in graphs])
    x = np.stack([g.attributes for g in graphs])
    stacked = _backward(model, _layer_stack(model, a, x), np.array([0, 1]))
    for target, (i, g) in zip((0, 1), enumerate(graphs)):
        alone = _backward(model, _forward_trace(model, g, None), target)
        for grad, grad_stacked in zip(alone, stacked):
            assert np.array_equal(grad_stacked[i], grad)
        assert any(grad.any() for grad in alone) == (target == 1)


def forward_probability(model, g, mask, target):
    from gxplain.model import forward

    return float(forward(model, g, mask).probabilities[target])
