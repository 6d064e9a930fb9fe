"""Forward pass, masking semantics, and model serialization."""

import ast
from pathlib import Path

import numpy as np
import pytest
from conftest import detector_model, random_model, random_small_graph, two_node_chain
from references import loss

from gxplain import model as model_module
from gxplain.errors import ShapeMismatch, UnsupportedActivation
from gxplain.graphs import build_graph
from gxplain.model import (
    GnnModel,
    Layer,
    MaskedInput,
    forward,
    load_model,
    _adjacency,
    _induced_operands,
    _induced_probabilities,
    _layer_stack,
    _propagation,
    save_model,
)

SQRT2 = np.sqrt(2.0)


def identity_model():
    # one pass-through convolution, head reads (max, mean) directly
    gcn = (Layer(np.array([[1.0]]), np.zeros(1), "relu"),)
    head = (Layer(np.eye(2), np.zeros(2), "identity"),)
    return GnnModel(1, 2, gcn, head)


def test_normalization_uses_in_degree_plus_one():
    g = two_node_chain()
    a = _propagation(_adjacency([g]))[0]
    # d~ = (1, 2): node 1 has one incoming arc
    assert np.diag(a).tolist() == [1.0, 0.5]
    assert a[1, 0] == pytest.approx(1.0 / SQRT2)


def test_induced_operator_of_every_node_is_the_graph_operator():
    graphs = [two_node_chain(), build_graph(2, [(1, 0)], [[1.0], [2.0]], True)]
    adjacency = _adjacency(graphs)
    x = np.stack([g.attributes for g in graphs])
    every = np.array([[0, 1], [0, 1]])
    for blocks in (adjacency[[1, 0]], adjacency[[1, 0]] != 0):
        a_eff, _ = _induced_operands(blocks, x, [1, 0], every)
        for a, g in zip(a_eff, graphs[::-1]):
            assert a.tobytes() == _propagation(_adjacency([g]))[0].tobytes()
    # the gather copies, so the 0/1 stack is not normalized in place
    _induced_probabilities(identity_model(), adjacency, x, [1, 0], every)
    assert adjacency.tobytes() == _adjacency(graphs).tobytes()


def test_gcn_normalization_is_written_once():
    # every operator, masked, stacked or induced, comes from _propagation
    text = Path(model_module.__file__).read_text(encoding="utf-8")
    users = [
        node.name
        for node in ast.parse(text).body
        if "np.sqrt(" in (ast.get_source_segment(text, node) or "")
    ]
    assert text.count("np.sqrt(") == 1
    assert users == ["_propagation"]


def _name(call: ast.Call) -> str:
    return getattr(call.func, "id", getattr(call.func, "attr", ""))


def _calls(tree) -> list[ast.Call]:
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call)]


def _probability_only(call: ast.Call) -> bool:
    return any(
        k.arg == "keep" and getattr(k.value, "value", True) is False
        for k in call.keywords
    )


def _source(name: str) -> ast.Module:
    # read by path: the package re-exports functions named like modules
    path = Path(model_module.__file__).with_name(f"{name}.py")
    return ast.parse(path.read_text(encoding="utf-8"))


def _functions(name: str) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in _source(name).body
        if isinstance(node, ast.FunctionDef)
    }


def test_layer_arithmetic_is_written_once():
    # the layer products, readout and softmax all live in _layer_stack
    users = {
        name
        for name, fn in _functions("model").items()
        for node in ast.walk(fn)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.MatMult)
        and getattr(node.right, "attr", "") == "weight"
    }
    callers = {
        name
        for name, fn in _functions("model").items()
        if {"_readout", "_softmax"} & {_name(c) for c in _calls(fn)}
    }
    assert users == callers == {"_layer_stack"}


def test_probability_readers_keep_no_trace():
    keeps_trace = {"forward", "_forward_trace", "mask_gradients"}
    readers = [
        _source("oracle"),
        _source("metrics"),
        _functions("training")["_accuracy"],
    ]
    for tree in readers:
        names = [_name(c) for c in _calls(tree)]
        assert not keeps_trace & set(names) and "_backward" not in names
        assert {"_induced_probabilities", "_layer_stack"} & set(names)
        stacks = [c for c in _calls(tree) if _name(c) == "_layer_stack"]
        assert all(_probability_only(c) for c in stacks)
    (inner,) = [
        c
        for c in _calls(_functions("model")["_block_probabilities"])
        if _name(c) == "_layer_stack"
    ]
    assert _probability_only(inner)
    assert "_block_probabilities" in {
        _name(c) for c in _calls(_functions("model")["_induced_probabilities"])
    }


def test_no_probability_only_result_reaches_backward():
    for name in ("model", "training", "explain", "metrics", "oracle"):
        for fn in _functions(name).values():
            calls = _calls(fn)
            if "_backward" in {_name(c) for c in calls}:
                probability_only = [
                    c
                    for c in calls
                    if _name(c)
                    in {"_induced_probabilities", "_block_probabilities"}
                    or _probability_only(c)
                ]
                assert not probability_only, fn.name
    # and the bare array has none of the fields _backward reads
    g = two_node_chain()
    a = _propagation(_adjacency([g]))[0]
    p = _layer_stack(identity_model(), a, g.attributes, keep=False)
    assert type(p) is np.ndarray and p.shape == (2,)


def test_forward_hand_computed_two_node_chain():
    g = two_node_chain()
    out = forward(identity_model(), g)
    # node fields: 1 * 1 and 0.5 * 2 + 1/sqrt(2) * 1
    field1 = 1.0 + 1.0 / SQRT2
    assert out.logits == pytest.approx([field1, (1.0 + field1) / 2.0], abs=1e-12)
    assert out.predicted_class == 0


def test_softmax_sums_to_one_and_is_positive():
    rng = np.random.default_rng(0)
    model = random_model(rng)
    for i in range(5):
        g = random_small_graph(rng, gid=f"s{i}")
        out = forward(model, g)
        assert out.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
        assert (out.probabilities > 0).all()


def test_all_ones_mask_equals_unmasked_exactly():
    rng = np.random.default_rng(1)
    model = random_model(rng)
    for i in range(5):
        g = random_small_graph(rng, gid=f"m{i}")
        base = forward(model, g)
        masked = forward(model, g, mask=MaskedInput.all_ones(g))
        assert np.array_equal(base.logits, masked.logits)


def test_edge_gate_scales_message_linearly():
    g = two_node_chain()
    model = identity_model()
    for gate in (0.0, 0.25, 1.0):
        m = MaskedInput(np.array([gate]), np.ones((2, 1)))
        out = forward(model, g, mask=m)
        field1 = 1.0 + gate / SQRT2
        assert out.logits == pytest.approx(
            [max(1.0, field1), (1.0 + field1) / 2.0], abs=1e-12
        )


def test_self_loops_are_never_gated():
    g = two_node_chain()
    m = MaskedInput(np.zeros(1), np.ones((2, 1)))
    out = forward(identity_model(), g, mask=m)
    # arc gated away, self terms remain: fields (1, 1)
    assert out.logits == pytest.approx([1.0, 1.0], abs=1e-12)


def test_attribute_gates_apply_to_input_only():
    g = two_node_chain()
    m = MaskedInput(np.ones(1), np.array([[1.0], [0.0]]))
    out = forward(identity_model(), g, mask=m)
    # node 1's own attribute is zeroed, the incoming message survives
    field1 = 1.0 / SQRT2
    assert out.logits == pytest.approx([1.0, (1.0 + field1) / 2.0], abs=1e-12)


def test_gates_are_clamped_to_unit_interval():
    m = MaskedInput(np.array([2.0, -1.0]), np.full((2, 2), 1.5))
    assert m.edge_gate.tolist() == [1.0, 0.0]
    assert (m.attribute_gate == 1.0).all()


def test_mask_shape_validation():
    g = two_node_chain()
    with pytest.raises(ShapeMismatch):
        forward(identity_model(), g, mask=MaskedInput(np.ones(3), np.ones((2, 1))))


def test_empty_graph_readout_is_zero():
    g = build_graph(0, [], np.zeros((0, 1)), True)
    out = forward(identity_model(), g)
    assert out.logits.tolist() == [0.0, 0.0]
    # argmax tie breaks to the smallest class index
    assert out.predicted_class == 0


def test_argmax_tie_breaks_to_smallest_class():
    g = build_graph(1, [], np.zeros((1, 1)), True)
    out = forward(detector_model(), g)
    assert out.logits.tolist() == [0.0, 0.0]
    assert out.predicted_class == 0


def test_permutation_invariance_of_logits():
    rng = np.random.default_rng(2)
    model = random_model(rng)
    for trial in range(5):
        g = random_small_graph(rng, gid=f"p{trial}")
        perm = rng.permutation(g.node_count)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(g.node_count)
        edges = {(int(perm[s]), int(perm[d])) for s, d in g.arcs}
        permuted = build_graph(
            g.node_count, edges, g.attributes[inv], g.directed
        )
        a = forward(model, g).logits
        b = forward(model, permuted).logits
        assert a == pytest.approx(b, abs=1e-9)


def test_loss_is_cross_entropy_of_target():
    g = two_node_chain()
    model = identity_model()
    out = forward(model, g)
    m = MaskedInput.all_ones(g)
    for target in (0, 1):
        assert loss(model, g, m, target) == pytest.approx(
            -np.log(out.probabilities[target]), abs=1e-12
        )


def test_layer_rejects_unknown_activation():
    with pytest.raises(UnsupportedActivation):
        Layer(np.eye(2), np.zeros(2), "tanh")


def test_model_rejects_broken_dimension_chain():
    gcn = (Layer(np.ones((3, 4)), np.zeros(4), "relu"),)
    head = (Layer(np.ones((5, 2)), np.zeros(2), "identity"),)
    with pytest.raises(ShapeMismatch):
        GnnModel(3, 2, gcn, head)


def test_save_load_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    model = random_model(rng, attr_dim=4, hidden=(5, 3))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.attr_dim == model.attr_dim
    assert loaded.num_classes == model.num_classes
    for a, b in zip(
        model.gcn_layers + model.head_layers,
        loaded.gcn_layers + loaded.head_layers,
    ):
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)
        assert a.activation == b.activation
    g = random_small_graph(rng, attr_dim=4, gid="rt")
    assert np.array_equal(forward(model, g).logits, forward(loaded, g).logits)
