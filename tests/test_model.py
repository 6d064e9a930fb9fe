"""Forward pass, masking semantics, and model serialization."""

import ast
from pathlib import Path

import numpy as np
import pytest
from conftest import detector_model, random_model, random_small_graph, two_node_chain
from references import loss

from gxplain import model as model_module
from gxplain.errors import (
    DomainError,
    IndexOutOfRange,
    ShapeMismatch,
    UnsupportedActivation,
)
from gxplain.explain import ExplainConfig, learn_masks
from gxplain.graphs import build_graph
from gxplain.metrics import _SizeStack, _retains
from gxplain.model import (
    GnnModel,
    Layer,
    MaskedInput,
    forward,
    load_model,
    mask_gradients,
    _adjacency,
    _Gates,
    _induced_operands,
    _layer_stack,
    _node_major,
    _propagation,
    _readout,
    save_model,
)
from gxplain.oracle import occlusion_scores

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
    # the eval scan's gather copies, so its 0/1 stack is not normalized
    # in place
    stack = _SizeStack(np.arange(2), adjacency, x, every, np.zeros(2))
    _retains(identity_model(), stack, np.array([1, 0]), every)
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


def test_probabilities_are_read_through_one_blocked_pass():
    # only the model module cuts stacks into passes and drops the trace
    src = Path(model_module.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "model.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not [c for c in _calls(tree) if _probability_only(c)], path
        # as a name, an attribute or an import
        names = {
            getattr(node, field, None)
            for node in ast.walk(tree)
            for field in ("id", "attr", "name")
        }
        assert "_block_rows" not in names, path
    # and that one pass runs each block without its trace
    (inner,) = [
        c
        for c in _calls(_functions("model")["_probabilities"])
        if _name(c) == "_layer_stack"
    ]
    assert _probability_only(inner)


def test_probability_readers_keep_no_trace():
    # the probability readers take their probabilities from one blocked
    # probability-only pass, never from a traced run
    traced = {"_layer_stack", "forward", "_forward_trace", "mask_gradients"}
    readers = [
        _source("oracle"),
        _source("metrics"),
        _functions("training")["_accuracy"],
    ]
    for tree in readers:
        names = {_name(c) for c in _calls(tree)}
        assert "_probabilities" in names
        assert not (traced | {"_backward"}) & names
    # and training and metrics build 0/1 arc matrices in one place, the
    # size-stack builder, which every stacked pass reads: no grouping or
    # one-graph operator of their own
    def adjacency_calls(tree):
        return sum(_name(c) == "_adjacency" for c in _calls(tree))

    builder = _functions("model")["_size_stacks"]
    stackers = [_source("training"), _source("metrics")]
    assert [adjacency_calls(t) for t in [*stackers, builder]] == [0, 0, 1]
    for tree in stackers:
        assert "_size_stacks" in {_name(c) for c in _calls(tree)}


def test_no_probability_only_result_reaches_backward():
    for name in ("model", "training", "explain", "metrics", "oracle"):
        for fn in _functions(name).values():
            calls = _calls(fn)
            if "_backward" in {_name(c) for c in calls}:
                probability_only = [
                    c
                    for c in calls
                    if _name(c) == "_probabilities" or _probability_only(c)
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
        ones = MaskedInput(
            np.ones(g.arc_count), np.ones((g.node_count, g.attr_dim))
        )
        masked = forward(model, g, mask=ones)
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


def test_nan_gates_are_refused_and_infinite_ones_clamped():
    g, model = two_node_chain(), identity_model()
    nan_masks = [
        lambda: MaskedInput([np.nan], np.ones((2, 1))),
        lambda: MaskedInput(np.ones(1), [[1.0], [np.nan]]),
    ]
    for make in nan_masks:
        with pytest.raises(DomainError, match="NaN"):
            forward(model, g, make())
        with pytest.raises(DomainError, match="NaN"):
            mask_gradients(model, g, make(), 0)
    m = MaskedInput([np.inf], [[-np.inf], [np.inf]])
    assert m.edge_gate.tolist() == [1.0]
    assert m.attribute_gate.tolist() == [[0.0], [1.0]]
    gated = MaskedInput([1.0], [[0.0], [1.0]])
    assert forward(model, g, m).logits.tobytes() == (
        forward(model, g, gated).logits.tobytes()
    )
    grads = mask_gradients(model, g, m, 1)
    want = mask_gradients(model, g, gated, 1)
    assert grads.edge_gate.tobytes() == want.edge_gate.tobytes()
    assert grads.attribute_gate.tobytes() == want.attribute_gate.tobytes()


def test_every_gated_call_builds_one_gate_object(monkeypatch):
    built = []
    init = _Gates.__init__

    def counted(self, g):
        built.append(g.graph_id)
        init(self, g)

    monkeypatch.setattr(_Gates, "__init__", counted)
    rng = np.random.default_rng(4)
    model = random_model(rng)
    g = random_small_graph(rng, gid="one")
    mask = MaskedInput(
        rng.uniform(size=g.arc_count), rng.uniform(size=(g.node_count, 3))
    )
    calls = [
        lambda: learn_masks(model, g, ExplainConfig(epochs=3)),
        lambda: forward(model, g, mask),
        lambda: mask_gradients(model, g, mask, 0),
        lambda: occlusion_scores(model, g),
    ]
    for call in calls:
        built.clear()
        call()
        assert built == ["one"]
    # an unmasked forward gates nothing
    built.clear()
    forward(model, g)
    assert built == []


def test_only_the_model_module_reads_the_probability_floor():
    src = Path(model_module.__file__).parent
    readers = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {
            getattr(node, field, None)
            for node in ast.walk(tree)
            for field in ("id", "attr", "name")
        }
        if "PROBABILITY_FLOOR" in names:
            readers.append(path.name)
    assert readers == ["model.py"]


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


@pytest.mark.parametrize("broadcast", [False, True], ids=["stack", "stride 0"])
@pytest.mark.parametrize("n", [0, 7, 8, 25])
@pytest.mark.parametrize("width", [1, 2, 20])
def test_node_reductions_are_numpys_and_each_graph_alone(width, n, broadcast):
    rng = np.random.default_rng(100 * n + width)
    # magnitudes 16 decades apart: any other summation order moves bits
    shape = (12, n, width)
    h = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    if broadcast:
        h = np.broadcast_to(h[0], shape)
    fields, nodes = _node_major(h)
    # the readout's and _backward's bias-gradient reductions
    sums = fields.sum(axis=nodes)
    assert sums.tobytes() == h.sum(axis=-2).tobytes()
    u = _readout(h)
    assert u.shape == (12, 2 * width)
    if n:
        assert fields.max(axis=nodes).tobytes() == h.max(axis=-2).tobytes()
        want = np.concatenate([h.max(axis=-2), h.mean(axis=-2)], axis=-1)
        assert u.tobytes() == want.tobytes()
    for i in range(len(h)):
        assert sums[i].tobytes() == h[i].sum(axis=0).tobytes()
        assert u[i].tobytes() == _readout(h[i]).tobytes()
    # only a stack wider than 1 is copied node-major; one graph never is
    assert (nodes == 0) == (width > 1)
    assert _node_major(h[0])[1] == -2


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
    m = MaskedInput(
        np.ones(g.arc_count), np.ones((g.node_count, g.attr_dim))
    )
    for target in (0, 1):
        assert loss(model, g, m, target) == pytest.approx(
            -np.log(out.probabilities[target]), abs=1e-12
        )


def test_layer_rejects_unknown_activation():
    with pytest.raises(UnsupportedActivation):
        Layer(np.eye(2), np.zeros(2), "tanh")


def test_a_long_unknown_activation_or_readout_is_cut_short_in_the_error():
    name = "x" * 100_000
    with pytest.raises(UnsupportedActivation) as exc:
        Layer(np.eye(2), np.zeros(2), name)
    assert str(exc.value).startswith("unknown activation 'xxx")
    assert len(str(exc.value)) <= 100
    head = (Layer(np.ones((2, 2)), np.zeros(2), "identity"),)
    with pytest.raises(ShapeMismatch) as exc:
        GnnModel(1, 2, (), head, readout=name)
    assert str(exc.value).startswith("unknown readout 'xxx")
    assert len(str(exc.value)) <= 100


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_layer_with_a_non_finite_weight_is_refused(bad):
    weight = np.ones((2, 2))
    weight[1, 0] = bad
    with pytest.raises(ShapeMismatch, match="^layer parameters must be finite$"):
        Layer(weight, np.zeros(2), "relu")


@pytest.mark.parametrize(
    "edge, attr",
    [(np.ones((1, 1)), np.ones((2, 1))), (np.ones(1), np.ones(2))],
)
def test_masked_input_refuses_gates_of_the_wrong_rank(edge, attr):
    with pytest.raises(
        ShapeMismatch,
        match=r"^edge gate must be a vector and attribute gate a matrix, got",
    ):
        MaskedInput(edge, attr)


def test_forward_refuses_an_attribute_gate_of_the_wrong_shape():
    g = two_node_chain()
    mask = MaskedInput(np.ones(g.arc_count), np.ones((2, 2)))
    with pytest.raises(
        ShapeMismatch,
        match=r"^attribute gate shape \(2, 2\) does not match \(2, 1\)$",
    ):
        forward(detector_model(), g, mask)


@pytest.mark.parametrize("target", [-1, 2])
def test_mask_gradients_refuse_a_class_outside_the_model(target):
    g = two_node_chain()
    mask = MaskedInput(np.ones(g.arc_count), np.ones((2, 1)))
    with pytest.raises(
        IndexOutOfRange, match=rf"^target class {target} outside \[0, 2\)$"
    ):
        mask_gradients(detector_model(), g, mask, target)
