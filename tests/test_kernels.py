"""The library's layer stack, backward pass and Adam step against the
pinned copies in ``pinned_kernels``: every trace, gradient and update
must have their bytes, stacked and alone."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pinned_kernels import (
    PinnedAdam,
    pinned_backward,
    pinned_forward_trace,
    pinned_layer_stack,
)

from gxplain.graphs import build_graph
from gxplain.metrics import _induced_blocks
from gxplain.model import (
    GnnModel,
    Layer,
    MaskedInput,
    _backward,
    _forward_trace,
    _Gates,
    _induced_operands,
    _layer_stack,
    _probabilities,
    _adjacency,
    _propagation,
)
from gxplain.optim import Adam

TRACE_FIELDS = ("node_h", "node_m", "node_z", "head_u", "head_z")


@st.composite
def stacks(draw, max_nodes=20):
    """A model and 1-3 graphs of one node count; large scales push the
    target probability onto its floor, zero attributes and biases put
    fields on relu kinks."""
    n = draw(st.integers(0, max_nodes))
    b = draw(st.integers(1, 3))
    attr_dim = draw(st.integers(1, 4))
    widths = draw(st.lists(st.integers(1, 6), max_size=3))
    head_widths = draw(st.lists(st.integers(1, 5), max_size=1))
    acts = draw(
        st.lists(
            st.sampled_from(["relu", "identity"]),
            min_size=len(widths) + len(head_widths) + 1,
            max_size=len(widths) + len(head_widths) + 1,
        )
    )
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    bias_scale = draw(st.sampled_from([0.0, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    directed = draw(st.booleans())
    graphs = []
    for i in range(b):
        edges = rng.integers(0, max(n, 1), (3 * n, 2)).tolist() if n else []
        x = rng.normal(size=(n, attr_dim))
        x[rng.random((n, attr_dim)) < 0.2] = 0.0
        graphs.append(build_graph(n, edges, x, directed, graph_id=str(i)))
    layers, dim = [], attr_dim
    for width, act in zip(widths, acts):
        w = scale * rng.normal(size=(dim, width))
        layers.append(Layer(w, bias_scale * rng.normal(size=width), act))
        dim = width
    classes = int(rng.integers(2, 4))
    head, dim = [], 2 * dim
    for width, act in zip(head_widths + [classes], acts[len(widths) :]):
        w = scale * rng.normal(size=(dim, width))
        head.append(Layer(w, bias_scale * rng.normal(size=width), act))
        dim = width
    model = GnnModel(attr_dim, classes, tuple(layers), tuple(head))
    targets = rng.integers(0, classes, b)
    # closed and open gates beside drawn ones
    cells = (n, attr_dim)
    gates = [
        MaskedInput(
            np.where(rng.random(e) < 0.2, 0.0, rng.random(e)),
            np.where(rng.random(cells) < 0.2, 1.0, rng.random(cells)),
        )
        for e in (g.arc_count for g in graphs)
    ]
    return model, graphs, targets, gates


def width_one_stack(n=12, b=3, seed=0):
    """A :func:`stacks` case whose one GCN layer is 1 wide, on ``b``
    graphs of ``n`` nodes: from 8 nodes on numpy sums that layer's
    contiguous node axis pairwise."""
    rng = np.random.default_rng(seed)
    graphs = [
        build_graph(
            n, rng.integers(0, n, (3 * n, 2)).tolist(),
            rng.normal(size=(n, 2)), False, graph_id=str(i),
        )
        for i in range(b)
    ]
    model = GnnModel(
        2, 2,
        (Layer(rng.normal(size=(2, 1)), rng.normal(size=1), "identity"),),
        (Layer(rng.normal(size=(2, 2)), rng.normal(size=2), "identity"),),
    )
    return model, graphs, rng.integers(0, 2, b), None


@st.composite
def induced_rows(draw):
    """A stack of graphs with up to the oracle's 14 nodes and 1-5 rows of
    k = 0, 1 or n of their nodes; k = 1 rows take numpy's matrix-vector
    products."""
    model, graphs, _, _ = draw(stacks(max_nodes=14))
    n = graphs[0].node_count
    k = draw(st.sampled_from(sorted({0, min(n, 1), n})))
    b = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.sort([rng.permutation(n)[:k] for _ in range(b)], axis=1)
    which = rng.integers(0, len(graphs), b)
    return model, graphs, which, rows.astype(np.int64).reshape(b, k)


def assert_same_trace(got, want):
    for name in TRACE_FIELDS:
        assert len(getattr(got, name)) == len(getattr(want, name))
        for a, b in zip(getattr(got, name), getattr(want, name)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    for name in ("a_eff", "logits", "probabilities"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(induced_rows())
def test_probability_only_pass_gives_the_trace_and_pinned_bytes(case):
    model, graphs, which, rows = case
    adjacency = _adjacency(graphs)
    x = np.stack([g.attributes for g in graphs])
    blocks = _induced_blocks(adjacency, which, rows)
    # the oracle hands over its blocks as bool
    bits = _probabilities(
        model, *_induced_operands(blocks != 0, x, which, rows)
    )
    a, h = _induced_operands(blocks, x, which, rows)
    got = _probabilities(model, a, h)
    assert type(got) is np.ndarray
    assert got.shape == (len(rows), model.num_classes)
    assert bits.tobytes() == got.tobytes()
    for trace in (_layer_stack(model, a, h), pinned_layer_stack(model, a, h)):
        assert got.tobytes() == trace.probabilities.tobytes()
    # one graph alone, as the oracle's and the attribute pass's call
    alone = _layer_stack(model, a[0], h[0], keep=False)
    want = pinned_layer_stack(model, a[0], h[0]).probabilities
    assert alone.shape == want.shape and alone.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(stacks())
@example(width_one_stack())
@example(width_one_stack(n=20, b=2, seed=1))
def test_traces_and_weight_gradients_give_the_pinned_bytes(case):
    model, graphs, targets, _ = case
    a = _propagation(_adjacency(graphs))
    x = np.stack([g.attributes for g in graphs])
    stacked = _layer_stack(model, a, x)
    assert_same_trace(stacked, pinned_layer_stack(model, a, x))
    assert_same_arrays(
        _backward(model, stacked, targets),
        pinned_backward(model, pinned_layer_stack(model, a, x), targets),
    )
    for g, target, unmasked in zip(graphs, targets, a):
        alone = _forward_trace(model, g, None)
        want = pinned_forward_trace(model, g, None, unmasked)
        assert_same_trace(alone, want)
        assert_same_arrays(
            _backward(model, alone, target),
            pinned_backward(model, want, target),
        )


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_masked_traces_and_gate_gradients_give_the_pinned_bytes(case):
    model, graphs, targets, gates = case
    for g, target, mask in zip(graphs, targets, gates):
        view = _Gates(g)
        got = _forward_trace(model, g, mask, view)
        want = pinned_forward_trace(model, g, mask, view.unmasked)
        assert_same_trace(got, want)
        assert_same_arrays(
            view.gradients(model, got, target),
            pinned_backward(model, want, target, g),
        )


@settings(max_examples=150, deadline=None)
@given(stacks())
@example(width_one_stack())
def test_stacked_input_gradients_give_each_graphs_bytes(case):
    model, graphs, targets, gates = case
    traces = [
        _forward_trace(model, g, None if gates is None else gates[i])
        for i, g in enumerate(graphs)
    ]
    a = np.stack([tr.a_eff for tr in traces])
    x = np.stack([tr.node_h[0] for tr in traces])
    da, dx = _backward(model, _layer_stack(model, a, x), targets, inputs=True)
    assert da.shape == a.shape and dx.shape == x.shape
    for i, target in enumerate(targets):
        alone = _layer_stack(model, a[i], x[i])
        assert_same_arrays(
            (da[i], dx[i]), _backward(model, alone, target, inputs=True)
        )


_values = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1e308]
    ),
    st.floats(-1e6, 1e6),
)


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 6), min_size=1, max_size=3),
    data=st.data(),
    learning_rate=st.sampled_from([1e-3, 0.01, 0.3, 7.0]),
    steps=st.integers(1, 4),
)
def test_adam_gives_the_pinned_bytes(sizes, data, learning_rate, steps):
    def arrays():
        return [
            np.array(data.draw(st.lists(_values, min_size=k, max_size=k)))
            for k in sizes
        ]

    start = arrays()
    params = [p.copy() for p in start]
    pinned = [p.copy() for p in start]
    adam = Adam(params, learning_rate)
    want = PinnedAdam(pinned, learning_rate)
    for _ in range(steps):
        grads = arrays()
        with np.errstate(over="ignore", invalid="ignore"):
            adam.step(grads)
            want.step(grads)
        assert_same_arrays(params, pinned)
        assert_same_arrays(adam.first_moment, want.first_moment)
        assert_same_arrays(adam.second_moment, want.second_moment)
