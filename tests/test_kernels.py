"""The library's layer stack, backward pass and Adam step against the
pinned copies in ``pinned_kernels``: every trace, gradient and update
must have their bytes, stacked and alone."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from pinned_kernels import (
    PinnedAdam,
    pinned_backward,
    pinned_forward_trace,
    pinned_layer_stack,
)

from gxplain.graphs import build_graph
from gxplain.model import (
    GnnModel,
    Layer,
    MaskedInput,
    _backward,
    _forward_trace,
    _layer_stack,
    _propagation,
)
from gxplain.optim import Adam

TRACE_FIELDS = ("node_h", "node_m", "node_z", "head_u", "head_z")


@st.composite
def stacks(draw):
    """A model and 1-3 graphs of one node count; large scales push the
    target probability onto its floor, zero attributes and biases put
    fields on relu kinks."""
    n = draw(st.integers(0, 20))
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
@given(stacks())
def test_traces_and_weight_gradients_give_the_pinned_bytes(case):
    model, graphs, targets, _ = case
    a = _propagation(graphs)
    x = np.stack([g.attributes for g in graphs])
    stacked = _layer_stack(model, a, x)
    assert_same_trace(stacked, pinned_layer_stack(model, a, x))
    assert_same_arrays(
        _backward(model, stacked, targets),
        pinned_backward(model, pinned_layer_stack(model, a, x), targets),
    )
    for g, target, unmasked in zip(graphs, targets, a):
        alone = _forward_trace(model, g, None, unmasked)
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
        unmasked = _propagation([g])[0]
        got = _forward_trace(model, g, mask, unmasked)
        want = pinned_forward_trace(model, g, mask, unmasked)
        assert_same_trace(got, want)
        assert_same_arrays(
            _backward(model, got, target, g),
            pinned_backward(model, want, target, g),
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
