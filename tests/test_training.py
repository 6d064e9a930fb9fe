"""Optimizer behavior and end-to-end training."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gxplain.datasets import Dataset, generate_ba2motifs, generate_motif_graphs
from gxplain.errors import NonFiniteLoss, ShapeMismatch
from gxplain.graphs import build_graph
from gxplain.model import (
    PROBABILITY_FLOOR,
    GnnModel,
    Layer,
    _backward,
    _forward_trace,
    _adjacency,
    _propagation,
    _readout,
    forward,
    save_model,
)
from gxplain import training as training_module
from gxplain.optim import Adam
from gxplain.training import (
    _assemble,
    _calibrate_parameters,
    _epoch_gradients,
    _set_affine,
    _stack_graphs,
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
    _calibrate_parameters(params, (8, 8), _stack_graphs(graphs, ds.attr_dim))

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
    # a graph without nodes must have the model's width too, as forward
    # asks, though the stacks give it zeros of that width
    empty = build_graph(0, [], np.zeros((0, 3)), True, label=0)
    with pytest.raises(ShapeMismatch, match="graph has 3 attributes"):
        forward(model, empty)
    with pytest.raises(ShapeMismatch, match="graph has 3 attributes"):
        evaluate_accuracy(model, [empty])


def unlabeled_copy(g, gid):
    return build_graph(
        g.node_count, g.arcs.tolist(), g.attributes, g.directed,
        label=None, graph_id=gid,
    )


def test_accuracy_scores_labeled_graphs_only():
    ds = tiny_dataset()
    model = train_model(ds, hidden_dims=(4,), epochs=300, seed=0).model
    hot, cold = ds.graphs
    blank = [unlabeled_copy(g, f"u{i}") for i, g in enumerate([hot, cold, hot])]
    # two labeled hits among unlabeled graphs: 1.0, not 2 of 5
    assert evaluate_accuracy(model, [blank[0], hot, blank[1], cold, blank[2]]) == 1.0
    assert math.isnan(evaluate_accuracy(model, blank))
    assert math.isnan(evaluate_accuracy(model, []))


def test_validation_accuracy_scores_labeled_graphs_only():
    hot, cold = tiny_dataset().graphs
    graphs = [hot, cold, unlabeled_copy(hot, "u0"), unlabeled_copy(cold, "u1")]
    graphs.append(build_graph(
        4, [(0, 1), (1, 2), (2, 3)], hot.attributes, False, label=1,
        graph_id="hot2",
    ))
    ds = Dataset(
        "tiny", graphs, 2, 2,
        splits={"train": [0, 1], "validation": [2, 4, 3]},
    )
    result = train_model(ds, hidden_dims=(4,), epochs=300, seed=0)
    assert result.validation_accuracy[-1] == 1.0
    assert set(result.validation_accuracy) <= {0.0, 1.0}
    ds.splits["validation"] = [2, 3]
    result = train_model(ds, hidden_dims=(4,), epochs=3, seed=0)
    assert len(result.validation_accuracy) == 3
    assert all(math.isnan(a) for a in result.validation_accuracy)


def test_loss_history_decreases_overall():
    ds = generate_ba2motifs(40, seed=3)
    result = train_model(ds, epochs=60, seed=0)
    assert result.train_loss[-1] < result.train_loss[0]
    assert len(result.train_loss) == 60


def reference_epoch(model, graphs):
    """The per-graph loop that stacked training replaces: one forward and
    one backward per graph, in (node count, position) order."""
    order = sorted(range(len(graphs)), key=lambda i: (graphs[i].node_count, i))
    grads = None
    total_loss = 0.0
    hits = 0
    for i in order:
        g = graphs[i]
        tr = _forward_trace(model, g, None)
        p_target = max(float(tr.probabilities[g.label]), PROBABILITY_FLOOR)
        total_loss += -math.log(p_target)
        hits += tr.predicted_class == g.label
        weight_grads = _backward(model, tr, g.label)
        if grads is None:
            grads = [np.zeros_like(w) for w in weight_grads]
        for acc, w in zip(grads, weight_grads):
            acc += w
    return grads, total_loss, hits


@st.composite
def labeled_graphs_and_model(draw):
    attr_dim = draw(st.integers(1, 3))
    classes = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graphs = []
    # a few node counts shared by many graphs, so stacks span blocks;
    # from 8 nodes on numpy sums a width-1 node axis pairwise
    pool = draw(st.lists(st.integers(0, 12), min_size=1, max_size=3))
    sizes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))
    for i, n in enumerate(sizes):
        edges = []
        if n:
            ends = st.integers(0, n - 1)
            edges = draw(st.lists(st.tuples(ends, ends), max_size=2 * n))
        graphs.append(
            build_graph(
                n, edges, rng.normal(size=(n, attr_dim)), draw(st.booleans()),
                label=int(rng.integers(classes)), graph_id=f"g{i}",
            )
        )
    widths = draw(st.lists(st.integers(1, 5), max_size=3))
    acts = draw(
        st.lists(
            st.sampled_from(["relu", "identity"]),
            min_size=len(widths) + 1,
            max_size=len(widths) + 1,
        )
    )
    layers, dim = [], attr_dim
    for width, act in zip(widths, acts):
        layers.append(
            Layer(rng.normal(size=(dim, width)), rng.normal(size=width), act)
        )
        dim = width
    head = Layer(
        rng.normal(size=(2 * dim, classes)), rng.normal(size=classes), acts[-1]
    )
    return graphs, GnnModel(attr_dim, classes, tuple(layers), (head,))


@settings(max_examples=60, deadline=None)
@given(labeled_graphs_and_model(), st.sampled_from([3, 128]))
def test_stacked_epoch_is_bitwise_the_per_graph_loop(case, block_rows):
    graphs, model = case
    with mock.patch("gxplain.model.SUBSET_BLOCK_ROWS", block_rows):
        grads, total_loss, hits = _epoch_gradients(
            model, _stack_graphs(graphs, model.attr_dim)
        )
    ref_grads, ref_loss, ref_hits = reference_epoch(model, graphs)
    assert total_loss == ref_loss
    assert hits == ref_hits
    assert len(grads) == len(ref_grads)
    for got, want in zip(grads, ref_grads):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_stacked_epoch_sums_one_entry_parameters_in_order():
    # numpy sums a long column of one-entry arrays pairwise; the stacked
    # epoch must still add graph by graph, as the loop does
    rng = np.random.default_rng(21)
    graphs = [
        build_graph(
            5, [(j, (j + 1) % 5) for j in range(5)], rng.normal(size=(5, 1)),
            False, label=i % 2, graph_id=f"c{i}",
        )
        for i in range(60)
    ]
    model = GnnModel(
        1, 2,
        (Layer(rng.normal(size=(1, 1)), rng.normal(size=1), "identity"),),
        (Layer(rng.normal(size=(2, 2)), rng.normal(size=2), "identity"),),
    )
    grads, _, _ = _epoch_gradients(
        model, _stack_graphs(graphs, model.attr_dim)
    )
    ref_grads, _, _ = reference_epoch(model, graphs)
    for got, want in zip(grads, ref_grads):
        assert got.tobytes() == want.tobytes()


def test_stacked_epoch_sums_one_entry_and_wide_parameters_in_order():
    # one fold over a flat (b + 1, P) array mixes one-entry and wide
    # parameters; every column must still add graph by graph, and the
    # width-1 layer's node sums keep numpy's pairwise order at 9 nodes
    rng = np.random.default_rng(27)
    graphs = [
        build_graph(
            9, [(j, (j + 2) % 9) for j in range(9)],
            rng.normal(size=(9, 1)) * 10.0 ** rng.integers(-1, 2, (9, 1)),
            False, label=i % 2, graph_id=f"m{i}",
        )
        for i in range(40)
    ]
    model = GnnModel(
        1, 2,
        (
            Layer(rng.normal(size=(1, 1)), rng.normal(size=1), "identity"),
            Layer(rng.normal(size=(1, 7)), rng.normal(size=7), "relu"),
        ),
        (Layer(rng.normal(size=(14, 2)), rng.normal(size=2), "identity"),),
    )
    stacks = _stack_graphs(graphs, model.attr_dim)
    assert len(stacks) == 1 and len(stacks[0].labels) == 40
    grads, _, _ = _epoch_gradients(model, stacks)
    ref_grads, _, _ = reference_epoch(model, graphs)
    assert [g.shape for g in grads] == [g.shape for g in ref_grads]
    for got, want in zip(grads, ref_grads):
        assert got.tobytes() == want.tobytes()


def reference_train(dataset, epochs, seed, hidden_dims=(20, 20, 20)):
    """``train_model`` as a per-graph loop: calibration, forward and
    backward one graph at a time, in (node count, split position) order,
    which on equal-size splits is the split order."""
    graphs = dataset.split_graphs("train")
    graphs = sorted(graphs, key=lambda g: g.node_count)  # a stable sort
    params = init_parameters(dataset.attr_dim, dataset.num_classes, hidden_dims, seed)
    props = [_propagation(_adjacency([g]))[0] for g in graphs]
    hs = [g.attributes for g in graphs]
    for i in range(len(hidden_dims)):
        w, b = params[2 * i], params[2 * i + 1]
        hs = [a @ h for a, h in zip(props, hs)]
        pre = np.vstack([m @ w for m in hs])
        _set_affine(w, b, pre.mean(axis=0), pre.std(axis=0))
        hs = [np.maximum(m @ w + b, 0.0) for m in hs]
    readouts = np.vstack([_readout(h) for h in hs])
    pre = readouts @ params[-2]
    _set_affine(params[-2], params[-1], pre.mean(axis=0), pre.std(axis=0))
    optimizer = Adam(params, 0.001)
    for _ in range(epochs):
        model = _assemble(dataset.attr_dim, dataset.num_classes, hidden_dims, params)
        grads, _, _ = reference_epoch(model, graphs)
        optimizer.step([acc / len(graphs) for acc in grads])
    return _assemble(dataset.attr_dim, dataset.num_classes, hidden_dims, params)


def mixed_sizes(seed):
    """25- and 13-node motif graphs, interleaved, and two node-less ones."""
    big = generate_motif_graphs(100, seed, name="big").graphs
    small = generate_motif_graphs(100, seed, base_size=8, name="small").graphs
    graphs = [g for pair in zip(big, small) for g in pair]
    graphs[3:3] = [
        build_graph(0, [], np.zeros((0, 10)), False, label=i, graph_id=f"e{i}")
        for i in range(2)
    ]
    return Dataset(
        "mixed", graphs, 10, 2,
        splits={"train": list(range(170)), "test": list(range(170, 202))},
    )


@pytest.mark.parametrize(
    "seed, hidden_dims, mixed",
    [
        pytest.param(0, (20, 20, 20), False, id="0"),
        pytest.param(7, (20, 20, 20), False, id="7"),
        # numpy sums a width-1 column pairwise, a wide one row by row
        pytest.param(3, (1,), False, id="width 1"),
        pytest.param(5, (1, 7), False, id="widths 1, 7"),
        pytest.param(2, (20, 20, 20), True, id="mixed node counts"),
    ],
)
def test_train_model_saves_the_bytes_of_the_per_graph_loop(
    tmp_path, seed, hidden_dims, mixed
):
    ds = mixed_sizes(seed) if mixed else generate_ba2motifs(200, seed=seed)
    model = train_model(ds, hidden_dims, epochs=4, seed=seed).model
    save_model(model, tmp_path / "a.json")
    reference = reference_train(ds, epochs=4, seed=seed, hidden_dims=hidden_dims)
    save_model(reference, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@st.composite
def calibration_case(draw):
    attr_dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = draw(st.lists(st.integers(0, 12), min_size=1, max_size=3))
    graphs = []
    # enough graphs that some stack spans several blocks
    sizes = draw(st.lists(st.sampled_from(pool), min_size=10, max_size=24))
    for i, n in enumerate(sizes):
        ends = st.integers(0, max(n - 1, 0))
        edges = draw(st.lists(st.tuples(ends, ends), max_size=2 * n))
        scale = 10.0 ** rng.integers(-2, 3, (n, attr_dim))
        graphs.append(build_graph(
            n, edges, rng.normal(size=(n, attr_dim)) * scale,
            draw(st.booleans()), label=0, graph_id=f"g{i}",
        ))
    # three layers, so the middle one writes its output over its input's
    # buffer or beside it as it narrows, keeps or widens
    widths = tuple(draw(st.lists(st.sampled_from([1, 2, 20]), min_size=3, max_size=3)))
    return graphs, widths, rng


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(calibration_case())
def test_calibration_statistics_are_numpys_on_the_stacked_split(blocks, case):
    graphs, widths, rng = case
    params = init_parameters(graphs[0].attr_dim, 2, widths, int(rng.integers(100)))
    drawn = [w.copy() for w in params[0:-2:2]]
    with mock.patch(
        "gxplain.training._set_affine", wraps=training_module._set_affine
    ) as fitted:
        _calibrate_parameters(
            params, widths, _stack_graphs(graphs, graphs[0].attr_dim)
        )
    # each layer's (mean, std), then the head's
    fits = [c.args[2:] for c in fitted.call_args_list][:-1]
    graphs = sorted(graphs, key=lambda g: g.node_count)
    props = [_propagation(_adjacency([g]))[0] for g in graphs]
    hs = [g.attributes for g in graphs]
    if not sum(g.node_count for g in graphs):
        assert fits == []
        return
    assert len(fits) == 3
    for i, w in enumerate(drawn):
        pre = np.vstack([(a @ h) @ w for a, h in zip(props, hs)])
        mean, std = fits[i]
        assert mean.shape == std.shape == (widths[i],)
        assert mean.tobytes() == pre.mean(axis=0).tobytes()
        assert std.tobytes() == pre.std(axis=0).tobytes()
        w, b = params[2 * i], params[2 * i + 1]
        hs = [np.maximum((a @ h) @ w + b, 0.0) for a, h in zip(props, hs)]


def test_calibration_holds_one_layer_field_above_the_stacks(ba_dataset):
    graphs = ba_dataset.split_graphs("train")
    assert len(graphs) == 800 and {g.node_count for g in graphs} == {25}
    hidden = (20, 20, 20)
    stacks = _stack_graphs(graphs, ba_dataset.attr_dim)
    params = init_parameters(ba_dataset.attr_dim, 2, hidden, seed=0)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _calibrate_parameters(params, hidden, stacks)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    # one (800, 25, 20) float64 layer output, plus block-sized fields
    assert peak <= 1.5 * 800 * 25 * 20 * 8


def reference_propagation(g):
    """The dense operator as it was built before the block form: an arc
    indicator matrix scaled by the outer product of ``1 / sqrt(deg)``."""
    n = g.node_count
    src, dst = g.arc_index_arrays()
    arcs = np.zeros((n, n))
    arcs[dst, src] = 1.0
    deg = arcs.sum(axis=-1) + 1.0
    inv_sqrt = 1.0 / np.sqrt(deg)
    a = arcs * (inv_sqrt[:, None] * inv_sqrt[None, :])
    a[np.arange(n), np.arange(n)] = 1.0 / deg
    return a


def _assert_stacks_are_the_per_graph_operators(graphs):
    by_size: dict[int, list] = {}
    for g in graphs:
        by_size.setdefault(g.node_count, []).append(g)
    stacks = _stack_graphs(graphs, graphs[0].attr_dim)
    assert len(stacks) == len(by_size)
    for stack, n in zip(stacks, sorted(by_size)):
        group = by_size[n]
        for want in (
            np.stack([_propagation(_adjacency([g]))[0] for g in group]),
            np.stack([reference_propagation(g) for g in group]),
        ):
            assert stack.propagation.shape == want.shape
            assert stack.propagation.tobytes() == want.tobytes()
        assert stack.attributes.tobytes() == np.stack(
            [g.attributes for g in group]
        ).tobytes()


def test_stacks_cover_empty_isolated_and_directed_graphs():
    graphs = [
        build_graph(4, [(0, 1), (2, 1)], np.ones((4, 2)), True, label=0),
        build_graph(0, [], np.zeros((0, 2)), False, label=1),
        build_graph(4, [(0, 3), (3, 1)], np.ones((4, 2)), False, label=1),
        build_graph(2, [], np.ones((2, 2)), True, label=0),
        build_graph(0, [], np.zeros((0, 2)), True, label=0),
        build_graph(4, [(1, 0), (2, 0), (3, 0)], np.ones((4, 2)), True, label=1),
    ]
    _assert_stacks_are_the_per_graph_operators(graphs)


@settings(max_examples=60, deadline=None)
@given(labeled_graphs_and_model())
def test_block_built_stacks_are_bitwise_the_per_graph_operators(case):
    graphs, _ = case
    _assert_stacks_are_the_per_graph_operators(graphs)


def test_training_builds_one_operator_stack_per_node_count():
    graphs = generate_ba2motifs(40, seed=0).graphs
    graphs += [build_graph(3, [(0, 1)], np.ones((3, 10)), False, label=0)] * 5
    with mock.patch(
        "gxplain.training._propagation", wraps=_propagation
    ) as built:
        _stack_graphs(graphs, graphs[0].attr_dim)
    assert built.call_count == 2


def test_diverging_training_raises_non_finite_loss():
    ds = generate_ba2motifs(40, seed=1)
    # the diverging step overflows on its way to the NaN loss
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteLoss, match=r"^epoch 1: training loss nan$"):
            train_model(ds, hidden_dims=(8, 8), learning_rate=1e300, epochs=3)


@pytest.mark.parametrize("widths", [(1,), (2,), (2, 3)])
def test_calibration_leaves_the_layers_of_a_node_less_split_as_drawn(widths):
    graphs = [
        build_graph(0, [], np.zeros((0, 2)), False, label=0, graph_id=f"e{i}")
        for i in range(3)
    ]
    params = init_parameters(2, 2, widths, 4)
    drawn = [p.copy() for p in params]
    _calibrate_parameters(params, widths, _stack_graphs(graphs, 2))
    # no node field to take moments of; only the head is fitted
    for got, want in zip(params[:-2], drawn[:-2]):
        assert got.tobytes() == want.tobytes()
