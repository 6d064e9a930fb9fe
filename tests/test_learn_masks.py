"""``learn_masks`` against a two-branch reference: one mask vector per graph
must learn exactly what one edge branch plus one attribute branch learn."""

import ast
import dataclasses
import importlib
import inspect
import itertools
import json
import math
import textwrap

import numpy as np
import pytest
from conftest import random_model
from hypothesis import event, given, settings
from hypothesis import strategies as st
from pinned_kernels import (
    PinnedAdam,
    pinned_backward,
    pinned_forward_trace,
    pinned_hard_concrete_with_grad,
)

from gxplain import model as model_module
from gxplain.errors import NonFiniteLoss, ShapeMismatch
from gxplain.explain import (
    MODES,
    SHARING_MODES,
    ExplainConfig,
    HardConcreteConfig,
    _binary_entropy_of_logit,
    _build_explanation,
    _epoch_uniforms,
    _logistic_noise,
    _sigmoid,
    explanation_to_dict,
    init_masks,
    learn_masks,
)
from gxplain.graphs import build_graph
from gxplain.model import (
    PROBABILITY_FLOOR,
    GnnModel,
    Layer,
    MaskedInput,
    _adjacency,
    _Gates,
    _propagation,
    forward,
    mask_gradients,
)

# the package exports the function ``explain`` under the module's name
explain_module = importlib.import_module("gxplain.explain")


def reference_learn_masks(model, g, config, initial_masks=None):
    """``learn_masks`` with one branch per side: a sample, a slot scatter,
    a penalty and an Adam parameter list for edges, then the same again
    for attributes; a pinned side is skipped and keeps gates of 1.  It
    samples, runs the model and steps through the pinned kernels."""
    hc = config.hard_concrete
    unmasked = _propagation(_adjacency([g]))[0]
    base = pinned_forward_trace(model, g, None, unmasked)
    target = base.predicted_class
    if initial_masks is None:
        masks = init_masks(g, config, hc.seed)
    else:
        masks = initial_masks.copy()

    learn_edges = config.mode != "attribute_only"
    learn_attrs = config.mode != "edge_only"
    n, d, n_arcs = g.node_count, g.attr_dim, g.arc_count
    edge_params = len(masks.edge_logits)
    attr_params = len(masks.attr_logits)
    ones_edge = np.ones(n_arcs)
    ones_attr = np.ones((n, d))
    attr_slot_flat = masks.attr_slot.ravel()

    optimized = []
    if learn_edges:
        optimized.append(masks.edge_logits)
    if learn_attrs:
        optimized.append(masks.attr_logits)
    optimizer = PinnedAdam(optimized, config.learning_rate)

    for epoch in range(config.epochs):
        if hc.stochastic:
            u = _epoch_uniforms(hc.seed, epoch, edge_params + attr_params)
        else:
            u = np.full(edge_params + attr_params, 0.5)

        if learn_edges:
            gate_e_slots, dgate_e_slots = pinned_hard_concrete_with_grad(
                masks.edge_logits, hc, u[:edge_params]
            )
            gate_e = gate_e_slots[masks.edge_slot]
        else:
            gate_e = ones_edge
        if learn_attrs:
            gate_x_slots, dgate_x_slots = pinned_hard_concrete_with_grad(
                masks.attr_logits, hc, u[edge_params:]
            )
            gate_x = gate_x_slots[attr_slot_flat].reshape(n, d)
        else:
            gate_x = ones_attr

        masked = MaskedInput(gate_e, gate_x)
        tr = pinned_forward_trace(model, g, masked, unmasked)
        p_target = max(float(tr.probabilities[target]), PROBABILITY_FLOOR)
        objective = -math.log(p_target)
        ce_edge, ce_attr = pinned_backward(model, tr, target, g)

        grads = []
        if learn_edges:
            g_edge = np.zeros(edge_params)
            np.add.at(g_edge, masks.edge_slot, ce_edge)
            g_edge *= dgate_e_slots
            if n_arcs:
                m_exp = masks.edge_logits[masks.edge_slot]
                p = _sigmoid(m_exp)
                objective += config.lambda_edge_size * p.mean()
                objective += (
                    config.lambda_edge_entropy
                    * _binary_entropy_of_logit(m_exp, p).mean()
                )
                reg = (
                    config.lambda_edge_size * p * (1.0 - p)
                    - config.lambda_edge_entropy * m_exp * p * (1.0 - p)
                ) / n_arcs
                np.add.at(g_edge, masks.edge_slot, reg)
            grads.append(g_edge)
        if learn_attrs:
            g_attr = np.zeros(attr_params)
            np.add.at(g_attr, attr_slot_flat, ce_attr.ravel())
            g_attr *= dgate_x_slots
            if n * d:
                m_exp = masks.attr_logits[masks.attr_slot].ravel()
                p = _sigmoid(m_exp)
                objective += config.lambda_attr_size * p.mean()
                objective += (
                    config.lambda_attr_entropy
                    * _binary_entropy_of_logit(m_exp, p).mean()
                )
                reg = (
                    config.lambda_attr_size * p * (1.0 - p)
                    - config.lambda_attr_entropy * m_exp * p * (1.0 - p)
                ) / (n * d)
                np.add.at(g_attr, attr_slot_flat, reg)
            grads.append(g_attr)

        if not math.isfinite(objective):
            raise NonFiniteLoss(f"epoch {epoch}: objective {objective}")
        optimizer.step(grads)

    return masks, _build_explanation(model, g, config, masks, base)


@st.composite
def cases(draw):
    mode = draw(st.sampled_from(MODES))
    sharing = draw(st.sampled_from(SHARING_MODES))
    # a head calibrated by _calibrated puts a run on the probability floor
    # at every step (offset -80, and -45 with deterministic gates) or has
    # it cross the floor both ways (-45 with stochastic gates); it needs
    # a graph with nodes and attribute columns, and a run of 2 steps
    offset = draw(st.sampled_from([None, -45.0, -80.0]))
    floor = offset is not None
    n = draw(st.integers(int(floor), 8))
    attr_dim = draw(st.integers(int(floor), 3))
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    # pair-shared masks need mates, so that sharing draws undirected graphs
    directed = sharing != "undirected_pair_shared" and draw(st.booleans())
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    g = build_graph(
        n, edges, rng.normal(size=(n, attr_dim)), directed, graph_id="h"
    )
    model = random_model(rng, attr_dim=attr_dim, hidden=(3, 2))
    epochs = draw(st.integers(2 if floor else 0, 6))
    # None where the learned gates do not move the lead
    calibrated = _calibrated(model, g, mode, offset) if floor else None
    if calibrated is not None:
        model = calibrated
    else:
        # a head bias that leaves class 0 a lead of 0.1 on the unmasked
        # graph, times a head scale of 30 or 1000, can put the target
        # probability of a mask step on its floor, as large scales do in
        # test_kernels.stacks
        (head,) = model.head_layers
        bias = head.bias.copy()
        if draw(st.booleans()):
            logits = forward(model, g).logits
            bias[0] += 0.1 - (logits[0] - logits[1])
        scale = draw(st.sampled_from([1.0, 30.0, 1000.0]))
        head = Layer(scale * head.weight, scale * bias, head.activation)
        model = GnnModel(attr_dim, 2, model.gcn_layers, (head,))
    lambdas = st.sampled_from([0.0, 0.005, 0.1, 1.0, 3.0])
    config = ExplainConfig(
        epochs=epochs,
        learning_rate=draw(st.sampled_from([0.01, 0.3])),
        lambda_edge_size=draw(lambdas),
        lambda_attr_size=draw(lambdas),
        lambda_edge_entropy=draw(lambdas),
        lambda_attr_entropy=draw(lambdas),
        mode=mode,
        sharing=sharing,
        hard_concrete=HardConcreteConfig(
            stochastic=draw(st.booleans()), seed=draw(st.integers(0, 9))
        ),
    )
    masks = None
    if draw(st.booleans()):
        # saturated logits put gates on the clamped pieces at 0 and 1
        masks = init_masks(g, config, seed)
        choices = np.array([-500.0, -8.0, 0.0, 8.0, 500.0])
        picks = rng.integers(0, len(choices) + 1, len(masks.logits))
        masks.logits[:] = np.where(
            picks < len(choices),
            choices[np.minimum(picks, len(choices) - 1)],
            masks.logits,
        )
    return model, g, config, masks


@settings(max_examples=150, deadline=None)
@given(cases())
def test_one_mask_vector_learns_the_bits_of_two_branches(case):
    model, g, config, initial = case
    floored = []
    on_floor = explain_module._on_floor

    def recorded(p):
        floored.append(on_floor(p))
        return floored[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(explain_module, "_on_floor", recorded)
        masks, expl = learn_masks(model, g, config, initial_masks=initial)
    steps = set(zip(floored, floored[1:]))
    if floored and all(floored):
        event("on the floor at every step")
    elif {(False, True), (True, False)} <= steps:
        event("crosses the floor both ways")
    elif any(floored):
        event("on the floor at some steps")
    ref_masks, ref_expl = reference_learn_masks(
        model, g, config, initial_masks=initial
    )
    assert masks.logits.tobytes() == ref_masks.logits.tobytes()
    got = json.dumps(explanation_to_dict(expl, config), sort_keys=True)
    want = json.dumps(explanation_to_dict(ref_expl, config), sort_keys=True)
    assert got == want


def test_one_normal_draw_gives_the_bits_of_one_draw_per_side():
    g = build_graph(6, [(0, 1), (2, 3), (4, 5), (1, 4)], np.ones((6, 3)), False)
    for sharing in SHARING_MODES:
        masks = init_masks(g, ExplainConfig(sharing=sharing), seed=4)
        rng = np.random.default_rng(4)
        edge = rng.normal(0.0, 0.1, len(masks.edge_logits))
        attr = rng.normal(0.0, 0.1, len(masks.attr_logits))
        assert masks.edge_logits.tobytes() == edge.tobytes()
        assert masks.attr_logits.tobytes() == attr.tobytes()


def test_learn_masks_samples_gates_once_per_epoch():
    # the epoch loop has one hard-concrete call, over both sides at once
    calls = [
        node
        for node in ast.walk(ast.parse(inspect.getsource(learn_masks)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "_hard_concrete_with_grad"
    ]
    assert len(calls) == 1


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    epoch=st.integers(0, 400),
    count=st.integers(0, 700),
    extra=st.integers(0, 700),
)
def test_philox_uniforms_are_prefix_stable(seed, epoch, count, extra):
    # the noise table relies on it: a longer draw starts with a shorter one
    long = _epoch_uniforms(seed, epoch, count + extra)
    short = _epoch_uniforms(seed, epoch, count)
    assert long[:count].tobytes() == short.tobytes()


def _table_cases():
    # graphs of different parameter counts under two seeds and two epoch
    # counts; every call may grow or replace the table
    rng = np.random.default_rng(11)
    model = random_model(rng, attr_dim=3, hidden=(4, 3))
    graphs = []
    for n, edges in (
        (3, [(0, 1)]),
        (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),
        (9, [(i, i + 1) for i in range(8)] + [(0, 4), (2, 7)]),
    ):
        x = rng.normal(size=(n, 3))
        graphs.append(build_graph(n, edges, x, False, graph_id=str(n)))
    configs = [
        ExplainConfig(
            epochs=epochs,
            learning_rate=0.1,
            lambda_edge_entropy=0.0,
            lambda_attr_entropy=0.0,
            hard_concrete=HardConcreteConfig(seed=seed),
        )
        for seed in (0, 5)
        for epochs in (10, 300)
    ]
    return model, [(g, c) for g in graphs for c in configs]


def _explanation_json(model, g, config):
    _, expl = learn_masks(model, g, config)
    return json.dumps(explanation_to_dict(expl, config), sort_keys=True)


def test_uniform_table_gives_every_call_order_the_same_explanations(
    monkeypatch,
):
    model, cases = _table_cases()
    empty = (None, np.empty((0, 0)))
    fresh = []
    for g, config in cases:
        monkeypatch.setattr(explain_module, "_noise_table", empty)
        fresh.append(_explanation_json(model, g, config))
    orders = [
        list(range(len(cases))),
        list(reversed(range(len(cases)))),
        # the second seed's runs first, largest graphs first
        sorted(range(len(cases)), key=lambda i: (-(i % 4), -i)),
        list(np.random.default_rng(2).permutation(len(cases))),
    ]
    for order in orders:
        monkeypatch.setattr(explain_module, "_noise_table", empty)
        for i in order:
            g, config = cases[i]
            assert _explanation_json(model, g, config) == fresh[i], (order, i)


def test_uniform_table_stays_under_its_cap(monkeypatch):
    empty = (None, np.empty((0, 0)))
    monkeypatch.setattr(explain_module, "_noise_table", empty)
    # a million epochs draw each row when read and keep no table
    rows = explain_module._noise_rows(3, 10**6, 302)
    assert explain_module._noise_table is empty
    for epoch, row in enumerate(itertools.islice(rows, 3)):
        want = _logistic_noise(_epoch_uniforms(3, epoch, 302))
        assert row.tobytes() == want.tobytes()
    # a grown size above the cap is replaced by the size asked for
    monkeypatch.setattr(explain_module, "_TABLE_ENTRIES", 100)
    list(explain_module._noise_rows(1, 10, 9))
    assert explain_module._noise_table[1].shape == (10, 9)
    rows = list(explain_module._noise_rows(1, 2, 40))
    assert explain_module._noise_table[1].shape == (2, 40)
    for epoch, row in enumerate(rows):
        want = _logistic_noise(_epoch_uniforms(1, epoch, 40))
        assert row.tobytes() == want.tobytes()


def test_capped_uniform_table_gives_the_same_explanations(monkeypatch):
    model, cases = _table_cases()
    empty = (None, np.empty((0, 0)))
    fresh = []
    for g, config in cases:
        monkeypatch.setattr(explain_module, "_noise_table", empty)
        fresh.append(_explanation_json(model, g, config))
    counts = sorted(
        {len(init_masks(g, config, 0).logits) for g, config in cases}
    )
    # no table at all; or one that keeps the smallest graph's 300 rows
    # but draws the larger graphs' 300 rows and regrows in between
    for cap in (0, 300 * counts[1] - 1):
        monkeypatch.setattr(explain_module, "_TABLE_ENTRIES", cap)
        monkeypatch.setattr(explain_module, "_noise_table", empty)
        for i in np.random.default_rng(cap).permutation(len(cases)):
            g, config = cases[i]
            assert _explanation_json(model, g, config) == fresh[i], (cap, i)


def test_infinite_logit_under_zero_entropy_weights_is_a_non_finite_loss():
    # the entropy term is computed whatever its weights: 0 * H(inf) is NaN
    g = build_graph(3, [(0, 1), (1, 2)], np.ones((3, 2)), False)
    model = random_model(np.random.default_rng(0), attr_dim=2, hidden=(3,))
    config = ExplainConfig(
        epochs=1, lambda_edge_entropy=0.0, lambda_attr_entropy=0.0
    )
    masks = init_masks(g, config, 0)
    masks.logits[0] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteLoss):
            learn_masks(model, g, config, initial_masks=masks)
        with pytest.raises(NonFiniteLoss):
            reference_learn_masks(model, g, config, initial_masks=masks)


def _path(n, rng):
    edges = [(i, i + 1) for i in range(n - 1)]
    return build_graph(n, edges, rng.normal(size=(n, 2)), False, graph_id="g")


def _misfit(masks, fault):
    """``masks`` with one field no longer laid out as it was."""
    if fault == "attr_slot of one column":
        masks.attr_slot = masks.attr_slot[:, :1]
    elif fault == "edge slot on an attribute":
        masks.edge_slot[-1] = masks.edge_params
    elif fault == "attribute slot past the logits":
        masks.attr_slot[-1, -1] = len(masks.logits) - masks.edge_params
    elif fault == "negative slot":
        masks.edge_slot[0] = -1
    return masks


@pytest.mark.parametrize(
    "fault",
    ["another graph's", "attr_slot of one column", "edge slot on an attribute",
     "attribute slot past the logits", "negative slot"],
)
@pytest.mark.parametrize("sharing", SHARING_MODES)
def test_masks_laid_out_for_another_graph_are_refused(
    monkeypatch, sharing, fault
):
    rng = np.random.default_rng(0)
    g = _path(4, rng)
    model = random_model(rng, attr_dim=2, hidden=(3,))
    config = ExplainConfig(epochs=2, sharing=sharing)
    masks = init_masks(_path(6, rng) if "graph" in fault else g, config, 0)
    masks = _misfit(masks, fault)
    samples = []
    sample = explain_module._hard_concrete_with_grad

    def counted_sample(*args):
        samples.append(1)
        return sample(*args)

    monkeypatch.setattr(
        explain_module, "_hard_concrete_with_grad", counted_sample
    )
    needs = r"graph 'g' needs edge_slot \(6,\), attr_slot \(4, 2\)"
    with pytest.raises(ShapeMismatch, match=needs):
        learn_masks(model, g, config, masks)
    # refused before the first epoch, whose first call is the sample
    assert samples == []


@pytest.mark.parametrize("sharing", SHARING_MODES)
@pytest.mark.parametrize("mode", MODES)
def test_acceptance_config_learns_the_bits_of_two_branches(mode, sharing):
    # entropy lambdas 0, as the acceptance tests and the benchmark run
    rng = np.random.default_rng(7)
    n = 7
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 3), (2, 6)]
    g = build_graph(n, edges, rng.normal(size=(n, 4)), False, graph_id="a")
    model = random_model(rng, attr_dim=4, hidden=(5, 4))
    config = ExplainConfig(
        epochs=40,
        learning_rate=0.05,
        lambda_edge_entropy=0.0,
        lambda_attr_entropy=0.0,
        mode=mode,
        sharing=sharing,
        hard_concrete=HardConcreteConfig(seed=3),
    )
    masks, expl = learn_masks(model, g, config)
    ref_masks, ref_expl = reference_learn_masks(model, g, config)
    assert masks.logits.tobytes() == ref_masks.logits.tobytes()
    got = json.dumps(explanation_to_dict(expl, config), sort_keys=True)
    want = json.dumps(explanation_to_dict(ref_expl, config), sort_keys=True)
    assert got == want


def _called(tree):
    return {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }


def test_epoch_loop_builds_no_per_graph_invariants():
    # draws, the unmasked operator and mask validation happen once per
    # graph, before the loop; the loop runs only what the logits change,
    # and so do the windows that floored steps run ahead in
    tree = ast.parse(inspect.getsource(learn_masks))
    loops = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.While)
        and getattr(node.test.left, "id", None) == "epoch"
    ]
    assert len(loops) == 1
    called = _called(loops[0])
    (window,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "run_ahead"
    ]
    sample = ast.parse(inspect.getsource(explain_module._window_gates))
    window_called = _called(window) | _called(sample)
    # nor does it call a named array maker (empty, zeros, copy,
    # concatenate, the sampler's buffers); arithmetic temporaries are not
    # calls and are not checked
    banned = {
        "_epoch_uniforms",
        "_logistic_noise",
        "_propagation",
        "MaskedInput",
        "_forward_trace",
        "copy",
        "empty",
        "zeros",
        "_GateBuffers",
        "concatenate",
    }
    assert not called & banned
    assert not window_called & banned
    # the loop gates through the graph's one gate object, whose forward
    # runs the layer stack and calls none of those makers, no repeat and
    # no adjacency builder; a window checks its steps with one stacked
    # sample and one stacked pass, and runs no forward of its own
    assert {"forward", "gradients", "run_ahead"} <= called
    assert {"_window_gates", "below_floor"} <= window_called
    assert not {"forward", "gradients"} & window_called
    step = ast.parse(textwrap.dedent(inspect.getsource(_Gates.forward)))
    called = _called(step)
    assert "_layer_stack" in called
    assert not called & (banned | {"repeat", "_adjacency"})


def _zero_sign_graphs():
    """A graph whose attribute cells are all 0.0, so that the attribute
    gate gradients ``dx * x`` hold -0.0 wherever ``dx`` is negative, and
    a graph without arcs; with a model for each."""
    rng = np.random.default_rng(2)
    ring = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)]
    zeros = build_graph(6, ring, np.zeros((6, 3)), False, graph_id="zeros")
    zeros_model = random_model(rng, attr_dim=3, hidden=(4, 3))
    arcless = build_graph(5, [], rng.normal(size=(5, 3)), False, graph_id="a")
    return [
        (zeros, zeros_model),
        (arcless, random_model(rng, attr_dim=3, hidden=(4, 3))),
    ]


def test_the_zero_attribute_graph_has_negative_zero_gate_gradients():
    # the premise of the next test
    g, model = _zero_sign_graphs()[0]
    mask = MaskedInput(np.full(g.arc_count, 0.5), np.full((6, 3), 0.5))
    target = forward(model, g).predicted_class
    dx = mask_gradients(model, g, mask, target).attribute_gate
    assert (dx == 0.0).all() and np.signbit(dx).any()


@pytest.mark.parametrize("graph", ["zero attributes", "arcless"])
@pytest.mark.parametrize("sharing", SHARING_MODES)
@pytest.mark.parametrize("mode", MODES)
def test_zero_gradients_keep_the_bits_of_two_branches(mode, sharing, graph):
    # unshared, the gate gradients go straight into the gradient vector,
    # with no bincount to turn a -0.0 product into +0.0; Adam's first
    # moment adds it to +0.0, so -0.0 products and empty sides learn
    # what the reference learns; with entropy terms, and without
    g, model = _zero_sign_graphs()[graph == "arcless"]
    for entropy in (0.0, 0.1):
        config = ExplainConfig(
            epochs=30,
            learning_rate=0.05,
            lambda_edge_entropy=entropy,
            lambda_attr_entropy=entropy,
            mode=mode,
            sharing=sharing,
            hard_concrete=HardConcreteConfig(seed=2),
        )
        masks, expl = learn_masks(model, g, config)
        ref_masks, ref_expl = reference_learn_masks(model, g, config)
        assert masks.logits.tobytes() == ref_masks.logits.tobytes()
        got = json.dumps(explanation_to_dict(expl, config), sort_keys=True)
        want = json.dumps(
            explanation_to_dict(ref_expl, config), sort_keys=True
        )
        assert got == want


def _calibrated(model, g, mode, offset):
    """``model`` with its one head layer scaled and shifted so that class
    0 leads by 2 nats with every gate of ``g`` open and by ``offset``
    nats with ``mode``'s learned gates at 0.5; None where those gates
    move the lead by less than 1e-3."""
    (head,) = model.head_layers

    def lead(edge_gate, attr_gate):
        mask = MaskedInput(
            np.full(g.arc_count, edge_gate),
            np.full((g.node_count, g.attr_dim), attr_gate),
        )
        logits = forward(model, g, mask).logits
        return float(logits[0] - logits[1])

    open_lead = lead(1.0, 1.0)
    half_lead = lead(
        1.0 if mode == "attribute_only" else 0.5,
        1.0 if mode == "edge_only" else 0.5,
    )
    if not abs(open_lead - half_lead) >= 1e-3:
        return None
    scale = (2.0 - offset) / (open_lead - half_lead)
    bias = scale * head.bias + np.array([0.0, scale * open_lead - 2.0])
    layer = Layer(scale * head.weight, bias, head.activation)
    return GnnModel(model.attr_dim, 2, model.gcn_layers, (layer,))


def _floor_case(mode, offset):
    """A graph and a model calibrated by :func:`_calibrated`; the lead
    grows with every gate.  An ``offset`` of -80 puts every mask step
    below the probability floor, -27 (the floor sits at -27.6) crosses
    it both ways, and 0 never reaches it.  The second attribute column
    is negative and reaches no logit, so that its gate gradients are
    -0.0 even where the loss sits on the floor."""
    rng = np.random.default_rng(0)
    n = 8
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, 4), (2, 6), (1, 5)]
    x = np.stack([rng.uniform(0.5, 1.5, n), -rng.uniform(0.5, 1.5, n)], 1)
    g = build_graph(n, edges, x, False, graph_id="floor")
    gcn = (Layer(np.eye(2), np.zeros(2), "identity"),)
    # reads the mean of the first column only
    w = np.zeros((4, 2))
    w[2, 0] = 1.0
    head = Layer(w, np.zeros(2), "identity")
    return g, _calibrated(GnnModel(2, 2, gcn, (head,)), g, mode, offset)


FLOOR_OFFSETS = {"every step": -80.0, "both ways": -27.0, "never": 0.0}


def _floor_config(mode, sharing, entropy, **lambdas):
    return ExplainConfig(
        epochs=40,
        learning_rate=0.05,
        lambda_edge_entropy=entropy,
        lambda_attr_entropy=entropy,
        mode=mode,
        sharing=sharing,
        hard_concrete=HardConcreteConfig(seed=3),
        **lambdas,
    )


def _count_steps(monkeypatch):
    """Lists that ``learn_masks`` fills from here on: each committed
    step's target probability, class 0's, and for each backward pass the
    number of steps run so far.  A step's probability comes from its own
    forward or from its window's stacked pass; a window keeps its steps
    up to the first one off the floor, and the loop runs that one again,
    so each step is recorded once, in step order."""
    probs, backward, stacked = [], [], []
    forward_step, gradients = _Gates.forward, _Gates.gradients
    below_floor = _Gates.below_floor
    probabilities = model_module._probabilities

    def counted_forward(self, *args):
        tr = forward_step(self, *args)
        probs.append(float(tr.probabilities[0]))
        return tr

    def counted_gradients(self, *args):
        backward.append(len(probs))
        return gradients(self, *args)

    def kept_probabilities(*args):
        stacked[:] = [probabilities(*args)]
        return stacked[0]

    def counted_below_floor(self, *args):
        below = below_floor(self, *args)
        kept = len(below) if below.all() else int(below.argmin())
        probs.extend(stacked[0][:kept, 0].tolist())
        return below

    monkeypatch.setattr(_Gates, "forward", counted_forward)
    monkeypatch.setattr(_Gates, "gradients", counted_gradients)
    monkeypatch.setattr(_Gates, "below_floor", counted_below_floor)
    monkeypatch.setattr(model_module, "_probabilities", kept_probabilities)
    return probs, backward


def _crossings(probs):
    """Steps onto the floor and steps off it."""
    off = [p >= PROBABILITY_FLOOR for p in probs]
    pairs = list(zip(off, off[1:]))
    return pairs.count((True, False)), pairs.count((False, True))


@pytest.mark.parametrize("case", list(FLOOR_OFFSETS))
@pytest.mark.parametrize("sharing", SHARING_MODES)
@pytest.mark.parametrize("mode", MODES)
def test_floored_steps_learn_the_bits_of_two_branches(
    monkeypatch, mode, sharing, case
):
    # steps on the floor skip the backward pass and still learn what the
    # reference learns, which runs it on every step
    g, model = _floor_case(mode, FLOOR_OFFSETS[case])
    probs, _ = _count_steps(monkeypatch)
    for entropy in (0.0, 0.1):
        config = _floor_config(mode, sharing, entropy)
        probs.clear()
        masks, expl = learn_masks(model, g, config)
        floored = sum(not p >= PROBABILITY_FLOOR for p in probs)
        if case == "every step":
            assert floored == config.epochs
        elif case == "both ways":
            assert min(_crossings(probs)) >= 1
        else:
            assert floored == 0
        ref_masks, ref_expl = reference_learn_masks(model, g, config)
        assert masks.logits.tobytes() == ref_masks.logits.tobytes()
        got = json.dumps(explanation_to_dict(expl, config), sort_keys=True)
        want = json.dumps(
            explanation_to_dict(ref_expl, config), sort_keys=True
        )
        assert got == want


@pytest.mark.parametrize("case", list(FLOOR_OFFSETS))
@pytest.mark.parametrize("sharing", SHARING_MODES)
@pytest.mark.parametrize("mode", MODES)
def test_backward_runs_once_per_step_off_the_floor(
    monkeypatch, mode, sharing, case
):
    g, model = _floor_case(mode, FLOOR_OFFSETS[case])
    config = _floor_config(mode, sharing, 0.0)
    probs, backward = _count_steps(monkeypatch)
    learn_masks(model, g, config)
    assert len(probs) == config.epochs
    off = [i + 1 for i, p in enumerate(probs) if p >= PROBABILITY_FLOOR]
    assert backward == off


def test_a_nan_target_probability_counts_as_on_the_floor(monkeypatch):
    # overflowing logits make every probability NaN: the first step
    # raises on its objective without a backward pass
    g, _ = _floor_case("full", 0.0)
    huge = Layer(np.full((2, 2), 1e300), np.zeros(2), "identity")
    head = Layer(np.full((4, 2), 1e300), np.zeros(2), "identity")
    model = GnnModel(2, 2, (huge,), (head,))
    config = _floor_config("full", "independent", 0.0)
    probs, backward = _count_steps(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(forward(model, g).probabilities).all()
        with pytest.raises(NonFiniteLoss, match="epoch 0"):
            learn_masks(model, g, config)
    assert len(probs) == 1 and math.isnan(probs[0])
    assert backward == []


def test_the_floor_case_has_negative_zero_gate_gradients():
    # the premise of the next test: on the floor the full pass gives -0.0
    g, model = _floor_case("full", FLOOR_OFFSETS["every step"])
    mask = MaskedInput(np.full(g.arc_count, 0.5), np.full((8, 2), 0.5))
    assert forward(model, g, mask).probabilities[0] < PROBABILITY_FLOOR
    dx = mask_gradients(model, g, mask, 0).attribute_gate
    assert (dx == 0.0).all() and np.signbit(dx[:, 1]).all()


@pytest.mark.parametrize("case", list(FLOOR_OFFSETS))
@pytest.mark.parametrize("sharing", SHARING_MODES)
@pytest.mark.parametrize("mode", MODES)
def test_skipped_backward_gives_every_step_the_gradient_bits(
    monkeypatch, mode, sharing, case
):
    # the full pass's gate gradients on the floor are +-0.0 (the second
    # attribute column gives -0.0); the step must turn them into the bits
    # the skip's +0.0 gives, also under penalty weights of -0.0
    g, model = _floor_case(mode, FLOOR_OFFSETS[case])
    signed = {"lambda_edge_size": -0.0, "lambda_attr_size": -0.0}
    for entropy, lambdas in itertools.product((0.0, 0.1), ({}, signed)):
        config = _floor_config(mode, sharing, entropy, **lambdas)
        steps = {}
        for skip in (True, False):
            # by step, so that a step a window rolls back and runs again
            # keeps the gradient of its run that counts
            seen = steps[skip] = {}

            class Recording(explain_module.Adam):
                def step(self, grads):
                    seen[self.step_count] = grads[0].tobytes()
                    super().step(grads)

            monkeypatch.setattr(explain_module, "Adam", Recording)
            if not skip:
                never = lambda p: False  # noqa: E731
                monkeypatch.setattr(explain_module, "_on_floor", never)
            learn_masks(model, g, config)
            monkeypatch.undo()
        assert steps[True] == steps[False], lambdas


def _count_windows(monkeypatch):
    """Lists that ``learn_masks`` fills from here on: one entry per
    forward of a step, and each window's floor test of its steps."""
    forwards, windows = [], []
    forward_step, below_floor = _Gates.forward, _Gates.below_floor

    def counted_forward(self, *args):
        forwards.append(1)
        return forward_step(self, *args)

    def counted_below_floor(self, *args):
        below = below_floor(self, *args)
        windows.append(below.tolist())
        return below

    monkeypatch.setattr(_Gates, "forward", counted_forward)
    monkeypatch.setattr(_Gates, "below_floor", counted_below_floor)
    return forwards, windows


@pytest.mark.parametrize("sharing", SHARING_MODES)
@pytest.mark.parametrize("mode", MODES)
def test_floored_steps_run_ahead_in_windows(monkeypatch, mode, sharing):
    # on the floor at every step, the first step's forward opens windows
    # of 2, 4, 8, ... steps, and one stacked pass checks each of them
    g, model = _floor_case(mode, FLOOR_OFFSETS["every step"])
    config = _floor_config(mode, sharing, 0.0)
    forwards, windows = _count_windows(monkeypatch)
    learn_masks(model, g, config)
    assert len(forwards) <= len(windows)
    assert [len(w) for w in windows] == [2, 4, 8, 16, 9]
    assert all(all(w) for w in windows)


@pytest.mark.parametrize("sharing", SHARING_MODES)
@pytest.mark.parametrize("mode", MODES)
def test_a_window_that_leaves_the_floor_is_rolled_back(
    monkeypatch, mode, sharing
):
    # crossing the floor both ways, some window ends early: its steps
    # from the first one off the floor on are undone, and the epoch loop
    # runs that step; the bits stay the reference's
    g, model = _floor_case(mode, FLOOR_OFFSETS["both ways"])
    forwards, windows = _count_windows(monkeypatch)
    for entropy in (0.0, 0.1):
        config = _floor_config(mode, sharing, entropy)
        windows.clear()
        masks, expl = learn_masks(model, g, config)
        assert any(not all(w) for w in windows)
        ref_masks, ref_expl = reference_learn_masks(model, g, config)
        assert masks.logits.tobytes() == ref_masks.logits.tobytes()
        got = json.dumps(explanation_to_dict(expl, config), sort_keys=True)
        want = json.dumps(
            explanation_to_dict(ref_expl, config), sort_keys=True
        )
        assert got == want


def _overflowing_model():
    """A model of :func:`_floor_case`'s graph whose class 0 leads with
    every gate open.  Its relu layer turns node fields below 0.25 into
    values near 2e307, which its head reads, times 12, into class 1's
    logit: as the gates close, class 0 falls below the floor, and then
    that logit overflows and every probability is NaN."""
    big = 2e307
    layer = Layer(np.diag([-big / 0.25, 0.0]), np.array([big, 0.0]), "relu")
    w = np.zeros((4, 2))
    w[0, 1] = 12.0
    head = Layer(w, np.array([0.0, -2.0]), "identity")
    return GnnModel(2, 2, (layer,), (head,))


@pytest.mark.parametrize("sharing", SHARING_MODES)
def test_a_nan_target_probability_inside_a_window_raises_at_its_step(
    monkeypatch, sharing
):
    # a window's stacked pass sees the NaN, which is not below the floor,
    # so the window ends there and the epoch loop runs that step, which
    # raises as the reference does
    g, _ = _floor_case("full", 0.0)
    model = _overflowing_model()
    config = ExplainConfig(
        epochs=40,
        learning_rate=0.05,
        sharing=sharing,
        hard_concrete=HardConcreteConfig(stochastic=False),
    )
    probs, backward = _count_steps(monkeypatch)
    forwards, windows = _count_windows(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        assert forward(model, g).predicted_class == 0
        with pytest.raises(NonFiniteLoss) as want:
            reference_learn_masks(model, g, config)
        with pytest.raises(NonFiniteLoss) as got:
            learn_masks(model, g, config)
    epoch = len(probs) - 1
    assert str(got.value) == str(want.value) == f"epoch {epoch}: objective nan"
    assert epoch > 2 and max(probs[:-1]) < PROBABILITY_FLOOR
    assert math.isnan(probs[-1]) and backward == []
    assert not all(windows[-1]) and len(forwards) < epoch


@pytest.mark.parametrize("learning_rate", [4e307, 1e308])
@pytest.mark.parametrize("sharing", SHARING_MODES)
@pytest.mark.parametrize("mode", MODES)
def test_a_non_finite_objective_ends_a_window_before_its_step(
    monkeypatch, mode, sharing, learning_rate
):
    # steps of about the learning rate overflow the logits; the window
    # keeps the steps before the first NaN objective, checked, and the
    # epoch loop raises at that step as the reference does
    g, model = _floor_case(mode, FLOOR_OFFSETS["every step"])
    config = dataclasses.replace(
        _floor_config(mode, sharing, 0.0), learning_rate=learning_rate
    )
    forwards, windows = _count_windows(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteLoss) as want:
            reference_learn_masks(model, g, config)
        with pytest.raises(NonFiniteLoss) as got:
            learn_masks(model, g, config)
    # the first step's forward, the checked windows' steps, and the
    # step the loop runs, with its own forward
    epoch = 1 + sum(map(len, windows))
    assert str(got.value) == str(want.value) == f"epoch {epoch}: objective nan"
    assert all(all(w) for w in windows) and len(forwards) == 2


@pytest.mark.parametrize("mode", MODES)
def test_no_window_opens_where_a_gate_gradient_may_be_infinite(
    monkeypatch, mode
):
    # beta = 1e-320 makes span / beta overflow: a gate at 0.5 has an
    # infinite dgate, so a floored step's gradient is 0 * inf = NaN, as
    # with the backward pass on every step, not the +0 a window assumes
    g, model = _floor_case(mode, FLOOR_OFFSETS["every step"])
    config = dataclasses.replace(
        _floor_config(mode, "independent", 0.0),
        hard_concrete=HardConcreteConfig(beta=1e-320, stochastic=False),
    )
    masks = init_masks(g, config, 0)
    masks.logits[:] = 0.0
    messages = []
    for skip in (True, False):
        if not skip:
            monkeypatch.setattr(explain_module, "_on_floor", lambda p: False)
        forwards, windows = _count_windows(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteLoss) as raised:
                learn_masks(model, g, config, initial_masks=masks)
        messages.append(str(raised.value))
        assert windows == []
    assert messages[0] == messages[1]


def test_rows_drawn_when_read_are_the_table_rows(monkeypatch):
    # above the cap no table is kept: rows come by epoch, by slice and in
    # order, with the bits of a fresh generator per epoch
    empty = (None, np.empty((0, 0)))
    monkeypatch.setattr(explain_module, "_noise_table", empty)
    monkeypatch.setattr(explain_module, "_TABLE_ENTRIES", 0)
    drawn = explain_module._noise_rows(3, 5, 7)
    want = np.array(
        [_logistic_noise(_epoch_uniforms(3, e, 7)) for e in range(5)]
    )
    assert np.array(list(drawn)).tobytes() == want.tobytes()
    assert drawn[1:4].tobytes() == want[1:4].tobytes()
    assert drawn[4:4].shape == (0, 7)


@pytest.mark.parametrize("sharing", SHARING_MODES)
def test_windows_over_rows_drawn_when_read_learn_the_reference_bits(
    monkeypatch, sharing
):
    # the windows' noise rows are drawn when read, as stacked slices
    empty = (None, np.empty((0, 0)))
    monkeypatch.setattr(explain_module, "_noise_table", empty)
    monkeypatch.setattr(explain_module, "_TABLE_ENTRIES", 0)
    for case in ("every step", "both ways"):
        g, model = _floor_case("full", FLOOR_OFFSETS[case])
        config = _floor_config("full", sharing, 0.0)
        masks, _ = learn_masks(model, g, config)
        ref_masks, _ = reference_learn_masks(model, g, config)
        assert masks.logits.tobytes() == ref_masks.logits.tobytes()
