"""``learn_masks`` against a two-branch reference: one mask vector per graph
must learn exactly what one edge branch plus one attribute branch learn."""

import ast
import importlib
import inspect
import itertools
import json
import math

import numpy as np
import pytest
from conftest import random_model
from hypothesis import given, settings
from hypothesis import strategies as st
from pinned_kernels import (
    PinnedAdam,
    pinned_backward,
    pinned_forward_trace,
    pinned_hard_concrete_with_grad,
)

from gxplain.errors import NonFiniteLoss
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
from gxplain.model import PROBABILITY_FLOOR, MaskedInput, _propagation

# the package exports the function ``explain`` under the module's name
explain_module = importlib.import_module("gxplain.explain")


def reference_learn_masks(model, g, config, initial_masks=None):
    """``learn_masks`` with one branch per side: a sample, a slot scatter,
    a penalty and an Adam parameter list for edges, then the same again
    for attributes; a pinned side is skipped and keeps gates of 1.  It
    samples, runs the model and steps through the pinned kernels."""
    hc = config.hard_concrete
    unmasked = _propagation([g])[0]
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
                m_exp = masks.edge_logit_per_arc()
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
                m_exp = masks.attr_logit_matrix().ravel()
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
    n = draw(st.integers(0, 8))
    attr_dim = draw(st.integers(0, 3))
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
    lambdas = st.sampled_from([0.0, 0.005, 0.1, 1.0, 3.0])
    config = ExplainConfig(
        epochs=draw(st.integers(0, 6)),
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
    masks, expl = learn_masks(model, g, config, initial_masks=initial)
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


def test_epoch_loop_builds_no_per_graph_invariants():
    # draws, the unmasked operator and mask validation happen once per
    # graph, before the loop; the loop runs only what the logits change
    tree = ast.parse(inspect.getsource(learn_masks))
    loops = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.For)
        and getattr(node.target, "id", None) == "epoch"
    ]
    assert len(loops) == 1
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(loops[0])
        if isinstance(node, ast.Call)
    }
    banned = {
        "_epoch_uniforms",
        "_logistic_noise",
        "_propagation",
        "MaskedInput",
        "_forward_trace",
        "copy",
    }
    assert not called & banned
