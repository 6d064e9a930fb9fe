"""``learn_masks`` against a two-branch reference: one mask vector per graph
must learn exactly what one edge branch plus one attribute branch learn."""

import ast
import inspect
import json
import math

import numpy as np
from conftest import random_model
from hypothesis import given, settings
from hypothesis import strategies as st

from gxplain.errors import NonFiniteLoss
from gxplain.explain import (
    MODES,
    SHARING_MODES,
    ExplainConfig,
    HardConcreteConfig,
    _binary_entropy_of_logit,
    _build_explanation,
    _epoch_uniforms,
    _hard_concrete_with_grad,
    _sigmoid,
    explanation_to_dict,
    init_masks,
    learn_masks,
)
from gxplain.graphs import build_graph
from gxplain.model import (
    PROBABILITY_FLOOR,
    MaskedInput,
    _backward,
    _forward_trace,
    _propagation,
)
from gxplain.optim import Adam


def reference_learn_masks(model, g, config, initial_masks=None):
    """``learn_masks`` with one branch per side: a sample, a slot scatter,
    a penalty and an Adam parameter list for edges, then the same again
    for attributes; a pinned side is skipped and keeps gates of 1."""
    hc = config.hard_concrete
    unmasked = _propagation(g)
    base = _forward_trace(model, g, None, unmasked)
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
    optimizer = Adam(optimized, config.learning_rate)

    for epoch in range(config.epochs):
        if hc.stochastic:
            u = _epoch_uniforms(hc.seed, epoch, edge_params + attr_params)
        else:
            u = np.full(edge_params + attr_params, 0.5)

        if learn_edges:
            gate_e_slots, dgate_e_slots = _hard_concrete_with_grad(
                masks.edge_logits, hc, u[:edge_params]
            )
            gate_e = gate_e_slots[masks.edge_slot]
        else:
            gate_e = ones_edge
        if learn_attrs:
            gate_x_slots, dgate_x_slots = _hard_concrete_with_grad(
                masks.attr_logits, hc, u[edge_params:]
            )
            gate_x = gate_x_slots[attr_slot_flat].reshape(n, d)
        else:
            gate_x = ones_attr

        masked = MaskedInput(gate_e, gate_x)
        tr = _forward_trace(model, g, masked, unmasked)
        p_target = max(float(tr.probabilities[target]), PROBABILITY_FLOOR)
        objective = -math.log(p_target)
        ce_edge, ce_attr = _backward(model, tr, target, g)

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
