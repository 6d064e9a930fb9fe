"""Exhaustive ground truth for small instances.

Everything here enumerates, so inputs are capped at 14 nodes; the results
are used to audit the learned explainer, never to produce explanations.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from ._atomic import write_json
from .errors import InvalidBudget, TooLarge
from .graphs import AttributedGraph, NodeSet, node_induced_subgraph
from .model import GnnModel, MaskedInput, forward, normalize_adjacency

MAX_ORACLE_NODES = 14


@dataclass
class OracleResult:
    best_subset: NodeSet
    best_probability: float
    exhaustive_min_k: int
    occlusion_drop: np.ndarray


def _guard_size(g: AttributedGraph) -> None:
    if g.node_count > MAX_ORACLE_NODES:
        raise TooLarge(
            f"{g.node_count} nodes exceed the oracle cap of"
            f" {MAX_ORACLE_NODES}"
        )


def brute_force_best_subset(
    model: GnnModel, g: AttributedGraph, k: int
) -> tuple[NodeSet, float]:
    """The k-subset whose induced subgraph maximizes the original class
    probability; ties keep the lexicographically first subset."""
    _guard_size(g)
    if not 0 <= k <= g.node_count:
        raise InvalidBudget(
            f"k must lie in [0, {g.node_count}], got {k}"
        )
    original = forward(model, g)
    target = original.predicted_class
    best_subset: tuple[int, ...] | None = None
    best_probability = -1.0
    for combo in itertools.combinations(range(g.node_count), k):
        sub = node_induced_subgraph(g, NodeSet(combo))
        p = float(forward(model, sub).probabilities[target])
        if p > best_probability:
            best_probability = p
            best_subset = combo
    return NodeSet(best_subset), best_probability


def exhaustive_sparsity(model: GnnModel, g: AttributedGraph) -> int:
    """Smallest subset size whose best induced subgraph keeps the
    original prediction; the full set always does, so this terminates."""
    _guard_size(g)
    original = forward(model, g).predicted_class
    for k in range(1, g.node_count + 1):
        for combo in itertools.combinations(range(g.node_count), k):
            sub = node_induced_subgraph(g, NodeSet(combo))
            if forward(model, sub).predicted_class == original:
                return k
    return g.node_count


def occlusion_scores(model: GnnModel, g: AttributedGraph) -> np.ndarray:
    """Drop in original-class probability when each arc is gated to zero.

    On an undirected graph both directions of an edge are gated together
    and their entries share the drop value.
    """
    adjacency = normalize_adjacency(g)
    original = forward(model, g, None, adjacency)
    p0 = float(original.probabilities[original.predicted_class])
    ones_attr = np.ones((g.node_count, g.attr_dim))
    drops = np.zeros(g.arc_count)
    step = 1 if g.directed else 2
    for a in range(0, g.arc_count, step):
        gate = np.ones(g.arc_count)
        gate[a] = 0.0
        if not g.directed:
            gate[a + 1] = 0.0
        masked = MaskedInput(gate, ones_attr)
        res = forward(model, g, masked, adjacency)
        drop = p0 - float(res.probabilities[original.predicted_class])
        drops[a] = drop
        if not g.directed:
            drops[a + 1] = drop
    return drops


def oracle_report(model: GnnModel, g: AttributedGraph, k: int) -> OracleResult:
    """Bundle of every oracle output for one small graph."""
    best_subset, best_probability = brute_force_best_subset(model, g, k)
    return OracleResult(
        best_subset=best_subset,
        best_probability=best_probability,
        exhaustive_min_k=exhaustive_sparsity(model, g),
        occlusion_drop=occlusion_scores(model, g),
    )


def save_oracle_result(result: OracleResult, g: AttributedGraph, path) -> None:
    doc = {
        "graph_id": g.graph_id,
        "best_subset": list(result.best_subset),
        "best_probability": result.best_probability,
        "exhaustive_min_k": result.exhaustive_min_k,
        "occlusion_drop": [
            {"src": int(s), "dst": int(d), "drop": float(v)}
            for (s, d), v in zip(g.arcs, result.occlusion_drop)
        ],
    }
    write_json(path, doc)
