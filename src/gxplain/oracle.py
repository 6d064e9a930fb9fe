"""Exhaustive ground truth for small instances.

Everything here enumerates, so inputs are capped at 14 nodes; the results
are used to audit the learned explainer, never to produce explanations.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._atomic import write_json
from .errors import InvalidBudget, TooLarge
from .graphs import AttributedGraph, NodeSet
from .model import (
    GnnModel,
    _block_rows,
    _forward_trace,
    _layer_stack,
    _propagation,
    forward,
    subset_probabilities,
)

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


@functools.lru_cache(maxsize=None)
def _subsets(n: int, k: int) -> np.ndarray:
    """Every k-subset of ``range(n)`` in lexicographic order, one per row
    of a read-only ``(C(n, k), k)`` array.  Kept per (n, k): for every
    n <= ``MAX_ORACLE_NODES`` the arrays take about 1.7 MB."""
    rows = np.array(
        list(itertools.combinations(range(n), k)), dtype=np.int64
    ).reshape(math.comb(n, k), k)
    rows.flags.writeable = False
    return rows


def _subset_blocks(n: int, k: int):
    """:func:`_subsets` as ``(b, k)`` row blocks of one stacked pass each."""
    rows, step = _subsets(n, k), _block_rows(k)
    for first in range(0, len(rows), step):
        yield rows[first : first + step]


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
    target = forward(model, g).predicted_class
    best_subset: np.ndarray | None = None
    best_probability = -1.0
    for rows in _subset_blocks(g.node_count, k):
        p = subset_probabilities(model, [(g, rows)])[:, target]
        i = int(np.argmax(p))
        # strict: an equal value in a later block loses the tie
        if p[i] > best_probability:
            best_probability = float(p[i])
            best_subset = rows[i]
    return NodeSet(tuple(best_subset)), best_probability


def exhaustive_sparsity(model: GnnModel, g: AttributedGraph) -> int:
    """Smallest subset size whose best induced subgraph keeps the
    original prediction; the full set always does, so this terminates."""
    _guard_size(g)
    original = forward(model, g).predicted_class
    for k in range(1, g.node_count + 1):
        for rows in _subset_blocks(g.node_count, k):
            probs = subset_probabilities(model, [(g, rows)])
            if (probs.argmax(axis=-1) == original).any():
                return k
    return g.node_count


def occlusion_scores(model: GnnModel, g: AttributedGraph) -> np.ndarray:
    """Drop in original-class probability when each arc is gated to zero.

    On an undirected graph both directions of an edge are gated together
    and their entries share the drop value.  The gated copies of ``g`` run
    as stacks, one row per occluded edge.
    """
    full = _propagation([g])[0]
    original = _forward_trace(model, g, None, full)
    target = original.predicted_class
    p0 = float(original.probabilities[target])
    step = 1 if g.directed else 2
    src, dst = g.arc_index_arrays()
    # one row per occluded edge: its arc and, when undirected, the mate
    occluded = np.arange(0, g.arc_count, step)[:, None] + np.arange(step)
    drops = np.empty(len(occluded))
    rows = _block_rows(g.node_count)
    for first in range(0, len(occluded), rows):
        arcs = occluded[first : first + rows]
        a = np.repeat(full[None], len(arcs), axis=0)
        a[np.arange(len(arcs))[:, None], dst[arcs], src[arcs]] = 0.0
        x = np.broadcast_to(g.attributes, (len(arcs),) + g.attributes.shape)
        probs = _layer_stack(model, a, x).probabilities[:, target]
        drops[first : first + rows] = p0 - probs
    return np.repeat(drops, step)


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
            {"src": s, "dst": d, "drop": float(v)}
            for (s, d), v in zip(g.arcs.tolist(), result.occlusion_drop)
        ],
    }
    write_json(path, doc)
