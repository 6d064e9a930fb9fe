"""Exhaustive ground truth for small instances.

Everything here enumerates, so inputs are capped at 14 nodes; the results
are used to audit the learned explainer, never to produce explanations.
A graph and its occluded copies run as one stacked pass
(:func:`_original`).  The subset searches score each distinct induced
input once: subsets with the same 0/1 block and the same attribute rows
share one stacked row, and the searches read the distinct rows only
(:func:`_subset_probabilities`).
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
    _adjacency,
    _block_probabilities,
    _block_rows,
    _check_attr_dim,
    _layer_stack,
    _propagation,
)

MAX_ORACLE_NODES = 14
# a subset key holds one attribute id per position as a hex digit
assert MAX_ORACLE_NODES < 16


@dataclass(slots=True)
class OracleResult:
    """Every oracle output for one small graph and one budget k.

    Eligibility has two owners.  ``exhaustive_min_k`` is searched from
    k = 1 on every graph (:func:`_min_k`).  ``eval`` reports a ranking
    ``min_k`` only for eligible graphs, those whose prediction differs
    from the empty graph's (:func:`metrics.default_prediction`).  So an
    ineligible graph has an ``exhaustive_min_k`` here and no ``min_k``
    in ``eval``.  On the benchmark's 13-node audit data (dataset seed 1,
    50 training epochs), the 20 ineligible test graphs all read
    ``exhaustive_min_k`` 3.
    """

    best_subset: NodeSet
    best_probability: float
    exhaustive_min_k: int
    occlusion_drop: np.ndarray


@functools.lru_cache(maxsize=None)
def _subsets(n: int, k: int) -> np.ndarray:
    """Every k-subset of ``range(n)`` in lexicographic order, one per row
    of a read-only ``(C(n, k), k)`` array.  Kept per (n, k), as are
    their :func:`_subset_cells`: for every n <= ``MAX_ORACLE_NODES`` the
    rows take about 1.7 MB and the cells 1.5 MB."""
    rows = np.array(
        list(itertools.combinations(range(n), k)), dtype=np.int64
    ).reshape(math.comb(n, k), k)
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=None)
def _subset_cells(n: int, k: int) -> np.ndarray:
    """Where each k-subset's ``(k, k)`` block lies in a flattened ``(n,
    n)`` matrix: a read-only ``(C(n, k), k, k)`` uint8 array (n * n <=
    196 under the oracle's node cap), row ``i`` for ``_subsets(n, k)[i]``.
    One ``take`` of it gathers every block at a fifth of the cost of
    broadcast fancy indexing with the rows."""
    rows = _subsets(n, k)
    cells = (rows[:, :, None] * n + rows[:, None, :]).astype(np.uint8)
    cells.flags.writeable = False
    return cells


def _check_budget(g: AttributedGraph, k: int) -> None:
    if g.node_count > MAX_ORACLE_NODES:
        raise TooLarge(
            f"{g.node_count} nodes exceed the oracle cap of"
            f" {MAX_ORACLE_NODES}"
        )
    if not 0 <= k <= g.node_count:
        raise InvalidBudget(
            f"k must lie in [0, {g.node_count}], got {k}"
        )


def _attribute_ids(attributes: np.ndarray) -> np.ndarray:
    """One id per node, equal for nodes whose attribute rows are equal
    byte for byte, so ``0.0`` and ``-0.0`` get different ids."""
    n, width = attributes.shape[0], attributes.shape[1] * attributes.itemsize
    if width == 0:
        return np.zeros(n, dtype=np.intp)
    rows = np.ascontiguousarray(attributes).view((np.void, width))[:, 0]
    return np.unique(rows, return_inverse=True)[1]


def _original(
    model: GnnModel, g: AttributedGraph
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What every search of ``g`` starts from: its arcs as an ``(n, n)``
    bool matrix laid out as :func:`_adjacency` lays them out, its
    :func:`_attribute_ids`, its unmasked class probabilities and each
    arc's occlusion drop (see :func:`occlusion_scores`).

    ``g`` and its occluded copies run as one probability-only stack in
    :func:`_block_rows` blocks: row 0 is the unmasked operator and row
    ``1 + i`` gates edge ``i`` out, both arcs of an undirected edge.
    """
    _check_attr_dim(model, g)
    adjacency = _adjacency([g])
    links = adjacency[0] != 0
    full = _propagation(adjacency)[0]
    step = 1 if g.directed else 2
    src, dst = g.arc_index_arrays()
    a = np.repeat(full[None], 1 + g.arc_count // step, axis=0)
    a[1 + np.arange(g.arc_count) // step, dst, src] = 0.0
    probs = np.empty((len(a), model.num_classes))
    rows = _block_rows(g.node_count)
    for start in range(0, len(a), rows):
        block = a[start : start + rows]
        x = np.broadcast_to(g.attributes, (len(block),) + g.attributes.shape)
        probs[start : start + rows] = _layer_stack(model, block, x, keep=False)
    original = probs[0]
    target = int(np.argmax(original))
    drops = np.repeat(original[target] - probs[1:, target], step)
    return links, _attribute_ids(g.attributes), original, drops


def _subset_probabilities(
    model: GnnModel,
    g: AttributedGraph,
    k: int,
    links: np.ndarray,
    ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct inputs among the subgraphs that the k-subsets of
    ``g`` induce: ``first``, ascending, the index in :func:`_subsets`
    order of the first subset of each distinct input, and ``probs``,
    ``(len(first), classes)``, their class probabilities.  ``links`` and
    ``ids`` are ``g``'s from :func:`_original`.

    A subset's probabilities depend only on its induced 0/1 block and its
    nodes' attribute rows, and every slice of a stacked pass is bit for
    bit that graph run alone.  So each subset is keyed by its block's
    cells and its nodes' ids, and the first subset of each distinct key
    runs in :func:`_block_rows` blocks of :func:`_block_probabilities`.

    The key is a few float64 words, each an exact integer below 2**52
    whatever the order of the sums: block cell ``j`` adds ``2**(j % 52)``
    to word ``j // 52``, and position ``i`` adds ``id * 16**i`` to the
    last word (ids are below 16, and k < n <= 14 where a key is built).
    """
    n = g.node_count
    rows = _subsets(n, k)
    blocks = links.take(_subset_cells(n, k))
    if len(rows) == 1:
        # k = 0 or k = n: one subset, and no zero-width key to build
        first = np.zeros(1, dtype=np.intp)
    else:
        cells = k * k
        words = -(-cells // 52)
        weights = np.zeros((cells + k, words + 1))
        j = np.arange(cells)
        weights[j, j // 52] = 2.0 ** (j % 52)
        weights[cells:, words] = 16.0 ** np.arange(k)
        key = np.concatenate(
            [blocks.reshape(len(rows), cells), ids[rows]],
            axis=1,
            dtype=np.float64,
        ) @ weights
        # stable, so each run of equal keys starts at its first subset
        order = np.lexsort(key.T)
        starts = np.zeros(len(rows), dtype=bool)
        starts[0] = True
        for word in key.take(order, axis=0).T:
            starts[1:] |= word[1:] != word[:-1]
        first = np.sort(order[starts])
    probs = np.empty((len(first), model.num_classes))
    step = _block_rows(k)
    for start in range(0, len(first), step):
        pick = first[start : start + step]
        probs[start : start + step] = _block_probabilities(
            model, blocks[pick], g.attributes[None], 0, rows[pick]
        )
    return first, probs


def _best_subset(
    model: GnnModel,
    g: AttributedGraph,
    k: int,
    links: np.ndarray,
    ids: np.ndarray,
    target: int,
) -> tuple[NodeSet, float]:
    first, probs = _subset_probabilities(model, g, k, links, ids)
    p = probs[:, target]
    # rows follow their first subsets, so the first maximum (or NaN) is
    # the lexicographically first subset that reaches it
    i = int(np.argmax(p))
    return NodeSet(tuple(_subsets(g.node_count, k)[first[i]])), float(p[i])


def _min_k(
    model: GnnModel,
    g: AttributedGraph,
    links: np.ndarray,
    ids: np.ndarray,
    target: int,
) -> int:
    """Smallest subset size k at which some k-subset's induced subgraph
    keeps the original prediction ``target``; the full set always does,
    so this ends by k = n, and a graph without nodes gives 0.

    The search starts at k = 1 on every graph, eligible or not; see
    :class:`OracleResult` for how this differs from ``eval``'s ``min_k``.
    """
    for k in range(1, g.node_count + 1):
        _, probs = _subset_probabilities(model, g, k, links, ids)
        if (probs.argmax(axis=-1) == target).any():
            return k
    return g.node_count


def occlusion_scores(model: GnnModel, g: AttributedGraph) -> np.ndarray:
    """Drop in original-class probability when each arc is gated to zero.

    On an undirected graph both directions of an edge are gated together
    and their entries share the drop value.  The gated copies run in the
    stack of :func:`_original`, after the graph itself.
    """
    return _original(model, g)[3]


def oracle_report(model: GnnModel, g: AttributedGraph, k: int) -> OracleResult:
    """Bundle of every oracle output for one small graph; its three
    searches share one :func:`_original`."""
    _check_budget(g, k)
    links, ids, original, drops = _original(model, g)
    target = int(np.argmax(original))
    best_subset, best_probability = _best_subset(
        model, g, k, links, ids, target
    )
    return OracleResult(
        best_subset=best_subset,
        best_probability=best_probability,
        exhaustive_min_k=_min_k(model, g, links, ids, target),
        occlusion_drop=drops,
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
