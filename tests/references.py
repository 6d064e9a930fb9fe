"""Definitions the tests compare the library with, which the pipeline
itself never calls: the loss that the backward pass differentiates, the
attribute budget's verdict, the motif benchmark drawn graph by graph, and
field-by-field equality of graphs and datasets.
"""

import numpy as np

from gxplain.datasets import CYCLE_EDGES, HOUSE_EDGES, Dataset
from gxplain.graphs import AttributedGraph, build_graph
from gxplain.model import PROBABILITY_FLOOR, forward


def loss(model, g, mask, target_class):
    """Cross-entropy toward ``target_class`` with the probability floored."""
    p = forward(model, g, mask).probabilities[target_class]
    return -float(np.log(max(float(p), PROBABILITY_FLOOR)))


def keeps_class_on_top_attributes(model, g, attr_score, top_t, target):
    """Whether ``g`` still predicts ``target`` once all but each node's
    ``top_t`` highest-scored attributes are zeroed, ties going to the
    lower column; a graph without nodes gets the model's width."""
    x = np.zeros((g.node_count, model.attr_dim))
    for v in range(g.node_count):
        ranked = sorted(range(g.attr_dim), key=lambda c: -attr_score[v, c])
        for c in ranked[:top_t]:
            x[v, c] = g.attributes[v, c]
    kept = AttributedGraph(g.node_count, g.arcs, x, g.directed)
    return forward(model, kept).predicted_class == target


def reference_motif_graphs(
    n_graphs, seed, base_size=20, attr_dim=10, attr_value=0.1, name="ba2motifs"
):
    """The motif benchmark one draw and one graph at a time: each new base
    node wires to an entry of the endpoint list of the edges so far, then
    the motif's node is drawn, then the base node it attaches to."""
    rng = np.random.default_rng(seed)
    node_count = base_size + 5
    graphs = []
    for i in range(n_graphs):
        edges = [(0, 1)]
        endpoints = [0, 1]
        for new in range(2, base_size):
            target = endpoints[int(rng.integers(len(endpoints)))]
            edges.append((target, new))
            endpoints.extend((target, new))
        motif = HOUSE_EDGES if i % 2 == 0 else CYCLE_EDGES
        edges.extend((base_size + u, base_size + v) for u, v in motif)
        motif_node = base_size + int(rng.integers(5))
        edges.append((motif_node, int(rng.integers(base_size))))
        attributes = np.full((node_count, attr_dim), attr_value)
        graphs.append(
            build_graph(
                node_count, edges, attributes, False, i % 2, f"{name}-{i:04d}"
            )
        )
    train_end, val_end = int(n_graphs * 0.8), int(n_graphs * 0.9)
    splits = {
        "train": list(range(train_end)),
        "validation": list(range(train_end, val_end)),
        "test": list(range(val_end, n_graphs)),
    }
    return Dataset(name, graphs, attr_dim, 2, splits, generation_seed=seed)


def graphs_equal(a, b):
    """Field-by-field equality, including ids and attribute values."""
    return (
        a.node_count == b.node_count
        and bool(np.array_equal(a.arcs, b.arcs))
        and a.directed == b.directed
        and a.label == b.label
        and a.graph_id == b.graph_id
        and a.attributes.shape == b.attributes.shape
        and bool(np.array_equal(a.attributes, b.attributes))
    )


def datasets_equal(a, b):
    """Deep equality over every field and every graph."""
    return (
        a.name == b.name
        and a.attr_dim == b.attr_dim
        and a.num_classes == b.num_classes
        and a.splits == b.splits
        and a.generation_seed == b.generation_seed
        and len(a.graphs) == len(b.graphs)
        and all(graphs_equal(x, y) for x, y in zip(a.graphs, b.graphs))
    )
