"""Definitions the tests compare the library with, which the pipeline
itself never calls: the loss that the backward pass differentiates, the
attribute budget's verdict, and field-by-field equality of graphs and
datasets.
"""

import numpy as np

from gxplain.graphs import AttributedGraph
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
