"""Definitions the tests compare the library with, which the pipeline
itself never calls: the loss that the backward pass differentiates, and
field-by-field equality of graphs and datasets.
"""

import numpy as np

from gxplain.model import PROBABILITY_FLOOR, forward


def loss(model, g, mask, target_class):
    """Cross-entropy toward ``target_class`` with the probability floored."""
    p = forward(model, g, mask).probabilities[target_class]
    return -float(np.log(max(float(p), PROBABILITY_FLOOR)))


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
