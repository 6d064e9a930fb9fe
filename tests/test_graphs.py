"""Graph construction, validation, and subgraph extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gxplain.errors import IndexOutOfRange, InvalidGraph, ShapeMismatch
from gxplain.graphs import (
    AttributedGraph,
    NodeSet,
    build_graph,
    complement_set,
    graphs_equal,
    node_induced_subgraph,
)


def test_nodeset_sorts_and_deduplicates():
    s = NodeSet([3, 1, 3, 2, 1])
    assert s.members == (1, 2, 3)
    assert len(s) == 3
    assert 2 in s and 0 not in s


def test_nodeset_rejects_negative():
    with pytest.raises(IndexOutOfRange):
        NodeSet([0, -1])


def test_build_directed_keeps_arcs_as_given():
    g = build_graph(3, [(0, 1), (2, 0)], np.zeros((3, 2)), True)
    assert g.arcs == ((0, 1), (2, 0))
    assert g.directed


def test_build_undirected_stores_mates_adjacent():
    g = build_graph(3, [(0, 1), (1, 2)], np.zeros((3, 1)), False)
    assert g.arcs == ((0, 1), (1, 0), (1, 2), (2, 1))


def test_build_drops_duplicate_edges():
    g = build_graph(3, [(0, 1), (0, 1), (1, 0)], np.zeros((3, 1)), False)
    assert g.arc_count == 2


@pytest.mark.parametrize(
    "arcs, directed",
    [
        (((0, 1), (0, 1), (1, 2)), True),
        (((0, 1), (1, 0), (0, 1), (1, 0)), False),
    ],
)
def test_repeated_arc_is_rejected(arcs, directed):
    # the GCN operator counts each arc once, so a repeat has no meaning
    with pytest.raises(InvalidGraph, match="stored twice"):
        AttributedGraph(3, arcs, np.zeros((3, 1)), directed)


@pytest.mark.parametrize(
    "node_count, arcs, directed, error, message",
    [
        (3, ((0, 3),), True, IndexOutOfRange, r"arc \(0, 3\) outside"),
        (3, ((1, 1),), True, InvalidGraph, "self-loop"),
        (3, ((0, 1), (1, 0), (1, 2)), False, InvalidGraph, "odd arc count"),
        (3, ((0, 1), (1, 2)), False, InvalidGraph, "not a direction pair"),
        (-1, (), True, IndexOutOfRange, "negative node_count"),
    ],
    ids=["arc out of range", "self-loop", "odd arc count", "mates apart",
         "negative node count"],
)
def test_graph_rejects_what_build_graph_never_makes(
    node_count, arcs, directed, error, message
):
    # build_graph only canonicalizes; these checks are the graph's own
    with pytest.raises(error, match=message):
        AttributedGraph(
            node_count, arcs, np.zeros((max(node_count, 0), 1)), directed
        )


def test_build_drops_self_loops():
    g = build_graph(2, [(0, 0), (0, 1)], np.zeros((2, 1)), True)
    assert g.arcs == ((0, 1),)


def test_build_rejects_out_of_range_endpoint():
    with pytest.raises(IndexOutOfRange):
        build_graph(2, [(0, 2)], np.zeros((2, 1)), True)


def test_build_rejects_a_self_loop_outside_the_graph():
    with pytest.raises(IndexOutOfRange, match=r"arc \(5, 5\) outside"):
        build_graph(2, [(5, 5), (0, 1)], np.zeros((2, 1)), False)


def test_build_rejects_attribute_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        build_graph(3, [], np.zeros((2, 1)), True)


def test_attributes_are_read_only():
    g = build_graph(2, [(0, 1)], [[1.0], [2.0]], True)
    with pytest.raises(ValueError):
        g.attributes[0, 0] = 9.0


def test_arc_index_arrays_match_arcs():
    g = build_graph(4, [(0, 1), (2, 3)], np.zeros((4, 1)), False)
    src, dst = g.arc_index_arrays()
    assert list(zip(src.tolist(), dst.tolist())) == list(g.arcs)


def test_induced_subgraph_reindexes_dense_ascending():
    g = build_graph(
        5, [(0, 1), (1, 2), (3, 4)], np.arange(10).reshape(5, 2), True, label=1
    )
    sub = node_induced_subgraph(g, NodeSet([1, 3, 4]))
    assert sub.node_count == 3
    # old 3 -> new 1, old 4 -> new 2; arc (1, 2) lost its endpoint 2
    assert sub.arcs == ((1, 2),)
    assert sub.attributes.tolist() == [[2.0, 3.0], [6.0, 7.0], [8.0, 9.0]]
    assert sub.label == 1


def test_induced_subgraph_full_keep_is_identity():
    g = build_graph(4, [(0, 1), (2, 3), (1, 3)], np.ones((4, 2)), False)
    sub = node_induced_subgraph(g, NodeSet(range(4)))
    assert sub.arcs == g.arcs
    assert np.array_equal(sub.attributes, g.attributes)
    again = node_induced_subgraph(sub, NodeSet(range(4)))
    assert again.arcs == g.arcs


def test_graphs_equal_distinguishes_ids():
    a = build_graph(2, [(0, 1)], np.zeros((2, 1)), True, graph_id="a")
    b = build_graph(2, [(0, 1)], np.zeros((2, 1)), True, graph_id="b")
    assert graphs_equal(a, a)
    assert not graphs_equal(a, b)


def test_induced_subgraph_of_empty_keep():
    g = build_graph(3, [(0, 1)], np.ones((3, 1)), True)
    sub = node_induced_subgraph(g, NodeSet())
    assert sub.node_count == 0
    assert sub.arcs == ()
    assert sub.attributes.shape == (0, 1)


def test_complement_set():
    g = build_graph(5, [], np.zeros((5, 1)), True)
    assert complement_set(g, NodeSet([1, 3])).members == (0, 2, 4)


@st.composite
def graph_and_keep(draw):
    n = draw(st.integers(1, 8))
    n_edges = draw(st.integers(0, 12))
    edges = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        for _ in range(n_edges)
    ]
    edges = [(s, d) for s, d in edges if s != d]
    directed = draw(st.booleans())
    keep = draw(st.sets(st.integers(0, n - 1)))
    g = build_graph(n, edges, np.zeros((n, 2)), directed)
    return g, NodeSet(keep)


@settings(max_examples=60, deadline=None)
@given(graph_and_keep())
def test_subgraph_arc_count_never_grows(case):
    g, keep = case
    sub = node_induced_subgraph(g, keep)
    assert sub.arc_count <= g.arc_count
    kept = set(keep)
    expected = sum(1 for s, d in g.arcs if s in kept and d in kept)
    assert sub.arc_count == expected


@settings(max_examples=60, deadline=None)
@given(graph_and_keep())
def test_subgraph_keeps_undirected_mates_together(case):
    g, keep = case
    if g.directed:
        return
    sub = node_induced_subgraph(g, keep)
    arcset = set(sub.arcs)
    for s, d in sub.arcs:
        assert (d, s) in arcset
