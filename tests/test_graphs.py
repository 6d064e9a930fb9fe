"""Graph construction, validation, and subgraph extraction."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import graphs_equal

from gxplain import graphs as graphs_module
from gxplain.datasets import generate_ba2motifs, load_dataset, save_dataset
from gxplain.errors import IndexOutOfRange, InvalidGraph, ShapeMismatch
from gxplain.graphs import (
    AttributedGraph,
    NodeSet,
    build_graph,
    build_graphs,
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
    assert g.arcs.tolist() == [[0, 1], [2, 0]]
    assert g.directed


def test_build_undirected_stores_mates_adjacent():
    g = build_graph(3, [(0, 1), (1, 2)], np.zeros((3, 1)), False)
    assert g.arcs.tolist() == [[0, 1], [1, 0], [1, 2], [2, 1]]


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
    assert g.arcs.tolist() == [[0, 1]]


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
    assert [list(a) for a in zip(src.tolist(), dst.tolist())] == g.arcs.tolist()


def test_induced_subgraph_reindexes_dense_ascending():
    g = build_graph(
        5, [(0, 1), (1, 2), (3, 4)], np.arange(10).reshape(5, 2), True, label=1
    )
    sub = node_induced_subgraph(g, NodeSet([1, 3, 4]))
    assert sub.node_count == 3
    # old 3 -> new 1, old 4 -> new 2; arc (1, 2) lost its endpoint 2
    assert sub.arcs.tolist() == [[1, 2]]
    assert sub.attributes.tolist() == [[2.0, 3.0], [6.0, 7.0], [8.0, 9.0]]
    assert sub.label == 1


def test_induced_subgraph_full_keep_is_identity():
    g = build_graph(4, [(0, 1), (2, 3), (1, 3)], np.ones((4, 2)), False)
    sub = node_induced_subgraph(g, NodeSet(range(4)))
    assert sub.arcs.tolist() == g.arcs.tolist()
    assert np.array_equal(sub.attributes, g.attributes)
    again = node_induced_subgraph(sub, NodeSet(range(4)))
    assert again.arcs.tolist() == g.arcs.tolist()


def test_graphs_equal_distinguishes_ids():
    a = build_graph(2, [(0, 1)], np.zeros((2, 1)), True, graph_id="a")
    b = build_graph(2, [(0, 1)], np.zeros((2, 1)), True, graph_id="b")
    assert graphs_equal(a, a)
    assert not graphs_equal(a, b)


def test_induced_subgraph_of_empty_keep():
    g = build_graph(3, [(0, 1)], np.ones((3, 1)), True)
    sub = node_induced_subgraph(g, NodeSet())
    assert sub.node_count == 0
    assert sub.arcs.tolist() == []
    assert sub.attributes.shape == (0, 1)


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
    g = build_graph(n, edges, np.arange(2.0 * n).reshape(n, 2), directed)
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
    arcset = set(map(tuple, sub.arcs.tolist()))
    for s, d in arcset:
        assert (d, s) in arcset


def reference_subgraph(g, keep):
    """The induced subgraph as ``build_graph`` of the kept arcs, each
    end re-indexed through a dict."""
    remap = {old: new for new, old in enumerate(keep.members)}
    kept = [
        (remap[s], remap[d])
        for s, d in g.arcs.tolist()
        if s in remap and d in remap
    ]
    attrs = g.attributes[list(keep.members)]
    gid = f"{g.graph_id}[{','.join(str(m) for m in keep.members)}]"
    return build_graph(len(keep), kept, attrs, g.directed, g.label, gid)


@settings(max_examples=150, deadline=None)
@given(graph_and_keep(), st.sampled_from(["drawn", "none", "all"]))
def test_induced_subgraph_matches_build_graph_of_the_kept_arcs(case, which):
    g, keep = case
    keep = {
        "drawn": keep,
        "none": NodeSet(),
        "all": NodeSet(range(g.node_count)),
    }[which]
    got = node_induced_subgraph(g, keep)
    assert graphs_equal(got, reference_subgraph(g, keep))
    assert got.arcs.dtype == np.int64
    assert not got.arcs.flags.writeable
    assert not got.attributes.flags.writeable


def reference_graph(node_count, arcs, attributes, directed, label=None, graph_id=""):
    """The graph checks as ``AttributedGraph`` made them one arc at a
    time, before they were batched; fields as a plain namespace."""
    if node_count < 0:
        raise IndexOutOfRange(f"negative node_count {node_count}")
    attrs = np.array(attributes, dtype=np.float64)
    if attrs.ndim != 2 or attrs.shape[0] != node_count:
        raise ShapeMismatch(
            f"attribute matrix {attrs.shape} does not match "
            f"node_count {node_count}"
        )
    arcs = tuple((int(s), int(d)) for s, d in arcs)
    for s, d in arcs:
        if not (0 <= s < node_count and 0 <= d < node_count):
            raise IndexOutOfRange(f"arc ({s}, {d}) outside [0, {node_count})")
        if s == d:
            raise InvalidGraph(f"self-loop stored on node {s}")
    if len(set(arcs)) != len(arcs):
        repeat = next(a for i, a in enumerate(arcs) if a in arcs[:i])
        raise InvalidGraph(f"arc {repeat} stored twice")
    if not directed:
        if len(arcs) % 2:
            raise InvalidGraph("undirected graph with an odd arc count")
        for k in range(0, len(arcs), 2):
            if arcs[k + 1] != (arcs[k][1], arcs[k][0]):
                raise InvalidGraph(
                    f"arcs {k} and {k + 1} are not a direction pair"
                )
    return SimpleNamespace(
        node_count=node_count,
        arcs=np.array(arcs, dtype=np.int64).reshape(-1, 2),
        attributes=attrs,
        directed=directed, label=label, graph_id=graph_id,
    )


def reference_build_graph(node_count, edge_list, attributes, directed, label, graph_id):
    """``build_graph`` as one set of Python tuples per graph."""
    cleaned = set()
    for s, d in edge_list:
        if s != d or not 0 <= s < node_count:
            cleaned.add((s, d) if directed else (min(s, d), max(s, d)))
    if directed:
        arcs = tuple(sorted(cleaned))
    else:
        arcs = tuple(arc for u, v in sorted(cleaned) for arc in ((u, v), (v, u)))
    return reference_graph(node_count, arcs, attributes, directed, label, graph_id)


@st.composite
def raw_graphs(draw):
    """Graph specs with loops, repeats, both directions, ends outside
    the graph (a few past int64, or too large for one combined sort key)
    and, now and then, an attribute matrix of the wrong height or a
    negative node count."""
    specs = []
    huge = st.sampled_from([2**40, -(2**40), 2**70, -(2**70)])
    for i in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 12))
        inside = st.integers(0, n - 1) if n else st.integers(-2, 14)
        outside = st.one_of(*[st.integers(-2, 14)] * 9, huge)
        end = st.one_of(inside, inside, inside, inside, outside)
        edges = draw(st.lists(st.tuples(end, end), max_size=16))
        if edges:
            again = draw(st.lists(st.sampled_from(edges), max_size=4))
            edges += again + [(d, s) for s, d in again]
        rows = n + draw(st.sampled_from([0] * 9 + [1]))
        attrs = np.arange(2.0 * rows).reshape(rows, 2) + i
        if not draw(st.integers(0, 30)):
            n = -1
        label = draw(st.one_of(st.none(), st.integers(0, 3)))
        specs.append((n, edges, attrs, draw(st.booleans()), label, f"g{i}"))
    return specs


def _columns(specs):
    ends = [e for spec in specs for e in spec[1]]
    try:
        edges = np.array(ends, dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # an end past int64, held as a Python int
        edges = np.array(ends, dtype=object).reshape(-1, 2)
    return (
        [s[0] for s in specs], edges, [len(s[1]) for s in specs],
        [s[2] for s in specs], [s[3] for s in specs],
        [s[4] for s in specs], [s[5] for s in specs],
    )


def _same_outcome(build, reference):
    """``build()`` returns what ``reference()`` returns, or raises the
    same error with the same message."""
    try:
        want = reference()
    except (IndexOutOfRange, InvalidGraph, ShapeMismatch) as exc:
        with pytest.raises(type(exc)) as raised:
            build()
        assert str(raised.value) == str(exc)
        return None
    return build(), want


@settings(max_examples=150, deadline=None)
@given(raw_graphs())
def test_build_graphs_matches_the_per_graph_reference(specs):
    outcome = _same_outcome(
        lambda: build_graphs(*_columns(specs)),
        lambda: [reference_build_graph(*spec) for spec in specs],
    )
    if outcome is None:
        return
    for got, want in zip(*outcome):
        assert graphs_equal(got, want)
        src, dst = got.arc_index_arrays()
        assert src.tolist() == want.arcs[:, 0].tolist()
        assert dst.tolist() == want.arcs[:, 1].tolist()
        with pytest.raises(ValueError):
            got.attributes[...] = 0.0


@settings(max_examples=150, deadline=None)
@given(raw_graphs())
def test_one_graph_calls_and_stored_arcs_follow_the_reference(specs):
    # build_graph canonicalizes one graph; AttributedGraph takes the
    # drawn edges as arcs, so every arc rule gets broken
    for n, edges, attrs, directed, label, gid in specs:
        outcome = _same_outcome(
            lambda: build_graph(n, edges, attrs, directed, label, gid),
            lambda: reference_build_graph(n, edges, attrs, directed, label, gid),
        )
        if outcome is not None:
            assert graphs_equal(*outcome)
        outcome = _same_outcome(
            lambda: AttributedGraph(n, edges, attrs, directed, label, gid),
            lambda: reference_graph(n, edges, attrs, directed, label, gid),
        )
        if outcome is not None:
            assert graphs_equal(*outcome)
            assert not outcome[0].attributes.flags.writeable


@pytest.mark.parametrize(
    "make, message",
    [
        # one end past int64
        (
            lambda: AttributedGraph(3, [(0, 1), (0, 2**70)], np.zeros((3, 1)), True),
            "arc (0, 1180591620717411303424) outside [0, 3)",
        ),
        # an earlier arc outside the graph is named first
        (
            lambda: AttributedGraph(3, [(0, 5), (-(2**70), 0)], np.zeros((3, 1)), True),
            "arc (0, 5) outside [0, 3)",
        ),
        # sorted, the smaller of two ends past int64 comes first
        (
            lambda: build_graph(3, [(0, 2**70), (2**65, 0)], np.zeros((3, 1)), False),
            "arc (0, 36893488147419103232) outside [0, 3)",
        ),
        # ends within int64 too far apart for one combined sort key
        (
            lambda: build_graph(3, [(0, 2**40), (-(2**40), 1)], np.zeros((3, 1)), True),
            "arc (-1099511627776, 1) outside [0, 3)",
        ),
    ],
)
def test_huge_endpoints_are_out_of_range(make, message):
    with pytest.raises(IndexOutOfRange) as raised:
        make()
    assert str(raised.value) == message


def test_with_attributes_keeps_the_checked_arcs(monkeypatch):
    g = build_graph(4, [(0, 1), (1, 2), (3, 0)], np.ones((4, 2)), False, 1, "g")
    calls = []
    monkeypatch.setattr(
        graphs_module, "_check_arcs", lambda *a: calls.append(a)
    )
    h = g.with_attributes(np.zeros((4, 3)))
    assert calls == []
    want = AttributedGraph(4, g.arcs, np.zeros((4, 3)), False, 1, "g")
    assert graphs_equal(h, want)
    assert h.arc_index_arrays()[0].tolist() == want.arc_index_arrays()[0].tolist()
    assert h.arc_index_arrays()[1].tolist() == want.arc_index_arrays()[1].tolist()
    assert not h.attributes.flags.writeable
    with pytest.raises(ShapeMismatch):
        g.with_attributes(np.zeros((3, 3)))


def test_replace_checks_the_arcs_again():
    g = build_graph(3, [(0, 1)], np.ones((3, 1)), True)
    with pytest.raises(IndexOutOfRange):
        dataclasses.replace(g, arcs=((0, 7),))
    moved = dataclasses.replace(g, arcs=((2, 1),))
    assert moved.arc_index_arrays()[0].tolist() == [2]


def test_an_earlier_graphs_arc_fault_comes_before_unreadable_attributes():
    edges = np.array([[0, 5], [0, 1]])
    with pytest.raises(IndexOutOfRange, match=r"arc \(0, 5\) outside \[0, 2\)"):
        build_graphs(
            [2, 2], edges, [1, 1], [np.ones((2, 1)), [[1.0], [1.0, 2.0]]],
            [True, True], [None, None], ["a", "b"],
        )
    with pytest.raises(ValueError):
        build_graphs(
            [2, 2], edges[1:], [0, 1], [np.ones((2, 1)), [[1.0], [1.0, 2.0]]],
            [True, True], [None, None], ["a", "b"],
        )


@pytest.mark.parametrize("make", [build_graph, AttributedGraph])
@pytest.mark.parametrize(
    "arcs, error",
    [
        ([(0, 1.5)], InvalidGraph),
        ([(0, 1.0)], InvalidGraph),
        ([(True, 2)], InvalidGraph),
        (np.array([[0.0, 1.0]]), InvalidGraph),
        (np.array([[False, True]]), InvalidGraph),
        ([(0, 1), (2,)], ShapeMismatch),
        ([(0, 1, 2)], ShapeMismatch),
        ([[], []], ShapeMismatch),
        ([0, 1], ShapeMismatch),
    ],
    ids=["fraction", "integral float", "bool", "float array", "bool array",
         "ragged", "triple", "empty pairs", "flat"],
)
def test_arcs_that_are_not_integer_pairs_are_refused(make, arcs, error):
    with pytest.raises(error):
        make(3, arcs, np.zeros((3, 1)), True)


@pytest.mark.parametrize("make", [build_graph, AttributedGraph])
@pytest.mark.parametrize("arcs", [[], (), np.zeros((0, 2), dtype=np.int32)])
def test_an_empty_arc_list_is_valid(make, arcs):
    g = make(3, arcs, np.zeros((3, 1)), False)
    assert g.arcs.shape == (0, 2)
    assert g.arcs.dtype == np.int64


def _saved_and_loaded(tmp_path):
    save_dataset(generate_ba2motifs(4, seed=1), tmp_path / "ds.json")
    return load_dataset(tmp_path / "ds.json").graphs[0]


@pytest.mark.parametrize(
    "make",
    [
        lambda _: build_graph(3, [(0, 1), (1, 2)], np.ones((3, 1)), False),
        lambda _: AttributedGraph(3, [(0, 1), (2, 1)], np.ones((3, 1)), True),
        lambda _: generate_ba2motifs(2, seed=0).graphs[1],
        _saved_and_loaded,
        lambda _: build_graph(3, [(0, 1)], np.ones((3, 1)), True)
        .with_attributes(np.zeros((3, 2))),
        lambda _: node_induced_subgraph(
            build_graph(4, [(0, 1), (1, 3)], np.ones((4, 1)), False),
            NodeSet([0, 1, 3]),
        ),
    ],
    ids=["build_graph", "AttributedGraph", "generate_ba2motifs",
         "load_dataset", "with_attributes", "node_induced_subgraph"],
)
def test_stored_arcs_are_read_only(make, tmp_path):
    g = make(tmp_path)
    assert g.arcs.dtype == np.int64 and g.arcs.shape == (g.arc_count, 2)
    src, dst = g.arc_index_arrays()
    for stored in (g.arcs, src, dst):
        with pytest.raises(ValueError):
            stored[0] = 2
