"""Attributed graphs, node sets, and node-induced subgraph extraction.

A graph is stored as a directed arc list plus a dense node-attribute matrix.
Undirected graphs materialize every edge as two arcs and keep the two
directions adjacent: arc 2k pairs with arc 2k + 1.
"""

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InvalidGraph, ShapeMismatch


@dataclass(frozen=True)
class NodeSet:
    """Duplicate-free set of node indices, held in ascending order."""

    members: tuple[int, ...] = ()

    def __post_init__(self):
        canonical = tuple(sorted({int(m) for m in self.members}))
        if canonical and canonical[0] < 0:
            raise IndexOutOfRange(f"negative node index {canonical[0]}")
        object.__setattr__(self, "members", canonical)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, node) -> bool:
        return node in self.members


@dataclass(frozen=True, eq=False)
class AttributedGraph:
    """Immutable attributed graph.

    ``arcs`` always stores directed arcs ``(src, dst)``; an undirected graph
    stores both directions of every edge at adjacent positions.  Attributes
    are a read-only ``(node_count, attr_dim)`` float matrix.
    """

    node_count: int
    arcs: tuple[tuple[int, int], ...]
    attributes: np.ndarray
    directed: bool
    label: int | None = None
    graph_id: str = ""

    def __post_init__(self):
        if self.node_count < 0:
            raise IndexOutOfRange(f"negative node_count {self.node_count}")
        attrs = np.array(self.attributes, dtype=np.float64)
        if attrs.ndim != 2 or attrs.shape[0] != self.node_count:
            raise ShapeMismatch(
                f"attribute matrix {attrs.shape} does not match "
                f"node_count {self.node_count}"
            )
        attrs.flags.writeable = False
        object.__setattr__(self, "attributes", attrs)
        arcs = tuple((int(s), int(d)) for s, d in self.arcs)
        object.__setattr__(self, "arcs", arcs)
        for s, d in arcs:
            if not (0 <= s < self.node_count and 0 <= d < self.node_count):
                raise IndexOutOfRange(
                    f"arc ({s}, {d}) outside [0, {self.node_count})"
                )
            if s == d:
                raise InvalidGraph(f"self-loop stored on node {s}")
        if len(set(arcs)) != len(arcs):
            repeat = next(a for i, a in enumerate(arcs) if a in arcs[:i])
            raise InvalidGraph(f"arc {repeat} stored twice")
        if not self.directed:
            if len(arcs) % 2:
                raise InvalidGraph("undirected graph with an odd arc count")
            for k in range(0, len(arcs), 2):
                if arcs[k + 1] != (arcs[k][1], arcs[k][0]):
                    raise InvalidGraph(
                        f"arcs {k} and {k + 1} are not a direction pair"
                    )
        src = np.fromiter((a[0] for a in arcs), dtype=np.int64, count=len(arcs))
        dst = np.fromiter((a[1] for a in arcs), dtype=np.int64, count=len(arcs))
        object.__setattr__(self, "_src", src)
        object.__setattr__(self, "_dst", dst)

    @property
    def attr_dim(self) -> int:
        return self.attributes.shape[1]

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    def arc_index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Source and destination indices of every arc, as int arrays."""
        return self._src, self._dst


def build_graph(
    node_count: int,
    edge_list,
    attributes,
    directed: bool,
    label: int | None = None,
    graph_id: str = "",
) -> AttributedGraph:
    """Canonicalize raw edge data into an AttributedGraph, which checks it.

    Self-loops are dropped (the propagation rule injects its own), duplicate
    edges collapse, and arcs come out in sorted order.  For an undirected
    graph each edge is emitted as the pair ``(u, v), (v, u)`` with ``u < v``.

    Raises:
        IndexOutOfRange: a negative node count, or an endpoint of a kept
            arc outside ``[0, node_count)``.
        ShapeMismatch: the attribute matrix is not ``node_count`` rows.
    """
    cleaned = set()
    for s, d in edge_list:
        s, d = int(s), int(d)
        # a loop on a node outside the graph is kept for the graph to refuse
        if s != d or not 0 <= s < node_count:
            cleaned.add((s, d) if directed else (min(s, d), max(s, d)))
    if directed:
        arcs = tuple(sorted(cleaned))
    else:
        arcs = tuple(
            arc for u, v in sorted(cleaned) for arc in ((u, v), (v, u))
        )
    return AttributedGraph(
        node_count, arcs, attributes, directed, label, graph_id
    )


def node_induced_subgraph(g: AttributedGraph, keep: NodeSet) -> AttributedGraph:
    """Restrict ``g`` to ``keep``: kept nodes, arcs with both ends kept.

    Kept nodes are re-indexed densely in ascending original order, so the
    mapping new -> old is ``keep.members``.  The original indices are
    recorded in the subgraph id.
    """
    members = keep.members
    if members and members[-1] >= g.node_count:
        raise IndexOutOfRange(
            f"node {members[-1]} outside [0, {g.node_count})"
        )
    remap = {old: new for new, old in enumerate(members)}
    kept = [
        (remap[s], remap[d])
        for s, d in g.arcs
        if s in remap and d in remap
    ]
    if members:
        attrs = g.attributes[list(members)]
    else:
        attrs = np.zeros((0, g.attr_dim))
    gid = f"{g.graph_id}[{','.join(str(m) for m in members)}]"
    return build_graph(len(members), kept, attrs, g.directed, g.label, gid)


def complement_set(g: AttributedGraph, keep: NodeSet) -> NodeSet:
    """Nodes of ``g`` not in ``keep``."""
    members = keep.members
    if members and members[-1] >= g.node_count:
        raise IndexOutOfRange(
            f"node {members[-1]} outside [0, {g.node_count})"
        )
    return NodeSet(tuple(set(range(g.node_count)) - set(members)))


def graphs_equal(a: AttributedGraph, b: AttributedGraph) -> bool:
    """Field-by-field equality, including ids and attribute values."""
    return (
        a.node_count == b.node_count
        and a.arcs == b.arcs
        and a.directed == b.directed
        and a.label == b.label
        and a.graph_id == b.graph_id
        and a.attributes.shape == b.attributes.shape
        and bool(np.array_equal(a.attributes, b.attributes))
    )
