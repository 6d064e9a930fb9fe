"""Attributed graphs, node sets, and node-induced subgraph extraction.

A graph is stored as a directed arc list plus a dense node-attribute matrix.
Undirected graphs materialize every edge as two arcs and keep the two
directions adjacent: arc 2k pairs with arc 2k + 1.
"""

from dataclasses import KW_ONLY, InitVar, dataclass

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


def _attribute_matrix(node_count: int, attributes) -> np.ndarray:
    """A float copy of ``attributes``, a ``(node_count, attr_dim)`` matrix.

    Raises:
        IndexOutOfRange: a negative node count.
        ShapeMismatch: the matrix is not ``node_count`` rows.
    """
    if node_count < 0:
        raise IndexOutOfRange(f"negative node_count {node_count}")
    attrs = np.array(attributes, dtype=np.float64)
    if attrs.ndim != 2 or attrs.shape[0] != node_count:
        raise ShapeMismatch(
            f"attribute matrix {attrs.shape} does not match "
            f"node_count {node_count}"
        )
    return attrs


def _arc_sort(owner, src, dst) -> tuple[np.ndarray, np.ndarray]:
    """The stable order of arcs by ``(owner, src, dst)``, and whether
    each arc, in that order, equals the one before it.

    One sort of a combined key when it fits in 62 bits, else a three-key
    sort: ends far outside the graphs, or past int64 and held as Python
    ints, take that path.
    """
    repeat = np.zeros(len(owner), dtype=bool)
    if len(owner):
        low = min(int(src.min()), int(dst.min()), 0)
        span = max(int(src.max()), int(dst.max())) - low + 1
        if (int(owner.max()) + 1) * span * span < 2**62:
            key = (owner * span + (src - low)) * span + (dst - low)
            order = np.argsort(key, kind="stable")
            repeat[1:] = np.diff(key[order]) == 0
            return order, repeat
    order = np.lexsort((dst, src, owner))
    repeat[1:] = (
        (np.diff(owner[order]) == 0)
        & (np.diff(src[order]) == 0)
        & (np.diff(dst[order]) == 0)
    )
    return order, repeat


def _check_arcs(src, dst, offsets, node_counts, directed) -> None:
    """The arc rules, checked for a batch of graphs at once.

    Graph ``i`` has ``node_counts[i]`` nodes and owns the arcs
    ``offsets[i]:offsets[i + 1]`` of ``src``/``dst``.  Every arc joins two
    distinct nodes of its graph, no arc repeats within a graph, and an
    undirected graph stores an even number of arcs, arc ``2k + 1`` being
    the reverse of arc ``2k``.  The error names the first graph that
    breaks a rule, and in it the first broken rule in that order.

    Raises:
        IndexOutOfRange: an endpoint outside ``[0, node_count)``.
        InvalidGraph: a self-loop, a repeated arc, or undirected arcs
            that do not pair up.
    """
    if not len(src):  # every rule is about an arc
        return
    node_counts = np.asarray(node_counts, dtype=np.int64)
    undirected = ~np.asarray(directed, dtype=bool)
    starts = np.asarray(offsets[:-1], dtype=np.int64)
    counts = np.diff(offsets)
    owner = np.repeat(np.arange(len(counts)), counts)
    n = node_counts[owner]
    stray = (src < 0) | (src >= n) | (dst < 0) | (dst >= n) | (src == dst)
    del n
    # a stable sort puts every later copy of an arc after the first
    order, later = _arc_sort(owner, src, dst)
    repeat = np.zeros(len(src), dtype=bool)
    repeat[order] = later
    del order, later
    odd = undirected & (counts % 2 == 1)
    local = np.arange(len(src)) - starts[owner]
    lead = np.flatnonzero((undirected & ~odd)[owner] & (local % 2 == 0))
    unpaired = np.zeros(len(src), dtype=bool)
    unpaired[lead] = (src[lead + 1] != dst[lead]) | (
        dst[lead + 1] != src[lead]
    )
    faulty = odd.copy()
    faulty[owner[stray | repeat | unpaired]] = True
    if not faulty.any():
        return
    i = int(faulty.argmax())
    n = int(node_counts[i])
    arcs = range(starts[i], starts[i] + counts[i])
    j = next((j for j in arcs if stray[j]), None)
    if j is not None:
        s, d = int(src[j]), int(dst[j])
        if not (0 <= s < n and 0 <= d < n):
            raise IndexOutOfRange(f"arc ({s}, {d}) outside [0, {n})")
        raise InvalidGraph(f"self-loop stored on node {s}")
    j = next((j for j in arcs if repeat[j]), None)
    if j is not None:
        raise InvalidGraph(f"arc {(int(src[j]), int(dst[j]))} stored twice")
    if odd[i]:
        raise InvalidGraph("undirected graph with an odd arc count")
    k = int(local[next(j for j in arcs if unpaired[j])])
    raise InvalidGraph(f"arcs {k} and {k + 1} are not a direction pair")


@dataclass(frozen=True, eq=False)
class AttributedGraph:
    """Immutable attributed graph.

    ``arcs`` is a read-only ``(arc_count, 2)`` int64 array of directed
    arcs ``(src, dst)``; an undirected graph stores both directions of
    every edge at adjacent rows.  Attributes are a read-only
    ``(node_count, attr_dim)`` float matrix.

    ``_checked``, private to this module, says that ``arcs`` is already
    an int64 array that has passed :func:`_check_arcs` and ``attributes``
    a float matrix of ``node_count`` rows, both owned by this graph;
    nothing is then checked or copied again.
    """

    node_count: int
    arcs: np.ndarray
    attributes: np.ndarray
    directed: bool
    label: int | None = None
    graph_id: str = ""
    _: KW_ONLY
    _checked: InitVar[bool] = False

    def __post_init__(self, _checked):
        if not _checked:
            attrs = _attribute_matrix(self.node_count, self.attributes)
            arcs = _arc_array(self.arcs)
            _check_arcs(*arcs.T, [0, len(arcs)], [self.node_count], [self.directed])
            object.__setattr__(self, "attributes", attrs)
            object.__setattr__(self, "arcs", arcs)
        self.arcs.flags.writeable = False
        self.attributes.flags.writeable = False

    @property
    def attr_dim(self) -> int:
        return self.attributes.shape[1]

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    def arc_index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The source and destination of every arc: ``arcs``' columns."""
        return self.arcs[:, 0], self.arcs[:, 1]

    def with_attributes(self, attributes) -> "AttributedGraph":
        """This graph with another attribute matrix, ``node_count`` rows;
        the arcs, checked already, are not checked again."""
        return AttributedGraph(
            self.node_count,
            self.arcs,
            _attribute_matrix(self.node_count, attributes),
            self.directed,
            self.label,
            self.graph_id,
            _checked=True,
        )


def _arc_array(arcs) -> np.ndarray:
    """``arcs``, ``(src, dst)`` pairs, as a new ``(E, 2)`` int64 array, or
    of Python ints when an end is past int64: such an end lies outside
    every graph, and the checks read it as it is.  Raises ShapeMismatch
    unless ``arcs`` are pairs, and InvalidGraph unless every end is an
    integer (``True``, ``1.0`` and ``1.5`` are not, as in a dataset file).
    """
    if not isinstance(arcs, np.ndarray):
        arcs = np.array(list(arcs), dtype=object)
    if arcs.shape == (0,):
        arcs = arcs.reshape(0, 2)
    if arcs.ndim != 2 or arcs.shape[1] != 2:
        raise ShapeMismatch(f"arcs of shape {arcs.shape}, expected pairs")
    types = set(map(type, arcs.flat)) if arcs.dtype == object else {arcs.dtype.type}
    wrong = [t for t in types if t is bool or not issubclass(t, (int, np.integer))]
    if wrong:
        raise InvalidGraph(f"arc ends of type {wrong[0].__name__} are not integers")
    try:
        return arcs.astype(np.int64)
    except OverflowError:  # an end past int64, kept as a Python int
        return arcs


def build_graphs(
    node_counts,
    edges: np.ndarray,
    edge_counts,
    attributes,
    directed,
    labels,
    graph_ids,
) -> list[AttributedGraph]:
    """Canonicalize a batch of graphs' raw edges at once.

    Graph ``i`` has ``node_counts[i]`` nodes, the next ``edge_counts[i]``
    rows of the ``(E, 2)`` int array ``edges``, the attribute matrix
    ``attributes[i]``, and ``directed[i]``, ``labels[i]`` and
    ``graph_ids[i]``.  Self-loops are dropped (the propagation rule
    injects its own), duplicate edges collapse, and arcs come out in
    sorted order.  For an undirected graph each edge is emitted as the
    pair ``(u, v), (v, u)`` with ``u < v``.  The arcs are checked once,
    by :func:`_check_arcs`, for the whole batch.  Each graph owns copies
    of its arcs and attributes, so a graph that outlives the batch does
    not keep the batch's arrays alive.  A faulty batch fails as building
    its graphs one by one would: on the first faulty graph, with that
    graph's error.

    Raises:
        IndexOutOfRange: a negative node count, or an endpoint of a kept
            arc outside ``[0, node_count)``.
        ShapeMismatch: an attribute matrix is not ``node_count`` rows.
    """
    attrs, fault = [], None
    for n_i, a in zip(node_counts, attributes):
        try:
            attrs.append(_attribute_matrix(n_i, a))
        except (IndexOutOfRange, ShapeMismatch, TypeError, ValueError) as exc:
            fault = exc
            break
    counts = np.asarray(node_counts, dtype=np.int64)
    flags = np.asarray(directed, dtype=bool)
    owner = np.repeat(np.arange(len(counts)), edge_counts)
    s, d = edges[:, 0], edges[:, 1]
    n = counts[owner]
    # a loop on a node outside the graph is kept for the check to refuse
    keep = (s != d) | (s < 0) | (s >= n)
    owner, s, d = owner[keep], s[keep], d[keep]
    swap = ~flags[owner] & (d < s)
    u, v = np.where(swap, d, s), np.where(swap, s, d)
    order, repeat = _arc_sort(owner, u, v)
    order = order[~repeat]
    owner, u, v = owner[order], u[order], v[order]
    # each undirected edge becomes two adjacent arcs, its mate second
    width = np.where(flags[owner], 1, 2)
    arcs = np.repeat(np.stack([u, v], axis=1), width, axis=0)
    mate = (np.cumsum(width) - 1)[width == 2]
    arcs[mate] = arcs[mate, ::-1]
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    per_graph = np.bincount(owner, minlength=len(counts)) * np.where(flags, 1, 2)
    np.cumsum(per_graph, out=offsets[1:])
    # the canonical arcs are all that is kept
    del n, keep, swap, u, v, order, repeat, owner, width, mate, per_graph

    # the graphs before one with faulty attributes must pass the arc rules
    k = len(attrs)
    head = offsets[k]
    _check_arcs(*arcs[:head].T, offsets[: k + 1], counts[:k], flags[:k])
    if fault is not None:
        raise fault
    bounds = offsets.tolist()
    return [
        AttributedGraph(
            int(counts[i]),
            arcs[lo:hi].copy(),
            a,
            bool(flags[i]),
            labels[i],
            graph_ids[i],
            _checked=True,
        )
        for i, (a, lo, hi) in enumerate(zip(attrs, bounds, bounds[1:]))
    ]


def build_graph(
    node_count: int,
    edge_list,
    attributes,
    directed: bool,
    label: int | None = None,
    graph_id: str = "",
) -> AttributedGraph:
    """Canonicalize raw edge data into an AttributedGraph: the one-graph
    call of :func:`build_graphs`, with the same rules and errors, and
    those of :func:`_arc_array` for ``edge_list``."""
    edges = _arc_array(edge_list)
    return build_graphs(
        [node_count],
        edges,
        [len(edges)],
        [attributes],
        [directed],
        [label],
        [graph_id],
    )[0]


def node_induced_subgraph(g: AttributedGraph, keep: NodeSet) -> AttributedGraph:
    """Restrict ``g`` to ``keep``: kept nodes, arcs with both ends kept.

    Kept nodes are re-indexed densely in ascending original order, so the
    mapping new -> old is ``keep.members``.  The original indices are
    recorded in the subgraph id.  The remap is monotone and keeps or drops
    both arcs of an undirected edge together, so the kept arcs, in ``g``'s
    order, obey the arc rules and are not checked again.
    """
    members = np.array(keep.members, dtype=np.int64)
    if len(members) and members[-1] >= g.node_count:
        raise IndexOutOfRange(
            f"node {members[-1]} outside [0, {g.node_count})"
        )
    new_index = np.full(g.node_count, -1)
    new_index[members] = np.arange(len(members))
    arcs = new_index[g.arcs]
    arcs = arcs[(arcs >= 0).all(axis=1)]
    gid = f"{g.graph_id}[{','.join(str(m) for m in keep.members)}]"
    attrs = g.attributes[members]
    return AttributedGraph(
        len(members), arcs, attrs, g.directed, g.label, gid, _checked=True
    )
