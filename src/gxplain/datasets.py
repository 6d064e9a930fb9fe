"""Synthetic benchmark generation and dataset (de)serialization.

The motif benchmark attaches a 5-node house or a 5-node cycle to a random
preferential-attachment base graph; the motif kind is the class label.
"""

import gzip
import itertools
from dataclasses import dataclass, field

import numpy as np

from ._atomic import json_value, write_atomic
from ._schema import (
    _shown,
    as_bool,
    as_float_array,
    as_int,
    as_list,
    as_str,
    read_document,
    read_field,
    require,
)
from .errors import DomainError, InvalidCount, ParseError, ValidationError
from .graphs import AttributedGraph, _attribute_ids, build_graphs

DATASET_FORMAT_VERSION = 1
SPLIT_NAMES = ("train", "validation", "test")

# motif templates on local nodes 0..4
HOUSE_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4))
CYCLE_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))


@dataclass
class Dataset:
    """A named list of labeled graphs plus index-based splits."""

    name: str
    graphs: list[AttributedGraph]
    attr_dim: int
    num_classes: int
    splits: dict[str, list[int]] = field(default_factory=dict)
    generation_seed: int | None = None

    def __post_init__(self):
        first_index: dict[str, int] = {}
        for i, g in enumerate(self.graphs):
            j = first_index.setdefault(g.graph_id, i)
            if j != i:
                raise ValidationError(
                    f"graphs[{i}] repeats the id {_shown(g.graph_id)} of"
                    f" graphs[{j}]"
                )
            if g.attr_dim != self.attr_dim:
                raise ValidationError(
                    f"graph {_shown(g.graph_id)} has {g.attr_dim} attributes,"
                    f" dataset declares {self.attr_dim}"
                )
            if g.label is not None and not 0 <= g.label < self.num_classes:
                raise ValidationError(
                    f"graph {_shown(g.graph_id)} labeled {g.label}, dataset"
                    f" has {self.num_classes} classes"
                )
        split_of: dict[int, str] = {}
        for split, indices in self.splits.items():
            for i in indices:
                if not 0 <= i < len(self.graphs):
                    raise ValidationError(
                        f"split {_shown(split)} references graph {i}, only"
                        f" {len(self.graphs)} exist"
                    )
                if i in split_of:
                    where = (
                        f"twice in split {_shown(split)}"
                        if split_of[i] == split
                        else f"in splits {_shown(split_of[i])} and"
                        f" {_shown(split)}"
                    )
                    raise ValidationError(f"graph {i} appears {where}")
                split_of[i] = split

    def split_graphs(self, split: str) -> list[AttributedGraph]:
        return [self.graphs[i] for i in self.splits.get(split, [])]


def generate_motif_graphs(
    n_graphs: int,
    seed: int,
    base_size: int = 20,
    attr_dim: int = 10,
    attr_value: float = 0.1,
    name: str = "ba2motifs",
) -> Dataset:
    """Generate the two-motif benchmark with an 80/10/10 contiguous split.

    Labels alternate house (0), cycle (1), so every contiguous slice of even
    length is class-balanced.

    Each graph's base grows by preferential attachment with one edge per
    new node: node ``k`` wires to an entry of the endpoint list of the
    edges so far, which holds ``2 * (k - 1)`` entries whatever was drawn
    before.  So every draw's bound is known up front, and the draws come,
    graph by graph, in this order: one pick per node ``k = 2, ...,
    base_size - 1`` below ``2 * (k - 1)``, then the motif's attachment
    node below 5, then the base's below ``base_size``.  All graphs' draws
    are made in one call; the picks then resolve to endpoints one
    attachment step at a time across all graphs.

    Raises:
        InvalidCount: ``n_graphs`` is smaller than 2 or odd.
        DomainError: ``seed`` is negative.
    """
    if n_graphs < 2 or n_graphs % 2:
        raise InvalidCount(
            f"need an even n_graphs >= 2 for balanced classes, got {n_graphs}"
        )
    if base_size < 2:
        raise InvalidCount(f"base_size must be at least 2, got {base_size}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    bounds = [*range(2, 2 * base_size - 2, 2), 5, base_size]
    picks = rng.integers(np.tile(bounds, n_graphs)).reshape(n_graphs, -1)
    # the base edges, flattened, are the endpoint list: edge k - 1 is
    # (the endpoint node k picked, k)
    ends = np.zeros((n_graphs, 2 * base_size - 2), dtype=np.int64)
    ends[:, 1::2] = np.arange(1, base_size)
    rows = np.arange(n_graphs)
    for k in range(2, base_size):
        ends[:, 2 * k - 2] = ends[rows, picks[:, k - 2]]
    # row i: graph i's base edges, its motif's and the attachment edge; a
    # cycle leaves the last row unused
    edges = np.zeros((n_graphs, base_size + 6, 2), dtype=np.int64)
    edges[:, : base_size - 1] = ends.reshape(n_graphs, -1, 2)
    edges[0::2, base_size - 1 : -1] = np.add(HOUSE_EDGES, base_size)
    edges[1::2, base_size - 1 : -2] = np.add(CYCLE_EDGES, base_size)
    labels = rows % 2
    edges[rows, base_size + 5 - labels, 0] = base_size + picks[:, -2]
    edges[rows, base_size + 5 - labels, 1] = picks[:, -1]
    used = np.ones(edges.shape[:2], dtype=bool)
    used[1::2, -1] = False
    node_count = base_size + 5
    graphs = build_graphs(
        [node_count] * n_graphs,
        edges[used],
        base_size + 6 - labels,
        [np.full((node_count, attr_dim), attr_value)] * n_graphs,
        [False] * n_graphs,
        labels.tolist(),
        [f"{name}-{i:04d}" for i in range(n_graphs)],
    )
    train_end = int(n_graphs * 0.8)
    val_end = int(n_graphs * 0.9)
    splits = {
        "train": list(range(0, train_end)),
        "validation": list(range(train_end, val_end)),
        "test": list(range(val_end, n_graphs)),
    }
    return Dataset(name, graphs, attr_dim, 2, splits, generation_seed=seed)


def generate_ba2motifs(n_graphs: int, seed: int) -> Dataset:
    """25-node instances: 20-node preferential-attachment base plus motif."""
    return generate_motif_graphs(n_graphs, seed)


def _attribute_texts(dataset: Dataset) -> list[str]:
    """Each graph's ``"x"``: its attribute matrix as :func:`json_value`
    renders it.  Each distinct attribute row, byte for byte, is rendered
    once (the motif benchmark's rows are all one row).

    Raises:
        ValueError: an attribute is NaN or infinite.
    """
    graphs = dataset.graphs
    attrs = np.concatenate(
        [np.empty((0, dataset.attr_dim)), *(g.attributes for g in graphs)]
    )
    ids = _attribute_ids(attrs)
    # a row of each id: any one, as they are equal byte for byte
    row_of = np.empty(ids.max(initial=-1) + 1, dtype=np.intp)
    row_of[ids] = np.arange(len(ids))
    # one encoder call renders them all: '[[a,b],[c,d]]' holds the rows
    # 'a,b' and 'c,d', as no number's text holds a bracket
    texts = json_value(attrs[row_of].tolist())[2:-2].split("],[")
    rows = list(map(texts.__getitem__, ids.tolist()))
    bounds = np.cumsum([0, *(g.node_count for g in graphs)]).tolist()
    return [
        f"[[{'],['.join(rows[lo:hi])}]]" if hi > lo else "[]"
        for lo, hi in zip(bounds, bounds[1:])
    ]


def save_dataset(dataset: Dataset, path) -> None:
    """Write the dataset as JSON, gzip-compressed when the path ends .gz.

    The text is :func:`json_text` of the whole document, built from
    pieces so that each distinct attribute row is rendered once.

    Raises:
        ValueError: an attribute is NaN or infinite; nothing is written.
    """
    head = json_value(
        {
            "format_version": DATASET_FORMAT_VERSION,
            "name": dataset.name,
            "attr_dim": dataset.attr_dim,
            "num_classes": dataset.num_classes,
            "generation_seed": dataset.generation_seed,
            "splits": {k: list(v) for k, v in dataset.splits.items()},
            "graphs": [],
        }
    )
    entries = []
    for g, x in zip(dataset.graphs, _attribute_texts(dataset)):
        # mates are adjacent, so the even rows are the undirected edges
        edges = g.arcs if g.directed else g.arcs[::2]
        skeleton = json_value(
            {
                "id": g.graph_id,
                "n": g.node_count,
                "directed": g.directed,
                "edges": edges.tolist(),
            }
        )
        entries.append(f'{skeleton[:-1]},"x":{x},"y":{json_value(g.label)}}}')
    # head ends '[]}': the entries go between the brackets
    data = f"{head[:-2]}{','.join(entries)}]}}\n".encode("utf-8")
    if str(path).endswith(".gz"):
        # gzip's default level, and no time stamp in the header: one
        # dataset, one file
        data = gzip.compress(data, compresslevel=6, mtime=0)
    write_atomic(path, data)


# entries read and built per batch: only one batch's checked fields and
# build arrays are held beside the decoded document
_LOAD_BATCH = 100


def _copied(graph_id: str) -> str:
    """A copy of a document's id string, for the graph to keep: the
    document's own string would keep the document's allocator arenas
    resident for as long as the dataset lives (surrogatepass copies a
    lone surrogate too)."""
    return graph_id.encode(errors="surrogatepass").decode(
        errors="surrogatepass"
    )


def _load_graph(entry, attr_dim: int, where: str) -> None:
    """Raise :class:`ParseError` for the first fault of one graph entry,
    worded as a graph-by-graph read words it; return if there is none."""
    n = read_field(entry, "n", as_int, where)
    if n < 0:
        raise ParseError(f"{where}: n is negative ({n})")
    for j, pair in enumerate(read_field(entry, "edges", as_list, where)):
        at = f"{where}: edges[{j}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"{at}: expected a [src, dst] pair")
        src, dst = as_int(pair[0], at), as_int(pair[1], at)
        if not (0 <= src < n and 0 <= dst < n):
            raise ParseError(f"{at}: ({src}, {dst}) outside [0, {n})")
    attrs = read_field(entry, "x", as_float_array, where)
    if n == 0 and attrs.shape == (0,):
        attrs = attrs.reshape(0, attr_dim)
    if attrs.shape != (n, attr_dim):
        raise ParseError(
            f"{where}: x has shape {attrs.shape}, expected ({n}, {attr_dim})"
        )
    read_field(entry, "directed", as_bool, where)
    if entry.get("y") is not None:
        as_int(entry["y"], f"{where}: y")
    read_field(entry, "id", as_str, where)


_GRAPH_FIELDS = frozenset(("n", "edges", "x", "directed", "id"))
# the JSON integers an attribute may be: those numpy reads as int64 or
# uint64, the attribute being their float64 value
_ATTR_INTS = range(-(2**63), 2**64)


def _read_batch(entries, attr_dim: int) -> tuple | None:
    """:func:`build_graphs`' arguments for a batch of graph entries, or
    None when an entry has a fault.

    Each test is one pass over a whole list (the batch's node counts,
    pairs, edge ends, attribute rows or values) or one numpy test.  They
    accept a batch exactly when :func:`_load_graph` finds no fault in any
    of its entries, so only a refused batch is walked, to name its fault.
    """
    if set(map(type, entries)) != {dict} or not all(
        e.keys() >= _GRAPH_FIELDS for e in entries
    ):
        return None
    ns = [e["n"] for e in entries]
    edge_lists = [e["edges"] for e in entries]
    xs = [e["x"] for e in entries]
    directed = [e["directed"] for e in entries]
    labels = [e.get("y") for e in entries]
    ids = [e["id"] for e in entries]
    if (
        set(map(type, ns)) != {int}
        or set(map(type, directed)) != {bool}
        or not set(map(type, labels)) <= {int, type(None)}
        or set(map(type, ids)) != {str}
        or set(map(type, edge_lists)) != {list}
        or set(map(type, xs)) != {list}
        # so every n is a row count: non-negative, and no larger than
        # the document
        or list(map(len, xs)) != ns
    ):
        return None
    pairs = list(itertools.chain.from_iterable(edge_lists))
    rows = list(itertools.chain.from_iterable(xs))
    if (
        not set(map(type, pairs)) <= {list}
        or not set(map(len, pairs)) <= {2}
        or not set(map(type, itertools.chain.from_iterable(pairs))) <= {int}
        or not set(map(type, rows)) <= {list}
        or not set(map(len, rows)) <= {attr_dim}
    ):
        return None
    kinds = set(map(type, itertools.chain.from_iterable(rows)))
    if not kinds <= {float, int} or (
        int in kinds
        and not all(
            v in _ATTR_INTS
            for v in itertools.chain.from_iterable(rows)
            if type(v) is int
        )
    ):
        return None
    try:
        ends = np.fromiter(
            itertools.chain.from_iterable(pairs), np.int64, 2 * len(pairs)
        ).reshape(-1, 2)
    except OverflowError:  # an end past int64
        return None
    counts = list(map(len, edge_lists))
    owner_n = np.repeat(np.array(ns, dtype=np.int64), counts)[:, None]
    attrs = np.fromiter(
        itertools.chain.from_iterable(rows), np.float64, len(rows) * attr_dim
    ).reshape(len(rows), attr_dim)
    if not (
        ((ends >= 0) & (ends < owner_n)).all() and np.isfinite(attrs).all()
    ):
        return None
    xs = np.split(attrs, np.cumsum(ns[:-1]))
    return ns, ends, counts, xs, directed, labels, list(map(_copied, ids))


def load_dataset(path) -> Dataset:
    """Read a dataset written by :func:`save_dataset`.

    The graphs are read and built :data:`_LOAD_BATCH` at a time by
    :func:`_read_batch`.  A batch it refuses is walked graph by graph
    (:func:`_load_graph`) only to word the error, so the first fault in
    the file is named as a graph-by-graph read would name it.

    Raises:
        ParseError: unreadable or truncated JSON, missing fields, a value
            of the wrong type or shape, or internally inconsistent
            content (an edge endpoint outside the graph, a split index
            past the last graph, a label outside the classes).
        VersionMismatch: unknown format version.
    """
    where = str(path)
    with (gzip.open if where.endswith(".gz") else open)(path, "rb") as fh:
        doc = read_document(fh, where, DATASET_FORMAT_VERSION)
    attr_dim = read_field(doc, "attr_dim", as_int, where)
    if attr_dim < 0:
        raise ParseError(f"{where}: attr_dim is negative ({attr_dim})")
    entries = read_field(doc, "graphs", as_list, where)
    graphs = []
    for lo in range(0, len(entries), _LOAD_BATCH):
        batch = entries[lo : lo + _LOAD_BATCH]
        fields = _read_batch(batch, attr_dim)
        if fields is None:
            for i, entry in enumerate(batch, lo):
                _load_graph(entry, attr_dim, f"{where}: graphs[{i}]")
            raise ParseError(
                f"{where}: graphs[{lo}:{lo + len(batch)}]: refused by the"
                " batch read, no fault found graph by graph"
            )
        graphs += build_graphs(*fields)
    splits = require(doc, "splits", where)
    if not isinstance(splits, dict):
        raise ParseError(f"{where}: splits must be an object")
    name = read_field(doc, "name", as_str, where)
    num_classes = read_field(doc, "num_classes", as_int, where)
    split_lists = {}
    for k, v in splits.items():
        at = f"{where}: splits[{_shown(k)}]"
        split_lists[k] = [as_int(i, at) for i in as_list(v, at)]
    try:
        return Dataset(
            name,
            graphs,
            attr_dim,
            num_classes,
            split_lists,
            doc.get("generation_seed"),
        )
    except ValidationError as exc:  # split indices or labels out of range
        raise ParseError(f"{where}: {exc}") from exc
