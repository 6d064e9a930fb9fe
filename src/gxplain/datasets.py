"""Synthetic benchmark generation and dataset (de)serialization.

The motif benchmark attaches a 5-node house or a 5-node cycle to a random
preferential-attachment base graph; the motif kind is the class label.
"""

import gzip
import itertools
import math
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


def _flat(rows: list, width: int, kind: type) -> list | None:
    """The items of ``rows``, in order, when it is a list of lists of
    ``width`` items of type ``kind`` each; None when it is not."""
    if set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}:
        items = list(itertools.chain.from_iterable(rows))
        if set(map(type, items)) <= {kind}:
            return items
    return None


def _read_graph(entry, attr_dim: int, where: str) -> tuple:
    """One graph entry's :func:`build_graphs` fields ``(n, ends, values,
    directed, label, id)``, its edges' ends and its attribute matrix
    flattened, or :class:`ParseError` for the entry's first fault.

    The plainly valid values of a field, those every saved dataset holds,
    are taken as they are: ``int`` edge ends inside ``[0, n)``, and ``n``
    rows of ``attr_dim`` floats whose sum is finite (so each is finite).
    Any other value goes to the field's reader, which accepts it (integer
    attributes, or finite floats whose sum overflows) or words its fault.
    An edge list the plain test refuses always has a fault, so the edge
    walk only words it.
    """
    n = read_field(entry, "n", as_int, where)
    if n < 0:
        raise ParseError(f"{where}: n is negative ({n})")
    edges = read_field(entry, "edges", as_list, where)
    ends = _flat(edges, 2, int)
    if ends is None or (ends and not 0 <= min(ends) <= max(ends) < n):
        ends = []
        for j, pair in enumerate(edges):
            at = f"{where}: edges[{j}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"{at}: expected a [src, dst] pair")
            src, dst = as_int(pair[0], at), as_int(pair[1], at)
            if not (0 <= src < n and 0 <= dst < n):
                raise ParseError(f"{at}: ({src}, {dst}) outside [0, {n})")
            ends += src, dst
    x = require(entry, "x", where)
    values = None
    if type(x) is list and len(x) == n:
        values = _flat(x, attr_dim, float)
    if values is None or not math.isfinite(sum(values)):
        attrs = as_float_array(x, f"{where}: x")
        if attrs.shape != (n, attr_dim):
            raise ParseError(
                f"{where}: x has shape {attrs.shape}, expected"
                f" ({n}, {attr_dim})"
            )
        values = attrs.ravel()
    directed = read_field(entry, "directed", as_bool, where)
    label = entry.get("y")
    if label is not None:
        as_int(label, f"{where}: y")
    graph_id = read_field(entry, "id", as_str, where)
    return n, ends, values, directed, label, _copied(graph_id)


def load_dataset(path) -> Dataset:
    """Read a dataset written by :func:`save_dataset`.

    The graphs are read by :func:`_read_graph`, so the first fault in the
    file is the one named, and built :data:`_LOAD_BATCH` at a time.

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
        ns, ends, values, directed, labels, ids = zip(
            *(
                _read_graph(entry, attr_dim, f"{where}: graphs[{i}]")
                for i, entry in enumerate(entries[lo : lo + _LOAD_BATCH], lo)
            )
        )
        counts = [len(e) // 2 for e in ends]
        arcs = np.fromiter(
            itertools.chain.from_iterable(ends), np.int64, 2 * sum(counts)
        ).reshape(-1, 2)
        rows = sum(ns)
        attrs = np.fromiter(
            itertools.chain.from_iterable(values), np.float64, rows * attr_dim
        ).reshape(rows, attr_dim)
        xs = np.split(attrs, np.cumsum(ns[:-1]))
        graphs += build_graphs(ns, arcs, counts, xs, directed, labels, ids)
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
