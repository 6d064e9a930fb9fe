"""Synthetic benchmark generation and dataset (de)serialization.

The motif benchmark attaches a 5-node house or a 5-node cycle to a random
preferential-attachment base graph; the motif kind is the class label.
"""

import gzip
import itertools
from dataclasses import dataclass, field

import numpy as np

from ._atomic import json_text, write_atomic
from ._schema import (
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
from .graphs import AttributedGraph, build_graphs

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
                    f"graphs[{i}] repeats the id {g.graph_id!r} of"
                    f" graphs[{j}]"
                )
            if g.attr_dim != self.attr_dim:
                raise ValidationError(
                    f"graph {g.graph_id!r} has {g.attr_dim} attributes,"
                    f" dataset declares {self.attr_dim}"
                )
            if g.label is not None and not 0 <= g.label < self.num_classes:
                raise ValidationError(
                    f"graph {g.graph_id!r} labeled {g.label}, dataset has"
                    f" {self.num_classes} classes"
                )
        seen: set[int] = set()
        for split, indices in self.splits.items():
            for i in indices:
                if not 0 <= i < len(self.graphs):
                    raise ValidationError(
                        f"split {split!r} references graph {i}, only"
                        f" {len(self.graphs)} exist"
                    )
                if i in seen:
                    raise ValidationError(
                        f"graph {i} appears in more than one split"
                    )
                seen.add(i)

    def split_graphs(self, split: str) -> list[AttributedGraph]:
        return [self.graphs[i] for i in self.splits.get(split, [])]


def _preferential_attachment_edges(size: int, rng) -> list[tuple[int, int]]:
    # attachment parameter 1: each new node wires to one existing endpoint
    # drawn with probability proportional to current degree
    edges = [(0, 1)]
    endpoints = [0, 1]
    for new in range(2, size):
        target = endpoints[int(rng.integers(len(endpoints)))]
        edges.append((target, new))
        endpoints.extend((target, new))
    return edges


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
    node_count = base_size + 5
    ends: list[int] = []  # every graph's edges, flattened
    edge_counts = []
    for i in range(n_graphs):
        motif = HOUSE_EDGES if i % 2 == 0 else CYCLE_EDGES
        edges = _preferential_attachment_edges(base_size, rng)
        edges.extend((base_size + u, base_size + v) for u, v in motif)
        motif_node = base_size + int(rng.integers(5))
        base_node = int(rng.integers(base_size))
        edges.append((motif_node, base_node))
        ends.extend(itertools.chain.from_iterable(edges))
        edge_counts.append(len(edges))
    graphs = build_graphs(
        [node_count] * n_graphs,
        np.array(ends, dtype=np.int64).reshape(-1, 2),
        edge_counts,
        [np.full((node_count, attr_dim), attr_value)] * n_graphs,
        [False] * n_graphs,
        [i % 2 for i in range(n_graphs)],
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


def _graph_to_dict(g: AttributedGraph) -> dict:
    # mates are adjacent, so the even rows are the undirected edges
    edges = g.arcs if g.directed else g.arcs[::2]
    return {
        "id": g.graph_id,
        "n": g.node_count,
        "directed": g.directed,
        "edges": edges.tolist(),
        "x": g.attributes.tolist(),
        "y": g.label,
    }


def save_dataset(dataset: Dataset, path) -> None:
    """Write the dataset as JSON, gzip-compressed when the path ends .gz."""
    doc = {
        "format_version": DATASET_FORMAT_VERSION,
        "name": dataset.name,
        "attr_dim": dataset.attr_dim,
        "num_classes": dataset.num_classes,
        "generation_seed": dataset.generation_seed,
        "splits": {k: list(v) for k, v in dataset.splits.items()},
        "graphs": [_graph_to_dict(g) for g in dataset.graphs],
    }
    data = json_text(doc).encode("utf-8")
    if str(path).endswith(".gz"):
        # gzip's default level, and no time stamp in the header: one
        # dataset, one file
        data = gzip.compress(data, compresslevel=6, mtime=0)
    write_atomic(path, data)


# entries read and built per batch: only one batch's checked fields and
# build arrays are held beside the decoded document
_LOAD_BATCH = 100


def _load_graph(entry, attr_dim: int, where: str) -> tuple:
    """The checked fields of one graph entry, in the order
    :func:`build_graphs` takes them: node count, the entry's own list of
    ``[src, dst]`` pairs, attributes, directed, label and id."""
    n = read_field(entry, "n", as_int, where)
    if n < 0:
        raise ParseError(f"{where}: n is negative ({n})")
    edges = read_field(entry, "edges", as_list, where)
    for j, pair in enumerate(edges):
        at = f"{where}: edges[{j}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"{at}: expected a [src, dst] pair")
        src, dst = as_int(pair[0], at), as_int(pair[1], at)
        if not (0 <= src < n and 0 <= dst < n):
            raise ParseError(f"{at}: ({src}, {dst}) outside [0, {n})")
    attrs = read_field(entry, "x", as_float_array, where)
    if n == 0 and attrs.size == 0:
        attrs = attrs.reshape(0, attr_dim)
    if attrs.shape != (n, attr_dim):
        raise ParseError(
            f"{where}: x has shape {attrs.shape}, expected ({n}, {attr_dim})"
        )
    label = entry.get("y")
    return (
        n,
        edges,
        attrs,
        read_field(entry, "directed", as_bool, where),
        None if label is None else as_int(label, f"{where}: y"),
        read_field(entry, "id", as_str, where),
    )


def load_dataset(path) -> Dataset:
    """Read a dataset written by :func:`save_dataset`.

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
        fields = [
            _load_graph(entry, attr_dim, f"{where}: graphs[{i}]")
            for i, entry in enumerate(entries[lo : lo + _LOAD_BATCH], lo)
        ]
        ns, edge_lists, xs, directed, labels, ids = zip(*fields)
        ends = itertools.chain.from_iterable(
            itertools.chain.from_iterable(edge_lists)
        )
        graphs += build_graphs(
            ns,
            np.fromiter(ends, np.int64).reshape(-1, 2),
            list(map(len, edge_lists)),
            xs,
            directed,
            labels,
            ids,
        )
    splits = require(doc, "splits", where)
    if not isinstance(splits, dict):
        raise ParseError(f"{where}: splits must be an object")
    name = read_field(doc, "name", as_str, where)
    num_classes = read_field(doc, "num_classes", as_int, where)
    split_lists = {
        str(k): [
            as_int(i, f"{where}: splits[{k!r}]")
            for i in as_list(v, f"{where}: splits[{k!r}]")
        ]
        for k, v in splits.items()
    }
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
