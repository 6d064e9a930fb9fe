"""Synthetic motif benchmark generation and dataset serialization."""

import dataclasses
import gzip
import json

import numpy as np
import pytest
from references import datasets_equal

from gxplain import datasets as datasets_module
from gxplain.datasets import (
    Dataset,
    generate_ba2motifs,
    generate_motif_graphs,
    load_dataset,
    save_dataset,
)
from gxplain.errors import ParseError, ValidationError
from gxplain.graphs import build_graph

HOUSE_EDGES = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)}
CYCLE_EDGES = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}


@pytest.fixture(scope="module")
def small_ba():
    return generate_ba2motifs(60, seed=0)


def undirected_edges(g, lo=0):
    return {
        (min(s, d) - lo, max(s, d) - lo)
        for s, d in g.arcs
        if s >= lo and d >= lo
    }


def test_shape_and_counts(small_ba):
    assert len(small_ba.graphs) == 60
    assert small_ba.attr_dim == 10
    assert small_ba.num_classes == 2
    for g in small_ba.graphs:
        assert g.node_count == 25
        assert not g.directed
        assert (g.attributes == 0.1).all()


def test_labels_alternate_with_motif(small_ba):
    for i, g in enumerate(small_ba.graphs):
        assert g.label == i % 2
        motif = undirected_edges(g, lo=20)
        if g.label == 0:
            assert motif == HOUSE_EDGES
        else:
            assert motif == CYCLE_EDGES


def test_exactly_one_attachment_edge(small_ba):
    for g in small_ba.graphs:
        crossing = [(s, d) for s, d in g.arcs if (s < 20) != (d < 20)]
        # both directions of a single undirected edge
        assert len(crossing) == 2


def test_base_is_connected_tree(small_ba):
    # preferential attachment with one edge per new node: 19 edges, connected
    for g in small_ba.graphs[:10]:
        base = undirected_edges(g)
        base = {(u, v) for u, v in base if u < 20 and v < 20}
        assert len(base) == 19
        seen = {0}
        frontier = [0]
        adj = {}
        for u, v in base:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        while frontier:
            cur = frontier.pop()
            for nxt in adj.get(cur, []):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert seen == set(range(20))


def test_splits_are_contiguous_80_10_10():
    ds = generate_ba2motifs(100, seed=0)
    assert ds.splits["train"] == list(range(80))
    assert ds.splits["validation"] == list(range(80, 90))
    assert ds.splits["test"] == list(range(90, 100))
    assert len(ds.split_graphs("test")) == 10


def test_generation_is_deterministic_per_seed():
    a = generate_ba2motifs(30, seed=7)
    b = generate_ba2motifs(30, seed=7)
    c = generate_ba2motifs(30, seed=8)
    assert datasets_equal(a, b)
    assert not datasets_equal(a, c)


def test_motif_generator_respects_parameters():
    ds = generate_motif_graphs(
        10, seed=1, base_size=8, attr_dim=4, attr_value=0.25, name="tiny"
    )
    assert ds.name == "tiny"
    assert ds.attr_dim == 4
    for g in ds.graphs:
        assert g.node_count == 13
        assert (g.attributes == 0.25).all()


def test_dataset_validates_split_indices():
    g = build_graph(2, [(0, 1)], np.zeros((2, 3)), False, label=0, graph_id="v")
    with pytest.raises(ValidationError):
        Dataset("bad", [g], 3, 2, splits={"train": [5]})
    with pytest.raises(
        ValidationError, match="^graph 0 appears in splits 'train' and 'test'$"
    ):
        Dataset("bad", [g], 3, 2, splits={"train": [0], "test": [0]})
    with pytest.raises(
        ValidationError, match="^graph 0 appears twice in split 'train'$"
    ):
        Dataset("bad", [g], 3, 2, splits={"train": [0, 0]})


def test_dataset_validates_attr_dim_and_labels():
    g = build_graph(2, [(0, 1)], np.zeros((2, 3)), False, label=0, graph_id="v")
    with pytest.raises(ValidationError):
        Dataset("bad", [g], 4, 2)
    lab = build_graph(2, [(0, 1)], np.zeros((2, 3)), False, label=5, graph_id="l")
    with pytest.raises(ValidationError):
        Dataset("bad", [lab], 3, 2)


def test_save_load_round_trip(tmp_path):
    ds = generate_ba2motifs(20, seed=3)
    # ids that the load copies too: empty, non-ASCII, a lone surrogate
    odd = ["", "\u00e9", "\ud800", "a\0b"]
    renamed = [dataclasses.replace(g, graph_id=i) for g, i in zip(ds.graphs, odd)]
    ds = dataclasses.replace(ds, graphs=renamed + ds.graphs[len(odd) :])
    path = tmp_path / "ds.json.gz"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert datasets_equal(ds, loaded)
    assert loaded.splits == ds.splits
    assert loaded.generation_seed == ds.generation_seed


def test_load_spans_several_batches_and_names_the_faulty_graph(tmp_path):
    n = 2 * datasets_module._LOAD_BATCH + 50
    ds = generate_ba2motifs(n, seed=4)
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert datasets_equal(ds, loaded)
    for a, b in zip(ds.graphs, loaded.graphs):
        assert a.arc_index_arrays()[0].tolist() == b.arc_index_arrays()[0].tolist()
        assert a.arc_index_arrays()[1].tolist() == b.arc_index_arrays()[1].tolist()
    doc = json.loads(path.read_text())
    bad = n - 33
    doc["graphs"][bad]["edges"][1] = [0, 99]
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=rf"graphs\[{bad}\]: edges\[1\]: \(0, 99\)"):
        load_dataset(path)


def test_gzip_dataset_file_has_no_time_stamp(tmp_path):
    ds = generate_ba2motifs(10, seed=3)
    save_dataset(ds, tmp_path / "a.json.gz")
    save_dataset(ds, tmp_path / "plain.json")
    data = (tmp_path / "a.json.gz").read_bytes()
    # MTIME, header bytes 4-8, is zero, so equal datasets give equal files
    assert data[4:8] == bytes(4)
    assert gzip.decompress(data) == (tmp_path / "plain.json").read_bytes()
