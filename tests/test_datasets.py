"""Synthetic motif benchmark generation and dataset serialization."""

import ast
import collections
import dataclasses
import gzip
import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import datasets_equal, reference_motif_graphs

from gxplain import datasets as datasets_module
from gxplain import graphs as graphs_module
from gxplain._schema import (
    as_bool,
    as_float,
    as_float_array,
    as_int,
    as_list,
    as_str,
)
from gxplain.datasets import (
    Dataset,
    generate_ba2motifs,
    generate_motif_graphs,
    load_dataset,
    save_dataset,
)
from gxplain.errors import (
    IndexOutOfRange,
    InvalidCount,
    ParseError,
    ValidationError,
)
from gxplain.graphs import AttributedGraph, build_graph

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


@pytest.mark.parametrize("name", ["attr_dim", "num_classes"])
def test_dataset_refuses_a_size_above_the_limit(name):
    # the limit the loader and the CLI keep, so that no array of that
    # size is ever asked for
    ds = generate_ba2motifs(4, 0)
    with pytest.raises(ValidationError, match=f"^{name} is above 2147483647$"):
        dataclasses.replace(ds, **{name: 10**30})


def test_generation_refuses_a_base_above_the_limit():
    with pytest.raises(
        InvalidCount, match=f"^base_size {10**30} is above 2147483647$"
    ):
        generate_motif_graphs(2, 0, base_size=10**30)


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


def _reference_bytes(dataset, path) -> bytes:
    """The bytes the per-graph dict builder wrote: one dict per graph,
    every attribute a Python float, one ``json.dumps`` of the whole."""

    def graph_to_dict(g):
        edges = g.arcs if g.directed else g.arcs[::2]
        return {
            "id": g.graph_id,
            "n": g.node_count,
            "directed": g.directed,
            "edges": edges.tolist(),
            "x": g.attributes.tolist(),
            "y": g.label,
        }

    doc = {
        "format_version": datasets_module.DATASET_FORMAT_VERSION,
        "name": dataset.name,
        "attr_dim": dataset.attr_dim,
        "num_classes": dataset.num_classes,
        "generation_seed": dataset.generation_seed,
        "splits": {k: list(v) for k, v in dataset.splits.items()},
        "graphs": [graph_to_dict(g) for g in dataset.graphs],
    }
    text = json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n"
    data = text.encode("utf-8")
    if str(path).endswith(".gz"):
        data = gzip.compress(data, compresslevel=6, mtime=0)
    return data


# attribute values whose text is easy to get wrong: the two zeros, the
# smallest subnormal, and floats whose repr switches to an exponent
ODD_VALUES = [0.0, -0.0, 5e-324, 0.1, 1e16, 1e22]
# ids that JSON escapes: quotes, backslashes, control characters,
# non-ASCII text and a lone surrogate
ID_TEXT = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "\u2603",
                         "\U0001f600", "\ud800", "a"]),
        st.characters(),
    ),
    max_size=6,
)


@st.composite
def saved_datasets(draw):
    """A dataset of up to five graphs of up to five nodes, its attribute
    rows drawn from a small pool so that rows repeat, and rows that
    differ only in the sign of a zero meet."""
    attr_dim = draw(st.integers(0, 4))
    value = st.one_of(
        st.sampled_from(ODD_VALUES),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
    pool = draw(st.lists(
        st.lists(value, min_size=attr_dim, max_size=attr_dim),
        min_size=1, max_size=4,
    ))
    # each row's twin with every zero's sign flipped: equal as numbers,
    # not as bytes
    pool += [[-v if v == 0 else v for v in row] for row in pool]
    ids = draw(st.lists(ID_TEXT, max_size=5, unique=True))
    graphs = []
    for gid in ids:
        n = draw(st.integers(0, 5))
        rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        end = st.integers(0, max(n - 1, 0))
        edges = draw(st.lists(st.tuples(end, end), max_size=6)) if n else []
        graphs.append(build_graph(
            n,
            edges,
            np.array(rows, dtype=np.float64).reshape(n, attr_dim),
            draw(st.booleans()),
            draw(st.one_of(st.none(), st.integers(0, 2))),
            gid,
        ))
    places = draw(st.lists(
        st.sampled_from([None, *datasets_module.SPLIT_NAMES]),
        min_size=len(graphs), max_size=len(graphs),
    ))
    splits = {
        name: [i for i, p in enumerate(places) if p == name]
        for name in sorted(set(places) - {None})
    }
    seed = draw(st.one_of(st.none(), st.integers(0, 2**64 - 1)))
    return Dataset("d\u00e9\"s", graphs, attr_dim, 3, splits, seed)


@settings(max_examples=150, deadline=None)
@given(dataset=saved_datasets(), suffix=st.sampled_from([".json", ".json.gz"]))
def test_save_writes_the_bytes_of_the_per_graph_dict_builder(dataset, suffix):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"ds{suffix}"
        save_dataset(dataset, path)
        assert path.read_bytes() == _reference_bytes(dataset, path)


@pytest.mark.parametrize("suffix", [".json", ".json.gz"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_save_refuses_a_non_finite_attribute_and_keeps_the_old_file(
    tmp_path, suffix, bad
):
    path = tmp_path / f"ds{suffix}"
    ds = generate_ba2motifs(4, seed=0)
    save_dataset(ds, path)
    before = path.read_bytes()
    attrs = np.full((3, ds.attr_dim), 0.5)
    attrs[2, 1] = bad
    graphs = [*ds.graphs, build_graph(3, [(0, 1)], attrs, False, 1, "bad")]
    with pytest.raises(ValueError):
        save_dataset(dataclasses.replace(ds, graphs=graphs), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


@settings(max_examples=60, deadline=None)
@given(
    half=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
    base_size=st.integers(2, 30),
    attr_dim=st.integers(0, 4),
    attr_value=st.floats(allow_nan=False, width=64),
)
def test_generator_equals_the_graph_by_graph_draws(
    half, seed, base_size, attr_dim, attr_value
):
    args = (2 * half, seed, base_size, attr_dim, attr_value, "m")
    assert datasets_equal(
        generate_motif_graphs(*args), reference_motif_graphs(*args)
    )


# SHA-256 of the benchmark's datasets saved as plain JSON, recorded with
# the graph-by-graph generator: generate_ba2motifs(1000, 1) and the
# audit's 13-node graphs
@pytest.mark.parametrize(
    ("n_graphs", "seed", "base_size", "name", "digest"),
    [
        (1000, 1, 20, "ba2motifs",
         "bbd7baea73d847650c48848a6fb9846dfc58ae68edd444c872a8318d7c82116e"),
        (400, 0, 8, "motifs13",
         "cb9466e4fdc1ac879c25fb9a9099826a36bb1760b09b4fccb9c19c1d730c716b"),
        (400, 1, 8, "motifs13",
         "36bc9c3889fc67805fbdacfa5d289239c2f7b2a66829bf8c974f80a43a32a40c"),
        (400, 2, 8, "motifs13",
         "59229908f3f66fd7425917a5b212d0c96b056c71939575136f8a1227f3e49a87"),
    ],
)
def test_benchmark_datasets_keep_their_bytes(
    tmp_path, n_graphs, seed, base_size, name, digest
):
    path = tmp_path / "ds.json"
    ds = generate_motif_graphs(n_graphs, seed, base_size=base_size, name=name)
    save_dataset(ds, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.fixture(scope="module")
def multi_batch(tmp_path_factory):
    """A saved dataset of three batches and its decoded document."""
    ds = generate_ba2motifs(2 * datasets_module._LOAD_BATCH + 50, seed=4)
    path = tmp_path_factory.mktemp("batches") / "ds.json"
    save_dataset(ds, path)
    return ds, json.loads(path.read_text())


_DROP = object()


def _corrupt(entry, path, value):
    """Set ``entry[path[0]][path[1]]...`` to ``value``, or delete it."""
    *parents, last = path
    for key in parents:
        entry = entry[key]
    if value is _DROP:
        del entry[last]
    else:
        entry[last] = value


# each corruption of one graph in the last batch, and the error a
# graph-by-graph read gives for it
@pytest.mark.parametrize(
    ("path", "value", "message"),
    [
        pytest.param(
            ("edges", 1), [True, 3], "edges[1]: expected an integer, got True",
            id="bool-end",
        ),
        pytest.param(
            ("edges", 1), [0, 3.0], "edges[1]: expected an integer, got 3.0",
            id="float-end",
        ),
        pytest.param(
            ("edges", 1), [2**70, 3],
            "edges[1]: (1180591620717411303424, 3) outside [0, 25)",
            id="end-past-int64",
        ),
        pytest.param(
            ("edges", 1), [0, -1], "edges[1]: (0, -1) outside [0, 25)",
            id="negative-end",
        ),
        pytest.param(
            ("edges", 1), [0, 25], "edges[1]: (0, 25) outside [0, 25)",
            id="end-past-n",
        ),
        pytest.param(
            ("edges", 1), [0], "edges[1]: expected a [src, dst] pair",
            id="one-end",
        ),
        pytest.param(
            ("edges", 1), [0, 1, 2], "edges[1]: expected a [src, dst] pair",
            id="three-ends",
        ),
        pytest.param(
            ("edges", 1), {"src": 0, "dst": 1},
            "edges[1]: expected a [src, dst] pair",
            id="object-pair",
        ),
        pytest.param(
            ("edges",), {"0": [0, 1]},
            "edges: expected a list, got {'0': [0, 1]}",
            id="edges-object",
        ),
        pytest.param(
            ("x", 3, 2), True, "x: expected numbers, got a boolean",
            id="bool-attribute",
        ),
        pytest.param(
            ("x", 3, 2), math.nan, "x: expected finite numbers",
            id="nan-attribute",
        ),
        pytest.param(
            ("x", 3, 2), math.inf, "x: expected finite numbers",
            id="inf-attribute",
        ),
        pytest.param(
            ("x", 3, 2), -math.inf, "x: expected finite numbers",
            id="minus-inf-attribute",
        ),
        pytest.param(
            ("n",), True, "n: expected an integer, got True", id="bool-n"
        ),
        pytest.param(("n",), -1, "n is negative (-1)", id="negative-n"),
        pytest.param(
            ("n",), 24, "edges[21]: (20, 24) outside [0, 24)", id="n-short"
        ),
        pytest.param(
            ("x", 24), _DROP, "x has shape (24, 10), expected (25, 10)",
            id="row-missing",
        ),
        pytest.param(
            ("id",), 3, "id: expected a string, got 3", id="int-id"
        ),
        pytest.param(
            ("directed",), 0, "directed: expected true or false, got 0",
            id="int-directed",
        ),
        pytest.param(
            ("y",), True, "y: expected an integer, got True", id="bool-label"
        ),
        pytest.param(("x",), _DROP, "missing field 'x'", id="no-x"),
    ],
)
def test_load_words_a_fault_as_the_graph_by_graph_read(
    multi_batch, tmp_path, path, value, message
):
    _, doc = multi_batch
    doc = json.loads(json.dumps(doc))
    bad = 2 * datasets_module._LOAD_BATCH + 17
    _corrupt(doc["graphs"][bad], path, value)
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as info:
        load_dataset(file)
    assert str(info.value) == f"{file}: graphs[{bad}]: {message}"


def test_load_reads_an_integral_attribute_as_a_float(multi_batch, tmp_path):
    ds, doc = multi_batch
    doc = json.loads(json.dumps(doc))
    bad = 2 * datasets_module._LOAD_BATCH + 17
    _corrupt(doc["graphs"][bad], ("x", 3, 2), 1)
    path = tmp_path / "int.json"
    path.write_text(json.dumps(doc))
    g = ds.graphs[bad]
    x = g.attributes.copy()
    x[3, 2] = 1.0
    graphs = list(ds.graphs)
    graphs[bad] = dataclasses.replace(g, attributes=x)
    assert datasets_equal(load_dataset(path), dataclasses.replace(ds, graphs=graphs))


@pytest.mark.parametrize("value", [2**63, -(2**63), 2**64 - 1])
def test_load_reads_an_int64_or_uint64_attribute_as_a_float(
    multi_batch, tmp_path, value
):
    ds, doc = multi_batch
    doc = json.loads(json.dumps(doc))
    bad = 2 * datasets_module._LOAD_BATCH + 17
    _corrupt(doc["graphs"][bad], ("x", 3, 2), value)
    path = tmp_path / "int.json"
    path.write_text(json.dumps(doc))
    assert load_dataset(path).graphs[bad].attributes[3, 2] == float(value)


@pytest.mark.parametrize("value", [2**64, -(2**63) - 1])
def test_load_refuses_an_attribute_integer_past_uint64_or_int64(
    multi_batch, tmp_path, value
):
    _, doc = multi_batch
    doc = json.loads(json.dumps(doc))
    bad = 2 * datasets_module._LOAD_BATCH + 17
    _corrupt(doc["graphs"][bad], ("x", 3, 2), value)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as info:
        load_dataset(path)
    message = "x: expected a list of numbers"
    assert str(info.value) == f"{path}: graphs[{bad}]: {message}"


# edge ends past int64, and attribute integers inside and past
# [-2**63, 2**64), where numpy reads them as int64 or uint64
EDGE_INTS = [2**63, -(2**63) - 1, 2**64]
ATTR_INTS = [0, -3, 2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1,
             -(2**63)]
BIG_INTS = [2**64, 2**64 + 1, -(2**63) - 1, 10**30]
# decoded JSON values of every type
JSON_VALUES = [None, True, False, 0, -1, 2.5, math.nan, math.inf, "1", [],
               [1.0], {}]


@st.composite
def graph_entry(draw, attr_dim):
    """A well-formed decoded graph entry of up to four nodes."""
    n = draw(st.sampled_from(range(5)))
    end = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.lists(end, min_size=2, max_size=2), max_size=5))
    value = st.floats(allow_nan=False, allow_infinity=False, width=64)
    x = draw(st.lists(
        st.lists(value, min_size=attr_dim, max_size=attr_dim),
        min_size=n, max_size=n,
    ))
    entry = {"n": n, "edges": edges if n else [], "x": x,
             "directed": draw(st.booleans()), "id": draw(st.text(max_size=3))}
    if draw(st.booleans()):
        entry["y"] = draw(st.one_of(st.none(), st.integers(0, 3)))
    return entry


FAULTS = [
    "attr", "attr-bool", "attr-int", "attr-big", "attr-nonfinite", "retype",
    "drop", "n", "end", "pair", "row", "cell", "deep", "empty-rows",
    "not-object",
]


def _break(draw, entries, attr_dim):
    """Give one of ``entries`` one fault: a value of the wrong type, a
    bool, NaN or an infinity, a wrong shape, a missing key, an end
    outside the graph or an attribute integer past [-2**63, 2**64).  An
    ``attr-nonfinite`` draw plants only NaN or an infinity.  An
    ``attr-int`` draw, an attribute integer inside that range, leaves the
    entry well-formed."""
    k = draw(st.integers(0, len(entries) - 1))
    entry = entries[k]
    if not isinstance(entry, dict):
        return
    fault = draw(st.sampled_from(FAULTS))
    rows = entry.get("x") if isinstance(entry.get("x"), list) else []
    cells = [(i, j) for i, row in enumerate(rows)
             if isinstance(row, list) for j in range(len(row))]
    n = entry.get("n") if type(entry.get("n")) is int else 0
    if fault.startswith("attr") and cells:
        i, j = draw(st.sampled_from(cells))
        pool = {"attr": JSON_VALUES, "attr-bool": [True, False],
                "attr-int": ATTR_INTS, "attr-big": BIG_INTS,
                "attr-nonfinite": [math.nan, math.inf, -math.inf]}[fault]
        rows[i][j] = draw(st.sampled_from(pool))
    elif fault == "retype":
        entry[draw(st.sampled_from(sorted(entry)))] = draw(
            st.sampled_from(JSON_VALUES)
        )
    elif fault == "drop":
        del entry[draw(st.sampled_from(sorted(entry)))]
    elif fault == "n" and "n" in entry:
        entry["n"] = draw(st.sampled_from([-1, n + 1, max(n - 1, 0), True]))
    elif fault == "end" and isinstance(entry.get("edges"), list):
        pair = [draw(st.sampled_from([-1, n, *EDGE_INTS])), 0]
        entry["edges"].append(pair[:: draw(st.sampled_from([1, -1]))])
    elif fault == "pair" and isinstance(entry.get("edges"), list):
        entry["edges"].append(draw(st.sampled_from([[0], [0, 0, 0], {}, 0])))
    elif fault == "row" and "x" in entry:
        entry["x"] = rows[:-1] if rows and draw(st.booleans()) else (
            rows + [[0.5] * attr_dim]
        )
    elif fault == "cell" and cells:
        i, _ = draw(st.sampled_from(cells))
        rows[i] = rows[i][:-1] or [0.5, 0.5]
    elif fault == "deep" and cells:
        i, j = draw(st.sampled_from(cells))
        rows[i][j] = [rows[i][j]]
    elif fault == "empty-rows":
        entry.update(n=0, edges=[], x=[[]] * draw(st.integers(1, 2)))
    elif fault == "not-object":
        entries[k] = draw(st.sampled_from(JSON_VALUES))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), attr_dim=st.sampled_from(range(4)))
def test_the_reader_returns_an_entrys_own_values_bit_for_bit(data, attr_dim):
    entries = data.draw(
        st.lists(graph_entry(attr_dim), min_size=1, max_size=3)
    )
    # a broken entry is refused, or read as it is (an attribute integer)
    for _ in range(data.draw(st.sampled_from([0, 1, 1, 1, 2]))):
        _break(data.draw, entries, attr_dim)
    for i, e in enumerate(entries):
        try:
            fields = datasets_module._read_graph(e, attr_dim, f"graphs[{i}]")
        except ParseError as exc:
            assert str(exc).startswith(f"graphs[{i}]: ")
            continue
        n, ends, values, directed, label, graph_id = fields
        assert n == e["n"]
        pairs = [end for pair in e["edges"] for end in pair]
        assert list(ends) == pairs
        assert [type(end) for end in ends] == [int] * len(pairs)
        # as the loader's fromiter reads them
        x = np.fromiter(values, np.float64, n * attr_dim)
        want = as_float_array(e["x"], "x").reshape(n, attr_dim)
        assert x.tobytes() == want.tobytes()
        assert directed == e["directed"]
        assert label == e.get("y") and type(label) is type(e.get("y"))
        assert graph_id == e["id"]


# the fields of a graph entry in the order the reader checks them, each
# with one fault and the error it gives
FIELD_FAULTS = [
    (("n",), True, "n: expected an integer, got True"),
    (("edges", 1), [0, 25], "edges[1]: (0, 25) outside [0, 25)"),
    (("x", 3, 2), True, "x: expected numbers, got a boolean"),
    (("directed",), 0, "directed: expected true or false, got 0"),
    (("y",), True, "y: expected an integer, got True"),
    (("id",), 3, "id: expected a string, got 3"),
]


@pytest.mark.parametrize(
    ("early", "late"),
    [
        (FIELD_FAULTS[i], FIELD_FAULTS[j])
        for i in range(len(FIELD_FAULTS))
        for j in range(i + 1, len(FIELD_FAULTS))
    ],
    ids=lambda fault: fault[0][0],
)
def test_load_names_the_earlier_entry_and_its_earlier_field(
    multi_batch, tmp_path, early, late
):
    _, doc = multi_batch
    doc = json.loads(json.dumps(doc))
    # two entries in different batches; the earlier one's fault lies in
    # the later field
    first = datasets_module._LOAD_BATCH - 9
    second = 2 * datasets_module._LOAD_BATCH + 17
    file = tmp_path / "bad.json"
    _corrupt(doc["graphs"][first], *late[:2])
    _corrupt(doc["graphs"][second], *early[:2])
    file.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as info:
        load_dataset(file)
    assert str(info.value) == f"{file}: graphs[{first}]: {late[2]}"
    # within one entry the earlier field is named
    _corrupt(doc["graphs"][first], *early[:2])
    file.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as info:
        load_dataset(file)
    assert str(info.value) == f"{file}: graphs[{first}]: {early[2]}"


def test_generating_and_loading_sort_the_arcs_once_and_check_none(
    tmp_path, monkeypatch
):
    # build_graphs canonicalizes with one sort, and its arcs need no check
    calls = collections.Counter()

    def counted(module, name):
        function = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    counted(datasets_module, "build_graphs")
    counted(graphs_module, "_arc_sort")
    counted(graphs_module, "_check_arcs")
    ds = generate_motif_graphs(1000, 0)
    assert calls == {"build_graphs": 1, "_arc_sort": 1}
    save_dataset(ds, tmp_path / "ds.json")
    calls.clear()
    load_dataset(tmp_path / "ds.json")
    batches = 1000 // datasets_module._LOAD_BATCH
    assert calls == {"build_graphs": batches, "_arc_sort": batches}
    # a stored arc outside the graph is refused before the sort
    calls.clear()
    with pytest.raises(IndexOutOfRange):
        AttributedGraph(2, [(0, 1), (0, 5)], np.zeros((2, 1)), True)
    assert calls == {"_check_arcs": 1}


def test_a_saved_dataset_sends_no_pair_or_row_through_a_reader(
    tmp_path, monkeypatch
):
    ds = generate_ba2motifs(250, seed=2)
    save_dataset(ds, tmp_path / "ds.json")
    read = []

    def counted(name):
        function = getattr(datasets_module, name)

        def call(value, where):
            read.append((name, where))
            return function(value, where)

        monkeypatch.setattr(datasets_module, name, call)

    for name in ("as_int", "as_float_array", "as_list"):
        counted(name)
    assert datasets_equal(load_dataset(tmp_path / "ds.json"), ds)
    # each entry's n and edges list are read, but no pair, end or row
    assert not [r for r in read if "edges[" in r[1] or r[1].endswith(": x")]
    assert ("as_list", f"{tmp_path / 'ds.json'}: graphs[249]: edges") in read


# the keys of a graph entry in a dataset document
GRAPH_KEYS = {"n", "edges", "x", "directed", "y", "id"}


def _entry_reads(node) -> list[str]:
    """The graph-entry keys ``node`` reads: ``e[key]``, ``e.get(key)``, or
    ``read_field``/``require`` of the key."""
    keys = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Subscript):
            args = [sub.slice]
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            args = sub.args[:1] if sub.func.attr == "get" else []
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
            reads = sub.func.id in ("read_field", "require")
            args = sub.args[1:2] if reads else []
        else:
            continue
        keys += [
            a.value for a in args
            if isinstance(a, ast.Constant) and a.value in GRAPH_KEYS
        ]
    return keys


def test_only_the_graph_reader_reads_a_graph_entry():
    tree = ast.parse(Path(datasets_module.__file__).read_text("utf-8"))
    readers = {
        f.name: sorted(set(_entry_reads(f)))
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef) and _entry_reads(f)
    }
    assert readers == {"_read_graph": sorted(GRAPH_KEYS)}


# a 999-entry object, as a loader may meet one where any field belongs
BIG_OBJECT = {str(i): [i] * 9 for i in range(999)}


@pytest.mark.parametrize(
    "read, value",
    [(r, BIG_OBJECT) for r in (as_int, as_float, as_str, as_bool, as_list)]
    + [(as_float, 10**400)],
    ids=["int", "float", "str", "bool", "list", "float past the range"],
)
def test_readers_cut_a_refused_value_short(read, value):
    with pytest.raises(ParseError) as exc:
        read(value, "f")
    assert str(exc.value).startswith("f: expected ")
    assert len(str(exc.value)) <= 100


def test_generation_refuses_a_base_of_one_node():
    with pytest.raises(
        InvalidCount, match="^base_size must be at least 2, got 1$"
    ):
        generate_motif_graphs(4, 0, base_size=1)
