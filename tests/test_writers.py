"""Every output file is replaced atomically through one shared writer."""

import argparse
import dataclasses
import gzip
import json
import stat
from pathlib import Path

import numpy as np
import pytest
from conftest import random_model, random_small_graph

import gxplain
from gxplain._atomic import json_text
from gxplain.cli import cmd_export_dot
from gxplain.datasets import generate_ba2motifs, save_dataset
from gxplain.explain import ExplainConfig, explain, save_explanation
from gxplain.metrics import evaluate, save_report, write_eval_csv
from gxplain.model import save_model
from gxplain.oracle import oracle_report, save_oracle_result

_RNG = np.random.default_rng(0)
MODEL = random_model(_RNG)
GRAPH = random_small_graph(_RNG, n_lo=5, n_hi=6, gid="w")
CONFIG = ExplainConfig(epochs=2)
EXPLANATION = explain(MODEL, GRAPH, CONFIG)
REPORT = evaluate(MODEL, [GRAPH], {"w": EXPLANATION}, k=2)


def _varied_dataset():
    """The 4-graph benchmark with normal attributes, one ``-0.0`` and
    one row repeated in another graph."""
    ds = generate_ba2motifs(4, seed=0)
    x = np.random.default_rng(1).normal(size=(100, ds.attr_dim))
    x[3, 4] = -0.0
    x[60] = x[2]
    graphs = [
        dataclasses.replace(g, attributes=x[25 * i : 25 * (i + 1)])
        for i, g in enumerate(ds.graphs)
    ]
    return dataclasses.replace(ds, graphs=graphs)


VARIED = _varied_dataset()


def _export_dot(path: Path) -> None:
    # export-dot names its output after the explanation file it renders
    in_dir = path.parent / f"{path.stem}-in"
    in_dir.mkdir(exist_ok=True)
    save_explanation(EXPLANATION, CONFIG, in_dir / f"{path.stem}.json")
    cmd_export_dot(
        argparse.Namespace(
            explanations=str(in_dir), out_dir=str(path.parent), attr_top=3
        )
    )


# name -> (write the artifact to a path, file suffix the writer expects)
WRITERS = {
    "save_model": (lambda p: save_model(MODEL, p), ".json"),
    "save_dataset": (
        lambda p: save_dataset(generate_ba2motifs(4, seed=0), p),
        ".json",
    ),
    "save_dataset_gz": (
        lambda p: save_dataset(generate_ba2motifs(4, seed=0), p),
        ".json.gz",
    ),
    "save_dataset_varied": (lambda p: save_dataset(VARIED, p), ".json"),
    "save_dataset_varied_gz": (lambda p: save_dataset(VARIED, p), ".json.gz"),
    "save_explanation": (
        lambda p: save_explanation(EXPLANATION, CONFIG, p),
        ".json",
    ),
    "write_eval_csv": (lambda p: write_eval_csv(p, REPORT.per_graph), ".csv"),
    "save_report": (lambda p: save_report(REPORT, p), ".json"),
    "save_oracle_result": (
        lambda p: save_oracle_result(oracle_report(MODEL, GRAPH, 2), GRAPH, p),
        ".json",
    ),
    "export_dot": (_export_dot, ".dot"),
}


def _content(path: Path) -> bytes:
    data = path.read_bytes()
    return gzip.decompress(data) if path.name.endswith(".gz") else data


@pytest.mark.parametrize(
    "name", sorted(n for n, (_, suffix) in WRITERS.items() if ".json" in suffix)
)
def test_every_json_writer_writes_one_compact_line(tmp_path, name):
    write, suffix = WRITERS[name]
    path = tmp_path / f"doc{suffix}"
    write(path)
    text = _content(path).decode("utf-8")
    assert text.endswith("\n") and text.count("\n") == 1
    assert json_text(json.loads(text)) == text
    if path.name.endswith(".gz"):
        # gzip's default level, no time stamp
        data = text.encode("utf-8")
        assert path.read_bytes() == gzip.compress(data, 6, mtime=0)


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_write_onto_a_directory_fails_and_leaves_no_temp_file(tmp_path, name):
    write, suffix = WRITERS[name]
    target = tmp_path / f"adir{suffix}"
    target.mkdir()
    with pytest.raises(OSError):
        write(target)
    assert target.is_dir() and not any(target.iterdir())
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_overwrite_replaces_the_whole_file_with_plain_open_mode(tmp_path, name):
    write, suffix = WRITERS[name]
    fresh = tmp_path / f"fresh{suffix}"
    write(fresh)
    target = tmp_path / f"old{suffix}"
    # longer than the new content, so an in-place write would leave a tail
    target.write_bytes(b"x" * (2 * fresh.stat().st_size + 100))
    write(target)
    assert _content(target) == _content(fresh)
    assert list(tmp_path.glob("*.tmp")) == []
    plain = tmp_path / "plain"
    with open(plain, "w"):
        pass
    mode = stat.S_IMODE(plain.stat().st_mode)
    assert stat.S_IMODE(target.stat().st_mode) == mode
    assert stat.S_IMODE(fresh.stat().st_mode) == mode


def test_report_with_nan_is_refused_and_keeps_the_old_file(tmp_path):
    path = tmp_path / "report.json"
    save_report(REPORT, path)
    before = path.read_bytes()
    bad = dataclasses.replace(REPORT, ep_explained=float("nan"))
    with pytest.raises(ValueError):
        save_report(bad, path)
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


def test_atomic_replace_is_written_once_in_the_package():
    src = Path(gxplain.__file__).parent
    users = sorted(
        str(p.relative_to(src))
        for p in src.rglob("*.py")
        if "os.replace(" in p.read_text(encoding="utf-8")
    )
    assert users == ["_atomic.py"]
