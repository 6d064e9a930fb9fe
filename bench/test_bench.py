"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest bench/test_bench.py
"""

import gzip
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

gx = run.import_library()

import spans  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    graphs=20,
    epochs=2,
    explain_graphs=2,
    explain_epochs=3,
    audit_graphs=20,
    audit_epochs=2,
    min_samples=3,
    setups=2,
    kernel_calls=5,
)
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    line, _ = run.run(workload, 3, 0.0, bool(trace), TINY)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in line["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for metric in line["metrics"].values():
        assert math.isfinite(metric["value"])
    assert set(json.loads(json.dumps(line))) == {
        "correct",
        "attempted",
        "failed",
        "metrics",
    }


def test_traced_audit_run_emits_spans_for_every_layer():
    line, record = run.run("audit", 4, 0.0, True, TINY)
    for layer in spans.LAYERS:
        assert line["metrics"][f"{layer}.calls"]["value"] > 0, layer
    spans_file = run.ROOT / record["samples"]["spans_file"]
    with gzip.open(spans_file, "rt", encoding="utf-8") as fh:
        next(fh)
        layers = {row.split("\t", 1)[0].split(".")[0] for row in fh}
    assert layers == set(spans.LAYERS)


def test_training_passes_count_as_model_work():
    # train_model calls the model's kernels directly, not through forward
    line, _ = run.run("train", 6, 0.0, True, TINY)
    value = {name: m["value"] for name, m in line["metrics"].items()}
    passes = TINY.epochs * int(0.8 * TINY.graphs)
    assert value["model.forward_calls"] >= passes
    assert value["model.backward_calls"] >= passes
    assert value["model.self_frac"] > value["optim.self_frac"]


def test_corrupt_explanation_counts_as_failed_operation(tmp_path):
    w = workloads.AuditWorkload(seed=5, sizes=TINY, work=tmp_path)
    w.setup()
    victim = w.graphs[0]
    path = tmp_path / "explanations" / f"{victim.graph_id}.json"
    doc = json.loads(path.read_text())
    del doc["edge_scores"][0]["score"]  # malformed entry: edge without score
    path.write_text(json.dumps(doc))
    w.prepare()
    w.round(0)
    w.finish()
    assert any(
        f.startswith(f"load_explanation {victim.graph_id}: KeyError")
        for f in w.ledger.failures
    )
    assert any("round-trips" in f for f in w.ledger.failures)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
