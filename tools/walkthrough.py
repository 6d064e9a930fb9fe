"""Run the command-line walkthrough and a set of explain variants, writing
every output file under one directory, so that two trees compare with one
``diff -r``.

    python3 tools/walkthrough.py OUT [--root TREE]

``TREE`` (default: this checkout) is the tree whose ``src`` runs.  Each
command runs with one BLAS thread, from ``OUT``, with relative paths, so
its output names no absolute path; its standard output, standard error
and exit code go to ``OUT/log/``.  The runs:

* the README walkthrough: ``gen-dataset`` (seed 0), ``train --seed 15``,
  ``explain`` of the test split, ``eval`` at a 5-node budget (with
  ``--attr-top 2``, a CSV and a report), ``eval --sweep`` and
  ``export-dot``;
* the same ``explain`` at ``--jobs 2``, whose files must equal the
  ``--jobs 1`` files byte for byte, or the run fails;
* ``explain --ids`` on the first 10 test graphs under the settings of
  ``EXPLAIN_VARIANTS``, which between them take every set-up path of a
  mask step: unshared slots with no side pinned (entropy penalties on,
  ``--deterministic``, mean and min aggregators) and with one pinned
  (``edge_only``, ``attribute_only``); shared slots with no side pinned
  (``per_node_attr_shared``, ``global_attr_shared``) and with one pinned
  (``edge_only`` with ``undirected_pair_shared``);
* a set of 13-node graphs (``generate_motif_graphs(400, 1,
  base_size=8)``), ``train --epochs 50``, ``explain --oracle`` of its
  test split and ``eval`` at a 5-node budget.
"""

import argparse
import filecmp
import os
import subprocess
import sys
from pathlib import Path

ONE_THREAD = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}

EXPLAIN_VARIANTS = {
    "entropy": ["--lambda-edge-entropy", "1", "--lambda-attr-entropy", "0.1"],
    "deterministic": ["--deterministic"],
    "mean_min": ["--agg1", "mean", "--agg2", "mean", "--pair-agg", "min"],
    "edge_only": ["--mode", "edge_only"],
    "attribute_only": ["--mode", "attribute_only"],
    "node_attr": ["--sharing", "per_node_attr_shared"],
    "global_attr": ["--sharing", "global_attr_shared"],
    "edge_pairs": ["--mode", "edge_only", "--sharing", "undirected_pair_shared"],
}

SMALL_SET = """
import sys
from gxplain import generate_motif_graphs, save_dataset
save_dataset(generate_motif_graphs(400, 1, base_size=8), sys.argv[1])
"""

TEST_IDS = """
import sys
from gxplain import load_dataset
graphs = load_dataset(sys.argv[1]).split_graphs("test")[:10]
print(",".join(g.graph_id for g in graphs))
"""


class Runner:
    """Runs Python commands of one tree from ``out``, logging each."""

    def __init__(self, root: Path, out: Path):
        self.out = out
        self.env = dict(os.environ, **ONE_THREAD)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )
        self.log = out / "log"
        self.log.mkdir(parents=True)
        self.count = 0

    def python(self, name: str, *args: str) -> str:
        """Run ``python args``; fail on a non-zero exit; return stdout."""
        self.count += 1
        done = subprocess.run(
            [sys.executable, *args],
            cwd=self.out,
            env=self.env,
            capture_output=True,
            text=True,
        )
        text = (
            f"$ {' '.join(args)}\nexit {done.returncode}\n"
            f"--- stdout\n{done.stdout}--- stderr\n{done.stderr}"
        )
        (self.log / f"{self.count:02d}-{name}.txt").write_text(text)
        if done.returncode != 0:
            raise SystemExit(f"{name} failed:\n{text}")
        return done.stdout

    def gxplain(self, name: str, *args: str) -> str:
        return self.python(name, "-m", "gxplain", *args)


def _differing(a: Path, b: Path) -> list[str]:
    """Names of the files not in both directories byte for byte."""
    names = {p.name for p in a.iterdir()} | {p.name for p in b.iterdir()}
    _, mismatch, errors = filecmp.cmpfiles(a, b, sorted(names), shallow=False)
    return mismatch + errors


def run(root: Path, out: Path) -> None:
    r = Runner(root, out)
    data = ["--model", "model.json", "--dataset", "bench.json.gz"]
    r.gxplain("gen-dataset", "gen-dataset", "--n", "1000", "--seed", "0",
              "--out", "bench.json.gz")
    r.gxplain("train", "train", "--dataset", "bench.json.gz",
              "--out", "model.json", "--seed", "15")
    r.gxplain("explain", "explain", *data, "--out-dir", "explanations",
              "--split", "test", "--jobs", "1")
    r.gxplain("explain-jobs2", "explain", *data, "--out-dir",
              "explanations-jobs2", "--split", "test", "--jobs", "2")
    if differ := _differing(out / "explanations", out / "explanations-jobs2"):
        raise SystemExit(f"explain --jobs 2 differs from --jobs 1: {differ}")
    r.gxplain("eval", "eval", *data, "--explanations", "explanations",
              "--top-k", "5", "--attr-top", "2", "--csv", "verdicts.csv",
              "--report", "report.json")
    r.gxplain("sweep", "eval", *data, "--explanations", "explanations",
              "--top-k", "5", "--sweep", "--csv", "sweep.csv")
    r.gxplain("export-dot", "export-dot", "--explanations", "explanations",
              "--out-dir", "dot")

    ids = r.python("test-ids", "-c", TEST_IDS, "bench.json.gz").strip()
    for name, flags in EXPLAIN_VARIANTS.items():
        r.gxplain(f"explain-{name}", "explain", *data, "--ids", ids,
                  "--out-dir", f"variants/{name}", *flags)

    small = ["--model", "small-model.json", "--dataset", "small.json.gz"]
    r.python("small-set", "-c", SMALL_SET, "small.json.gz")
    r.gxplain("small-train", "train", "--dataset", "small.json.gz",
              "--out", "small-model.json", "--epochs", "50")
    r.gxplain("small-explain", "explain", *small, "--out-dir",
              "small-explanations", "--split", "test", "--oracle")
    r.gxplain("small-eval", "eval", *small, "--explanations",
              "small-explanations", "--top-k", "5", "--csv",
              "small-verdicts.csv", "--report", "small-report.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", type=Path, help="a directory not yet there")
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="the tree whose src runs (default: this checkout)",
    )
    args = parser.parse_args(argv)
    if args.out.exists():
        parser.error(f"{args.out} exists")
    run(args.root.resolve(), args.out.resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
