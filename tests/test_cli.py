"""End-to-end command pipeline: gen-dataset, train, explain, eval, export-dot."""

import ast
import collections
import contextlib
import copy
import csv
import dataclasses
import functools
import gzip
import inspect
import io
import json
import operator
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gxplain
from gxplain._schema import _shown
from gxplain.cli import (
    _build_parser,
    _config_from_args,
    _fmt,
    _train_options,
    main,
    render_dot,
)
from gxplain.datasets import generate_motif_graphs, save_dataset
from gxplain.explain import ExplainConfig, Explanation, load_explanation
from gxplain.training import train_model


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Small dataset trained and explained once; commands share the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "ds.json.gz"
    model = root / "model.json"
    out = root / "expl"
    assert main(["gen-dataset", "--n", "40", "--seed", "1", "--out", str(ds)]) == 0
    assert (
        main(
            [
                "train",
                "--dataset", str(ds),
                "--out", str(model),
                "--hidden", "8",
                "--layers", "2",
                "--epochs", "40",
                "--seed", "0",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "explain",
                "--model", str(model),
                "--dataset", str(ds),
                "--out-dir", str(out),
                "--split", "test",
                "--epochs", "30",
                "--jobs", "1",
            ]
        )
        == 0
    )
    return root, ds, model, out


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["gen-dataset", "--n", "3", "--out", "x.json"]],
    ids=["help", "refused"],
)
def test_python_m_gxplain_runs_the_cli(tmp_path, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(gxplain.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-m", "gxplain", *argv],
        capture_output=True, text=True, env=env, timeout=120, cwd=tmp_path,
    )
    if argv == ["--help"]:
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: gxplain ")
    else:
        # the exit code and the one line the shell gets, not main's value
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ")
        assert done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr
        assert list(tmp_path.iterdir()) == []


def test_main_alone_prints_errors_and_picks_exit_codes():
    # a command refuses by raising; main maps the exception to its line
    # and exit code
    tree = ast.parse((Path(gxplain.__file__).parent / "cli.py").read_text())
    faults = sorted(
        f"{f.name}:{node.lineno}"
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef) and f.name != "main"
        for node in ast.walk(f)
        if (isinstance(node, ast.Attribute) and node.attr == "stderr")
        or (
            isinstance(node, ast.Name)
            and node.id in ("EXIT_USAGE", "EXIT_COMPUTE")
        )
        or (
            f.name.startswith("cmd_")
            and isinstance(node, ast.Return)
            and node.value is not None
        )
    )
    assert faults == []


def test_gen_dataset_refuses_overwrite_without_force(tmp_path, capsys):
    target = tmp_path / "ds.json.gz"
    assert main(["gen-dataset", "--n", "4", "--out", str(target)]) == 0
    assert main(["gen-dataset", "--n", "4", "--out", str(target)]) == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert main(["gen-dataset", "--n", "4", "--out", str(target), "--force"]) == 0


def test_train_reports_three_way_accuracy(pipeline, capsys):
    root, ds, model, _ = pipeline
    other = root / "model2.json"
    code = main(
        ["train", "--dataset", str(ds), "--out", str(other), "--hidden", "4",
         "--layers", "1", "--epochs", "5"]
    )
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("accuracy train=")
    assert " val=" in line and " test=" in line


def test_explain_writes_one_file_per_graph(pipeline):
    _, ds, _, out = pipeline
    files = sorted(os.listdir(out))
    assert len(files) == 4  # 10 percent of 40
    expl, meta = load_explanation(out / files[0])
    assert expl.node_count == 25
    assert meta["epochs"] == 30


def test_explain_reports_count(pipeline, capsys):
    root, ds, model, _ = pipeline
    solo = root / "solo"
    code = main(
        ["explain", "--model", str(model), "--dataset", str(ds),
         "--out-dir", str(solo), "--ids", "ba2motifs-0036", "--epochs", "5",
         "--jobs", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"explained graphs=1 out_dir={solo}" in out


def test_eval_requires_exactly_one_budget(pipeline):
    _, ds, model, out = pipeline
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--model", str(model), "--dataset", str(ds),
              "--explanations", str(out)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--model", str(model), "--dataset", str(ds),
              "--explanations", str(out), "--top-k", "3", "--top-r", "0.2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "folder", [".", "new/deep"], ids=["existing", "missing parents"]
)
def test_eval_prints_metric_line_and_writes_artifacts(
    pipeline, capsys, tmp_path, folder
):
    _, ds, model, out = pipeline
    csv_path = tmp_path / folder / "rows.csv"
    report_path = tmp_path / folder / "report.json"
    code = main(
        ["eval", "--model", str(model), "--dataset", str(ds),
         "--explanations", str(out), "--top-k", "5", "--attr-top", "3",
         "--csv", str(csv_path), "--report", str(report_path)]
    )
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("ep_explained=")
    for key in ("ep_remaining=", "sparsity=", "eligible=", "ep_attribute="):
        assert key in line
    assert csv_path.exists()
    doc = json.loads(report_path.read_text())
    assert "ep_explained" in doc
    assert doc["evaluated_count"] == 4


def test_eval_onto_a_directory_names_it_in_the_same_line_each_run(
    pipeline, capsys, tmp_path
):
    _, ds, model, out = pipeline
    target = tmp_path / "adir.csv"
    target.mkdir()
    argv = ["eval", "--model", str(model), "--dataset", str(ds),
            "--explanations", str(out), "--top-k", "3", "--csv", str(target)]
    first = _assert_one_line_usage_error(main(argv), capsys)
    assert _assert_one_line_usage_error(main(argv), capsys) == first
    assert first.endswith(f"--csv {target} is a directory\n")
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("flag", ["--csv", "--report"])
def test_eval_that_cannot_write_prints_no_metric_line(
    pipeline, capsys, tmp_path, flag
):
    # the name passes the check before the scan and fails at write time
    _, ds, model, out = pipeline
    target = tmp_path / ("n" * 300)
    code = main(["eval", "--model", str(model), "--dataset", str(ds),
                 "--explanations", str(out), "--top-k", "3",
                 flag, str(target)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.err.endswith(f": {str(target)!r}\n")


@pytest.mark.parametrize("where", ["a directory", "below a file"])
@pytest.mark.parametrize("command", ["train", "gen-dataset"])
def test_an_out_that_is_a_directory_is_refused_before_any_work(
    pipeline, capsys, tmp_path, monkeypatch, command, where
):
    _, ds, _, _ = pipeline
    for name in ("load_dataset", "train_model", "generate_ba2motifs"):
        # wrapped, so the parser still reads the library's defaults
        @functools.wraps(getattr(gxplain.cli, name))
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(f"gxplain.cli.{name}", refuse)
    if where == "a directory":
        target = tmp_path / "adir"
        target.mkdir()
        message = f"--out {target} is a directory"
    else:
        (tmp_path / "afile").touch()
        target = tmp_path / "afile" / "sub" / "out.json"
        message = f"--out {target}: {tmp_path / 'afile'} is not a directory"
    before = sorted(tmp_path.rglob("*"))
    argv = {
        "train": ["train", "--dataset", str(ds), "--out", str(target)],
        "gen-dataset": ["gen-dataset", "--n", "4", "--force",
                        "--out", str(target)],
    }[command]
    err = _assert_one_line_usage_error(main(argv), capsys)
    assert message in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "--csv", "afile/x.csv"],
         "--csv afile/x.csv: afile is not a directory"),
        (["eval", "--report", "adir"], "--report adir is a directory"),
        (["explain", "--out-dir", "afile"],
         "--out-dir afile is not a directory"),
        (["export-dot", "--out-dir", "afile"],
         "--out-dir afile is not a directory"),
    ],
    ids=["eval csv", "eval report", "explain", "export-dot"],
)
def test_an_output_path_is_refused_before_any_input_is_read(
    pipeline, capsys, tmp_path, monkeypatch, argv, message
):
    # every input is missing, so the output fault is named first
    _, ds, _, _ = pipeline
    monkeypatch.chdir(tmp_path)
    Path("afile").touch()
    Path("adir").mkdir()
    inputs = {
        "eval": ["--model", "no-model.json", "--dataset", str(ds),
                 "--explanations", "no-explanations", "--top-k", "3"],
        "explain": ["--model", "no-model.json", "--dataset", str(ds)],
        "export-dot": ["--explanations", "no-explanations"],
    }[argv[0]]
    before = sorted(tmp_path.rglob("*"))
    err = _assert_one_line_usage_error(main([*argv, *inputs]), capsys)
    assert err == f"error: {message}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_eval_sweep_csv_has_every_budget_in_order(pipeline, tmp_path):
    _, ds, model, out = pipeline
    common = ["eval", "--model", str(model), "--dataset", str(ds),
              "--explanations", str(out), "--top-k", "5"]
    sweep_path = tmp_path / "sweep.csv"
    report_path = tmp_path / "report.json"
    assert main(common + ["--sweep", "--csv", str(sweep_path)]) == 0
    assert main(common + ["--report", str(report_path)]) == 0
    with open(sweep_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 4 test graphs of 25 nodes each, budgets 1..25
    assert len(rows) == 4 * 25
    budgets = [int(r["budget"]) for r in rows]
    assert budgets == [b for b in range(1, 26) for _ in range(4)]
    min_k = {
        r["graph_id"]: "" if r["min_k"] is None else str(r["min_k"])
        for r in json.loads(report_path.read_text())["per_graph"]
    }
    assert len(min_k) == 4
    for r in rows:
        assert r["min_k"] == min_k[r["graph_id"]]


EVAL_FLAGS = [
    pytest.param(["--top-k", "5"], id="k 5"),
    # above every graph: no graph is scored
    pytest.param(["--top-k", "30"], id="k 30"),
    pytest.param(["--top-r", "0.3"], id="rate 0.3"),
    pytest.param(["--top-k", "3", "--attr-top", "2"], id="k 3 attr 2"),
]


@pytest.mark.parametrize("flags", EVAL_FLAGS)
@pytest.mark.parametrize("swept", [False, True], ids=["budget", "sweep"])
def test_eval_checks_twice_and_stacks_and_scans_once(
    pipeline, monkeypatch, tmp_path, flags, swept
):
    _, ds, model, out = pipeline
    calls = collections.Counter()

    def count(owner, name):
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(gxplain.cli, "_evaluation")
    for name in ("evaluate", "sweep", "_explained", "_stack_by_size", "_scan"):
        count(gxplain.metrics, name)
    count(Explanation, "check_graph")
    count(Explanation, "check_model")
    argv = ["eval", "--model", str(model), "--dataset", str(ds),
            "--explanations", str(out), *flags,
            "--csv", str(tmp_path / "rows.csv")]
    assert main(argv + ["--sweep"] * swept) == 0
    # 4 test graphs: the cli's check and the pass's
    assert calls == {
        "_evaluation": 1, "_explained": 1, "_stack_by_size": 1, "_scan": 1,
        "check_graph": 8, "check_model": 8,
    }


@pytest.mark.parametrize("flags", EVAL_FLAGS)
def test_eval_gives_the_outputs_of_separate_evaluate_and_sweep_calls(
    pipeline, capsys, tmp_path, flags
):
    _, ds, model_path, out = pipeline
    argv = ["eval", "--model", str(model_path), "--dataset", str(ds),
            "--explanations", str(out), *flags,
            "--report", str(tmp_path / "report.json")]
    for swept in (False, True):
        csv_path = tmp_path / f"rows{swept:d}.csv"
        assert main(argv + ["--csv", str(csv_path)] + ["--sweep"] * swept) == 0
    stdout = capsys.readouterr().out
    args = _build_parser().parse_args(argv)
    model = gxplain.load_model(model_path)
    graphs = gxplain.load_dataset(ds).split_graphs("test")
    expls = {
        g.graph_id: load_explanation(out / f"{g.graph_id}.json")[0]
        for g in graphs
    }
    budget = dict(k=args.top_k, rate=args.top_r, attr_top=args.attr_top)
    report = gxplain.evaluate(model, graphs, expls, **budget)
    rows = gxplain.metrics.sweep(model, graphs, expls)
    gxplain.metrics.save_report(report, tmp_path / "want.json")
    gxplain.metrics.write_eval_csv(tmp_path / "want0.csv", report.per_graph)
    gxplain.metrics.write_eval_csv(tmp_path / "want1.csv", rows)
    for got, want in (("report.json", "want.json"), ("rows0.csv", "want0.csv"),
                      ("rows1.csv", "want1.csv")):
        assert (tmp_path / got).read_bytes() == (tmp_path / want).read_bytes()
    line = (
        f"ep_explained={_fmt(report.ep_explained)}"
        f" ep_remaining={_fmt(report.ep_remaining)}"
        f" sparsity={_fmt(report.sparsity)}"
        f" eligible={report.eligible_count}"
    )
    if args.attr_top is not None:
        line += f" ep_attribute={_fmt(report.ep_attribute)}"
    assert stdout == f"{line}\n" * 2
    if args.top_k == 30:
        assert report.evaluated_count == 0 and report.ep_explained is None


def test_eval_sweep_without_csv_is_usage_error(pipeline, capsys):
    _, ds, model, out = pipeline
    code = main(["eval", "--model", str(model), "--dataset", str(ds),
                 "--explanations", str(out), "--top-k", "5", "--sweep"])
    err = _assert_one_line_usage_error(code, capsys)
    assert "--csv" in err


def test_eval_is_deterministic_across_runs(pipeline, capsys):
    _, ds, model, out = pipeline
    args = ["eval", "--model", str(model), "--dataset", str(ds),
            "--explanations", str(out), "--top-k", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_eval_fails_cleanly_on_missing_explanations(pipeline, capsys, tmp_path):
    _, ds, model, _ = pipeline
    empty = tmp_path / "none"
    empty.mkdir()
    code = main(["eval", "--model", str(model), "--dataset", str(ds),
                 "--explanations", str(empty), "--top-k", "3"])
    assert code == 3
    assert "missing explanations" in capsys.readouterr().err


def test_missing_input_file_is_usage_error(tmp_path, capsys):
    code = main(["train", "--dataset", str(tmp_path / "nope.json.gz"),
                 "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_export_dot_renders_every_explanation(pipeline, tmp_path):
    _, _, _, out = pipeline
    dots = tmp_path / "dots"
    assert main(["export-dot", "--explanations", str(out),
                 "--out-dir", str(dots)]) == 0
    files = sorted(os.listdir(dots))
    assert len(files) == 4
    text = (dots / files[0]).read_text()
    assert text.startswith("digraph") or text.startswith("graph")
    assert "label=" in text


def test_render_dot_marks_top_nodes(pipeline):
    _, _, _, out = pipeline
    files = sorted(os.listdir(out))
    expl, _ = load_explanation(out / files[0])
    text = render_dot(expl, attr_top=2)
    # every node appears, scores draw the pen
    for v in range(expl.node_count):
        assert f'"{v}"' in text
    assert "penwidth" in text


def test_explain_deterministic_output_bytes(pipeline):
    root, ds, model, _ = pipeline
    a_dir, b_dir = root / "det_a", root / "det_b"
    for d in (a_dir, b_dir):
        assert main(
            ["explain", "--model", str(model), "--dataset", str(ds),
             "--out-dir", str(d), "--ids", "ba2motifs-0037", "--epochs", "10",
             "--jobs", "1"]
        ) == 0
    a = (a_dir / "ba2motifs-0037.json").read_bytes()
    b = (b_dir / "ba2motifs-0037.json").read_bytes()
    assert a == b


def test_explain_jobs_2_writes_the_bytes_of_jobs_1(pipeline):
    root, ds, model, out = pipeline
    pooled = root / "pooled"
    assert main(
        ["explain", "--model", str(model), "--dataset", str(ds),
         "--out-dir", str(pooled), "--split", "test", "--epochs", "30",
         "--jobs", "2"]
    ) == 0
    names = sorted(os.listdir(out))
    assert len(names) == 4
    assert sorted(os.listdir(pooled)) == names
    for name in names:
        assert (pooled / name).read_bytes() == (out / name).read_bytes()


def test_explain_pool_has_no_more_workers_than_graphs(
    pipeline, monkeypatch, tmp_path
):
    sizes = []

    class InlinePool:
        # stands in for ProcessPoolExecutor: records its size, maps inline
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    _, ds, model, out = pipeline
    monkeypatch.setattr("gxplain.cli.ProcessPoolExecutor", InlinePool)
    pooled = tmp_path / "pooled"
    assert main(
        ["explain", "--model", str(model), "--dataset", str(ds),
         "--out-dir", str(pooled), "--split", "test", "--epochs", "30",
         "--jobs", "5000"]
    ) == 0
    assert sizes == [4]  # the 4 test graphs
    for name in sorted(os.listdir(out)):
        assert (pooled / name).read_bytes() == (out / name).read_bytes()


def test_explain_oracle_writes_a_best_subset_per_graph(tmp_path):
    dataset = generate_motif_graphs(20, 0, base_size=8)
    tested = dataset.split_graphs("test")
    # small enough for the exhaustive oracle
    assert [g.node_count for g in tested] == [13, 13]
    ids = [g.graph_id for g in tested]
    ds, model = tmp_path / "ds13.json", tmp_path / "model.json"
    save_dataset(dataset, ds)
    assert main(["train", "--dataset", str(ds), "--out", str(model),
                 "--epochs", "5"]) == 0
    out = tmp_path / "expl"
    assert main(["explain", "--model", str(model), "--dataset", str(ds),
                 "--out-dir", str(out), "--epochs", "5", "--oracle"]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        name for i in ids for name in (f"{i}.json", f"{i}.oracle.json")
    )
    for i in ids:
        doc = json.loads((out / f"{i}.oracle.json").read_text())
        assert len(doc["best_subset"]) == 5
    dots = tmp_path / "dots"
    assert main(["export-dot", "--explanations", str(out),
                 "--out-dir", str(dots)]) == 0
    assert sorted(p.name for p in dots.iterdir()) == [f"{i}.dot" for i in ids]


def _assert_one_line_error(code, capsys, exit_code):
    err = capsys.readouterr().err
    assert code == exit_code
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    return err


def _assert_one_line_usage_error(code, capsys):
    return _assert_one_line_error(code, capsys, 2)


@pytest.mark.parametrize(
    "case",
    [
        "gen-dataset onto a file",
        "export-dot from a file",
        "export-dot from an empty directory",
        "eval from no directory",
        "eval of too-wide attribute scores",
    ],
)
def test_refused_paths_are_one_line_usage_errors(
    pipeline, capsys, tmp_path, case
):
    _, ds, model, out = pipeline
    taken, empty = tmp_path / "taken", tmp_path / "empty"
    taken.write_bytes(b"")
    empty.mkdir()
    # the first explanation's attribute rows are two columns too wide
    wide = tmp_path / "wide"
    wide.mkdir()
    for path in out.glob("*.json"):
        (wide / path.name).write_bytes(path.read_bytes())
    victim = sorted(wide.glob("*.json"))[0]
    doc = json.loads(victim.read_text())
    doc["attr_scores"] = [row + [0.0, 0.0] for row in doc["attr_scores"]]
    victim.write_text(json.dumps(doc))
    argv, message = {
        "gen-dataset onto a file": (
            ["gen-dataset", "--n", "4", "--out", str(taken)],
            "refusing to overwrite",
        ),
        "export-dot from a file": (
            ["export-dot", "--explanations", str(taken),
             "--out-dir", str(tmp_path / "dots")],
            "not a directory",
        ),
        "export-dot from an empty directory": (
            ["export-dot", "--explanations", str(empty),
             "--out-dir", str(tmp_path / "dots")],
            "no explanation files",
        ),
        "eval from no directory": (
            ["eval", "--model", str(tmp_path / "no-model.json"),
             "--dataset", str(ds), "--explanations", str(tmp_path / "nope"),
             "--top-k", "3"],
            "not a directory",
        ),
        "eval of too-wide attribute scores": (
            ["eval", "--model", str(model), "--dataset", str(ds),
             "--explanations", str(wide), "--top-k", "5", "--attr-top", "3"],
            "12 attributes",
        ),
    }[case]
    err = _assert_one_line_usage_error(main(argv), capsys)
    assert message in err
    assert taken.read_bytes() == b""


def test_explain_flags_default_to_the_library_config():
    args = _build_parser().parse_args(
        ["explain", "--model", "m.json", "--dataset", "d.json",
         "--out-dir", "expl"]
    )
    assert _config_from_args(args) == ExplainConfig()


def test_train_and_export_dot_flags_default_to_the_library():
    parser = _build_parser()
    options = _train_options(
        parser.parse_args(["train", "--dataset", "d.json", "--out", "m"])
    )
    fit = inspect.signature(train_model).parameters
    assert options == {name: fit[name].default for name in options}
    dot = parser.parse_args(
        ["export-dot", "--explanations", "expl", "--out-dir", "dot"]
    )
    render = inspect.signature(render_dot).parameters
    assert dot.attr_top == render["attr_top"].default


@pytest.mark.parametrize(
    "arg",
    [
        ("--epochs", "-1"),
        ("--beta", "0"),
        ("--lr", "0"),
        ("--lambda-edge-size", "-0.5"),
        ("--lambda-edge-size", "inf", "--mode", "attribute_only"),
        ("--beta", "inf"),
        ("--lambda-attr-entropy", "nan"),
        ("--lr", "inf"),
        ("--jobs", "0"),
        ("--jobs", "-3"),
        ("--seed", "-1"),
        ("--seed", str(2**64)),
    ],
)
def test_explain_rejects_out_of_range_arguments(pipeline, capsys, tmp_path, arg):
    _, ds, model, _ = pipeline
    out = tmp_path / "expl"
    code = main(["explain", "--model", str(model), "--dataset", str(ds),
                 "--out-dir", str(out), "--jobs", "1", *arg])
    _assert_one_line_usage_error(code, capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "ids, message",
    [
        ("", "names no graph"),
        (",", "names no graph"),
        (" , ", "names no graph"),
        ("ba2motifs-0036,ba2motifs-0036", "twice: 'ba2motifs-0036'"),
        ("ba2motifs-0037, ba2motifs-0036,ba2motifs-0037",
         "twice: 'ba2motifs-0037'"),
    ],
)
def test_explain_ids_naming_no_graph_or_one_twice_exit_2(
    pipeline, capsys, tmp_path, ids, message
):
    _, ds, model, _ = pipeline
    out = tmp_path / "expl"
    code = main(["explain", "--model", str(model), "--dataset", str(ds),
                 "--out-dir", str(out), "--jobs", "1", "--ids", ids])
    assert message in _assert_one_line_usage_error(code, capsys)
    assert not out.exists()


def test_many_ids_with_repeats_name_the_first_three_repeated_once(
    pipeline, capsys, tmp_path
):
    # 20 000 ids, four of them given again (one of those three times):
    # the repeats are found by one count, sorted and named once each
    _, ds, model, _ = pipeline
    ids = [f"g{i}" for i in range(20_000)]
    ids += ["g7", "g19999", "g3", "g7", "g12345"]
    out = tmp_path / "expl"
    code = main(["explain", "--model", str(model), "--dataset", str(ds),
                 "--out-dir", str(out), "--ids", ",".join(ids)])
    err = _assert_one_line_usage_error(code, capsys)
    assert err == (
        "error: --ids names graphs twice: 'g12345', 'g19999', 'g3' and 1"
        " more\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-dataset", "--out", "d.json"],
        ["train", "--dataset", "d.json", "--out", "m.json"],
        ["explain", "--model", "m.json", "--dataset", "d.json",
         "--out-dir", "expl"],
        ["eval", "--model", "m.json", "--dataset", "d.json",
         "--explanations", "expl", "--top-k", "3"],
        ["export-dot", "--explanations", "expl", "--out-dir", "dot"],
    ],
    ids=operator.itemgetter(0),
)
def test_out_of_memory_is_one_error_line_and_exit_3(monkeypatch, capsys, argv):
    def out_of_memory(args):
        raise MemoryError()

    name = "cmd_" + argv[0].replace("-", "_")
    monkeypatch.setattr(f"gxplain.cli.{name}", out_of_memory)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == "error: out of memory\n"


def test_out_of_memory_in_training_names_the_allocation(
    pipeline, monkeypatch, capsys, tmp_path
):
    # numpy's MemoryError names the array it could not allocate
    message = (
        "Unable to allocate 1.82 TiB for an array with shape"
        " (100000, 100000, 25) and data type float64"
    )

    # wrapped, so the parser still reads the library's defaults from it
    @functools.wraps(train_model)
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("gxplain.cli.train_model", exhausted)
    _, ds, _, _ = pipeline
    out = tmp_path / "m.json"
    assert main(["train", "--dataset", str(ds), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, arg",
    [
        ("train", ("--hidden", "0")),
        ("train", ("--lr", "-1")),
        ("train", ("--epochs", "-3")),
        ("train", ("--layers", "-1")),
        ("train", ("--lr", "nan")),
        ("export-dot", ("--attr-top", "-1")),
        ("train", ("--seed", "-1")),
        ("gen-dataset", ("--seed", "-1")),
        # past the size limit, refused before numpy or a list sees them
        ("gen-dataset", ("--n", str(10**20))),
        ("gen-dataset", ("--n", str(4 * 10**18))),
        ("train", ("--hidden", str(10**20))),
        ("train", ("--layers", str(10**20))),
    ],
)
def test_train_and_export_dot_reject_out_of_range_arguments(
    pipeline, capsys, tmp_path, command, arg
):
    _, ds, _, expl = pipeline
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--dataset", str(ds), "--out", str(out / "m.json"),
                "--epochs", "2"]
    elif command == "gen-dataset":
        argv = ["gen-dataset", "--n", "4", "--out", str(out / "d.json")]
    else:
        argv = ["export-dot", "--explanations", str(expl), "--out-dir", str(out)]
    code = main([*argv, *arg])
    _assert_one_line_usage_error(code, capsys)
    assert not out.exists()


@pytest.mark.parametrize("kind", ["model", "dataset", "explanation"])
def test_undecodable_input_file_is_usage_error(pipeline, capsys, tmp_path, kind):
    _, ds, model, out = pipeline
    inputs = {"model": model, "dataset": ds, "explanation": tmp_path / "expl"}
    inputs["explanation"].mkdir()
    for path in out.glob("*.json"):
        (inputs["explanation"] / path.name).write_bytes(path.read_bytes())
    if kind == "explanation":
        victim = sorted(inputs["explanation"].glob("*.json"))[0]
    else:
        victim = inputs[kind] = tmp_path / f"{kind}.json"
    victim.write_bytes(b"\xff\xfe{")
    code = main(["eval", "--model", str(inputs["model"]),
                 "--dataset", str(inputs["dataset"]),
                 "--explanations", str(inputs["explanation"]), "--top-k", "3"])
    err = _assert_one_line_usage_error(code, capsys)
    assert "UTF-8" in err


def test_integer_past_the_json_digit_limit_is_usage_error(tmp_path, capsys):
    # json.loads refuses integers of more than 4300 digits with ValueError
    path = tmp_path / "model.json"
    path.write_text('{"format_version": ' + "1" * 5000 + "}")
    code = main(["eval", "--model", str(path), "--dataset", str(path),
                 "--explanations", str(tmp_path), "--top-k", "3"])
    _assert_one_line_usage_error(code, capsys)


def test_a_large_refused_value_leaves_a_short_error_line(tmp_path, capsys):
    # a 2000-entry object where the graph list belongs
    path = tmp_path / "ds.json"
    assert main(["gen-dataset", "--n", "4", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["graphs"] = {str(i): e for i, e in enumerate(doc["graphs"] * 500)}
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["train", "--dataset", str(path), "--out",
                 str(tmp_path / "m.json"), "--epochs", "1"])
    err = _assert_one_line_usage_error(code, capsys)
    assert f"{path}: graphs: expected a list, got {{'0': {{" in err
    assert len(err) <= len(f"error: {path}: graphs: expected a list, got ") + 61


@pytest.mark.parametrize(
    "case",
    ["split name", "split list", "graph id", "unlabeled graph",
     "file name", "unknown --ids", "repeated --ids", "missing explanations"],
)
def test_a_long_split_name_or_graph_id_leaves_a_short_error_line(
    tmp_path, capsys, case
):
    # a split that lists a graph twice or is no list, two graphs of one
    # id, a training graph without a label, an id too long for a file
    # name, --ids naming an unknown id or one twice, or graphs without
    # explanations: the error names the 100 000-character split or id,
    # or the first three 200-character ids, cut short
    path = tmp_path / "ds.json"
    model = tmp_path / "m.json"
    assert main(["gen-dataset", "--n", "4", "--out", str(path)]) == 0
    train = ["train", "--dataset", str(path), "--out", str(model),
             "--epochs", "1"]
    explain = ["explain", "--model", str(model), "--dataset", str(path),
               "--out-dir", str(tmp_path / "expl"), "--split", "all"]
    if case in ("split name", "split list", "graph id", "unlabeled graph"):
        argv = train
    else:
        assert main(train) == 0
    doc = json.loads(path.read_text())
    long = "s" * 100_000
    if case == "split name":
        doc["splits"] = {long: [0, 0]}
    elif case == "split list":
        doc["splits"] = {long: 3}
    elif case == "graph id":
        doc["graphs"][0]["id"] = doc["graphs"][1]["id"] = long
    elif case == "unlabeled graph":
        doc["graphs"][0].update(id=long, y=None)
    elif case == "file name":
        doc["graphs"][0]["id"] = long
        argv = explain
    elif case == "unknown --ids":
        argv = explain + ["--ids", long]
    elif case == "repeated --ids":
        argv = explain + ["--ids", f"{long},{long}"]
    else:
        # each id fits a file name; together they would not fit the line
        for i, graph in enumerate(doc["graphs"]):
            graph["id"] = "s" * 200 + str(i)
        (tmp_path / "none").mkdir()
        argv = ["eval", "--model", str(model), "--dataset", str(path),
                "--explanations", str(tmp_path / "none"), "--split", "all",
                "--top-k", "1"]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    # a readable file that cannot be trained on or evaluated is not a
    # usage error
    computing = ("unlabeled graph", "missing explanations")
    assert code == (3 if case in computing else 2)
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 400
    assert f"'{'s' * 56}..." in err
    if case == "missing explanations":
        assert err.endswith(" and 1 more\n")


@pytest.mark.parametrize("malformed_first", [True, False])
def test_eval_names_a_malformed_explanation_before_a_missing_one(
    pipeline, capsys, tmp_path, malformed_first
):
    # the first graph's explanation is malformed and the last one's is
    # missing, or the other way round: usage error, not exit 3
    _, ds, model, out = pipeline
    expl = tmp_path / "expl"
    expl.mkdir()
    for path in out.glob("*.json"):
        (expl / path.name).write_bytes(path.read_bytes())
    first, *_, last = sorted(expl.glob("*.json"))
    bad, gone = (first, last) if malformed_first else (last, first)
    bad.write_text(bad.read_text()[:-20])
    gone.unlink()
    code = main(["eval", "--model", str(model), "--dataset", str(ds),
                 "--explanations", str(expl), "--top-k", "3"])
    err = _assert_one_line_usage_error(code, capsys)
    assert str(bad) in err and "missing" not in err


@pytest.mark.parametrize("command", ["train", "eval", "export-dot"])
def test_deeply_nested_json_is_usage_error(
    pipeline, capsys, tmp_path, command
):
    # json.loads recurses once per level and runs out of stack: as the
    # dataset, the model or an explanation
    _, ds, _, out = pipeline
    deep = tmp_path / "deep"
    deep.mkdir()
    nested = deep / "nested.json"
    nested.write_text("[" * 200_000 + "]" * 200_000)
    argv = {
        "train": ["train", "--dataset", str(nested),
                  "--out", str(tmp_path / "m.json")],
        "eval": ["eval", "--model", str(nested), "--dataset", str(ds),
                 "--explanations", str(out), "--top-k", "3"],
        "export-dot": ["export-dot", "--explanations", str(deep),
                       "--out-dir", str(tmp_path / "dots")],
    }[command]
    err = _assert_one_line_usage_error(main(argv), capsys)
    assert f"{nested}: JSON nested too deeply" in err


EDGE_ENTRY_FAULTS = {
    "missing score": lambda e: e.pop("score"),
    "nan score": lambda e: e.update(score=float("nan")),
    "score beyond float range": lambda e: e.update(score=10**400),
    "missing src": lambda e: e.pop("src"),
    "missing dst": lambda e: e.pop("dst"),
    "text score": lambda e: e.update(score="high"),
    "text src": lambda e: e.update(src="a"),
    "null dst": lambda e: e.update(dst=None),
}


@pytest.mark.parametrize("fault", sorted(EDGE_ENTRY_FAULTS))
def test_eval_rejects_malformed_edge_scores(pipeline, capsys, tmp_path, fault):
    _, ds, model, out = pipeline
    bad = tmp_path / "expl"
    bad.mkdir()
    for path in out.glob("*.json"):
        (bad / path.name).write_bytes(path.read_bytes())
    victim = sorted(bad.glob("*.json"))[0]
    doc = json.loads(victim.read_text())
    EDGE_ENTRY_FAULTS[fault](doc["edge_scores"][0])
    victim.write_text(json.dumps(doc))
    code = main(["eval", "--model", str(model), "--dataset", str(ds),
                 "--explanations", str(bad), "--top-k", "3"])
    err = _assert_one_line_usage_error(code, capsys)
    assert "edge_scores[0]" in err


@pytest.mark.parametrize("end", ["src", "dst"])
def test_export_dot_refuses_an_arc_end_outside_the_graph(
    pipeline, capsys, tmp_path, end
):
    _, _, _, out = pipeline
    bad = tmp_path / "expl"
    bad.mkdir()
    for path in out.glob("*.json"):
        (bad / path.name).write_bytes(path.read_bytes())
    victim = sorted(bad.glob("*.json"))[0]
    doc = json.loads(victim.read_text())
    n = len(doc["node_scores"])
    doc["edge_scores"][0][end] = -1 if end == "src" else n
    victim.write_text(json.dumps(doc))
    dots = tmp_path / "dots"
    code = main(["export-dot", "--explanations", str(bad),
                 "--out-dir", str(dots)])
    err = _assert_one_line_usage_error(code, capsys)
    assert str(victim) in err and "edge_scores[0]" in err
    assert not list(dots.glob("*.dot"))


def test_eval_refuses_a_class_the_model_does_not_have(
    pipeline, capsys, tmp_path
):
    _, ds, model, out = pipeline
    bad = tmp_path / "expl"
    bad.mkdir()
    for path in out.glob("*.json"):
        (bad / path.name).write_bytes(path.read_bytes())
    victim = sorted(bad.glob("*.json"))[0]
    doc = json.loads(victim.read_text())
    doc["predicted_class"] = 7
    victim.write_text(json.dumps(doc))
    code = main(["eval", "--model", str(model), "--dataset", str(ds),
                 "--explanations", str(bad), "--top-k", "3"])
    err = _assert_one_line_usage_error(code, capsys)
    assert str(victim) in err and "names class 7, outside" in err


DATASET_FAULTS = {
    "text n": lambda d: d["graphs"][0].update(n="abc"),
    "text y": lambda d: d["graphs"][1].update(y="house"),
    "float attr_dim": lambda d: d.update(attr_dim=10.5),
    "text num_classes": lambda d: d.update(num_classes="two"),
    "text split index": lambda d: d["splits"]["train"].append("x"),
    "short x": lambda d: d["graphs"][2]["x"].pop(),
    "ragged x": lambda d: d["graphs"][2]["x"][0].pop(),
    "text edge end": lambda d: d["graphs"][3]["edges"][0].__setitem__(1, "b"),
    "narrow x": lambda d: [row.pop() for row in d["graphs"][2]["x"]],
    "edge end outside graph": lambda d: d["graphs"][3]["edges"][0].__setitem__(1, 99),
    "nan x": lambda d: d["graphs"][2]["x"][0].__setitem__(0, float("nan")),
    "repeated id": lambda d: d["graphs"][3].update(id=d["graphs"][2]["id"]),
    "negative attr_dim": lambda d: (
        d.update(attr_dim=-1), d["graphs"][0].update(n=0, edges=[], x=[])
    ),
    # faults a scan across all graphs could read past
    "boolean edge end": lambda d: d["graphs"][1]["edges"].__setitem__(0, [True, 2]),
    "float edge end": lambda d: d["graphs"][1]["edges"].__setitem__(0, [1.0, 2]),
    "three-end edge": lambda d: d["graphs"][1]["edges"].__setitem__(0, [0, 1, 2]),
    "edges not a list": lambda d: d["graphs"][1].update(edges={}),
    "edge end outside the last graph": (
        lambda d: d["graphs"][-1]["edges"][-1].__setitem__(0, -1)
    ),
    "boolean x in a smaller graph": lambda d: d["graphs"][1].update(
        n=3,
        edges=[[0, 1], [1, 2]],
        x=[[0.1] * d["attr_dim"]] * 2 + [[0.1] * (d["attr_dim"] - 1) + [True]],
    ),
    "index twice in one split": lambda d: d["splits"]["train"].append(0),
    "index in two splits": lambda d: d["splits"]["test"].append(1),
    "splits not an object": lambda d: d.update(splits=[[0, 1], [2], [3]]),
    "format_version 2": lambda d: d.update(format_version=2),
    "huge attr_dim": lambda d: (
        d.update(attr_dim=10**30),
        [g.update(n=0, edges=[], x=[]) for g in d["graphs"]],
    ),
    "huge num_classes": lambda d: d.update(num_classes=10**30),
}
# where the message must point, for faults that name one exact location
DATASET_FAULT_WHERE = {
    "narrow x": "graphs[2]: x",
    "edge end outside graph": "graphs[3]: edges[0]",
    "nan x": "graphs[2]: x",
    "repeated id": "graphs[3] repeats",
    "negative attr_dim": "attr_dim is negative",
    "boolean edge end": "graphs[1]: edges[0]: expected an integer, got True",
    "float edge end": "graphs[1]: edges[0]: expected an integer, got 1.0",
    "three-end edge": "graphs[1]: edges[0]: expected a [src, dst] pair",
    "edges not a list": "graphs[1]: edges: expected a list",
    "edge end outside the last graph": "graphs[3]: edges[24]: (-1,",
    "boolean x in a smaller graph": "graphs[1]: x: expected numbers, got a boolean",
    "index twice in one split": ": graph 0 appears twice in split 'train'\n",
    "index in two splits": ": graph 1 appears in splits 'train' and 'test'\n",
    "splits not an object": ": splits must be an object\n",
    "format_version 2": ": format_version 2, expected 1\n",
    "huge attr_dim": f": attr_dim is above {2**31 - 1}\n",
    "huge num_classes": f": num_classes is above {2**31 - 1}\n",
}


@pytest.mark.parametrize("fault", sorted(DATASET_FAULTS))
def test_train_rejects_malformed_dataset(tmp_path, capsys, fault):
    path = tmp_path / "ds.json"
    assert main(["gen-dataset", "--n", "4", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    DATASET_FAULTS[fault](doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["train", "--dataset", str(path), "--out",
                 str(tmp_path / "m.json"), "--epochs", "1"])
    err = _assert_one_line_usage_error(code, capsys)
    if fault not in (
        "float attr_dim",
        "text num_classes",
        "text split index",
        "negative attr_dim",
        "index twice in one split",
        "index in two splits",
        "splits not an object",
        "format_version 2",
        "huge attr_dim",
        "huge num_classes",
    ):
        assert "graphs[" in err
    assert DATASET_FAULT_WHERE.get(fault, "") in err


# Mutations of whole documents: every field dropped, retyped or truncated
# must end in exit 2 with one error line.  Paths use "*" for any index or
# key.  Echo fields are written for the reader and never read back.
ECHO = {("generation_seed",), ("config",), ("seed",)}
# may be missing (a graph without a label, a dataset without some split)
OPTIONAL = {("graphs", "*", "y"), ("splits", "*")}
# arrays whose length no other field fixes
FREE_LENGTH = {("graphs", "*", "edges"), ("splits", "*")}
JSON_TYPES = {
    "string": "text",
    "number": 7.5,
    "boolean": True,
    "null": None,
    "array": [],
    "object": {},
}


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if value is None:
        return "null"
    return "array" if isinstance(value, list) else "object"


def _matches(path, patterns) -> bool:
    return any(
        len(path) == len(p) and all(a == "*" or a == b for a, b in zip(p, path))
        for p in patterns
    )


def _walk(node, path=()):
    if _matches(path[:1], ECHO):
        return
    yield path, node
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield from _walk(child, path + (key,))


def _mutation_sites(doc) -> dict[str, list]:
    sites = {"drop": [], "retype": [], "truncate": []}
    for path, value in _walk(doc):
        sites["retype"].append(path)
        if path and isinstance(path[-1], str) and not _matches(path, OPTIONAL):
            sites["drop"].append(path)
        if isinstance(value, list) and value and not _matches(path, FREE_LENGTH):
            sites["truncate"].append(path)
    return sites


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A small dataset, model and explanation that `eval` accepts."""
    root = tmp_path_factory.mktemp("docs")
    paths = {
        "dataset": root / "ds.json",
        "model": root / "model.json",
        "explanation": None,
    }
    assert main(["gen-dataset", "--n", "10", "--seed", "0",
                 "--out", str(paths["dataset"])]) == 0
    assert main(["train", "--dataset", str(paths["dataset"]),
                 "--out", str(paths["model"]), "--hidden", "3",
                 "--layers", "1", "--epochs", "2"]) == 0
    assert main(["explain", "--model", str(paths["model"]),
                 "--dataset", str(paths["dataset"]),
                 "--out-dir", str(root / "expl"), "--epochs", "2",
                 "--jobs", "1"]) == 0
    (paths["explanation"],) = (root / "expl").glob("*.json")
    docs = {kind: json.loads(p.read_text()) for kind, p in paths.items()}
    sites = {kind: _mutation_sites(doc) for kind, doc in docs.items()}
    return Documents(paths, docs, sites)


@dataclasses.dataclass(repr=False)  # a falsifying example prints no data
class Documents:
    paths: dict
    docs: dict
    sites: dict


def _eval_exit(paths) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["eval", "--model", str(paths["model"]),
                     "--dataset", str(paths["dataset"]),
                     "--explanations", str(paths["explanation"].parent),
                     "--top-k", "2"])
    return code, err.getvalue()


def test_mutation_fixture_documents_are_accepted(documents):
    paths, sites = documents.paths, documents.sites
    assert _eval_exit(paths) == (0, "")
    assert all(len(s) > 10 for by_op in sites.values() for s in by_op.values())


# the last cell of the last row of a number array, where a scan that
# stops early would miss it
BOOLEAN_CELLS = {
    "dataset": (("graphs", -1, "x", -1, -1), "x"),
    "model": (("gcn_layers", -1, "weight", -1, -1), "weight"),
    "explanation": (("attr_scores", -1, -1), "attr_scores"),
}


@pytest.mark.parametrize("kind", sorted(BOOLEAN_CELLS))
def test_boolean_in_a_number_array_exits_2_naming_the_field(
    documents, tmp_path, kind
):
    path, field = BOOLEAN_CELLS[kind]
    doc = copy.deepcopy(documents.docs[kind])
    functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = True
    mutated = dict(documents.paths)
    mutated[kind] = tmp_path / documents.paths[kind].name
    mutated[kind].write_text(json.dumps(doc))
    code, err = _eval_exit(mutated)
    assert code == 2 and err.count("\n") == 1, err
    assert err.startswith("error: ")
    assert f"{field}: expected numbers, got a boolean" in err


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_documents_exit_2_with_one_error_line(documents, data):
    paths, docs, sites = documents.paths, documents.docs, documents.sites
    kind = data.draw(st.sampled_from(sorted(docs)), label="document")
    op = data.draw(st.sampled_from(sorted(sites[kind])), label="mutation")
    path = data.draw(st.sampled_from(sites[kind][op]), label="path")
    doc = copy.deepcopy(docs[kind])
    if path:
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        value = parent[path[-1]]
    else:
        parent, value = None, doc
    if op == "drop":
        del parent[path[-1]]
    else:
        if op == "retype":
            choices = sorted(
                t for t in JSON_TYPES
                if t != _json_type(value)
                and not (t == "null" and _matches(path, OPTIONAL))
            )
            new = JSON_TYPES[data.draw(st.sampled_from(choices), label="as")]
        else:
            new = value[:-1]
        if parent is None:
            doc = new
        else:
            parent[path[-1]] = new
    with tempfile.TemporaryDirectory() as tmp:
        mutated = dict(paths)
        target = Path(tmp) / paths[kind].name
        target.write_text(json.dumps(doc))
        mutated[kind] = target
        code, err = _eval_exit(mutated)
    assert code == 2, (kind, op, path, err)
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "bad",
    [
        "", ".", "..", "../escaped", "sub/dir", "back\\slash", "nul\0id",
        "x.oracle",
        # past the file system's name limit once the writer's suffixes
        # are added, and a name the file system cannot encode
        pytest.param("x" * 300, id="300-chars"),
        pytest.param("\ud800", id="lone-surrogate"),
    ],
)
@pytest.mark.parametrize("command", ["explain", "eval"])
def test_graph_ids_that_cannot_be_file_names_exit_2(
    pipeline, capsys, tmp_path, command, bad
):
    _, ds, model, out = pipeline
    dataset = gxplain.load_dataset(ds)
    # the last test graph takes the id, so the graphs before it would be
    # explained or read first if the check came late
    graphs = list(dataset.graphs)
    last = dataset.splits["test"][-1]
    graphs[last] = dataclasses.replace(graphs[last], graph_id=bad)
    data = tmp_path / "data"
    data.mkdir()
    save_dataset(dataclasses.replace(dataset, graphs=graphs), data / "ds.json")
    work = tmp_path / "work"
    work.mkdir()
    argv = {
        "explain": ["explain", "--model", str(model),
                    "--dataset", str(data / "ds.json"),
                    "--out-dir", str(work / "expl"), "--epochs", "1"],
        "eval": ["eval", "--model", str(model),
                 "--dataset", str(data / "ds.json"),
                 "--explanations", str(out), "--top-k", "3",
                 "--csv", str(work / "rows.csv"),
                 "--report", str(work / "report.json")],
    }[command]
    err = _assert_one_line_usage_error(main(argv), capsys)
    # the id as every error line quotes one, cut to 60 characters
    assert _shown(bad) in err
    assert list(work.iterdir()) == []
    assert [p.name for p in data.iterdir()] == ["ds.json"]


def _edited_copy(source, target, edit):
    """``source``'s JSON document, changed in place by ``edit`` or
    replaced by what it returns, written as plain JSON to ``target``."""
    raw = source.read_bytes()
    doc = json.loads(gzip.decompress(raw) if source.suffix == ".gz" else raw)
    new = edit(doc)
    target.write_text(json.dumps(doc if new is None else new))
    return target


MODEL_FAULTS = {
    "format_version 2": (
        lambda d: d.update(format_version=2), "format_version 2, expected 1"
    ),
    "one class": (
        lambda d: d.update(num_classes=1), "need at least 2 classes, got 1"
    ),
    "head of another width": (
        lambda d: d.update(num_classes=3), "head emits 2 logits for 3 classes"
    ),
    "no head layer": (
        lambda d: d.update(head_layers=[]), "model needs at least one head layer"
    ),
    "attributes the first layer does not take": (
        lambda d: d.update(attr_dim=9),
        "gcn layer 0 expects 10 inputs, chain provides 9",
    ),
    "bias of another width": (
        lambda d: d["gcn_layers"][0]["bias"].append(0.0),
        "gcn_layers[0]: layer weight (10, 8) incompatible with bias (9,)",
    ),
}


@pytest.mark.parametrize("fault", sorted(MODEL_FAULTS))
def test_explain_refuses_a_malformed_model_file(
    pipeline, capsys, tmp_path, fault
):
    _, ds, model, _ = pipeline
    edit, message = MODEL_FAULTS[fault]
    bad = _edited_copy(model, tmp_path / "model.json", edit)
    code = main(["explain", "--model", str(bad), "--dataset", str(ds),
                 "--out-dir", str(tmp_path / "expl"), "--epochs", "1"])
    err = _assert_one_line_usage_error(code, capsys)
    assert err == f"error: {bad}: {message}\n"
    assert not (tmp_path / "expl").exists()


EXPLANATION_FAULTS = {
    "format_version 2": (
        lambda d: d.update(format_version=2), "format_version 2, expected 1"
    ),
    "attr_scores not a matrix": (
        lambda d: d.update(attr_scores=[0.5] * len(d["node_scores"])),
        "attr_scores must be a matrix",
    ),
    "not an object": (
        lambda d: [d], "expected a JSON object at top level"
    ),
    "edge score not an object": (
        lambda d: d["edge_scores"].__setitem__(0, 0.5),
        "edge_scores[0]: expected an object",
    ),
    "node_attr_scores of another length": (
        lambda d: d["node_attr_scores"].__delitem__(-1),
        "node_scores and node_attr_scores must be vectors of one length,"
        " got (25,) and (24,)",
    ),
    "attr_scores of another row count": (
        lambda d: d["attr_scores"].__delitem__(-1),
        "attr_scores has 24 rows for 25 nodes",
    ),
    "node_ranking not a permutation": (
        lambda d: d.update(node_ranking=[0] * len(d["node_scores"])),
        "node_ranking is not a permutation of the 25 nodes",
    ),
}


@pytest.mark.parametrize("command", ["eval", "export-dot"])
@pytest.mark.parametrize("fault", sorted(EXPLANATION_FAULTS))
def test_a_malformed_explanation_file_exits_2(
    pipeline, capsys, tmp_path, fault, command
):
    _, ds, model, out = pipeline
    edit, message = EXPLANATION_FAULTS[fault]
    bad = tmp_path / "expl"
    bad.mkdir()
    for path in out.glob("*.json"):
        (bad / path.name).write_bytes(path.read_bytes())
    # the first file in name order, so no other is read before it
    victim = sorted(bad.glob("*.json"))[0]
    _edited_copy(victim, victim, edit)
    dots = tmp_path / "dots"
    argv = {
        "eval": ["eval", "--model", str(model), "--dataset", str(ds),
                 "--explanations", str(bad), "--top-k", "3"],
        "export-dot": ["export-dot", "--explanations", str(bad),
                       "--out-dir", str(dots)],
    }[command]
    err = _assert_one_line_usage_error(main(argv), capsys)
    assert err == f"error: {victim}: {message}\n"
    assert not list(dots.glob("*.dot"))


def test_a_truncated_gzip_dataset_exits_2(pipeline, capsys, tmp_path):
    _, ds, _, _ = pipeline
    cut = tmp_path / "cut.json.gz"
    data = ds.read_bytes()
    cut.write_bytes(data[: len(data) // 2])
    code = main(["train", "--dataset", str(cut),
                 "--out", str(tmp_path / "m.json")])
    err = _assert_one_line_usage_error(code, capsys)
    assert err.startswith(f"error: {cut}: truncated or corrupt (")
    assert not (tmp_path / "m.json").exists()


def test_gen_dataset_of_an_odd_count_exits_2(capsys, tmp_path):
    out = tmp_path / "ds.json"
    code = main(["gen-dataset", "--n", "3", "--out", str(out)])
    err = _assert_one_line_usage_error(code, capsys)
    assert err == (
        "error: need an even n_graphs >= 2 for balanced classes, got 3\n"
    )
    assert not out.exists()


def test_train_on_an_empty_train_split_exits_3(pipeline, capsys, tmp_path):
    _, ds, _, _ = pipeline

    def no_training_graphs(doc):
        doc["splits"]["train"] = []

    bad = _edited_copy(ds, tmp_path / "ds.json", no_training_graphs)
    code = main(["train", "--dataset", str(bad),
                 "--out", str(tmp_path / "m.json")])
    err = _assert_one_line_error(code, capsys, 3)
    assert err == "error: split 'train' selects no graphs\n"
    assert not (tmp_path / "m.json").exists()


def test_train_of_zero_epochs_reports_no_train_or_validation_accuracy(
    pipeline, capsys, tmp_path
):
    _, ds, _, _ = pipeline
    code = main(["train", "--dataset", str(ds),
                 "--out", str(tmp_path / "m.json"), "--epochs", "0"])
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("accuracy train=nan val=nan test=")


def test_diverging_train_prints_one_error_line_and_exits_3(
    pipeline, capsys, tmp_path
):
    # the first step overflows the layer products: numpy's floating-point
    # fault ends the command, not a warning
    _, ds, _, _ = pipeline
    out = tmp_path / "m.json"
    code = main(["train", "--dataset", str(ds), "--out", str(out),
                 "--lr", "1e300", "--epochs", "3"])
    err = _assert_one_line_error(code, capsys, 3)
    assert err.startswith("error: overflow encountered in ")
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_an_overflowing_explain_exits_3_from_a_worker_too(
    pipeline, capsys, tmp_path, jobs
):
    _, ds, model, _ = pipeline

    def huge(doc):
        for layer in doc["gcn_layers"] + doc["head_layers"]:
            layer["weight"] = [[w * 1e200 for w in r] for r in layer["weight"]]

    bad = _edited_copy(model, tmp_path / "model.json", huge)
    code = main(["explain", "--model", str(bad), "--dataset", str(ds),
                 "--out-dir", str(tmp_path / "expl"), "--epochs", "2",
                 "--jobs", jobs])
    err = _assert_one_line_error(code, capsys, 3)
    assert err.startswith("error: overflow encountered in ")
