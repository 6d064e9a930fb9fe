"""Command-line pipeline: generate data, train, explain, evaluate, export.

Exit codes: 0 success, 2 usage or input/output problems, 3 computation
failures (diverging training, a floating-point overflow, invalid value or
division by zero, missing explanations, incompatible inputs, running out
of memory).  A command refuses by raising; :func:`main` alone maps the
exception to its exit code and prints the one ``error:`` line.
"""

import argparse
import dataclasses
import inspect
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from ._atomic import write_atomic
from ._schema import MAX_SIZE, _listed, _shown
from .datasets import (
    SPLIT_NAMES,
    generate_ba2motifs,
    load_dataset,
    save_dataset,
)
from .errors import (
    DomainError,
    GxplainError,
    InvalidBudget,
    InvalidCount,
    ParseError,
    ShapeMismatch,
    VersionMismatch,
)
from .explain import (
    FIELD_CHOICES,
    ExplainConfig,
    HardConcreteConfig,
    explain,
    load_explanation,
    save_explanation,
)
from .metrics import _evaluation, save_report, write_eval_csv
from .model import load_model, save_model
from .oracle import MAX_ORACLE_NODES, oracle_report, save_oracle_result
from .training import evaluate_accuracy, train_model

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPUTE = 3

SPLITS = (*SPLIT_NAMES, "all")

# bad input, arguments or files; DomainError is an argument outside its
# range, OSError an unreadable path
_USAGE_ERRORS = (
    ParseError,
    VersionMismatch,
    InvalidCount,
    InvalidBudget,
    DomainError,
    OSError,
)


def _select_graphs(dataset, split: str, ids: str | None):
    if ids is not None:
        wanted = [s.strip() for s in ids.split(",") if s.strip()]
        if not wanted:
            raise ParseError(f"--ids {_shown(ids)} names no graph")
        twice = sorted(w for w, k in Counter(wanted).items() if k > 1)
        if twice:
            raise ParseError(f"--ids names graphs twice: {_listed(twice)}")
        by_id = {g.graph_id: g for g in dataset.graphs}
        missing = [w for w in wanted if w not in by_id]
        if missing:
            raise ParseError(f"unknown graph ids: {_listed(missing)}")
        return [by_id[w] for w in wanted]
    if split == "all":
        return list(dataset.graphs)
    return dataset.split_graphs(split)


def _explanation_path(directory, graph_id: str) -> Path:
    """``<directory>/<graph_id>.json``; ParseError for an id whose file
    would lie outside ``directory``, fail to open, be hidden or be taken
    for another graph's oracle result, or whose longest file name, the
    oracle result's ``<id>.oracle.json``, passes the name limit of
    ``directory`` (255 bytes before it exists).
    """
    if (
        graph_id in ("", ".", "..")
        or any(c in graph_id for c in "/\\\0")
        or graph_id.endswith(".oracle")
    ):
        raise ParseError(
            f"graph id {_shown(graph_id)} cannot name a file: an id must not"
            " be empty, '.' or '..', hold '/', '\\' or NUL, or end in"
            " '.oracle'"
        )
    try:
        longest = len(os.fsencode(f"{graph_id}.oracle.json"))
    except UnicodeEncodeError as exc:  # a lone surrogate
        raise ParseError(
            f"graph id {_shown(graph_id)} cannot name a file: {exc}"
        ) from exc
    try:
        limit = os.pathconf(directory, "PC_NAME_MAX")
    except FileNotFoundError:
        limit = 255
    if 0 < limit < longest:
        raise ParseError(
            f"graph id {_shown(graph_id)} cannot name a file: its longest"
            f" file name takes {longest} bytes, {directory} allows {limit}"
        )
    return Path(directory) / f"{graph_id}.json"


def _check_out(out: Path, flag: str = "--out", directory: bool = False):
    """Refuse ``flag``'s ``out`` before any work when a file's ``out`` is
    a directory, a ``directory``'s is something else, or the nearest
    ancestor on disk is not a directory, so the missing parents cannot
    be made."""
    if os.path.lexists(out) and out.is_dir() != directory:
        raise (NotADirectoryError if directory else IsADirectoryError)(
            f"{flag} {out} is {'not ' if directory else ''}a directory"
        )
    parent = next((p for p in out.parents if os.path.lexists(p)), None)
    if parent is not None and not parent.is_dir():
        raise NotADirectoryError(f"{flag} {out}: {parent} is not a directory")


def cmd_gen_dataset(args) -> None:
    out = Path(args.out)
    _check_out(out)
    if out.exists() and not args.force:
        raise FileExistsError(f"refusing to overwrite {out} (use --force)")
    dataset = generate_ba2motifs(args.n, args.seed)
    save_dataset(dataset, out)
    avg_nodes = sum(g.node_count for g in dataset.graphs) / len(dataset.graphs)
    print(
        f"dataset kind={args.kind} graphs={len(dataset.graphs)}"
        f" avg_nodes={avg_nodes:.3f} classes={dataset.num_classes}"
        f" out={out}"
    )


def _defaults(fn) -> dict:
    params = inspect.signature(fn).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


def _train_options(args) -> dict:
    if args.layers > MAX_SIZE:
        raise DomainError(f"--layers is above {MAX_SIZE}")
    return dict(
        hidden_dims=tuple([args.hidden] * args.layers),
        learning_rate=args.lr,
        epochs=args.epochs,
        seed=args.seed,
    )


def cmd_train(args) -> None:
    out = Path(args.out)
    _check_out(out)
    dataset = load_dataset(args.dataset)
    result = train_model(dataset, **_train_options(args))
    save_model(result.model, out)
    test_acc = evaluate_accuracy(
        result.model, dataset.split_graphs("test")
    )
    train_acc = result.train_accuracy[-1] if result.train_accuracy else float("nan")
    val_acc = (
        result.validation_accuracy[-1]
        if result.validation_accuracy
        else float("nan")
    )
    print(
        f"accuracy train={train_acc:.6f} val={val_acc:.6f}"
        f" test={test_acc:.6f}"
    )


# every ExplainConfig field but hard_concrete is one explain flag, named
# after the field except for --lr
_CONFIG_FIELDS = tuple(
    f.name
    for f in dataclasses.fields(ExplainConfig)
    if f.name != "hard_concrete"
)


def _add_config_flags(parser) -> None:
    """Explain flags whose defaults and choices are the library's."""
    defaults = ExplainConfig()
    for name in _CONFIG_FIELDS:
        value = getattr(defaults, name)
        flag = "lr" if name == "learning_rate" else name.replace("_", "-")
        parser.add_argument(
            "--" + flag,
            dest=name,
            type=type(value),
            default=value,
            choices=FIELD_CHOICES.get(name),
        )
    gates = defaults.hard_concrete
    parser.add_argument("--beta", type=float, default=gates.beta)
    parser.add_argument(
        "--deterministic",
        action="store_true",
        default=not gates.stochastic,
        help="use u = 0.5 instead of sampled gates",
    )
    parser.add_argument("--seed", type=int, default=gates.seed)


def _config_from_args(args) -> ExplainConfig:
    return ExplainConfig(
        **{name: getattr(args, name) for name in _CONFIG_FIELDS},
        hard_concrete=HardConcreteConfig(
            beta=args.beta,
            stochastic=not args.deterministic,
            seed=args.seed,
        ),
    )


def _explain_one(job) -> str:
    model, g, config, path, want_oracle = job
    explanation = explain(model, g, config)
    save_explanation(explanation, config, path)
    if want_oracle and g.node_count <= MAX_ORACLE_NODES:
        budget = min(5, g.node_count)
        result = oracle_report(model, g, budget)
        save_oracle_result(result, g, path.with_suffix(".oracle.json"))
    return g.graph_id


def cmd_explain(args) -> None:
    config = _config_from_args(args)
    if args.jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {args.jobs}")
    out_dir = Path(args.out_dir)
    _check_out(out_dir, "--out-dir", directory=True)
    model = load_model(args.model)
    dataset = load_dataset(args.dataset)
    graphs = _select_graphs(dataset, args.split, args.ids)
    # every id is checked before the first file is written
    jobs = [
        (model, g, config, _explanation_path(out_dir, g.graph_id), args.oracle)
        for g in graphs
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.jobs > 1 and len(jobs) > 1:
        # a fork pool starts all its workers at the first submit
        workers = min(args.jobs, len(jobs))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_explain_one, jobs))
    else:
        done = [_explain_one(job) for job in jobs]
    print(f"explained graphs={len(done)} out_dir={out_dir}")


def cmd_eval(args) -> None:
    if args.sweep and not args.csv:
        raise ParseError("--sweep needs --csv")
    for flag, out in (("--csv", args.csv), ("--report", args.report)):
        if out:
            _check_out(Path(out), flag)
    in_dir = Path(args.explanations)
    if not in_dir.is_dir():
        raise NotADirectoryError(f"not a directory: {in_dir}")
    model = load_model(args.model)
    dataset = load_dataset(args.dataset)
    graphs = _select_graphs(dataset, args.split, None)
    paths = [_explanation_path(in_dir, g.graph_id) for g in graphs]
    explanations = {}
    for g, path in zip(graphs, paths):
        if not path.exists():
            continue  # evaluate names every missing explanation
        expl, _ = load_explanation(path)
        try:
            expl.check_graph(g)
            expl.check_model(model)
        except ShapeMismatch as exc:
            raise ParseError(f"{path}: {exc}") from exc
        explanations[g.graph_id] = expl
    report, rows = _evaluation(
        model, graphs, explanations, args.top_k, args.top_r, args.attr_top,
        swept=args.sweep,
    )
    line = (
        f"ep_explained={_fmt(report.ep_explained)}"
        f" ep_remaining={_fmt(report.ep_remaining)}"
        f" sparsity={_fmt(report.sparsity)}"
        f" eligible={report.eligible_count}"
    )
    if args.attr_top is not None:
        line += f" ep_attribute={_fmt(report.ep_attribute)}"
    # a failed write prints only its error line
    if args.report:
        save_report(report, args.report)
    if args.csv:
        write_eval_csv(args.csv, rows)
    print(line)


def _fmt(value) -> str:
    return "nan" if value is None else f"{value:.6f}"


def _dot_quote(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def render_dot(explanation, attr_top: int = 3) -> str:
    """Deterministic DOT text: darker fill = higher node score, wider
    pen = higher edge score; tooltips carry exact scores."""
    lines = [f'digraph "{_dot_quote(explanation.graph_id)}" {{']
    lines.append(
        f'  graph [label="{_dot_quote(explanation.graph_id)}'
        f' predicted={explanation.original_prediction}'
        f' p={explanation.original_probability:.4f}"];'
    )
    lines.append("  node [shape=circle, style=filled];")
    n_attrs = explanation.attr_score.shape[1] if explanation.node_count else 0
    for i in range(explanation.node_count):
        score = float(explanation.node_score[i])
        bucket = min(9, max(0, int(score * 10.0)))
        gray = 95 - 8 * bucket
        font = "white" if bucket >= 6 else "black"
        top = []
        if n_attrs:
            row = explanation.attr_score[i]
            order = sorted(range(n_attrs), key=lambda j: (-row[j], j))
            top = [f"a{j}={row[j]:.3f}" for j in order[:attr_top]]
        tooltip = f"score={score:.4f}"
        if top:
            tooltip += "; " + ", ".join(top)
        lines.append(
            f'  n{i} [label="{i}", fillcolor="gray{gray}",'
            f' fontcolor="{font}", tooltip="{tooltip}"];'
        )
    for (s, d), score in zip(explanation.arcs, explanation.edge_score):
        width = 0.5 + 3.5 * float(score)
        lines.append(
            f"  n{s} -> n{d} [penwidth={width:.3f},"
            f' tooltip="{float(score):.4f}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_export_dot(args) -> None:
    if args.attr_top < 0:
        raise DomainError(f"--attr-top must be >= 0, got {args.attr_top}")
    out_dir = Path(args.out_dir)
    _check_out(out_dir, "--out-dir", directory=True)
    in_dir = Path(args.explanations)
    if not in_dir.is_dir():
        raise NotADirectoryError(f"not a directory: {in_dir}")
    files = sorted(
        p
        for p in in_dir.glob("*.json")
        if not p.name.endswith(".oracle.json")
    )
    if not files:
        raise FileNotFoundError(f"no explanation files in {in_dir}")
    for path in files:
        explanation, _ = load_explanation(path)
        text = render_dot(explanation, attr_top=args.attr_top)
        target = out_dir / (path.stem + ".dot")
        write_atomic(target, text.encode("utf-8"))
    print(f"exported graphs={len(files)} out_dir={out_dir}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gxplain",
        description=(
            "Train small graph classifiers and explain their predictions"
            " with learned edge and attribute masks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-dataset", help="generate a synthetic dataset")
    gen.add_argument("--kind", choices=["ba2motifs"], default="ba2motifs")
    gen.add_argument("--n", type=int, default=1000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--force", action="store_true")
    gen.set_defaults(func=cmd_gen_dataset)

    fit = _defaults(train_model)
    train = sub.add_parser("train", help="train a classifier")
    train.add_argument("--dataset", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--hidden", type=int, default=fit["hidden_dims"][0])
    train.add_argument("--layers", type=int, default=len(fit["hidden_dims"]))
    train.add_argument("--lr", type=float, default=fit["learning_rate"])
    train.add_argument("--epochs", type=int, default=fit["epochs"])
    train.add_argument("--seed", type=int, default=fit["seed"])
    train.set_defaults(func=cmd_train)

    exp = sub.add_parser("explain", help="explain predictions")
    exp.add_argument("--model", required=True)
    exp.add_argument("--dataset", required=True)
    exp.add_argument("--out-dir", required=True)
    exp.add_argument("--split", choices=SPLITS, default="test")
    exp.add_argument("--ids", help="comma-separated graph ids")
    _add_config_flags(exp)
    exp.add_argument("--jobs", type=int, default=1)
    exp.add_argument(
        "--oracle",
        action="store_true",
        help="also write exhaustive oracle results for small graphs",
    )
    exp.set_defaults(func=cmd_explain)

    ev = sub.add_parser("eval", help="score explanations against the model")
    ev.add_argument("--model", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--explanations", required=True)
    ev.add_argument("--split", choices=SPLITS, default="test")
    budget = ev.add_mutually_exclusive_group(required=True)
    budget.add_argument("--top-k", type=int)
    budget.add_argument("--top-r", type=float)
    ev.add_argument("--attr-top", type=int)
    ev.add_argument("--csv")
    ev.add_argument("--report")
    ev.add_argument(
        "--sweep",
        action="store_true",
        help=(
            "CSV rows for every node budget from 1 to the largest graph,"
            " from the one pass that serves the budget and min_k"
        ),
    )
    ev.set_defaults(func=cmd_eval)

    dot = sub.add_parser("export-dot", help="render explanations as DOT")
    dot.add_argument("--explanations", required=True)
    dot.add_argument("--out-dir", required=True)
    dot.add_argument(
        "--attr-top", type=int, default=_defaults(render_dot)["attr_top"]
    )
    dot.set_defaults(func=cmd_export_dot)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow, invalid value or division by zero stops the command;
        # underflow does not, as the gate sampler's exp(-|x|) underflows
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            args.func(args)
        return EXIT_OK
    except _USAGE_ERRORS as exc:
        code, message = EXIT_USAGE, exc
    except (GxplainError, FloatingPointError) as exc:
        code, message = EXIT_COMPUTE, exc
    except MemoryError as exc:
        # numpy's names the array it could not allocate; a bare one is empty
        code, message = EXIT_COMPUTE, str(exc) or "out of memory"
    print(f"error: {message}", file=sys.stderr)
    return code
