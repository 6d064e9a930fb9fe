"""Fidelity metrics: does a budgeted piece of the explanation keep the
model's original prediction?

All comparisons target the model's own unmasked prediction, never the
ground-truth label.  Node budgets resolve round-half-up with a floor of
one node; a fixed budget larger than a graph skips that graph entirely.
"""

import csv
import io
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from ._atomic import write_atomic, write_json
from .errors import (
    InvalidBudget,
    MissingExplanation,
    ShapeMismatch,
)
from .explain import Explanation
from .graphs import AttributedGraph
from .model import (
    GnnModel,
    _adjacency,
    _block_rows,
    _check_attr_dim,
    _induced_probabilities,
    _layer_stack,
    _propagation,
)


@dataclass(slots=True)
class GraphVerdict:
    """Per-graph evaluation row."""

    graph_id: str
    budget: int | None
    retained_explained: bool | None
    retained_remaining: bool | None
    eligible: bool
    min_k: int | None


@dataclass
class EvalReport:
    ep_explained: float | None
    ep_remaining: float | None
    ep_attribute: float | None
    sparsity: float | None
    eligible_count: int
    evaluated_count: int
    per_graph: list[GraphVerdict]


def resolve_budget(
    node_count: int, k: int | None = None, rate: float | None = None
) -> int | None:
    """Node budget for one graph; ``None`` means the graph is skipped.

    Exactly one of ``k`` (absolute, >= 1) and ``rate`` (fraction in (0, 1])
    must be given.  Fractional budgets round half up and keep at least one
    node; an absolute budget larger than the graph yields ``None``.
    """
    if (k is None) == (rate is None):
        raise InvalidBudget("give exactly one of k and rate")
    if rate is not None:
        if not 0.0 < rate <= 1.0:
            raise InvalidBudget(f"rate must lie in (0, 1], got {rate}")
        return max(1, int(math.floor(rate * node_count + 0.5)))
    if k < 1:
        raise InvalidBudget(f"k must be at least 1, got {k}")
    return None if k > node_count else int(k)


def default_prediction(model: GnnModel) -> int:
    """Prediction on the empty graph (the zero-readout output)."""
    empty = AttributedGraph(
        0, (), np.zeros((0, model.attr_dim)), directed=True
    )
    return _prediction(model, empty)


def _prediction(model: GnnModel, g: AttributedGraph) -> int:
    """The class ``g`` predicts unmasked, from a probability-only pass."""
    _check_attr_dim(model, g)
    a = _propagation(_adjacency([g]))[0]
    return int(np.argmax(_layer_stack(model, a, g.attributes, keep=False)))


def keep_top_attributes(
    g: AttributedGraph, attr_score: np.ndarray, top_t: int
) -> AttributedGraph:
    """Zero all but each node's ``top_t`` highest-scored attributes.

    Raises ShapeMismatch unless ``attr_score`` has the shape of
    ``g.attributes``; a graph without nodes takes any empty matrix.
    """
    if top_t < 1:
        raise InvalidBudget(f"top_t must be at least 1, got {top_t}")
    if g.node_count and attr_score.shape != g.attributes.shape:
        raise ShapeMismatch(
            f"attribute scores of shape {attr_score.shape} for graph"
            f" {g.graph_id!r} with attributes of shape {g.attributes.shape}"
        )
    keep = np.zeros_like(g.attributes)
    order = np.argsort(-attr_score, axis=1, kind="stable")
    cols = order[:, : min(top_t, g.attr_dim)]
    rows = np.arange(g.node_count)[:, None]
    keep[rows, cols] = 1.0
    return g.with_attributes(g.attributes * keep)


class _SizeStack(NamedTuple):
    """The scanned graphs with one node count, in scan order."""

    members: np.ndarray  # (b,) each graph's index in the scan
    adjacency: np.ndarray  # (b, n, n) 0/1 arc matrices
    attributes: np.ndarray  # (b, n, d)
    ranking: np.ndarray  # (b, n) node rankings, best first
    target: np.ndarray  # (b,) original predictions


def _stack_by_size(model: GnnModel, graphs, explanations) -> list[_SizeStack]:
    """One :class:`_SizeStack` per node count of ``graphs``."""
    by_size: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        by_size.setdefault(g.node_count, []).append(i)
    stacks = []
    for n, members in by_size.items():
        group = [graphs[i] for i in members]
        expls = [explanations[g.graph_id] for g in group]
        if n:
            for g in group:
                _check_attr_dim(model, g)
            attributes = np.stack([g.attributes for g in group])
        else:
            # a graph without nodes takes any width
            attributes = np.zeros((len(group), 0, model.attr_dim))
        stacks.append(
            _SizeStack(
                np.array(members),
                _adjacency(group),
                attributes,
                np.array(
                    [e.node_ranking for e in expls], dtype=np.int64
                ).reshape(len(group), n),
                np.array([e.original_prediction for e in expls]),
            )
        )
    return stacks


def _retains(
    model: GnnModel, stack: _SizeStack, which: np.ndarray, nodes: np.ndarray
) -> np.ndarray:
    """Whether the subgraph that row ``i`` of ``nodes`` induces on graph
    ``which[i]`` of ``stack`` still predicts that graph's original
    class; one stacked pass per block of rows."""
    rows = np.sort(nodes, axis=1)
    step = _block_rows(rows.shape[1])
    hits = np.empty(len(rows), dtype=bool)
    for lo in range(0, len(rows), step):
        part = slice(lo, lo + step)
        p = _induced_probabilities(
            model, stack.adjacency, stack.attributes, which[part], rows[part]
        )
        hits[part] = p.argmax(axis=-1) == stack.target[which[part]]
    return hits


def _sorted_graphs(
    model: GnnModel, dataset, explanations
) -> list[AttributedGraph]:
    graphs = getattr(dataset, "graphs", dataset)
    graphs = sorted(graphs, key=lambda g: g.graph_id)
    missing = [g.graph_id for g in graphs if g.graph_id not in explanations]
    if missing:
        raise MissingExplanation(
            f"missing explanations for: {', '.join(missing)}"
        )
    for g in graphs:
        explanations[g.graph_id].check_graph(g)
        explanations[g.graph_id].check_model(model)
    return graphs


def _scan(
    model: GnnModel, graphs, explanations, slots, find_min_k: bool = True
) -> list[GraphVerdict]:
    """One row per ``(graph index, budget)`` slot, all read from one
    lockstep scan over ranking prefixes; a ``None`` budget is unscored.

    The graphs are stacked by node count once.  Step s scores, in
    stacked passes, the s-node prefix of every graph with a slot of
    budget s or whose ``min_k`` is still pending (eligible graphs only),
    plus the complement of each budgeted prefix.  Steps no graph needs
    are skipped.
    """
    default = default_prediction(model)
    node_count = np.array([g.node_count for g in graphs], dtype=np.int64)
    eligible = np.array(
        [
            explanations[g.graph_id].original_prediction != default
            for g in graphs
        ],
        dtype=bool,
    )
    last = max((b for _, b in slots if b is not None), default=0)
    budgeted = np.zeros(
        (len(graphs), max(last, node_count.max(initial=0)) + 1), dtype=bool
    )
    for i, budget in slots:
        if budget is not None:
            budgeted[i, budget] = True
    kept = np.zeros_like(budgeted)
    rest = np.zeros_like(budgeted)
    pending = eligible & find_min_k
    # the full ranking reproduces the graph, so every min_k is found
    min_k = np.where(pending & (node_count == 0), 0, -1)
    pending &= node_count > 0
    stacks = _stack_by_size(model, graphs, explanations)
    size = 0
    while pending.any() or size < last:
        size += 1
        for stack in stacks:
            members = stack.members
            which = np.flatnonzero(
                budgeted[members, size] | pending[members]
            )
            if not which.size:
                continue
            i = members[which]
            hit = _retains(model, stack, which, stack.ranking[which, :size])
            kept[i, size] = hit
            done = pending[i] & (hit | (size >= stack.ranking.shape[1]))
            min_k[i[done]] = size
            pending[i[done]] = False
            which = which[budgeted[i, size]]
            rest[members[which], size] = _retains(
                model, stack, which, stack.ranking[which, size:]
            )
    return [
        GraphVerdict(
            graphs[i].graph_id,
            budget,
            *(
                (None, None)
                if budget is None
                else (bool(kept[i, budget]), bool(rest[i, budget]))
            ),
            bool(eligible[i]),
            None if min_k[i] < 0 else int(min_k[i]),
        )
        for i, budget in slots
    ]


def evaluate(
    model: GnnModel,
    dataset,
    explanations: dict[str, Explanation],
    k: int | None = None,
    rate: float | None = None,
    attr_top: int | None = None,
    compute_sparsity: bool = True,
) -> EvalReport:
    """Full evaluation pass; per-graph rows come out sorted by graph id.

    The budgeted keep and remaining sets and the ``min_k`` ranking
    prefixes of the eligible graphs all come from one lockstep scan.

    Raises:
        MissingExplanation: some selected graph has no explanation.
        InvalidBudget: malformed node or attribute budget.
        ShapeMismatch: an explanation that does not fit its graph
            (:meth:`Explanation.check_graph`) or names a class the model
            does not have (:meth:`Explanation.check_model`).
    """
    graphs = _sorted_graphs(model, dataset, explanations)
    resolve_budget(1, k, rate)  # validate the budget form once up front
    attribute_hits = []
    if attr_top is not None:
        for g in graphs:
            expl = explanations[g.graph_id]
            masked = keep_top_attributes(g, expl.attr_score, attr_top)
            attribute_hits.append(
                _prediction(model, masked) == expl.original_prediction
            )
    slots = [
        (i, resolve_budget(g.node_count, k, rate))
        for i, g in enumerate(graphs)
    ]
    rows = _scan(model, graphs, explanations, slots, compute_sparsity)
    scored = [r for r in rows if r.budget is not None]
    min_ks = [r.min_k for r in rows if r.min_k is not None]
    return EvalReport(
        ep_explained=_share([r.retained_explained for r in scored]),
        ep_remaining=_share([r.retained_remaining for r in scored]),
        ep_attribute=_share(attribute_hits),
        sparsity=float(np.mean(min_ks)) if min_ks else None,
        eligible_count=sum(r.eligible for r in rows),
        evaluated_count=len(scored),
        per_graph=rows,
    )


def sweep(
    model: GnnModel, dataset, explanations: dict[str, Explanation]
) -> list[GraphVerdict]:
    """Rows for every node budget from 1 to the largest graph, ordered by
    budget and then by graph id, from one scan; a graph smaller than the
    budget gets an unscored row.  ``min_k`` is as ``evaluate`` gives it.

    Raises:
        MissingExplanation: some selected graph has no explanation.
        ShapeMismatch: an explanation that does not fit its graph or
            names a class the model does not have.
    """
    graphs = _sorted_graphs(model, dataset, explanations)
    max_n = max((g.node_count for g in graphs), default=0)
    slots = [
        (i, budget if budget <= g.node_count else None)
        for budget in range(1, max_n + 1)
        for i, g in enumerate(graphs)
    ]
    return _scan(model, graphs, explanations, slots)


def _share(hits: list[bool]) -> float | None:
    return sum(hits) / len(hits) if hits else None


# the GraphVerdict fields of an evaluation CSV row, in column order
CSV_FIELDS = (
    "graph_id", "budget", "retained_explained", "retained_remaining", "min_k"
)


def write_eval_csv(path, rows: list[GraphVerdict]) -> None:
    """One CSV row per verdict, with the columns ``CSV_FIELDS``."""

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return int(value)
        return value

    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(CSV_FIELDS)
    for r in rows:
        writer.writerow([cell(getattr(r, name)) for name in CSV_FIELDS])
    write_atomic(path, buf.getvalue().encode("utf-8"))


def report_to_dict(report: EvalReport) -> dict:
    return asdict(report)


def save_report(report: EvalReport, path) -> None:
    write_json(path, report_to_dict(report))
