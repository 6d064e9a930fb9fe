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

import numpy as np

from ._atomic import write_atomic, write_json
from .errors import (
    InvalidBudget,
    MissingExplanation,
    ShapeMismatch,
)
from .explain import Explanation
from .graphs import AttributedGraph, NodeSet, complement_set
from .model import GnnModel, _block_rows, forward, subset_probabilities


@dataclass
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


def extract_topk_nodes(
    explanation: Explanation,
    k: int | None = None,
    rate: float | None = None,
) -> NodeSet | None:
    """The budget-many highest-ranked nodes, or ``None`` when skipped."""
    budget = resolve_budget(explanation.node_count, k, rate)
    if budget is None:
        return None
    return NodeSet(explanation.node_ranking[:budget])


def default_prediction(model: GnnModel) -> int:
    """Prediction on the empty graph (the zero-readout output)."""
    empty = AttributedGraph(
        0, (), np.zeros((0, model.attr_dim)), directed=True
    )
    return forward(model, empty).predicted_class


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


def _retained(model: GnnModel, requests) -> list[bool]:
    """For each ``(graph, keep, original)`` request: does the subgraph
    induced by ``keep`` still predict ``original``?  Requests of one size
    are scored together in stacked blocks, whatever graph they come
    from."""
    by_size: dict[int, list[int]] = {}
    for i, (_, keep, _) in enumerate(requests):
        by_size.setdefault(len(keep), []).append(i)
    out = [False] * len(requests)
    for size, same_size in by_size.items():
        rows = _block_rows(size)
        for start in range(0, len(same_size), rows):
            block = same_size[start : start + rows]
            pairs = []
            for i in block:
                g, keep, _ = requests[i]
                pairs.append((g, np.array([keep.members], dtype=np.int64)))
            predicted = subset_probabilities(model, pairs).argmax(axis=-1)
            for i, p in zip(block, predicted):
                out[i] = bool(p == requests[i][2])
    return out


def _sorted_graphs(dataset, explanations) -> list[AttributedGraph]:
    graphs = getattr(dataset, "graphs", dataset)
    graphs = sorted(graphs, key=lambda g: g.graph_id)
    missing = [g.graph_id for g in graphs if g.graph_id not in explanations]
    if missing:
        raise MissingExplanation(
            f"missing explanations for: {', '.join(missing)}"
        )
    for g in graphs:
        explanations[g.graph_id].check_graph(g)
    return graphs


def _scan(
    model: GnnModel, graphs, explanations, slots, find_min_k: bool = True
) -> list[GraphVerdict]:
    """One row per ``(graph index, budget)`` slot, all read from one
    lockstep scan over ranking prefixes; a ``None`` budget is unscored.

    Step s scores, in one stacked pass, the s-node prefix of every graph
    with a slot of budget s or whose ``min_k`` is still pending (eligible
    graphs only), plus the complement of each budgeted prefix.  Steps no
    graph needs are skipped.
    """
    default = default_prediction(model)
    eligible = [
        explanations[g.graph_id].original_prediction != default
        for g in graphs
    ]
    budgets = [set() for _ in graphs]
    for i, budget in slots:
        if budget is not None:
            budgets[i].add(budget)
    pending = {i for i, e in enumerate(eligible) if e and find_min_k}
    # the full ranking reproduces the graph, so every min_k is found
    min_k = {i: 0 for i in pending if graphs[i].node_count == 0}
    pending -= min_k.keys()
    last = max((b for bs in budgets for b in bs), default=0)
    verdicts = {}
    size = 0
    while pending or size < last:
        size += 1
        needed = [
            i for i in range(len(graphs)) if size in budgets[i] or i in pending
        ]
        if not needed:
            continue
        requests = []
        for i in needed:
            g, expl = graphs[i], explanations[graphs[i].graph_id]
            keep = NodeSet(expl.node_ranking[:size])
            requests.append((g, keep, expl.original_prediction))
            if size in budgets[i]:
                rest = complement_set(g, keep)
                requests.append((g, rest, expl.original_prediction))
        hits = iter(_retained(model, requests))
        for i in needed:
            hit = next(hits)
            if size in budgets[i]:
                verdicts[i, size] = (hit, next(hits))
            if i in pending and (hit or size >= graphs[i].node_count):
                min_k[i] = size
        pending -= min_k.keys()
    return [
        GraphVerdict(
            graphs[i].graph_id,
            budget,
            *verdicts.get((i, budget), (None, None)),
            eligible[i],
            min_k.get(i),
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
            (:meth:`Explanation.check_graph`).
    """
    graphs = _sorted_graphs(dataset, explanations)
    resolve_budget(1, k, rate)  # validate the budget form once up front
    attribute_hits = []
    if attr_top is not None:
        for g in graphs:
            expl = explanations[g.graph_id]
            masked = keep_top_attributes(g, expl.attr_score, attr_top)
            attribute_hits.append(
                forward(model, masked).predicted_class
                == expl.original_prediction
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
        ShapeMismatch: an explanation that does not fit its graph.
    """
    graphs = _sorted_graphs(dataset, explanations)
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
