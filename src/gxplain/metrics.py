"""Fidelity metrics: does a budgeted piece of the explanation keep the
model's original prediction?

All comparisons target the model's own unmasked prediction, never the
ground-truth label.  Node budgets resolve round-half-up with a floor of
one node; a fixed budget larger than a graph skips that graph entirely.
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from ._atomic import write_atomic, write_json
from .errors import (
    InvalidBudget,
    MissingAttributeScores,
    MissingExplanation,
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
    """Zero all but each node's ``top_t`` highest-scored attributes."""
    if top_t < 1:
        raise InvalidBudget(f"top_t must be at least 1, got {top_t}")
    keep = np.zeros_like(g.attributes)
    order = np.argsort(-attr_score, axis=1, kind="stable")
    cols = order[:, : min(top_t, g.attr_dim)]
    rows = np.arange(g.node_count)[:, None]
    keep[rows, cols] = 1.0
    return AttributedGraph(
        g.node_count,
        g.arcs,
        g.attributes * keep,
        g.directed,
        g.label,
        g.graph_id,
    )


def _graph_list(dataset) -> list[AttributedGraph]:
    if hasattr(dataset, "graphs"):
        return list(dataset.graphs)
    return list(dataset)


def _lookup_all(graphs, explanations) -> None:
    missing = [g.graph_id for g in graphs if g.graph_id not in explanations]
    if missing:
        raise MissingExplanation(
            f"no explanation for graphs: {', '.join(sorted(missing))}"
        )


def _require_attr_scores(g: AttributedGraph, expl: Explanation) -> None:
    empty = expl.attr_score is None or (
        g.node_count > 0 and expl.attr_score.size == 0
    )
    if empty:
        raise MissingAttributeScores(
            f"explanation for {g.graph_id!r} has no attribute scores"
        )


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


def _min_retaining_prefixes(
    model: GnnModel, graphs, explanations: dict[str, Explanation]
) -> dict[str, int]:
    """Shortest ranking prefix of each graph that keeps its original
    prediction.  The scan runs in lockstep: step k scores the k-node
    prefix of every graph still pending in one stacked pass."""
    # the full ranking reproduces the graph, so every scan terminates
    min_k = {g.graph_id: 0 for g in graphs if g.node_count == 0}
    pending = [g for g in graphs if g.node_count > 0]
    size = 0
    while pending:
        size += 1
        requests = []
        for g in pending:
            expl = explanations[g.graph_id]
            keep = NodeSet(expl.node_ranking[:size])
            requests.append((g, keep, expl.original_prediction))
        still = []
        for g, hit in zip(pending, _retained(model, requests)):
            if hit or size >= g.node_count:
                min_k[g.graph_id] = size
            else:
                still.append(g)
        pending = still
    return min_k


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

    The budgeted keep and remaining sets of all graphs are scored in
    stacked passes grouped by size, and ``min_k`` comes from one lockstep
    ranking-prefix scan over the eligible graphs.

    Raises:
        MissingExplanation: some selected graph has no explanation.
        InvalidBudget: malformed node or attribute budget.
    """
    graphs = sorted(_graph_list(dataset), key=lambda g: g.graph_id)
    _lookup_all(graphs, explanations)
    resolve_budget(1, k, rate)  # validate the budget form once up front

    default = default_prediction(model)
    budgets, eligible, requests, attribute_hits = [], [], [], []
    for g in graphs:
        expl = explanations[g.graph_id]
        original = expl.original_prediction
        budget = resolve_budget(g.node_count, k, rate)
        budgets.append(budget)
        eligible.append(original != default)
        if budget is not None:
            keep = NodeSet(expl.node_ranking[:budget])
            requests.append((g, keep, original))
            requests.append((g, complement_set(g, keep), original))
        if attr_top is not None:
            _require_attr_scores(g, expl)
            masked = keep_top_attributes(g, expl.attr_score, attr_top)
            attribute_hits.append(
                forward(model, masked).predicted_class == original
            )
    verdicts = iter(_retained(model, requests))
    min_k = {}
    if compute_sparsity:
        min_k = _min_retaining_prefixes(
            model, [g for g, e in zip(graphs, eligible) if e], explanations
        )

    rows: list[GraphVerdict] = []
    for g, budget, is_eligible in zip(graphs, budgets, eligible):
        kept = rest = None
        if budget is not None:
            kept, rest = next(verdicts), next(verdicts)
        rows.append(
            GraphVerdict(
                g.graph_id,
                budget,
                kept,
                rest,
                is_eligible,
                min_k.get(g.graph_id),
            )
        )
    scored = [r for r in rows if r.budget is not None]
    min_ks = [r.min_k for r in rows if r.min_k is not None]
    return EvalReport(
        ep_explained=_share([r.retained_explained for r in scored]),
        ep_remaining=_share([r.retained_remaining for r in scored]),
        ep_attribute=_share(attribute_hits),
        sparsity=float(np.mean(min_ks)) if min_ks else None,
        eligible_count=sum(eligible),
        evaluated_count=len(scored),
        per_graph=rows,
    )


def _share(hits: list[bool]) -> float | None:
    return sum(hits) / len(hits) if hits else None


def write_eval_csv(path, rows: list[GraphVerdict]) -> None:
    """One CSV row per verdict: graph_id, budget, retentions, min_k."""

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return int(value)
        return value

    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(
        [
            "graph_id",
            "budget",
            "retained_explained",
            "retained_remaining",
            "min_k",
        ]
    )
    for r in rows:
        writer.writerow(
            [
                r.graph_id,
                cell(r.budget),
                cell(r.retained_explained),
                cell(r.retained_remaining),
                cell(r.min_k),
            ]
        )
    write_atomic(path, buf.getvalue().encode("utf-8"))


def report_to_dict(report: EvalReport) -> dict:
    return {
        "ep_explained": report.ep_explained,
        "ep_remaining": report.ep_remaining,
        "ep_attribute": report.ep_attribute,
        "sparsity": report.sparsity,
        "eligible_count": report.eligible_count,
        "evaluated_count": report.evaluated_count,
        "per_graph": [
            {
                "graph_id": r.graph_id,
                "budget": r.budget,
                "retained_explained": r.retained_explained,
                "retained_remaining": r.retained_remaining,
                "eligible": r.eligible,
                "min_k": r.min_k,
            }
            for r in report.per_graph
        ],
    }


def save_report(report: EvalReport, path) -> None:
    write_json(path, report_to_dict(report))
