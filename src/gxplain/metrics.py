"""Fidelity metrics: does a budgeted piece of the explanation keep the
model's original prediction?

All comparisons target the model's own unmasked prediction, never the
ground-truth label.  Node budgets resolve round-half-up with a floor of
one node; a budget larger than a graph skips that graph entirely.
"""

import csv
import io
import math
import numbers
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from ._atomic import write_atomic, write_json
from ._schema import _listed
from .errors import InvalidBudget, MissingExplanation, ValidationError
from .explain import Explanation
from .model import (
    GnnModel,
    _induced_operands,
    _probabilities,
    _propagation,
    _size_stacks,
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


def _check_integer(name: str, value) -> None:
    """Refuse a bool or a non-integer budget; numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidBudget(f"{name} must be an integer, got {value!r}")


def resolve_budget(
    node_count: int, k: int | None = None, rate: float | None = None
) -> int | None:
    """Node budget for one graph; ``None`` means the graph is skipped.

    Exactly one of ``k`` (absolute, >= 1) and ``rate`` (fraction in (0, 1])
    must be given.  Fractional budgets round half up and keep at least one
    node; a budget larger than the graph yields ``None``, so a graph
    without nodes is skipped under either.
    """
    if (k is None) == (rate is None):
        raise InvalidBudget("give exactly one of k and rate")
    if rate is not None:
        real = isinstance(rate, numbers.Real) and not isinstance(rate, bool)
        if not (real and 0.0 < rate <= 1.0):
            raise InvalidBudget(f"rate must lie in (0, 1], got {rate}")
        k = max(1, int(math.floor(rate * node_count + 0.5)))
    else:
        _check_integer("k", k)
        if k < 1:
            raise InvalidBudget(f"k must be at least 1, got {k}")
    return None if k > node_count else int(k)


def default_prediction(model: GnnModel) -> int:
    """Prediction on the empty graph (the zero-readout output)."""
    x = np.zeros((1, 0, model.attr_dim))
    return int(_probabilities(model, np.zeros((1, 0, 0)), x)[0].argmax())


class _SizeStack(NamedTuple):
    """The scanned graphs with one node count, in scan order."""

    members: np.ndarray  # (b,) each graph's index in the scan
    adjacency: np.ndarray  # (b, n, n) 0/1 arc matrices
    attributes: np.ndarray  # (b, n, d)
    ranking: np.ndarray  # (b, n) node rankings, best first
    target: np.ndarray  # (b,) original predictions


def _stack_by_size(
    model: GnnModel, graphs, rankings, targets
) -> list[_SizeStack]:
    """:func:`model._size_stacks` of ``graphs`` with each graph's node
    ranking (a permutation of its nodes) as int64 and its original
    prediction, from ``rankings`` and ``targets`` in ``graphs`` order."""
    rankings = [np.array(r, dtype=np.int64) for r in rankings]
    stacks = _size_stacks(graphs, model.attr_dim, rankings, targets)
    return [_SizeStack(*s) for s in stacks]


def _induced_blocks(
    adjacency: np.ndarray, which: int | np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """The ``(k, k)`` block that row ``i`` of ``rows`` induces in graph
    ``which[i]`` of the 0/1 stack ``adjacency``, for every row in one
    fancy index; ``which`` may also be one index for every row.  The
    gather copies, so ``adjacency`` stays 0/1."""
    which = np.reshape(which, (-1, 1, 1))
    return adjacency[which, rows[:, :, None], rows[:, None, :]]


def _retains(
    model: GnnModel, stack: _SizeStack, which: np.ndarray, nodes: np.ndarray
) -> np.ndarray:
    """Whether the subgraph that row ``i`` of ``nodes`` induces on graph
    ``which[i]`` of ``stack`` still predicts that graph's original
    class."""
    rows = np.sort(nodes, axis=1)
    blocks = _induced_blocks(stack.adjacency, which, rows)
    a, x = _induced_operands(blocks, stack.attributes, which, rows)
    return _probabilities(model, a, x).argmax(axis=-1) == stack.target[which]


def _attribute_hits(
    model: GnnModel, stacks: list[_SizeStack], scores, top_t: int
) -> list[bool]:
    """Whether each stacked graph still predicts its original class once
    all but each node's ``top_t`` attributes with the highest ``scores``
    (one matrix per graph, in scan order) are zeroed, ties going to the
    lower column: one pass per size stack."""
    hits = np.empty(len(scores), dtype=bool)
    for stack in stacks:
        x = stack.attributes
        # a graph without nodes has nothing to zero, and scores of any width
        if x.shape[1]:
            score = np.stack([scores[i] for i in stack.members])
            top = np.argsort(-score, axis=-1, kind="stable")[..., :top_t]
            keep = np.zeros_like(x)
            np.put_along_axis(keep, top, 1.0, axis=-1)
            x = x * keep
        probs = _probabilities(model, _propagation(stack.adjacency.copy()), x)
        hits[stack.members] = probs.argmax(axis=-1) == stack.target
    return hits.tolist()


def _explained(model: GnnModel, dataset, explanations):
    """The graphs of ``dataset`` sorted by id, their explanations in that
    order, each checked once, and their size stacks: the one reader of
    explanations here."""
    graphs = getattr(dataset, "graphs", dataset)
    graphs = sorted(graphs, key=lambda g: g.graph_id)
    ids = [g.graph_id for g in graphs]
    twice = sorted({a for a, b in zip(ids, ids[1:]) if a == b})
    if twice:
        raise ValidationError(f"graph ids repeat: {_listed(twice)}")
    missing = [i for i in ids if i not in explanations]
    if missing:
        raise MissingExplanation(
            f"missing explanations for: {_listed(missing)}"
        )
    expls = [explanations[i] for i in ids]
    for g, e in zip(graphs, expls):
        e.check_graph(g)
        e.check_model(model)
    rankings = [e.node_ranking for e in expls]
    targets = [e.original_prediction for e in expls]
    return graphs, expls, _stack_by_size(model, graphs, rankings, targets)


def _scan(
    model: GnnModel, graphs, stacks, slots, find_min_k=True
) -> list[GraphVerdict]:
    """One row per ``(graph index, budget)`` slot, all read from one
    lockstep scan over ranking prefixes of the size ``stacks`` of
    ``graphs``; a ``None`` budget is unscored.

    Step s scores, in stacked passes, the s-node prefix of every graph
    with a slot of budget s or a pending ``min_k`` (eligible graphs: a
    target other than the empty graph's), plus the complement of each
    budgeted prefix.  Steps no graph needs are skipped.
    """
    default = default_prediction(model)
    node_count = np.array([g.node_count for g in graphs], dtype=np.int64)
    eligible = np.zeros(len(graphs), dtype=bool)
    for stack in stacks:
        eligible[stack.members] = stack.target != default
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


def _evaluation(
    model, dataset, explanations, k=None, rate=None, attr_top=None,
    compute_sparsity=True, swept=False,
) -> tuple[EvalReport, list[GraphVerdict]]:
    """:func:`evaluate`'s report and its CSV rows: the report's own, or
    :func:`sweep`'s if ``swept``, from one check of the explanations,
    one stack build and one scan whose budget cells are sweep cells."""
    # validate the budgets once, before any graph is read
    resolve_budget(1, k, rate)
    if attr_top is not None:
        _check_integer("attr_top", attr_top)
        if attr_top < 1:
            raise InvalidBudget(f"attr_top must be at least 1, got {attr_top}")
    graphs, expls, stacks = _explained(model, dataset, explanations)
    attribute_hits = []
    if attr_top is not None:
        scores = [e.attr_score for e in expls]
        attribute_hits = _attribute_hits(model, stacks, scores, attr_top)
    sizes = [g.node_count for g in graphs]
    slots = [(i, resolve_budget(n, k, rate)) for i, n in enumerate(sizes)]
    max_n = max(sizes, default=0) if swept else 0
    for b in range(1, max_n + 1):
        slots += [(i, b if b <= n else None) for i, n in enumerate(sizes)]
    rows = _scan(model, graphs, stacks, slots, compute_sparsity)
    rows, swept_rows = rows[: len(graphs)], rows[len(graphs) :]
    scored = [r for r in rows if r.budget is not None]
    min_ks = [r.min_k for r in rows if r.min_k is not None]
    report = EvalReport(
        ep_explained=_share([r.retained_explained for r in scored]),
        ep_remaining=_share([r.retained_remaining for r in scored]),
        ep_attribute=_share(attribute_hits),
        sparsity=float(np.mean(min_ks)) if min_ks else None,
        eligible_count=sum(r.eligible for r in rows),
        evaluated_count=len(scored),
        per_graph=rows,
    )
    return report, swept_rows if swept else rows


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
    prefixes of the eligible graphs all come from one lockstep scan; it
    and the ``attr_top`` pass read the same size stacks, built once.

    Raises:
        MissingExplanation: some selected graph has no explanation.
        ValidationError: a graph id repeats among the selected graphs.
        InvalidBudget: malformed node or attribute budget.
        ShapeMismatch: an explanation that does not fit its graph
            (:meth:`Explanation.check_graph`) or names a class the model
            does not have (:meth:`Explanation.check_model`).
    """
    return _evaluation(
        model, dataset, explanations, k, rate, attr_top, compute_sparsity
    )[0]


def sweep(
    model: GnnModel, dataset, explanations: dict[str, Explanation]
) -> list[GraphVerdict]:
    """Rows for every node budget from 1 to the largest graph, ordered by
    budget and then by graph id; a graph smaller than the budget gets an
    unscored row.  ``min_k`` is as ``evaluate`` gives it, and the errors
    are ``evaluate``'s but for ``InvalidBudget``.
    """
    # any budget serves: its cells are sweep cells
    return _evaluation(model, dataset, explanations, rate=1.0, swept=True)[1]


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
