"""Full-batch Adam trainer for the graph classifier.

The graphs of a split are stacked by node count once per call, and every
pass (calibration, the training epochs, validation) runs on blocks of
those stacks: one forward and one backward per block rather than per
graph.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .datasets import Dataset
from .errors import DomainError, EmptyDataset, NonFiniteLoss, ValidationError
from .model import (
    PROBABILITY_FLOOR,
    GnnModel,
    Layer,
    _adjacency,
    _backward,
    _blocks,
    _check_attr_dim,
    _layer_stack,
    _probabilities,
    _propagation,
    _readout,
)
from .optim import Adam


@dataclass
class TrainResult:
    model: GnnModel
    train_accuracy: list[float]
    validation_accuracy: list[float]
    train_loss: list[float]


class _Stack(NamedTuple):
    """The graphs of a split with one node count, in split order."""

    propagation: np.ndarray  # (b, n, n) unmasked GCN operators
    attributes: np.ndarray  # (b, n, d)
    labels: np.ndarray  # (b,), -1 for an unlabeled graph


def _stack_graphs(graphs) -> list[_Stack]:
    """Stacks of ``graphs`` by ascending node count.

    Normalization is fixed, so the stacks serve every pass of a training
    run.  Graph order within the split is kept inside each stack; on a
    split of equal-size graphs the stack order is the split order.
    """
    by_size: dict[int, list] = {}
    for g in graphs:
        by_size.setdefault(g.node_count, []).append(g)
    return [
        _Stack(
            _propagation(_adjacency(group)),
            np.stack([g.attributes for g in group]),
            np.array([-1 if g.label is None else g.label for g in group]),
        )
        for _, group in sorted(by_size.items())
    ]


def _accuracy(model: GnnModel, stacks: list[_Stack]) -> float:
    """Fraction of the stacked graphs whose prediction matches the label,
    or NaN when there are none."""
    count = sum(len(s.labels) for s in stacks)
    if not count:
        return float("nan")
    hits = sum(
        int((_probabilities(model, a, x).argmax(-1) == y).sum())
        for a, x, y in stacks
    )
    return hits / count


def _epoch_gradients(
    model: GnnModel, stacks: list[_Stack]
) -> tuple[list[np.ndarray], float, int]:
    """Summed weight gradients, summed floored cross-entropy and hit count
    over the stacked graphs, one forward and backward per block.

    Sums run graph by graph in block order, so they equal a per-graph
    loop over the same order bit for bit.  Each block is folded in once:
    row 0 of a ``(b + 1, P)`` array holds the running sum of all ``P``
    parameters, row ``1 + i`` graph ``i``'s gradients side by side, and
    ``np.add.reduce`` over that outer axis adds the rows one after
    another (over a contiguous inner axis it would add pairwise; the
    head bias alone gives ``P >= 2``).  The node axis inside each graph
    is reduced as :func:`model._node_major` says.  The gradients are
    returned as views of the running sum, shaped as the parameters.
    """
    params = [
        w
        for layer in model.gcn_layers + model.head_layers
        for w in (layer.weight, layer.bias)
    ]
    total = np.zeros(sum(w.size for w in params))
    grads, lo = [], 0
    for w in params:
        grads.append(total[lo : lo + w.size].reshape(w.shape))
        lo += w.size
    total_loss = 0.0
    hits = 0
    blocks = (
        (s.propagation[rows], s.attributes[rows], s.labels[rows])
        for s in stacks
        for rows in _blocks(s.propagation)
    )
    for a, x, y in blocks:
        tr = _layer_stack(model, a, x)
        p = tr.probabilities
        for p_target in p[np.arange(len(y)), y].tolist():
            total_loss += -math.log(max(p_target, PROBABILITY_FLOOR))
        hits += int((p.argmax(-1) == y).sum())
        block = _backward(model, tr, y)
        fold = np.empty((len(y) + 1, total.size))
        fold[0] = total
        np.concatenate(
            [g.reshape(len(y), -1) for g in block], axis=1, out=fold[1:]
        )
        np.add.reduce(fold, axis=0, out=total)
        del tr, p, block, fold  # free this block before the next forward
    return grads, total_loss, hits


def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))


def init_parameters(
    attr_dim: int,
    num_classes: int,
    hidden_dims: tuple[int, ...],
    seed: int,
) -> list[np.ndarray]:
    """Glorot-uniform weights and zero biases, in layer order."""
    rng = np.random.default_rng(seed)
    params: list[np.ndarray] = []
    dim = attr_dim
    for width in hidden_dims:
        params.append(_glorot(rng, dim, width))
        params.append(np.zeros(width))
        dim = width
    params.append(_glorot(rng, 2 * dim, num_classes))
    params.append(np.zeros(num_classes))
    return params


def _center_and_scale(weight, bias, pre) -> None:
    if pre.shape[0] == 0:
        return
    mean = pre.mean(axis=0)
    std = pre.std(axis=0)
    live = std > 1e-8
    scale = np.where(live, std, 1.0)
    weight /= scale
    bias[:] = np.where(live, -mean / scale, 0.0)


def _calibrate_parameters(
    params, hidden_dims, stacks: list[_Stack]
) -> None:
    """Center and unit-scale each layer's pre-activations on the split.

    Near-constant attributes push every node field toward one shared
    offset with a tiny node-to-node component, and gradient descent then
    spends most of its budget escaping that flat region.  One exact
    affine pass per layer (weights divided by the pre-activation std,
    bias set to cancel the mean) removes the offset before the first
    update.  Uses only the given split (as :func:`_stack_graphs` stacks
    it), deterministic for a fixed draw.
    """
    hs = [s.attributes for s in stacks]
    for i in range(len(hidden_dims)):
        w, b = params[2 * i], params[2 * i + 1]
        # one propagation per stack; the layer input is not kept past it
        hs = [s.propagation @ h for s, h in zip(stacks, hs)]
        pre = [(m @ w).reshape(-1, w.shape[1]) for m in hs]
        _center_and_scale(w, b, np.concatenate(pre))
        hs = [np.maximum(m @ w + b, 0.0) for m in hs]
    w, b = params[-2], params[-1]
    readouts = np.concatenate([_readout(h) for h in hs])
    _center_and_scale(w, b, readouts @ w)


def _assemble(
    attr_dim: int,
    num_classes: int,
    hidden_dims: tuple[int, ...],
    params: list[np.ndarray],
) -> GnnModel:
    gcn = tuple(
        Layer(params[2 * i], params[2 * i + 1], "relu")
        for i in range(len(hidden_dims))
    )
    head = (Layer(params[-2], params[-1], "identity"),)
    return GnnModel(attr_dim, num_classes, gcn, head)


def evaluate_accuracy(model: GnnModel, graphs) -> float:
    """Fraction of graphs whose prediction matches the stored label."""
    graphs = list(graphs)
    for g in graphs:
        _check_attr_dim(model, g)
    return _accuracy(model, _stack_graphs(graphs))


def train_model(
    dataset: Dataset,
    hidden_dims: tuple[int, ...] = (20, 20, 20),
    learning_rate: float = 0.001,
    epochs: int = 300,
    seed: int = 0,
) -> TrainResult:
    """Fit a fresh model on the train split with full-batch Adam.

    The per-epoch objective is the mean floored cross-entropy over the
    training split; accuracy traces are recorded before each update.

    Raises:
        DomainError: no hidden layer, a width below 1, a learning rate
            that is not positive and finite, or a negative epoch count or
            seed.
        EmptyDataset: the training split selects no graphs.
        ValidationError: a training graph has no label.
        NonFiniteLoss: the objective became NaN or infinite.
    """
    if not hidden_dims or min(hidden_dims) < 1:
        raise DomainError(
            f"hidden_dims must be one or more widths >= 1, got {hidden_dims}"
        )
    if not 0.0 < learning_rate < math.inf:
        raise DomainError(
            f"learning rate must be positive and finite, got {learning_rate}"
        )
    if epochs < 0:
        raise DomainError(f"epochs must be >= 0, got {epochs}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    train_graphs = dataset.split_graphs("train")
    if not train_graphs:
        raise EmptyDataset("split 'train' selects no graphs")
    for g in train_graphs:
        if g.label is None:
            raise ValidationError(f"graph {g.graph_id!r} has no label")

    params = init_parameters(
        dataset.attr_dim, dataset.num_classes, tuple(hidden_dims), seed
    )
    train_stacks = _stack_graphs(train_graphs)
    val_stacks = _stack_graphs(dataset.split_graphs("validation"))
    _calibrate_parameters(params, tuple(hidden_dims), train_stacks)
    optimizer = Adam(params, learning_rate)

    train_accuracy: list[float] = []
    validation_accuracy: list[float] = []
    train_loss: list[float] = []
    model = _assemble(
        dataset.attr_dim, dataset.num_classes, tuple(hidden_dims), params
    )
    for epoch in range(epochs):
        grads, total_loss, hits = _epoch_gradients(model, train_stacks)
        mean_loss = total_loss / len(train_graphs)
        if not math.isfinite(mean_loss):
            raise NonFiniteLoss(f"epoch {epoch}: training loss {mean_loss}")
        train_loss.append(mean_loss)
        train_accuracy.append(hits / len(train_graphs))
        for acc in grads:
            acc /= len(train_graphs)
        optimizer.step(grads)
        model = _assemble(
            dataset.attr_dim, dataset.num_classes, tuple(hidden_dims), params
        )
        validation_accuracy.append(_accuracy(model, val_stacks))
    return TrainResult(model, train_accuracy, validation_accuracy, train_loss)
