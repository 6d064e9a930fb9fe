"""Full-batch Adam trainer for the graph classifier."""

import math
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .errors import EmptyDataset, NonFiniteLoss, ValidationError
from .model import (
    PROBABILITY_FLOOR,
    GnnModel,
    Layer,
    _backward,
    _forward_trace,
    _propagation_matrix,
    _readout,
    forward,
    normalize_adjacency,
)
from .optim import Adam


@dataclass
class TrainResult:
    model: GnnModel
    train_accuracy: list[float]
    validation_accuracy: list[float]
    train_loss: list[float]


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


def calibrate_parameters(params, hidden_dims, graphs, adjacency) -> None:
    """Center and unit-scale each layer's pre-activations on the split.

    Near-constant attributes push every node field toward one shared
    offset with a tiny node-to-node component, and gradient descent then
    spends most of its budget escaping that flat region.  One exact
    affine pass per layer (weights divided by the pre-activation std,
    bias set to cancel the mean) removes the offset before the first
    update.  Uses only the given split, deterministic for a fixed draw.
    """
    props = [_propagation_matrix(g, adj) for g, adj in zip(graphs, adjacency)]
    hs = [np.asarray(g.attributes, dtype=float) for g in graphs]
    for i in range(len(hidden_dims)):
        w, b = params[2 * i], params[2 * i + 1]
        # one propagation per graph; the layer input is not kept past it
        hs = [a @ h for a, h in zip(props, hs)]
        _center_and_scale(w, b, np.vstack([m @ w for m in hs]))
        hs = [np.maximum(m @ w + b, 0.0) for m in hs]
    w, b = params[-2], params[-1]
    readouts = np.vstack([_readout(h) for h in hs])
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
    if not graphs:
        return float("nan")
    hits = sum(
        1 for g in graphs if forward(model, g).predicted_class == g.label
    )
    return hits / len(graphs)


def train_model(
    dataset: Dataset,
    hidden_dims: tuple[int, ...] = (20, 20, 20),
    learning_rate: float = 0.001,
    epochs: int = 300,
    seed: int = 0,
    train_split: str = "train",
    validation_split: str = "validation",
) -> TrainResult:
    """Fit a fresh model on one split with full-batch Adam.

    The per-epoch objective is the mean floored cross-entropy over the
    training split; accuracy traces are recorded before each update.

    Raises:
        EmptyDataset: the training split selects no graphs.
        ValidationError: a training graph has no label.
        NonFiniteLoss: the objective became NaN or infinite.
    """
    train_graphs = dataset.split_graphs(train_split)
    if not train_graphs:
        raise EmptyDataset(f"split {train_split!r} selects no graphs")
    for g in train_graphs:
        if g.label is None:
            raise ValidationError(f"graph {g.graph_id!r} has no label")
    val_graphs = dataset.split_graphs(validation_split)

    params = init_parameters(
        dataset.attr_dim, dataset.num_classes, tuple(hidden_dims), seed
    )
    adjacency = [normalize_adjacency(g) for g in train_graphs]
    calibrate_parameters(params, tuple(hidden_dims), train_graphs, adjacency)
    optimizer = Adam(params, learning_rate)

    train_accuracy: list[float] = []
    validation_accuracy: list[float] = []
    train_loss: list[float] = []
    model = _assemble(
        dataset.attr_dim, dataset.num_classes, tuple(hidden_dims), params
    )
    for epoch in range(epochs):
        grads = [np.zeros_like(p) for p in params]
        total_loss = 0.0
        hits = 0
        for g, adj in zip(train_graphs, adjacency):
            tr = _forward_trace(model, g, None, adj)
            p_target = max(
                float(tr.probabilities[g.label]), PROBABILITY_FLOOR
            )
            total_loss += -math.log(p_target)
            hits += tr.predicted_class == g.label
            weight_grads, _, _ = _backward(
                model, g, tr, g.label, want_weights=True, want_gates=False
            )
            for acc, wg in zip(grads, weight_grads):
                acc += wg
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
        validation_accuracy.append(evaluate_accuracy(model, val_graphs))
    return TrainResult(model, train_accuracy, validation_accuracy, train_loss)
