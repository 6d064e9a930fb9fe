"""Full-batch Adam trainer for the graph classifier.

The graphs of a split are stacked once per call by
:func:`model._size_stacks`, the builder the eval scan uses too, and every
pass (calibration, the training epochs, validation) runs on
:func:`model._blocks` slices of those stacks: one forward and one
backward per block rather than per graph.  Calibration holds one
layer-output buffer per stack beside the stacks, so its peak memory
above them is about one ``(graphs, nodes, width)`` float64 field.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._schema import MAX_SIZE, _shown
from .datasets import Dataset
from .errors import DomainError, EmptyDataset, NonFiniteLoss, ValidationError
from .model import (
    GnnModel,
    Layer,
    _backward,
    _blocks,
    _check_attr_dim,
    _layer_stack,
    _log_probabilities,
    _probabilities,
    _propagation,
    _readout,
    _size_stacks,
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


def _stack_graphs(graphs, attr_dim: int) -> list[_Stack]:
    """:func:`model._size_stacks` of ``graphs``, normalized, with their
    labels.  Normalization is fixed, so the stacks serve every pass of a
    training run."""
    labels = [-1 if g.label is None else g.label for g in graphs]
    return [
        _Stack(_propagation(a), x, y)
        for _, a, x, y in _size_stacks(graphs, attr_dim, labels)
    ]


def _accuracy(model: GnnModel, stacks: list[_Stack]) -> float:
    """Fraction of the stacked labeled graphs whose prediction matches the
    label, or NaN when none is labeled; an unlabeled graph (label -1) is
    neither a hit nor a miss."""
    count = sum(int((s.labels >= 0).sum()) for s in stacks)
    if not count:
        return float("nan")
    hits = sum(
        int((_probabilities(model, a, x).argmax(-1) == y).sum())
        for a, x, y in stacks
    )
    return hits / count


def _fold(total: np.ndarray, parts: list[np.ndarray]) -> None:
    """Add the rows of ``parts``, ``(r, ...)`` arrays laid side by side,
    to the running sum ``total`` one row after another.

    Row 0 of a ``(1 + r, total.size)`` array holds ``total`` and the rest
    the rows, and ``np.add.reduce`` over that outer axis adds them in
    order, as numpy's ``.sum(axis=0)`` of all rows so far would (over a
    contiguous inner axis it would add pairwise; ``total`` needs two
    entries or more).
    """
    fold = np.empty((1 + len(parts[0]), total.size))
    fold[0] = total
    np.concatenate(parts, axis=1, out=fold[1:])
    np.add.reduce(fold, axis=0, out=total)


def _epoch_gradients(
    model: GnnModel, stacks: list[_Stack]
) -> tuple[list[np.ndarray], float, int]:
    """Summed weight gradients, summed floored cross-entropy and hit count
    over the stacked graphs, one forward and backward per block.

    Sums run graph by graph in block order, so they equal a per-graph
    loop over the same order bit for bit.  Each block is folded in once
    by :func:`_fold`, graph ``i``'s gradients side by side in row ``i``
    (the head bias alone gives ``P >= 2`` columns).  The node axis
    inside each graph is reduced as :func:`model._node_major` says.  The
    gradients are returned as views of the running sum, shaped as the
    parameters.
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
        # a - v is the bits of a + (-v), the sum of cross-entropies
        for log_p in _log_probabilities(p[np.arange(len(y)), y]):
            total_loss -= log_p
        hits += int((p.argmax(-1) == y).sum())
        block = _backward(model, tr, y)
        _fold(total, [g.reshape(len(y), -1) for g in block])
        del tr, p, block  # free this block before the next forward
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


def _set_affine(weight, bias, mean, std) -> None:
    live = std > 1e-8
    scale = np.where(live, std, 1.0)
    weight /= scale
    bias[:] = np.where(live, -mean / scale, 0.0)


def _moments(pre_blocks, width: int):
    """``(mean, std)`` over the rows of the ``(..., width)`` arrays that
    ``pre_blocks()`` yields, or None when they hold no rows.

    The bytes are numpy's ``.mean(axis=0)`` and ``.std(axis=0)`` of all
    rows stacked in order, with only one block held at a time:
    ``pre_blocks`` is called twice, once to :func:`_fold` the rows, once
    to fold their squared deviations from the mean (numpy's ``_var``:
    subtract, square, sum, divide by the count, then the square root).
    Numpy sums a contiguous width-1 column pairwise, so that column (8
    bytes a row) is gathered and handed to numpy instead.
    """
    if width == 1:
        col = np.concatenate([p.reshape(-1, 1) for p in pre_blocks()])
        return (col.mean(axis=0), col.std(axis=0)) if len(col) else None
    total, count = np.zeros(width), 0
    for pre in pre_blocks():
        pre = pre.reshape(-1, width)
        _fold(total, [pre])
        count += len(pre)
    if not count:
        return None
    mean = total / count
    squares = np.zeros(width)
    for pre in pre_blocks():
        x = pre.reshape(-1, width) - mean
        x *= x
        _fold(squares, [x])
    return mean, np.sqrt(squares / count)


def _layer_buffer(h: np.ndarray, width: int, reuse: bool) -> np.ndarray:
    """An uninitialized ``(b, n, width)`` array for the layer fed ``(b, n,
    w)`` fields ``h``; with ``reuse`` and ``width <= w`` it lies on
    ``h``'s memory.  Block ``rows`` of it then ends no later than block
    ``rows`` of ``h``, so blocks written in order only overwrite input
    that is already read."""
    b, n, w = h.shape
    if reuse and width <= w:
        return h.reshape(-1)[: b * n * width].reshape(b, n, width)
    return np.empty((b, n, width))


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

    Each layer reads the split in :func:`model._blocks` slices, three
    times: :func:`_moments` folds the pre-activations, then their
    deviations, and a last pass writes the layer's output into one
    buffer per stack (over its input where the width allows; the last
    layer's output goes straight to the readouts).  So besides the
    stacks only one layer's output (two while a wider layer follows a
    narrower one) and one block's fields are held, and the result is,
    byte for byte, the statistics of the whole stacked split.
    """
    hs = [s.attributes for s in stacks]
    readouts = np.empty(
        (sum(len(s.labels) for s in stacks), 2 * hidden_dims[-1])
    )
    for i, width in enumerate(hidden_dims):
        w, b = params[2 * i], params[2 * i + 1]

        def pre_blocks():
            for s, h in zip(stacks, hs):
                for rows in _blocks(s.propagation):
                    yield (s.propagation[rows] @ h[rows]) @ w

        moments = _moments(pre_blocks, width)
        if moments is not None:
            _set_affine(w, b, *moments)
        last = i == len(hidden_dims) - 1
        lo = 0
        for j, (s, h) in enumerate(zip(stacks, hs)):
            out = None if last else _layer_buffer(h, width, i > 0)
            for rows in _blocks(s.propagation):
                z = (s.propagation[rows] @ h[rows]) @ w
                z += b
                if last:
                    u = _readout(np.maximum(z, 0.0))
                    readouts[lo : lo + len(u)] = u
                    lo += len(u)
                else:
                    np.maximum(z, 0.0, out=out[rows])
            hs[j] = out  # the last layer frees each stack's buffer
    w, b = params[-2], params[-1]
    pre = readouts @ w
    moments = _moments(lambda: [pre], len(b))
    if moments is not None:
        _set_affine(w, b, *moments)


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
    """Fraction of the labeled graphs whose prediction matches the stored
    label; unlabeled graphs are skipped, and with no labeled graph the
    result is NaN."""
    graphs = list(graphs)
    for g in graphs:
        _check_attr_dim(model.attr_dim, g)
    return _accuracy(model, _stack_graphs(graphs, model.attr_dim))


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
        DomainError: no hidden layer, a width below 1 or above
            :data:`MAX_SIZE`, a learning rate that is not positive and
            finite, or a negative epoch count or seed.
        EmptyDataset: the training split selects no graphs.
        ValidationError: a training graph has no label.
        NonFiniteLoss: the objective became NaN or infinite.
    """
    if not hidden_dims or min(hidden_dims) < 1:
        raise DomainError(
            f"hidden_dims must be one or more widths >= 1, got {hidden_dims}"
        )
    if max(hidden_dims) > MAX_SIZE:
        width = _shown(max(hidden_dims))
        raise DomainError(f"hidden width {width} is above {MAX_SIZE}")
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
            raise ValidationError(f"graph {_shown(g.graph_id)} has no label")

    params = init_parameters(
        dataset.attr_dim, dataset.num_classes, tuple(hidden_dims), seed
    )
    train_stacks = _stack_graphs(train_graphs, dataset.attr_dim)
    val_stacks = _stack_graphs(
        dataset.split_graphs("validation"), dataset.attr_dim
    )
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
