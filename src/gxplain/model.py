"""Graph-convolution classifier: masked forward pass, exact mask gradients,
and JSON serialization.

Conventions used throughout:

* An arc ``(s, t)`` carries a message from ``s`` to ``t``.
* Normalization coefficients are computed once from the unmasked graph and
  stay fixed while gates vary; an edge gate scales its arc's message term
  only, and self-loop terms are never gated.
* Attribute gates apply to the input layer only.
* The readout concatenates max pooling and mean pooling over nodes; on an
  empty graph it is the zero vector, so every model still emits a prediction.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._atomic import write_json
from ._schema import (
    _shown,
    as_float_array,
    as_int,
    as_list,
    as_str,
    read_document,
    read_field,
)
from .errors import (
    DomainError,
    IndexOutOfRange,
    ParseError,
    ShapeMismatch,
    UnsupportedActivation,
)
from .graphs import AttributedGraph

MODEL_FORMAT_VERSION = 1
READOUT_MAX_MEAN = "max_mean_concat"
PROBABILITY_FLOOR = 1e-12
# graphs per stacked pass.  Scoring 13-node subsets with probability-only
# passes (2-vCPU host, one BLAS thread), 256-row blocks were no faster
# than 128 (within noise) and raised peak memory by about 10%, and
# 512-row blocks ran 15-35% slower: their node fields outgrow the cache
SUBSET_BLOCK_ROWS = 128
# propagation entries per pass (128 graphs of 16 nodes): stacks of larger
# graphs get fewer rows, so a pass's layer fields never need much more
# memory than one forward of its largest graph.  Blocking bounds only
# those fields: the operands of every row exist before it.  In the eval
# scan they are no larger than the size stack's 0/1 adjacency, which is
# held anyway, and the attribute pass holds one normalized copy of it; in
# the oracle they are 8x its distinct bool subset blocks.  Training's
# calibration also keeps one layer output per stack, each layer's input
# to the next (training._calibrate_parameters)
_BLOCK_ENTRIES = SUBSET_BLOCK_ROWS * 16 * 16

_ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True, eq=False)
class Layer:
    """One dense transform: ``act(input @ weight + bias)``."""

    weight: np.ndarray
    bias: np.ndarray
    activation: str

    def __post_init__(self):
        w = np.array(self.weight, dtype=np.float64)
        b = np.array(self.bias, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
            raise ShapeMismatch(
                f"layer weight {w.shape} incompatible with bias {b.shape}"
            )
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ShapeMismatch("layer parameters must be finite")
        if self.activation not in _ACTIVATIONS:
            raise UnsupportedActivation(
                f"unknown activation {_shown(self.activation)}"
            )
        w.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]


@dataclass(frozen=True, eq=False)
class GnnModel:
    """Stack of graph-convolution layers, pooling readout, and a dense head."""

    attr_dim: int
    num_classes: int
    gcn_layers: tuple[Layer, ...]
    head_layers: tuple[Layer, ...]
    readout: str = READOUT_MAX_MEAN

    def __post_init__(self):
        object.__setattr__(self, "gcn_layers", tuple(self.gcn_layers))
        object.__setattr__(self, "head_layers", tuple(self.head_layers))
        if self.num_classes < 2:
            raise ShapeMismatch(
                f"need at least 2 classes, got {self.num_classes}"
            )
        if self.readout != READOUT_MAX_MEAN:
            raise ShapeMismatch(f"unknown readout {_shown(self.readout)}")
        if not self.head_layers:
            raise ShapeMismatch("model needs at least one head layer")
        dim = self.attr_dim
        for i, layer in enumerate(self.gcn_layers):
            if layer.in_dim != dim:
                raise ShapeMismatch(
                    f"gcn layer {i} expects {layer.in_dim} inputs, chain"
                    f" provides {dim}"
                )
            dim = layer.out_dim
        dim = 2 * dim
        for i, layer in enumerate(self.head_layers):
            if layer.in_dim != dim:
                raise ShapeMismatch(
                    f"head layer {i} expects {layer.in_dim} inputs, chain"
                    f" provides {dim}"
                )
            dim = layer.out_dim
        if dim != self.num_classes:
            raise ShapeMismatch(
                f"head emits {dim} logits for {self.num_classes} classes"
            )


@dataclass(frozen=True, eq=False)
class MaskedInput:
    """Per-arc edge gates and per-(node, attribute) gates, clamped to [0, 1]."""

    edge_gate: np.ndarray
    attribute_gate: np.ndarray

    def __post_init__(self):
        eg = np.clip(np.asarray(self.edge_gate, dtype=np.float64), 0.0, 1.0)
        ag = np.clip(
            np.asarray(self.attribute_gate, dtype=np.float64), 0.0, 1.0
        )
        if eg.ndim != 1 or ag.ndim != 2:
            raise ShapeMismatch(
                f"edge gate must be a vector and attribute gate a matrix,"
                f" got {eg.shape} and {ag.shape}"
            )
        # clip keeps a NaN, which no gate rule reads as a gate
        if np.isnan(eg).any() or np.isnan(ag).any():
            raise DomainError("gates must not be NaN")
        eg.flags.writeable = False
        ag.flags.writeable = False
        object.__setattr__(self, "edge_gate", eg)
        object.__setattr__(self, "attribute_gate", ag)


@dataclass(frozen=True)
class ForwardResult:
    logits: np.ndarray
    probabilities: np.ndarray
    predicted_class: int


@dataclass(frozen=True)
class MaskGradients:
    """Exact loss gradients with respect to each gate, weights held fixed."""

    edge_gate: np.ndarray
    attribute_gate: np.ndarray


@dataclass
class _Trace:
    a_eff: np.ndarray
    node_h: list[np.ndarray]
    node_m: list[np.ndarray]
    node_z: list[np.ndarray]
    head_u: list[np.ndarray]
    head_z: list[np.ndarray]
    logits: np.ndarray
    probabilities: np.ndarray

    @property
    def predicted_class(self) -> int:
        return int(np.argmax(self.probabilities))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    # np.add.reduce is ndarray.sum without its Python-level wrapper
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _check_attr_dim(attr_dim: int, g: AttributedGraph) -> None:
    if g.attr_dim != attr_dim:
        raise ShapeMismatch(
            f"graph has {g.attr_dim} attributes, model expects {attr_dim}"
        )


def _check_mask(g: AttributedGraph, mask: MaskedInput) -> None:
    if mask.edge_gate.shape != (g.arc_count,):
        raise ShapeMismatch(
            f"edge gate shape {mask.edge_gate.shape} does not match"
            f" {g.arc_count} arcs"
        )
    if mask.attribute_gate.shape != (g.node_count, g.attr_dim):
        raise ShapeMismatch(
            f"attribute gate shape {mask.attribute_gate.shape} does not"
            f" match ({g.node_count}, {g.attr_dim})"
        )


def _adjacency(graphs) -> np.ndarray:
    """The 0/1 arc matrices of ``graphs``, equal-size graphs, as a dense
    ``(b, n, n)`` stack: entry ``[t, s]`` is 1 for each arc ``(s, t)``."""
    b, n = len(graphs), graphs[0].node_count
    a = np.zeros((b, n, n))
    for i, g in enumerate(graphs):
        src, dst = g.arc_index_arrays()
        a[i, dst, src] = 1.0
    return a


def _size_stacks(graphs, attr_dim: int, *columns) -> list[tuple]:
    """``graphs`` stacked by node count, ascending: per count, the
    members' indices into ``graphs`` in list order, their 0/1
    :func:`_adjacency` stack, their ``(b, n, d)`` attributes and each of
    ``columns`` (one entry per graph) gathered by member.  A graph with
    nodes must have ``attr_dim`` attributes; one without nodes takes any
    width, and its stack gets ``attr_dim``-wide zeros."""
    sizes = np.array([g.node_count for g in graphs], dtype=np.int64)
    stacks = []
    for n in np.unique(sizes).tolist():
        members = np.flatnonzero(sizes == n)
        group = [graphs[i] for i in members]
        if n:
            for g in group:
                _check_attr_dim(attr_dim, g)
            x = np.stack([g.attributes for g in group])
        else:
            x = np.zeros((len(group), 0, attr_dim))
        gathered = [np.array([c[i] for i in members]) for c in columns]
        stacks.append((members, _adjacency(group), x, *gathered))
    return stacks


def _propagation(a: np.ndarray) -> np.ndarray:
    """The unmasked GCN operators of the 0/1 arc stack ``a``, ``(..., n,
    n)`` as :func:`_adjacency` lays it out: row ``t`` holds ``1 /
    sqrt(deg(s) * deg(t))`` for each arc ``(s, t)`` and ``1 / deg(t)`` on
    the diagonal, ``deg`` being in-degree + 1.  ``a`` is scaled in place
    and returned, so no other ``(..., n, n)`` array is made.
    """
    deg = a.sum(axis=-1) + 1.0
    inv_sqrt = 1.0 / np.sqrt(deg)
    a *= inv_sqrt[..., :, None]
    a *= inv_sqrt[..., None, :]
    idx = np.arange(a.shape[-1])
    a[..., idx, idx] = 1.0 / deg
    return a


def _node_major(h: np.ndarray) -> tuple[np.ndarray, int]:
    """Node fields ``h``, ``(..., n, w)``, laid out for a reduction over
    their nodes, and the axis that holds the nodes.

    A ``(b, n, w)`` stack wider than 1 is copied node-major, ``(n, b,
    w)``: numpy then reduces one contiguous row of ``b * w`` entries per
    node instead of ``b`` inner loops of ``w``, in the same node-by-node
    order, so the bytes are those of ``h.max(axis=-2)`` and
    ``h.sum(axis=-2)``.  Anything else keeps numpy's order: a single
    graph, so the mask step pays for no copy, and a width-1 stack,
    stride-0 views included, whose contiguous node axis numpy sums
    pairwise from 8 nodes on, where a node-major sum would not.
    """
    if h.ndim == 3 and h.shape[-1] > 1:
        return h.swapaxes(0, 1).copy(), 0
    return h, -2


def _readout(h: np.ndarray) -> np.ndarray:
    """Max+mean pooling of node fields ``(..., n, w)`` over the node axis,
    or zero vectors when n = 0."""
    n = h.shape[-2]
    if n == 0:
        return np.zeros(h.shape[:-2] + (2 * h.shape[-1],))
    # the node axis node-major, except where numpy's own order must stay
    # (see _node_major); np.add.reduce over it, divided by n, is the
    # bytes of h.mean without its Python-level wrappers
    h, nodes = _node_major(h)
    total = np.add.reduce(h, axis=nodes)
    return np.concatenate([h.max(axis=nodes), total / n], axis=-1)


def _layer_stack(
    model: GnnModel, a_eff: np.ndarray, h: np.ndarray, *, keep: bool = True
) -> _Trace | np.ndarray:
    """GCN layers, readout, head and softmax on ``(..., n, n)`` propagation
    and ``(..., n, d)`` node fields; leading axes stack independent graphs.

    Each product is a per-graph one (stacked ``a @ h``, broadcast
    ``h @ W``, a head row as ``(1, w) @ W``), so every slice of a stack is
    bit-identical to the same graph run alone.

    With ``keep`` the result is a :class:`_Trace` for :func:`_backward`.
    Without it no layer's arrays outlive the next layer, and the result
    is only the ``(..., classes)`` probabilities, which :func:`_backward`
    cannot take.
    """
    node_h = [h]
    node_m = []
    node_z = []
    for layer in model.gcn_layers:
        m = a_eff @ h
        z = m @ layer.weight
        z += layer.bias
        h = np.maximum(z, 0.0) if layer.activation == "relu" else z
        if keep:
            node_m.append(m)
            node_z.append(z)
            node_h.append(h)

    u = _readout(h)
    head_u = [u]
    head_z = []
    for layer in model.head_layers:
        z = (u[..., None, :] @ layer.weight)[..., 0, :]
        z += layer.bias
        u = np.maximum(z, 0.0) if layer.activation == "relu" else z
        if keep:
            head_z.append(z)
            head_u.append(u)

    probabilities = _softmax(u)
    if not keep:
        return probabilities
    return _Trace(
        a_eff=a_eff,
        node_h=node_h,
        node_m=node_m,
        node_z=node_z,
        head_u=head_u,
        head_z=head_z,
        logits=u,
        probabilities=probabilities,
    )


class _Gates:
    """The one gate rule, on graph ``g``: an edge gate scales its arc's
    coefficient in ``unmasked``, ``g``'s operator before gates, at flat
    index ``dst * n + src``, and an attribute gate scales its cell.
    :meth:`forward` writes the gated arcs into one operator buffer, made
    once, so a step copies no ``(n, n)`` operator.  Gates of 1.0 keep
    every bit: ``coef * 1`` and ``x * 1`` are exact."""

    __slots__ = ("g", "unmasked", "flat", "coef", "a")

    def __init__(self, g: AttributedGraph):
        self.g = g
        self.unmasked = _propagation(_adjacency([g]))[0]
        src, dst = g.arc_index_arrays()
        self.flat = dst * g.node_count + src
        self.coef = self.unmasked.ravel()[self.flat]
        self.a = self.unmasked.copy()

    def forward(self, model: GnnModel, edge_gate, attr_gate) -> _Trace:
        """The gated trace; it reads ``a`` until the next call."""
        self.a.ravel()[self.flat] = self.coef * edge_gate
        return _layer_stack(model, self.a, self.g.attributes * attr_gate)

    def gradients(self, model, tr, target, edge_out=None, attr_out=None):
        """d loss / d gate of a :meth:`forward` trace, by the chain rule."""
        da, dx = _backward(model, tr, target, inputs=True)
        return (
            np.multiply(da.ravel()[self.flat], self.coef, out=edge_out),
            np.multiply(dx, self.g.attributes, out=attr_out),
        )

    def operators(self, edge_gate: np.ndarray) -> np.ndarray:
        """The ``(b, n, n)`` operators of ``(b, arcs)`` edge gates."""
        a = np.repeat(self.unmasked[None], len(edge_gate), axis=0)
        a.reshape(len(a), -1)[:, self.flat] = self.coef * edge_gate
        return a

    def rows_per_pass(self) -> int:
        """Gated views of ``g`` that one stacked pass takes."""
        return _block_rows(self.g.node_count)

    def below_floor(self, model, edge_gate, attr_gate, target) -> np.ndarray:
        """Whether ``target``'s probability lies below the floor in each
        gated view, for ``(b, arcs)`` edge and ``(b, n, d)`` attribute
        gates; a NaN does not.  One :func:`_probabilities` pass scores
        the views, so row ``i`` reads the bits :meth:`forward` gives."""
        x = self.g.attributes * attr_gate
        probs = _probabilities(model, self.operators(edge_gate), x)
        return probs[:, target] < PROBABILITY_FLOOR


def _forward_trace(
    model: GnnModel,
    g: AttributedGraph,
    mask: MaskedInput | None,
    gates: _Gates | None = None,
) -> _Trace:
    """Forward pass of one graph, through ``mask`` unless it is None."""
    _check_attr_dim(model.attr_dim, g)
    if mask is None:
        a = gates.unmasked if gates else _propagation(_adjacency([g]))[0]
        return _layer_stack(model, a, np.asarray(g.attributes))
    _check_mask(g, mask)
    if gates is None:
        gates = _Gates(g)
    return gates.forward(model, mask.edge_gate, mask.attribute_gate)


def forward(
    model: GnnModel, g: AttributedGraph, mask: MaskedInput | None = None
) -> ForwardResult:
    """Run the classifier on ``g``, optionally through a ``MaskedInput``."""
    tr = _forward_trace(model, g, mask)
    return ForwardResult(tr.logits, tr.probabilities, tr.predicted_class)


def _block_rows(k: int) -> int:
    """Rows of ``k``-node graphs that one stacked pass takes."""
    return max(1, min(SUBSET_BLOCK_ROWS, _BLOCK_ENTRIES // max(k * k, 1)))


def _blocks(a: np.ndarray):
    """Row slices that cut the ``(b, n, n)`` operator stack ``a`` into
    stacked passes of at most :func:`_block_rows` ``(n)`` graphs."""
    step = _block_rows(a.shape[-1])
    return (slice(lo, lo + step) for lo in range(0, len(a), step))


def _probabilities(
    model: GnnModel, a: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Class probabilities, ``(b, classes)``, of the ``(b, n, n)``
    operator stack ``a`` on the ``(b, n, d)`` node fields ``x``, one
    probability-only pass per :func:`_blocks` slice; row ``i`` is, bit
    for bit, graph ``i`` run alone."""
    probs = np.empty((len(a), model.num_classes))
    for rows in _blocks(a):
        probs[rows] = _layer_stack(model, a[rows], x[rows], keep=False)
    return probs


def _induced_operands(
    blocks: np.ndarray,
    attributes: np.ndarray,
    graph: int | np.ndarray,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """GCN operators and node fields of node-induced subgraphs, stacked:
    ``blocks`` holds each subgraph's ``(k, k)`` 0/1 block, laid out as
    :func:`_adjacency` lays it out, and row ``i`` of ``rows``, a ``(b,
    k)`` int array of its node indices, picks its node fields from graph
    ``graph[i]`` of ``attributes`` (``(G, n, d)``); ``graph`` may also be
    one index for every row.  Degrees are counted inside each block.  A
    float64 ``blocks`` is normalized in place; any other dtype is
    converted first.  With ascending ``rows``, :func:`_probabilities` of
    the result gives, row for row and bit for bit, :func:`forward` on
    each extracted subgraph.
    """
    graph = np.reshape(graph, (-1, 1))
    a = _propagation(blocks.astype(np.float64, copy=False))
    return a, attributes[graph, rows]


def _cross_entropy(p: float) -> float:
    """``-log p``, floored where :func:`_backward`'s gradients are 0."""
    return -math.log(max(p, PROBABILITY_FLOOR))


def _log_probabilities(p: np.ndarray):
    """``log`` of each probability in ``p``, floored as in
    :func:`_cross_entropy`: ``math.log`` of each, which ``np.log`` is not
    to the last bit on every input."""
    return map(math.log, np.maximum(p, PROBABILITY_FLOOR).tolist())


def _on_floor(p: float) -> bool:
    """Whether the loss of target probability ``p`` sits on the floor,
    where :func:`_backward` makes every gradient zero; a NaN does."""
    return not p >= PROBABILITY_FLOOR


def _backward(model: GnnModel, tr: _Trace, target, inputs: bool = False):
    """Reverse-mode gradients of :func:`_cross_entropy`.

    ``tr`` may stack graphs on leading axes, as :func:`_layer_stack`
    does; ``target`` then holds one class per graph.  The result lists
    the weight gradients ``dW, db`` per layer in forward order, each with
    the stack's leading axes, so slice ``i`` is the gradient of graph
    ``i`` alone.  With ``inputs`` it is ``(d_operator, d_fields)``
    instead: the gradients with respect to ``tr.a_eff`` and to the input
    node fields ``tr.node_h[0]``, in their shapes, from which
    :meth:`_Gates.gradients` forms the gate gradients.
    Every product is a per-graph one, as in the forward pass, so each
    slice is bit-identical to the same graph run alone.
    """
    p = tr.probabilities
    d_logits = p.copy()
    # where the loss sits on the floor every gradient is zero
    if p.ndim == 1:
        # one graph, as in every mask step: plain scalar indexing
        stack = ()
        d_logits[target] -= 1.0
        if _on_floor(p[target]):
            d_logits[:] = 0.0
    else:
        # each graph's position in the stack
        stack = np.ix_(*map(range, p.shape[:-1]))
        at = stack + (target,)
        d_logits[at] -= 1.0
        d_logits[~(p[at] >= PROBABILITY_FLOOR)] = 0.0

    head_w: list[tuple[np.ndarray, np.ndarray]] = []
    du = d_logits
    for j in reversed(range(len(model.head_layers))):
        layer = model.head_layers[j]
        # relu subgradient at 0 is taken as 0
        dz = du * (tr.head_z[j] > 0.0) if layer.activation == "relu" else du
        if not inputs:
            head_w.append((tr.head_u[j][..., :, None] * dz[..., None, :], dz))
        du = (dz[..., None, :] @ layer.weight.T)[..., 0, :]

    h_last = tr.node_h[-1]
    n, width = h_last.shape[-2:]
    dh = np.zeros(h_last.shape)
    if n > 0:
        # the max pool's gradient goes to each column's argmax node
        rows = tuple(i[..., None] for i in stack)
        cols = np.arange(width)
        dh[(*rows, h_last.argmax(axis=-2), cols)] += du[..., :width]
        dh += du[..., None, width:] / n

    gcn_w: list[tuple[np.ndarray, np.ndarray]] = []
    da = np.zeros(tr.a_eff.shape) if inputs else None
    a_t = tr.a_eff.swapaxes(-1, -2)
    for l in reversed(range(len(model.gcn_layers))):
        layer = model.gcn_layers[l]
        dz = dh * (tr.node_z[l] > 0.0) if layer.activation == "relu" else dh
        if not inputs:
            m_t = tr.node_m[l].swapaxes(-1, -2)
            node_dz, nodes = _node_major(dz)
            gcn_w.append((m_t @ dz, node_dz.sum(axis=nodes)))
            if l == 0:
                break  # the input layer's dm and dh feed input gradients only
        dm = dz @ layer.weight.T
        if inputs:
            da += dm @ tr.node_h[l].swapaxes(-1, -2)
        dh = a_t @ dm

    if inputs:
        return da, dh
    weight_grads = []
    for dw, db in reversed(gcn_w):
        weight_grads.extend((dw, db))
    for dw, db in reversed(head_w):
        weight_grads.extend((dw, db))
    return weight_grads


def mask_gradients(
    model: GnnModel,
    g: AttributedGraph,
    mask: MaskedInput,
    target_class: int,
) -> MaskGradients:
    """Exact d loss / d gate for every edge and attribute gate."""
    if not 0 <= target_class < model.num_classes:
        raise IndexOutOfRange(
            f"target class {target_class} outside [0, {model.num_classes})"
        )
    gates = _Gates(g)
    tr = _forward_trace(model, g, mask, gates)
    return MaskGradients(*gates.gradients(model, tr, target_class))


def _layer_to_dict(layer: Layer) -> dict:
    return {
        "weight": layer.weight.tolist(),
        "bias": layer.bias.tolist(),
        "activation": layer.activation,
    }


def _layer_from_dict(doc: dict, where: str) -> Layer:
    try:
        return Layer(
            read_field(doc, "weight", as_float_array, where),
            read_field(doc, "bias", as_float_array, where),
            read_field(doc, "activation", as_str, where),
        )
    except (ShapeMismatch, UnsupportedActivation) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def save_model(model: GnnModel, path) -> None:
    """Write the model as JSON; floats round-trip exactly."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "attr_dim": model.attr_dim,
        "num_classes": model.num_classes,
        "readout": model.readout,
        "gcn_layers": [_layer_to_dict(l) for l in model.gcn_layers],
        "head_layers": [_layer_to_dict(l) for l in model.head_layers],
    }
    write_json(path, doc)


def load_model(path) -> GnnModel:
    """Read a model written by :func:`save_model`.

    Raises:
        ParseError: the file is not valid JSON, misses required fields,
            holds a value of the wrong type, has an inconsistent dimension
            chain or names an unknown activation.
        VersionMismatch: the file declares an unknown format version.
    """
    where = str(path)
    with open(path, "rb") as fh:
        doc = read_document(fh, where, MODEL_FORMAT_VERSION)
    layers = {
        key: tuple(
            _layer_from_dict(d, f"{where}: {key}[{i}]")
            for i, d in enumerate(read_field(doc, key, as_list, where))
        )
        for key in ("gcn_layers", "head_layers")
    }
    try:
        return GnnModel(
            attr_dim=read_field(doc, "attr_dim", as_int, where),
            num_classes=read_field(doc, "num_classes", as_int, where),
            gcn_layers=layers["gcn_layers"],
            head_layers=layers["head_layers"],
            readout=read_field(doc, "readout", as_str, where),
        )
    except ShapeMismatch as exc:
        raise ParseError(f"{where}: {exc}") from exc
