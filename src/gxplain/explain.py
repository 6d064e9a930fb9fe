"""Mask-based explanation of a trained classifier.

Edge and attribute masks are real-valued logits pushed through stochastic
hard-concrete gates during learning and through ``sigmoid(m / beta)`` when
read out as importance scores.  The objective keeps the model's own
unmasked prediction while size penalties, and optional binary-entropy
penalties, drive the masks toward a small, near-binary selection.

Node importance is assembled bottom-up: attribute scores combine into a
per-node geometric mean, each arc carries its edge score times the source
node's attribute score, and per-node aggregation over outgoing and
incoming arcs yields the final node score.
"""

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from ._atomic import write_json
from ._schema import (
    _shown,
    as_float,
    as_float_array,
    as_int,
    as_list,
    as_str,
    read_document,
    read_field,
    require,
)
from .errors import (
    DomainError,
    NonFiniteLoss,
    NotUndirected,
    ParseError,
    ShapeMismatch,
)
from .graphs import AttributedGraph
from .model import GnnModel, _cross_entropy, _forward_trace, _Gates, _on_floor
from .optim import Adam

EXPLANATION_FORMAT_VERSION = 1
SCORE_FLOOR = 1e-12

MODES = ("full", "edge_only", "attribute_only")
SHARING_MODES = (
    "independent",
    "undirected_pair_shared",
    "per_node_attr_shared",
    "global_attr_shared",
)
NODE_AGGS = ("max", "mean")
PAIR_AGGS = ("mean", "max", "min")
# the values each string field of ExplainConfig may take
FIELD_CHOICES = {
    "agg1": NODE_AGGS,
    "agg2": NODE_AGGS,
    "pair_agg": PAIR_AGGS,
    "mode": MODES,
    "sharing": SHARING_MODES,
}


def _sigmoid(x, out=None, opz=None, ge=None) -> np.ndarray:
    """``1 / (1 + z)`` where ``x >= 0`` and ``z / (1 + z)`` elsewhere, ``z``
    being ``exp(-|x|)``, so no exp overflows.

    The result goes into ``out``, which may be ``x`` itself; ``opz``
    (float) and ``ge`` (bool) are scratch of ``x``'s shape.  Each array
    left None is made here.
    """
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape)
    if opz is None:
        opz = np.empty(x.shape)
    if ge is None:
        ge = np.empty(x.shape, dtype=bool)
    np.greater_equal(x, 0.0, out=ge)
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=opz)
    np.divide(out, opz, out=out)
    np.divide(1.0, opz, out=opz)
    np.putmask(out, ge, opz)
    return out


def _binary_entropy_of_logit(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """H(sigmoid(m)) for ``p = sigmoid(m)``, written with softplus so
    saturated logits stay finite."""
    return p * np.logaddexp(0.0, -m) + (1.0 - p) * np.logaddexp(0.0, m)


@dataclass(frozen=True)
class HardConcreteConfig:
    """Stretched binary-concrete gate parameters."""

    beta: float = 0.5
    stretch_low: float = -0.1
    stretch_high: float = 1.1
    stochastic: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise DomainError(
                f"beta must be positive and finite, got {self.beta}"
            )
        low, high = self.stretch_low, self.stretch_high
        if not -math.inf < low < 0.0 < 1.0 < high < math.inf:
            raise DomainError(
                f"stretch interval ({low}, {high}) must be finite and"
                " strictly contain [0, 1]"
            )
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        # the gate noise keys Philox with the seed's 64 bits
        if self.seed >= 2**64:
            raise DomainError(f"seed must be below 2**64, got {self.seed}")


@dataclass(frozen=True)
class ExplainConfig:
    """Hyperparameters of mask learning and score aggregation.

    The entropy penalties are off by default: at this graph scale their
    bistable pull buries the learned signal under decoy noise.
    """

    epochs: int = 300
    learning_rate: float = 0.01
    lambda_edge_size: float = 0.005
    lambda_attr_size: float = 0.05
    lambda_edge_entropy: float = 0.0
    lambda_attr_entropy: float = 0.0
    agg1: str = "max"
    agg2: str = "max"
    pair_agg: str = "mean"
    mode: str = "full"
    sharing: str = "independent"
    hard_concrete: HardConcreteConfig = field(
        default_factory=HardConcreteConfig
    )

    def __post_init__(self):
        if self.epochs < 0:
            raise DomainError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 < self.learning_rate < math.inf:
            raise DomainError(
                "learning rate must be positive and finite, got"
                f" {self.learning_rate}"
            )
        for name in (
            "lambda_edge_size",
            "lambda_attr_size",
            "lambda_edge_entropy",
            "lambda_attr_entropy",
        ):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and >= 0")
        for name, choices in FIELD_CHOICES.items():
            if getattr(self, name) not in choices:
                raise DomainError(f"{name} must be one of {choices}")


def _logistic_noise(u) -> np.ndarray:
    """``log(u) - log1p(-u)``, the logistic noise of uniforms ``u``."""
    u = np.asarray(u, dtype=np.float64)
    if not ((u > 0.0) & (u < 1.0)).all():
        raise DomainError("u must lie strictly inside (0, 1)")
    return np.log(u) - np.log1p(-u)


class _GateBuffers:
    """The arrays one :func:`_hard_concrete_with_grad` call writes, for
    gates of ``shape``, and views of their rows, all made once.

    ``sig`` stacks the sigmoid pass: row ``s`` is the sampler's
    ``sigmoid((noise + logits) / beta)``; with ``penalty`` a row
    ``logit_sig`` holds ``sigmoid(logits)``, which the mask penalty
    reads, so both sigmoids run as one pass.  ``opz`` and ``ge`` are the
    pass's scratch; after it their first rows, ``span_s`` and ``below``,
    hold ``s * span`` and ``raw < 1``.
    """

    __slots__ = (
        "sig", "opz", "ge", "s", "logit_sig", "span_s", "below",
        "gate", "dgate", "clamped",
    )

    def __init__(self, shape, penalty: bool = False):
        stack = (1 + penalty, *shape)
        self.sig = np.empty(stack)
        self.opz = np.empty(stack)
        self.ge = np.empty(stack, dtype=bool)
        self.s, self.span_s, self.below = self.sig[0], self.opz[0], self.ge[0]
        self.logit_sig = self.sig[1] if penalty else None
        self.gate = np.empty(shape)
        self.dgate = np.empty(shape)
        self.clamped = np.empty(shape, dtype=bool)

    def rows(self, k: int) -> "_GateBuffers":
        """Views of the first ``k`` rows of buffers made without
        ``penalty`` for gates stacked on a first axis."""
        view = _GateBuffers.__new__(_GateBuffers)
        for name in ("sig", "opz", "ge"):
            setattr(view, name, getattr(self, name)[:, :k])
        for name in ("gate", "dgate", "clamped"):
            setattr(view, name, getattr(self, name)[:k])
        view.s, view.span_s, view.below = view.sig[0], view.opz[0], view.ge[0]
        view.logit_sig = None
        return view


def _hard_concrete_with_grad(
    logits, config: HardConcreteConfig, noise: np.ndarray, buffers=None
):
    """Gates and d gate / d logit for ``logits`` and their noise, written
    into ``buffers`` (a :class:`_GateBuffers`, made here when None) and
    returned as its ``gate`` and ``dgate``."""
    if buffers is None:
        buffers = _GateBuffers(np.broadcast(noise, logits).shape)
    b = buffers
    s, span_s, gate, dgate, clamped = b.s, b.span_s, b.gate, b.dgate, b.clamped
    np.add(noise, logits, out=s)
    s /= config.beta
    if b.logit_sig is not None:
        b.logit_sig[...] = logits
    _sigmoid(b.sig, b.sig, b.opz, b.ge)
    span = config.stretch_high - config.stretch_low
    # raw = s * span + low, into gate; then clamped to [0, 1]
    np.multiply(s, span, out=span_s)
    np.add(span_s, config.stretch_low, out=gate)
    np.greater(gate, 0.0, out=clamped)
    clamped &= np.less(gate, 1.0, out=b.below)
    np.logical_not(clamped, out=clamped)
    np.maximum(gate, 0.0, out=gate)
    np.minimum(gate, 1.0, out=gate)
    # span * s * (1 - s) / beta; clamped samples sit on a constant piece,
    # so their gradient is zero
    np.subtract(1.0, s, out=dgate)
    dgate *= span_s
    dgate /= config.beta
    np.putmask(dgate, clamped, 0.0)
    return gate, dgate


def sample_hard_concrete(
    logits, config: HardConcreteConfig, u
) -> np.ndarray:
    """Stretched-and-clamped concrete gate for logits ``logits`` and draws ``u``."""
    gate, _ = _hard_concrete_with_grad(logits, config, _logistic_noise(u))
    return gate


def importance_from_mask(mask_logits, beta: float) -> np.ndarray:
    """Deterministic importance score ``sigmoid(m / beta)``."""
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    return _sigmoid(np.asarray(mask_logits, dtype=np.float64) / beta)


@dataclass
class MaskSet:
    """Learnable mask logits plus the arc/cell -> parameter-slot maps.

    ``logits`` holds the edge parameters first, then the attribute
    parameters; ``edge_logits`` and ``attr_logits`` are writable views of
    the two sides.  Sharing modes collapse several arcs or attribute cells
    onto one slot; slot arrays expand parameters back to per-arc and
    per-cell views.
    """

    logits: np.ndarray
    edge_params: int
    edge_slot: np.ndarray
    attr_slot: np.ndarray
    sharing: str

    @property
    def edge_logits(self) -> np.ndarray:
        return self.logits[: self.edge_params]

    @property
    def attr_logits(self) -> np.ndarray:
        return self.logits[self.edge_params :]

    def check_graph(self, g: AttributedGraph) -> None:
        """Raise ShapeMismatch unless these masks are laid out for ``g``:
        one edge slot per arc, an ``(n, d)`` attribute slot matrix, and
        every slot within its side of ``logits``."""
        edge, attr = self.edge_slot, self.attr_slot
        attr_params = len(self.logits) - self.edge_params
        within = (
            0 <= self.edge_params <= len(self.logits)
            and ((edge >= 0) & (edge < self.edge_params)).all()
            and ((attr >= 0) & (attr < attr_params)).all()
        )
        if not within or (edge.shape, attr.shape) != (
            (g.arc_count,), (g.node_count, g.attr_dim)
        ):
            raise ShapeMismatch(
                f"masks with edge_slot {edge.shape}, attr_slot {attr.shape}"
                f" and {'every slot within' if within else 'a slot outside'}"
                f" {self.edge_params} + {attr_params} logits; graph"
                f" {_shown(g.graph_id)} needs edge_slot ({g.arc_count},),"
                f" attr_slot ({g.node_count}, {g.attr_dim}) and slots"
                " within the logits"
            )

    def copy(self) -> "MaskSet":
        return MaskSet(
            self.logits.copy(),
            self.edge_params,
            self.edge_slot.copy(),
            self.attr_slot.copy(),
            self.sharing,
        )


def init_masks(
    g: AttributedGraph, config: ExplainConfig, seed: int
) -> MaskSet:
    """Draw mask logits from Normal(0, 0.1) in the sharing layout of ``config``."""
    sharing = config.sharing
    # attribute-only explanation always learns one shared logit per node
    if config.mode == "attribute_only":
        sharing = "per_node_attr_shared"
    n, d, n_arcs = g.node_count, g.attr_dim, g.arc_count
    if sharing == "undirected_pair_shared":
        if g.directed:
            raise NotUndirected(
                "pair-shared masks need an undirected graph"
            )
        # mates are adjacent, so consecutive arcs share a slot
        edge_slot = np.arange(n_arcs, dtype=np.int64) // 2
        edge_params = n_arcs // 2
    else:
        edge_slot = np.arange(n_arcs, dtype=np.int64)
        edge_params = n_arcs
    if sharing == "per_node_attr_shared":
        attr_slot = np.repeat(np.arange(n, dtype=np.int64), d).reshape(n, d)
        attr_params = n
    elif sharing == "global_attr_shared":
        attr_slot = np.tile(np.arange(d, dtype=np.int64), (n, 1))
        attr_params = d
    else:
        attr_slot = np.arange(n * d, dtype=np.int64).reshape(n, d)
        attr_params = n * d
    logits = np.random.default_rng(seed).normal(
        0.0, 0.1, edge_params + attr_params
    )
    return MaskSet(logits, edge_params, edge_slot, attr_slot, sharing)


@dataclass(frozen=True, eq=False, slots=True)
class Explanation:
    """Importance scores of one graph under one trained model."""

    graph_id: str
    arcs: tuple[tuple[int, int], ...]
    original_prediction: int
    original_probability: float
    edge_score: np.ndarray
    attr_score: np.ndarray
    node_attr_score: np.ndarray
    node_score: np.ndarray
    node_ranking: tuple[int, ...]

    @property
    def node_count(self) -> int:
        return len(self.node_score)

    def check_graph(self, g: AttributedGraph) -> None:
        """Raise ShapeMismatch unless this scores ``g``'s nodes, arcs and
        attribute columns, and ranks each of its nodes once; a graph
        without nodes takes any width."""
        if (
            self.node_count != g.node_count
            or self.arcs != tuple(zip(*g.arcs.T.tolist()))
            or (g.node_count and self.attr_score.shape != g.attributes.shape)
        ):
            raise ShapeMismatch(
                f"scores {self.node_count} nodes, {len(self.arcs)} arcs and"
                f" {self.attr_score.shape[1]} attributes, graph"
                f" {_shown(g.graph_id)} has {g.node_count} nodes,"
                f" {g.arc_count} arcs and {g.attr_dim} attributes"
            )
        if sorted(self.node_ranking) != list(range(g.node_count)):
            raise ShapeMismatch(
                f"node ranking of graph {_shown(g.graph_id)} is not a"
                f" permutation of its {g.node_count} nodes"
            )

    def check_model(self, model: GnnModel) -> None:
        """Raise ShapeMismatch unless the explained prediction is one of
        ``model``'s classes."""
        if not 0 <= self.original_prediction < model.num_classes:
            raise ShapeMismatch(
                f"explanation of graph {_shown(self.graph_id)} names class"
                f" {self.original_prediction}, outside the model's"
                f" [0, {model.num_classes})"
            )


def _geometric_mean_rows(scores: np.ndarray) -> np.ndarray:
    if scores.shape[1] == 0:
        return np.ones(scores.shape[0])
    clipped = np.maximum(scores, SCORE_FLOOR)
    return np.exp(np.mean(np.log(clipped), axis=1))


def _pair_aggregated(scores: np.ndarray, pair_agg: str) -> np.ndarray:
    pairs = scores.reshape(-1, 2)
    if pair_agg == "mean":
        values = pairs.mean(axis=1)
    elif pair_agg == "max":
        values = pairs.max(axis=1)
    else:
        values = pairs.min(axis=1)
    return np.repeat(values, 2)


def _node_scores(
    g: AttributedGraph,
    edge_score: np.ndarray,
    node_attr_score: np.ndarray,
    agg1: str,
    agg2: str,
) -> np.ndarray:
    # each arc's message is its edge score times its source's attribute
    # score; agg1 over each node's outgoing and incoming messages, agg2
    # over the sides that have any
    node_count = g.node_count
    src, dst = g.arc_index_arrays()
    message_score = edge_score * node_attr_score[src]
    sides = []
    for ends in (src, dst):
        count = np.bincount(ends, minlength=node_count)
        if agg1 == "max":
            side = np.full(node_count, -np.inf)
            np.maximum.at(side, ends, message_score)
        else:
            total = np.bincount(ends, message_score, minlength=node_count)
            side = total / np.maximum(count, 1)
        sides.append((side, count > 0))
    (out_v, has_out), (in_v, has_in) = sides
    both = np.maximum(out_v, in_v) if agg2 == "max" else (out_v + in_v) / 2.0
    score = np.where(has_out & has_in, both, np.where(has_out, out_v, in_v))
    # an isolated node falls back to its own attribute score
    return np.where(has_out | has_in, score, node_attr_score)


def _epoch_uniforms(seed: int, epoch: int, count: int) -> np.ndarray:
    # one independent Philox stream per (seed, epoch); position = parameter index
    key = (epoch << 64) | (seed & 0xFFFFFFFFFFFFFFFF)
    u = np.random.Generator(np.random.Philox(key=key)).random(count)
    return np.clip(u, 1e-12, 1.0 - 1e-12)


# the most mask steps that one stacked sample and one stacked pass check
# (see learn_masks); graphs of up to 32 nodes take 32 rows in one pass
_WINDOW_STEPS = 32

# entries of the largest noise table kept, 8 MiB of float64; see
# _noise_rows
_TABLE_ENTRIES = 1 << 20

# (seed, table) for the last seed asked for; see _noise_rows
_noise_table: tuple[int | None, np.ndarray] = (None, np.empty((0, 0)))


class _DrawnRows:
    """The noise rows of :func:`_noise_rows` drawn each time they are
    read: ``rows[e]`` is epoch ``e``'s and ``rows[lo:hi]`` stacks those
    epochs' rows."""

    __slots__ = ("seed", "epochs", "count")

    def __init__(self, seed: int, epochs: int, count: int):
        self.seed, self.epochs, self.count = seed, epochs, count

    def __getitem__(self, epochs):
        if isinstance(epochs, slice):
            rows = [self[e] for e in range(self.epochs)[epochs]]
            return np.array(rows).reshape(len(rows), self.count)
        if not 0 <= epochs < self.epochs:
            raise IndexError(epochs)
        return _logistic_noise(_epoch_uniforms(self.seed, epochs, self.count))


def _noise_rows(seed: int, epochs: int, count: int):
    """The rows ``_logistic_noise(_epoch_uniforms(seed, e, count))`` for
    ``e < epochs``, indexed by epoch, read from one table kept per
    process.

    A Philox stream's first ``c`` draws do not depend on how many follow
    (``random(N)[:c] == random(c)``), and the noise is elementwise, so the
    table grows to the largest ``epochs`` and ``count`` asked for under
    one seed, and every row holds the bits of one fresh generator per
    epoch, whatever the call order.  The table never exceeds
    ``_TABLE_ENTRIES``: a grown size above it is replaced by the size
    asked for, and a request above it draws each row when it is read
    (:class:`_DrawnRows`), keeping none.
    """
    global _noise_table
    kept_seed, table = _noise_table
    rows, cols = epochs, count
    if kept_seed == seed:
        rows, cols = max(rows, table.shape[0]), max(cols, table.shape[1])
    if rows * cols > _TABLE_ENTRIES:
        rows, cols = epochs, count
    if rows * cols > _TABLE_ENTRIES:
        return _DrawnRows(seed, epochs, count)
    if kept_seed != seed or table.shape != (rows, cols):
        table = np.empty((rows, cols))
        for epoch in range(rows):
            table[epoch] = _logistic_noise(_epoch_uniforms(seed, epoch, cols))
        table.flags.writeable = False
        _noise_table = (seed, table)
    return table[:epochs, :count]


def _build_explanation(
    model: GnnModel,
    g: AttributedGraph,
    config: ExplainConfig,
    masks: MaskSet,
    base,
) -> Explanation:
    beta = config.hard_concrete.beta
    if config.mode == "attribute_only":
        edge_score = np.ones(g.arc_count)
    else:
        edge_score = importance_from_mask(masks.edge_logits[masks.edge_slot], beta)
        if not g.directed:
            edge_score = _pair_aggregated(edge_score, config.pair_agg)
    if config.mode == "edge_only":
        attr_score = np.ones((g.node_count, g.attr_dim))
    else:
        attr_score = importance_from_mask(masks.attr_logits[masks.attr_slot], beta)
    if config.mode != "edge_only" and masks.sharing == "per_node_attr_shared":
        node_attr_score = importance_from_mask(masks.attr_logits, beta)
    else:
        node_attr_score = _geometric_mean_rows(attr_score)
    if config.mode == "attribute_only":
        node_score = node_attr_score.copy()
    else:
        node_score = _node_scores(
            g, edge_score, node_attr_score, config.agg1, config.agg2
        )
    return Explanation(
        graph_id=g.graph_id,
        arcs=tuple(zip(*g.arcs.T.tolist())),
        original_prediction=base.predicted_class,
        original_probability=float(
            base.probabilities[base.predicted_class]
        ),
        edge_score=edge_score,
        attr_score=attr_score,
        node_attr_score=node_attr_score,
        node_score=node_score,
        # best first, ties to the lower id
        node_ranking=tuple(
            np.lexsort((np.arange(len(node_score)), -node_score)).tolist()
        ),
    )


def _window_gates(logits, config, noise, buffers, pinned, slot, out):
    """The per-gate gates of the steps whose logits and noise are the
    rows of ``logits`` and ``noise``: one stacked sample into the first
    rows of ``buffers``, gates of 1 where ``pinned``, then gathered by
    ``slot`` into the first rows of ``out`` unless it is None."""
    k = len(logits)
    gates, _ = _hard_concrete_with_grad(logits, config, noise, buffers.rows(k))
    gates[:, pinned] = 1.0
    if out is None:
        return gates
    return gates.take(slot, axis=1, out=out[:k], mode="clip")


def learn_masks(
    model: GnnModel,
    g: AttributedGraph,
    config: ExplainConfig,
    initial_masks: MaskSet | None = None,
) -> tuple[MaskSet, Explanation]:
    """Optimize mask logits to preserve the model's own prediction.

    Each epoch samples hard-concrete gates (one fresh uniform per parameter;
    0.5 in deterministic mode), runs the masked forward pass, and takes one
    Adam step on cross-entropy toward the original predicted class plus
    size and entropy penalties on the sigmoided masks.  A pinned side
    (edges in ``attribute_only``, attributes in ``edge_only``) keeps gate
    and score fixed at 1.

    Edge and attribute logits are one vector, so each epoch makes one
    sample, one penalty and one Adam step over both sides.  Per-gate
    arrays (one entry per arc, then one per attribute cell) carry each
    gate's slot, penalty weights and mean divisor; a pinned side has
    gate 1, weight 0 and zero gradient, so its logits never move.
    What does not depend on the logits (the noise, rows of
    :func:`_noise_rows`; the gated view, a :class:`model._Gates`; the
    per-gate arrays; whether a side is pinned or a slot shared) is
    set up once, before the epoch loop, and so are the arrays each step
    overwrites: the sampler's (:class:`_GateBuffers`, one sigmoid pass
    for the sample and the penalty), the per-gate arrays a shared slot
    gathers into, the gradient vector and Adam's scratch.  The penalty
    terms are plain expressions; buffers for them measured no gain.

    A step whose target probability sits on the loss floor
    (:func:`model._on_floor`) skips the backward pass, whose gate
    gradients there are all zero, and writes +0.0 instead.  The bits stay
    those of the full pass, whose zeros may be -0.0: unshared, a gate's
    gradient is ``+-0 * dgate + reg``, and ``reg`` is never -0.0, so
    either sign gives the same sum; shared, bincount adds into +0.0,
    which turns -0.0 into +0.0 too.

    Such a step's update depends on the logits alone, and so does the
    next one's while it stays on the floor.  So the steps after it run
    ahead in windows of 2, 4, ... up to ``_WINDOW_STEPS`` steps, each
    only the penalty and the Adam step; then one stacked sample of the
    window's logits and noise rows and one stacked pass
    (:meth:`model._Gates.below_floor`) check them all.  A window stays
    if every target probability is below the floor, and otherwise goes
    back to the logits and Adam state before its first step that is
    not, NaN included, which the loop then runs as usual.  The bits are
    those of one step at a time: each row of the stacked sample and pass
    is, bit for bit, that step's own, and ``+0 * dgate`` is +0 while
    ``dgate`` is finite, which a finite ``span / beta`` ensures (no
    window opens otherwise).  A step whose penalty is not finite ends
    its window, so the loop raises there.

    ``initial_masks`` not laid out for ``g`` raise ShapeMismatch before the
    first epoch (:meth:`MaskSet.check_graph`).
    """
    hc = config.hard_concrete
    view = _Gates(g)
    base = _forward_trace(model, g, None, view)
    target = base.predicted_class
    if initial_masks is None:
        masks = init_masks(g, config, hc.seed)
    else:
        initial_masks.check_graph(g)
        masks = initial_masks.copy()

    n, d, n_arcs = g.node_count, g.attr_dim, g.arc_count
    params = len(masks.logits)
    slot = np.concatenate(
        [masks.edge_slot, masks.edge_params + masks.attr_slot.ravel()]
    )
    learned = np.repeat(
        [config.mode != "attribute_only", config.mode != "edge_only"],
        [masks.edge_params, params - masks.edge_params],
    )
    counts = [n_arcs, n * d]
    gate_learned = learned[slot]
    # + 0.0 turns a -0.0 weight into +0.0, so that reg is never -0.0
    size_w = gate_learned * np.repeat(
        [config.lambda_edge_size, config.lambda_attr_size], counts
    ) + 0.0
    entropy_w = gate_learned * np.repeat(
        [config.lambda_edge_entropy, config.lambda_attr_entropy], counts
    )
    entropic = bool(config.lambda_edge_entropy or config.lambda_attr_entropy)
    divisor = np.repeat(np.array(counts, dtype=np.float64), counts)
    if hc.stochastic:
        noise = _noise_rows(hc.seed, config.epochs, params)
    else:
        noise = np.broadcast_to(
            _logistic_noise(np.full(params, 0.5)), (config.epochs, params)
        )
    pinned = ~learned
    any_pinned = bool(pinned.any())
    # unshared, slot is the identity and so are its gathers and scatters
    shared = not np.array_equal(slot, np.arange(params))
    optimizer = Adam([masks.logits], config.learning_rate)
    first_moment, second_moment = (
        optimizer.first_moment[0], optimizer.second_moment[0]
    )
    # the arrays the loop overwrites: the sampler's, whose sigmoid pass
    # also gives the penalty's sigmoid(logits), and per-gate arrays,
    # which unshared are per-parameter ones, so that the gate gradients
    # then go straight into grad
    sampled = _GateBuffers((params,), penalty=True)
    grad = np.empty(params)
    if shared:
        gate, p, m, dce = np.empty((4, len(slot)))
    else:
        gate, p, m, dce = sampled.gate, sampled.logit_sig, masks.logits, grad
    # each side's view of the per-gate arrays, in the graph's shapes
    edge_gate, attr_gate = gate[:n_arcs], gate[n_arcs:].reshape(n, d)
    dce_edge, dce_attr = dce[:n_arcs], dce[n_arcs:].reshape(n, d)
    # run_ahead's arrays: a window's steps are rows, at most one stacked
    # pass of them.  Its steps take the floored gradient +0 * dgate as
    # +0, which holds while dgate, at most span / (4 * beta), is finite;
    # with an infinite span / beta no window opens
    rows = min(_WINDOW_STEPS, view.rows_per_pass())
    if not math.isfinite((hc.stretch_high - hc.stretch_low) / hc.beta):
        rows = 0
    ahead = _GateBuffers((rows, params))
    ahead_logits, ahead_first, ahead_second = np.empty((3, rows, params))
    ahead_gate = np.empty((rows, len(slot))) if shared else None
    floor_ce = _cross_entropy(0.0)

    def run_ahead(first, ce):
        """Finish step ``first``, whose target probability sits on the
        floor, then run the steps after it in windows of 2, 4, ... steps
        that only one stacked sample and pass check; return the first
        step the epoch loop has to run."""
        lo, size = first, 1
        while lo < config.epochs:
            end = min(lo + size, config.epochs)
            for epoch in range(lo, end):
                # the state the step starts from, for a roll-back
                row = epoch - lo
                ahead_logits[row] = masks.logits
                ahead_first[row] = first_moment
                ahead_second[row] = second_moment
                _sigmoid(
                    masks.logits, sampled.logit_sig, sampled.opz[1],
                    sampled.ge[1],
                )
                if shared:
                    sampled.logit_sig.take(slot, out=p, mode="clip")
                    masks.logits.take(slot, out=m, mode="clip")
                # the gate gradients on the floor: +0, then the penalty's
                grad.fill(0.0)
                objective = ce + float(size_w @ (p / divisor))
                one_minus_p = 1.0 - p
                reg = size_w * p * one_minus_p
                if entropic or not np.isfinite(m).all():
                    entropy = _binary_entropy_of_logit(m, p) / divisor
                    objective += float(entropy_w @ entropy)
                    reg -= entropy_w * m * p * one_minus_p
                reg /= divisor
                if shared:
                    np.add.at(grad, slot, reg)
                else:
                    np.add(grad, reg, out=grad)
                if not math.isfinite(objective):
                    if epoch == first:
                        raise NonFiniteLoss(
                            f"epoch {epoch}: objective {objective}"
                        )
                    # the epoch loop runs this step, once the window's
                    # steps before it are checked
                    end = epoch
                    break
                optimizer.step([grad])
                ce = floor_ce
            if first < lo < end:
                # every step of the window checked at once; from the first
                # step off the floor on, none happened
                k = end - lo
                gates = _window_gates(
                    ahead_logits[:k], hc, noise[lo:end], ahead, pinned,
                    slot, ahead_gate,
                )
                below = view.below_floor(
                    model,
                    gates[:, :n_arcs],
                    gates[:, n_arcs:].reshape(k, n, d),
                    target,
                )
                kept = k if below.all() else int(below.argmin())
                if kept < k:
                    masks.logits[...] = ahead_logits[kept]
                    first_moment[...] = ahead_first[kept]
                    second_moment[...] = ahead_second[kept]
                    optimizer.step_count = lo + kept
                    return lo + kept
            if end < lo + size:
                return end
            lo, size = end, min(2 * size, rows)
        return lo

    epoch = 0
    while epoch < config.epochs:
        _, dgate = _hard_concrete_with_grad(
            masks.logits, hc, noise[epoch], sampled
        )
        if any_pinned:
            # a pinned side reads the graph as it is, through gates of 1
            sampled.gate[pinned] = 1.0
            dgate[pinned] = 0.0
        if shared:
            # sigmoid is elementwise, so gathering after the pass gives
            # the bits of a pass over the gathered logits; every slot is
            # in range, so "clip" only skips the buffering of "raise"
            sampled.gate.take(slot, out=gate, mode="clip")
            sampled.logit_sig.take(slot, out=p, mode="clip")
            masks.logits.take(slot, out=m, mode="clip")

        # the gates lie in [0, 1] by construction, in the graph's shapes
        tr = view.forward(model, edge_gate, attr_gate)
        p_target = float(tr.probabilities[target])
        ce = _cross_entropy(p_target)
        if _on_floor(p_target) and rows:
            # the backward pass would give +-0 gate gradients, and the
            # steps after this one have the penalty's alone while they
            # stay on the floor
            epoch = run_ahead(epoch, ce)
            continue
        view.gradients(model, tr, target, dce_edge, dce_attr)
        if shared:
            # bincount adds in index order into zeros, as np.add.at does
            np.multiply(np.bincount(slot, dce, params), dgate, out=grad)
        else:
            grad *= dgate

        objective = ce + float(size_w @ (p / divisor))
        one_minus_p = 1.0 - p
        reg = size_w * p * one_minus_p
        # zero-weight entropy terms add exactly +0 and take away +-0,
        # unless an infinite logit makes them NaN
        if entropic or not np.isfinite(m).all():
            entropy = _binary_entropy_of_logit(m, p) / divisor
            objective += float(entropy_w @ entropy)
            reg -= entropy_w * m * p * one_minus_p
        reg /= divisor
        if shared:
            np.add.at(grad, slot, reg)
        else:
            grad += reg

        if not math.isfinite(objective):
            raise NonFiniteLoss(f"epoch {epoch}: objective {objective}")
        optimizer.step([grad])
        epoch += 1

    return masks, _build_explanation(model, g, config, masks, base)


def explain(
    model: GnnModel, g: AttributedGraph, config: ExplainConfig | None = None
) -> Explanation:
    """Learn masks for ``g`` and aggregate them into an Explanation."""
    if config is None:
        config = ExplainConfig()
    _, explanation = learn_masks(model, g, config)
    return explanation


def node_importance(
    explanation: Explanation,
    g: AttributedGraph,
    agg1: str = "max",
    agg2: str = "max",
) -> np.ndarray:
    """Recompute per-node scores from stored edge and attribute scores.

    Raises DomainError on an unknown aggregator and ShapeMismatch on an
    explanation that does not fit ``g`` (:meth:`Explanation.check_graph`).
    """
    if agg1 not in NODE_AGGS or agg2 not in NODE_AGGS:
        raise DomainError(f"node aggregators must be one of {NODE_AGGS}")
    explanation.check_graph(g)
    return _node_scores(
        g, explanation.edge_score, explanation.node_attr_score, agg1, agg2
    )


def explanation_to_dict(
    explanation: Explanation, config: ExplainConfig
) -> dict:
    return {
        "format_version": EXPLANATION_FORMAT_VERSION,
        "graph_id": explanation.graph_id,
        "predicted_class": explanation.original_prediction,
        "probability": explanation.original_probability,
        "node_scores": explanation.node_score.tolist(),
        "node_attr_scores": explanation.node_attr_score.tolist(),
        "node_ranking": list(explanation.node_ranking),
        # a hand-built explanation may hold numpy ints as arc ends
        "edge_scores": [
            {"src": int(s), "dst": int(d), "score": v}
            for (s, d), v in zip(
                explanation.arcs, explanation.edge_score.tolist()
            )
        ],
        "attr_scores": explanation.attr_score.tolist(),
        "config": dataclasses.asdict(config),
        "seed": config.hard_concrete.seed,
    }


def save_explanation(
    explanation: Explanation, config: ExplainConfig, path
) -> None:
    """Write one explanation as JSON (atomic replace, stable key order)."""
    write_json(path, explanation_to_dict(explanation, config))


def load_explanation(path) -> tuple[Explanation, dict]:
    """Read an explanation written by :func:`save_explanation`.

    Returns the explanation and the configuration echo as a plain dict.

    Raises:
        ParseError: invalid JSON, a missing field, a value of the wrong
            type, per-node arrays of different lengths, a ranking that is
            not a permutation of the nodes, or an arc end outside them.
        VersionMismatch: unknown format version.
    """
    with open(path, "rb") as fh:
        doc = read_document(fh, str(path), EXPLANATION_FORMAT_VERSION)
    arcs = []
    edge_score = []
    entries = read_field(doc, "edge_scores", as_list, path)
    for i, entry in enumerate(entries):
        where = f"{path}: edge_scores[{i}]"
        arcs.append(
            (
                as_int(require(entry, "src", where), where),
                as_int(require(entry, "dst", where), where),
            )
        )
        edge_score.append(as_float(require(entry, "score", where), where))
    node_score = read_field(doc, "node_scores", as_float_array, path)
    n = len(node_score)
    node_attr_score = read_field(doc, "node_attr_scores", as_float_array, path)
    attr_score = read_field(doc, "attr_scores", as_float_array, path)
    if attr_score.ndim != 2:
        if attr_score.size:
            raise ParseError(f"{path}: attr_scores must be a matrix")
        attr_score = attr_score.reshape(n, 0)
    ranking = tuple(
        as_int(v, f"{path}: node_ranking")
        for v in read_field(doc, "node_ranking", as_list, path)
    )
    # every per-node array covers the same n nodes, and the ranking
    # orders exactly those
    if node_score.shape != (n,) or node_attr_score.shape != (n,):
        raise ParseError(
            f"{path}: node_scores and node_attr_scores must be vectors of"
            f" one length, got {node_score.shape} and {node_attr_score.shape}"
        )
    if attr_score.shape[0] != n:
        raise ParseError(
            f"{path}: attr_scores has {attr_score.shape[0]} rows for {n}"
            " nodes"
        )
    if sorted(ranking) != list(range(n)):
        raise ParseError(
            f"{path}: node_ranking is not a permutation of the {n} nodes"
        )
    for i, (src, dst) in enumerate(arcs):
        if not (0 <= src < n and 0 <= dst < n):
            raise ParseError(
                f"{path}: edge_scores[{i}] joins {src} and {dst}, outside"
                f" the {n} nodes"
            )
    explanation = Explanation(
        graph_id=read_field(doc, "graph_id", as_str, path),
        arcs=tuple(arcs),
        original_prediction=read_field(doc, "predicted_class", as_int, path),
        original_probability=read_field(doc, "probability", as_float, path),
        edge_score=np.asarray(edge_score, dtype=np.float64),
        attr_score=attr_score,
        node_attr_score=node_attr_score,
        node_score=node_score,
        node_ranking=ranking,
    )
    return explanation, doc.get("config", {})
