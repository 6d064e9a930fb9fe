"""The numeric kernels as first written, pinned so any rewrite of the
library's copies must give their bytes.

Every bit of training, mask learning and the oracle goes through the
sampler, the layer stack, the backward pass and the Adam step; the tests
compare the library with these copies, and ``reference_learn_masks``
runs on them.
"""

from dataclasses import dataclass

import numpy as np

from gxplain.errors import DomainError
from gxplain.model import PROBABILITY_FLOOR


def pinned_sigmoid(x):
    # the sampler's sigmoid as first written
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def pinned_hard_concrete_with_grad(logits, config, u):
    # the sampler as first written, with np.clip and two range tests
    u = np.asarray(u, dtype=np.float64)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise DomainError("u must lie strictly inside (0, 1)")
    logits = np.asarray(logits, dtype=np.float64)
    span = config.stretch_high - config.stretch_low
    s = pinned_sigmoid((np.log(u) - np.log1p(-u) + logits) / config.beta)
    raw = s * span + config.stretch_low
    gate = np.clip(raw, 0.0, 1.0)
    interior = (raw > 0.0) & (raw < 1.0)
    grad = np.where(interior, span * s * (1.0 - s) / config.beta, 0.0)
    return gate, grad


@dataclass
class PinnedTrace:
    a_eff: np.ndarray
    node_h: list
    node_m: list
    node_z: list
    head_u: list
    head_z: list
    logits: np.ndarray
    probabilities: np.ndarray
    arcs: tuple | None = None

    @property
    def predicted_class(self):
        return int(np.argmax(self.probabilities))


def _softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _activate(layer, z):
    return np.maximum(z, 0.0) if layer.activation == "relu" else z


def _activation_grad(layer, z):
    if layer.activation == "relu":
        return (z > 0.0).astype(np.float64)
    return np.ones_like(z)


def pinned_readout(h):
    if h.shape[-2] == 0:
        return np.zeros(h.shape[:-2] + (2 * h.shape[-1],))
    return np.concatenate([h.max(axis=-2), h.mean(axis=-2)], axis=-1)


def pinned_layer_stack(model, a_eff, h):
    node_h = [h]
    node_m = []
    node_z = []
    for layer in model.gcn_layers:
        m = a_eff @ h
        z = m @ layer.weight + layer.bias
        h = _activate(layer, z)
        node_m.append(m)
        node_z.append(z)
        node_h.append(h)

    u = pinned_readout(h)
    head_u = [u]
    head_z = []
    for layer in model.head_layers:
        z = (u[..., None, :] @ layer.weight)[..., 0, :] + layer.bias
        u = _activate(layer, z)
        head_z.append(z)
        head_u.append(u)

    return PinnedTrace(
        a_eff=a_eff,
        node_h=node_h,
        node_m=node_m,
        node_z=node_z,
        head_u=head_u,
        head_z=head_z,
        logits=u,
        probabilities=_softmax(u),
    )


def pinned_forward_trace(model, g, mask, unmasked):
    """One graph's trace through ``unmasked``, gated by ``mask`` (a
    ``MaskedInput``) unless it is None."""
    src, dst = g.arc_index_arrays()
    flat = dst * g.node_count + src
    coef = unmasked.ravel()[flat]
    if mask is None:
        a_eff, h = unmasked, np.asarray(g.attributes)
    else:
        a_eff = unmasked.copy()
        a_eff.ravel()[flat] = coef * mask.edge_gate
        h = g.attributes * mask.attribute_gate
    tr = pinned_layer_stack(model, a_eff, h)
    tr.arcs = (flat, coef)
    return tr


def pinned_backward(model, tr, target, g=None):
    p = tr.probabilities
    d_logits = p.copy()
    if p.ndim == 1:
        stack = ()
        d_logits[target] -= 1.0
        if not p[target] >= PROBABILITY_FLOOR:
            d_logits[:] = 0.0
    else:
        stack = np.ix_(*map(range, p.shape[:-1]))
        at = stack + (target,)
        d_logits[at] -= 1.0
        d_logits[~(p[at] >= PROBABILITY_FLOOR)] = 0.0

    want_weights = g is None
    head_w = []
    du = d_logits
    for j in reversed(range(len(model.head_layers))):
        layer = model.head_layers[j]
        dz = du * _activation_grad(layer, tr.head_z[j])
        if want_weights:
            head_w.append((tr.head_u[j][..., :, None] * dz[..., None, :], dz))
        du = (dz[..., None, :] @ layer.weight.T)[..., 0, :]

    h_last = tr.node_h[-1]
    n, width = h_last.shape[-2:]
    dh = np.zeros(h_last.shape)
    if n > 0:
        rows = tuple(i[..., None] for i in stack)
        cols = np.arange(width)
        dh[(*rows, h_last.argmax(axis=-2), cols)] += du[..., :width]
        dh += du[..., None, width:] / n

    gcn_w = []
    da = None if want_weights else np.zeros((n, n))
    a_t = np.swapaxes(tr.a_eff, -1, -2)
    for l in reversed(range(len(model.gcn_layers))):
        layer = model.gcn_layers[l]
        dz = dh * _activation_grad(layer, tr.node_z[l])
        if want_weights:
            m_t = np.swapaxes(tr.node_m[l], -1, -2)
            gcn_w.append((m_t @ dz, dz.sum(axis=-2)))
            if l == 0:
                break
        dm = dz @ layer.weight.T
        if not want_weights:
            da += dm @ tr.node_h[l].T
        dh = a_t @ dm

    if want_weights:
        weight_grads = []
        for dw, db in reversed(gcn_w):
            weight_grads.extend((dw, db))
        for dw, db in reversed(head_w):
            weight_grads.extend((dw, db))
        return weight_grads
    flat, coef = tr.arcs
    return da.ravel()[flat] * coef, dh * g.attributes


class PinnedAdam:
    BETA1 = 0.9
    BETA2 = 0.999
    EPSILON = 1e-8

    def __init__(self, params, learning_rate=0.001):
        self.params = params
        self.learning_rate = learning_rate
        self.first_moment = [np.zeros_like(p) for p in params]
        self.second_moment = [np.zeros_like(p) for p in params]
        self.step_count = 0

    def step(self, grads):
        b1, b2, eps = self.BETA1, self.BETA2, self.EPSILON
        self.step_count += 1
        correction1 = 1.0 - b1 ** self.step_count
        correction2 = 1.0 - b2 ** self.step_count
        for p, g, m, v in zip(
            self.params, grads, self.first_moment, self.second_moment
        ):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= (
                self.learning_rate
                * (m / correction1)
                / (np.sqrt(v / correction2) + eps)
            )
