"""Stretched-and-clamped binary concrete sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pinned_kernels import pinned_hard_concrete_with_grad, pinned_sigmoid

from gxplain.errors import DomainError
from gxplain.explain import (
    HardConcreteConfig,
    _hard_concrete_with_grad,
    _logistic_noise,
    _sigmoid,
    importance_from_mask,
    sample_hard_concrete,
)


def reference_gate(m, u, beta, lo=-0.1, hi=1.1):
    s = 1.0 / (1.0 + np.exp(-((np.log(u) - np.log1p(-u) + m) / beta)))
    return float(np.clip(s * (hi - lo) + lo, 0.0, 1.0))


def test_midpoint_uniform_and_zero_logit_gives_half():
    gate = sample_hard_concrete(
        np.array([0.0]), HardConcreteConfig(), np.array([0.5])
    )
    assert gate[0] == pytest.approx(0.5, abs=1e-15)


def test_matches_reference_formula():
    rng = np.random.default_rng(0)
    m = rng.normal(0.0, 2.0, 1000)
    u = rng.uniform(1e-6, 1.0 - 1e-6, 1000)
    for beta in (0.2, 0.5, 1.0):
        gate = sample_hard_concrete(m, HardConcreteConfig(beta=beta), u)
        ref = [reference_gate(mi, ui, beta) for mi, ui in zip(m, u)]
        assert gate == pytest.approx(ref, abs=1e-12)


def test_rejects_uniforms_outside_open_interval():
    cfg = HardConcreteConfig()
    with pytest.raises(DomainError):
        sample_hard_concrete(np.zeros(1), cfg, np.array([0.0]))
    with pytest.raises(DomainError):
        sample_hard_concrete(np.zeros(1), cfg, np.array([1.0]))


def test_produces_exact_zeros_and_ones():
    rng = np.random.default_rng(1)
    m = np.zeros(100_000)
    u = rng.uniform(1e-9, 1.0 - 1e-9, 100_000)
    gate = sample_hard_concrete(m, HardConcreteConfig(), u)
    assert int((gate == 0.0).sum()) > 0
    assert int((gate == 1.0).sum()) > 0
    assert ((gate >= 0.0) & (gate <= 1.0)).all()


def test_gradient_zero_on_clamped_gates_and_positive_inside():
    m = np.zeros(3)
    # u values putting s deep low, interior, deep high for beta = 0.5
    u = np.array([0.001, 0.5, 0.999])
    gate, grad = _hard_concrete_with_grad(
        m, HardConcreteConfig(), _logistic_noise(u)
    )
    assert gate[0] == 0.0 and gate[2] == 1.0
    assert grad[0] == 0.0 and grad[2] == 0.0
    # interior: d gate / d m = span * s (1 - s) / beta
    s = 0.5
    assert grad[1] == pytest.approx(1.2 * s * (1 - s) / 0.5, abs=1e-12)


def test_monotone_in_logit():
    u = np.full(9, 0.37)
    ms = np.linspace(-4, 4, 9)
    gate = sample_hard_concrete(ms, HardConcreteConfig(), u)
    assert (np.diff(gate) >= 0).all()


def test_importance_is_sigmoid_of_scaled_logit():
    m = np.array([-1.0, 0.0, 2.0])
    imp = importance_from_mask(m, 0.5)
    assert imp == pytest.approx(1.0 / (1.0 + np.exp(-m / 0.5)), abs=1e-15)


def test_config_validates_stretch_interval():
    with pytest.raises(DomainError):
        HardConcreteConfig(stretch_low=0.1)
    with pytest.raises(DomainError):
        HardConcreteConfig(stretch_high=0.9)
    with pytest.raises(DomainError):
        HardConcreteConfig(beta=0.0)


_logits = st.one_of(
    st.sampled_from([-500.0, -36.0, -0.0, 0.0, 36.0, 500.0]),
    st.floats(-600.0, 600.0),
)
_uniforms = st.one_of(
    st.sampled_from([1e-12, 1.0 - 1e-12, 0.5]),
    st.floats(1e-12, 1.0 - 1e-12),
)


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(st.tuples(_logits, _uniforms), min_size=0, max_size=40),
    beta=st.sampled_from([0.01, 0.2, 0.5, 1.0, 7.0]),
    low=st.sampled_from([-0.1, -1e-6, -0.5, -3.0]),
    high=st.sampled_from([1.1, 1.0 + 1e-6, 1.5, 4.0]),
)
def test_sampler_and_sigmoid_give_the_pinned_bytes(pairs, beta, low, high):
    logits = np.array([m for m, _ in pairs], dtype=np.float64)
    u = np.array([v for _, v in pairs], dtype=np.float64)
    config = HardConcreteConfig(beta=beta, stretch_low=low, stretch_high=high)
    gate, grad = _hard_concrete_with_grad(logits, config, _logistic_noise(u))
    want_gate, want_grad = pinned_hard_concrete_with_grad(logits, config, u)
    assert gate.tobytes() == want_gate.tobytes()
    assert grad.tobytes() == want_grad.tobytes()
    x = logits / beta
    assert _sigmoid(x).tobytes() == pinned_sigmoid(x).tobytes()
