"""Shared fixtures.

Small hand-built models and graphs live here as plain functions so each
test file can build exact variants; the expensive trained fixtures are
session-scoped and only paid for by the files that ask for them.
"""

import numpy as np
import pytest

from gxplain import model as model_module
from gxplain import oracle
from gxplain.datasets import generate_ba2motifs
from gxplain.graphs import build_graph
from gxplain.model import GnnModel, Layer, _block_rows
from gxplain.training import train_model

# One seed for the whole suite: reaches the accuracy bar and keeps the
# mask-learning landscape non-degenerate for both motif classes.
BA_TRAIN_SEED = 15


def detector_model() -> GnnModel:
    """Classifier that fires class 1 iff any propagated signal is nonzero.

    One pass-through convolution and a head that reads max + mean of the
    field.  All-zero attributes give logits (0, 0) and the argmax tie
    breaks to class 0, so prediction is 1 exactly when attribute mass
    reaches the readout.
    """
    gcn = (Layer(np.array([[1.0]]), np.zeros(1), "relu"),)
    head = (Layer(np.array([[0.0, 1.0], [0.0, 1.0]]), np.zeros(2), "identity"),)
    return GnnModel(1, 2, gcn, head)


def two_node_chain():
    # single directed arc 0 -> 1, attributes 1 and 2
    return build_graph(2, [(0, 1)], [[1.0], [2.0]], True, label=0, graph_id="chain2")


def ring_graph(n: int = 5, hot: int = 0):
    attrs = np.zeros((n, 1))
    attrs[hot, 0] = 1.0
    edges = [(i, (i + 1) % n) for i in range(n)]
    return build_graph(n, edges, attrs, False, label=1, graph_id=f"ring{n}")


def random_small_graph(rng, n_lo=4, n_hi=10, attr_dim=3, directed=False, gid=""):
    n = int(rng.integers(n_lo, n_hi + 1))
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [
        (int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(n)
    ]
    edges = [(s, d) for s, d in edges if s != d]
    attrs = rng.normal(size=(n, attr_dim))
    return build_graph(n, edges, attrs, directed, label=0, graph_id=gid)


def random_model(rng, attr_dim=3, hidden=(4,), num_classes=2) -> GnnModel:
    layers = []
    dim = attr_dim
    for width in hidden:
        layers.append(
            Layer(rng.normal(size=(dim, width)), rng.normal(size=width), "relu")
        )
        dim = width
    head = (
        Layer(
            rng.normal(size=(2 * dim, num_classes)),
            rng.normal(size=num_classes),
            "identity",
        ),
    )
    return GnnModel(attr_dim, num_classes, tuple(layers), head)


@pytest.fixture(scope="session")
def ba_dataset():
    return generate_ba2motifs(1000, seed=0)


@pytest.fixture(scope="session")
def ba_model(ba_dataset):
    return train_model(ba_dataset, seed=BA_TRAIN_SEED).model


@pytest.fixture(params=["default blocks", "3-row blocks"])
def blocks(request, monkeypatch):
    if request.param != "default blocks":
        monkeypatch.setattr("gxplain.model.SUBSET_BLOCK_ROWS", 3)
    return request.param


def best_subset_alone(model, g, k):
    """The best-subset search that ``oracle_report`` runs, without its
    minimal-size search, so a test can count that search's passes."""
    links, ids, original, _ = oracle._original(model, g)
    target = int(np.argmax(original))
    return oracle._best_subset(model, g, k, links, ids, target)


def stack_rows(count, n):
    """The row count of each pass that ``count`` stacked ``n``-node
    graphs take."""
    step = _block_rows(n)
    return [min(step, count - lo) for lo in range(0, count, step)]


@pytest.fixture
def oracle_passes(monkeypatch):
    """The row count of each stack of subset operands the oracle builds
    from here on."""
    passes = []
    run = oracle._induced_operands

    def counted(blocks, *args):
        passes.append(len(blocks))
        return run(blocks, *args)

    monkeypatch.setattr(oracle, "_induced_operands", counted)
    return passes


@pytest.fixture
def oracle_stacks(monkeypatch):
    """The row count of each layer stack the model module runs from here
    on: the passes into which :func:`model._probabilities` cuts a stack."""
    stacks = []
    run = model_module._layer_stack

    def counted(model, a, *args, **kwargs):
        stacks.append(len(a))
        return run(model, a, *args, **kwargs)

    monkeypatch.setattr(model_module, "_layer_stack", counted)
    return stacks
