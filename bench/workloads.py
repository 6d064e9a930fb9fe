"""The benchmark's three workloads, each the library calls of CLI verbs.

* ``train``   -- ``gxplain train`` on a regenerated ``ba2motifs`` set.
* ``explain`` -- ``gxplain explain --split test --jobs 1`` with the
  acceptance explainer configuration (entropy lambdas 0).
* ``audit``   -- ``gxplain eval --sweep`` plus the ``--oracle`` work on
  13-node motif graphs, under the oracle's 14-node cap.

Every workload has the same shape: a set-up, a timed loop of rounds, and a
finish step that computes the quality number and checks the outputs.  The
functions of the library are always looked up through ``gxplain`` at call
time, so that a traced phase sees every call (see ``spans.py``).
"""

import contextlib
import gzip
import hashlib
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import gxplain as gx

TRAIN_SEED = 15
HIDDEN_DIMS = (20, 20, 20)
LEARNING_RATE = 0.001
# the configuration the acceptance suite verifies (tests/test_acceptance.py)
BENCH_EXPLAIN_CONFIG = gx.ExplainConfig(
    lambda_edge_entropy=0.0, lambda_attr_entropy=0.0
)
EVAL_BUDGET = 5
ATTR_TOP = 3
AUDIT_BASE_SIZE = 8  # 8-node base + 5-node motif = 13 nodes
AUDITED_GRAPHS = 25  # test graphs explained and audited


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does; the defaults are the benchmark's."""

    graphs: int = 1000  # ba2motifs graphs: 800 train / 100 val / 100 test
    epochs: int = 20  # training epochs of the train verb
    explain_graphs: int = 60  # test graphs explained per pass
    explain_epochs: int = BENCH_EXPLAIN_CONFIG.epochs
    audit_graphs: int = 400  # 13-node graphs: 320 train / 40 val / 40 test
    audit_epochs: int = 50
    min_samples: int = 100  # per-op samples, so p90 has ten beyond it
    setups: int = 3
    kernel_calls: int = 300


FAILED = object()


class Ledger:
    """Operations attempted and failed.  A failure is recorded, not raised."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.tracebacks: list[str] = []

    def attempt(self, what: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the run must go on and count it
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            self.tracebacks.append(traceback.format_exc())
            return FAILED

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check failed: {what}")


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def dataset_digest(path) -> str:
    # gzip headers carry a timestamp, so hash the decompressed text
    with gzip.open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# The reference: a fixed numpy computation shaped like one forward pass of
# the 3x20 GCN on a 25-node graph, written here and not in gxplain, so no
# change to the library moves it.  On a shared 2-vCPU VM the speed of
# identical work swung by up to 1.8x for tens of seconds at a time (CPU
# time tracked wall time); the reference slowed by the same factor, while
# the ratio of an op's time to the reference's held within about 5%.
_REF_RNG = np.random.default_rng(20230314)
_REF_ADJ = _REF_RNG.random((25, 25))
_REF_X = _REF_RNG.random((25, 10))
_REF_LAYERS = [
    (_REF_RNG.normal(size=(d, 20)), _REF_RNG.normal(size=20)) for d in (10, 20, 20)
]
_REF_HEAD = _REF_RNG.normal(size=(40, 2))
REF_REPS = 25


def reference_ms() -> float:
    """Wall time of the reference computation, in milliseconds."""
    start = time.perf_counter()
    for _ in range(REF_REPS):
        h = _REF_X
        for weight, bias in _REF_LAYERS:
            h = np.maximum(_REF_ADJ @ h @ weight + bias, 0.0)
        logits = np.concatenate([h.max(axis=0), h.mean(axis=0)]) @ _REF_HEAD
        e = np.exp(logits - logits.max())
        _ = {i: float(v) for i, v in enumerate(e / e.sum())}
    return 1e3 * (time.perf_counter() - start)


@contextlib.contextmanager
def epoch_clock(stamps: list, refs: list):
    """Stamp the time of every optimizer step taken by ``train_model``,
    after running the reference there.

    One Adam step ends each training epoch, so consecutive stamps bound one
    epoch (the previous epoch's validation pass plus this epoch's forward
    and backward over the training split) and one reference run.
    """
    training = sys.modules["gxplain.training"]
    base = training.Adam

    class ClockedAdam(base):
        def step(self, grads):
            refs.append(reference_ms())
            stamps.append(time.perf_counter())
            return super().step(grads)

    training.Adam = ClockedAdam
    try:
        yield
    finally:
        training.Adam = base


def train_verb(dataset_path, model_path, epochs: int):
    """``gxplain train``: load, fit, save, then score the test split."""
    dataset = gx.load_dataset(dataset_path)
    result = gx.train_model(
        dataset,
        hidden_dims=HIDDEN_DIMS,
        learning_rate=LEARNING_RATE,
        epochs=epochs,
        seed=TRAIN_SEED,
    )
    gx.save_model(result.model, model_path)
    test_accuracy = gx.evaluate_accuracy(
        result.model, dataset.split_graphs("test")
    )
    return dataset, result, test_accuracy


def check_explanation(ledger: Ledger, g, expl, loaded) -> None:
    """Round trip, score range and ranking checks for one explanation."""
    gid = g.graph_id
    same = (
        loaded is not FAILED
        and loaded.arcs == expl.arcs
        and loaded.node_ranking == expl.node_ranking
        and loaded.original_prediction == expl.original_prediction
        and loaded.original_probability == expl.original_probability
        and all(
            np.array_equal(getattr(loaded, f), getattr(expl, f))
            for f in ("edge_score", "attr_score", "node_attr_score", "node_score")
        )
    )
    ledger.check(f"{gid} round-trips through load_explanation", same)
    scores = np.concatenate(
        [
            expl.edge_score.ravel(),
            expl.attr_score.ravel(),
            expl.node_attr_score.ravel(),
            expl.node_score.ravel(),
        ]
    )
    ledger.check(
        f"{gid} scores finite and in [0, 1]",
        bool(np.all(np.isfinite(scores)) and np.all((scores >= 0) & (scores <= 1))),
    )
    ledger.check(
        f"{gid} node_ranking is a permutation",
        sorted(expl.node_ranking) == list(range(g.node_count)),
    )


def one_node_baseline(model, graphs, report) -> float | None:
    """Share of eligible graphs in which some single node already keeps
    the prediction, i.e. where ``min_k = 1`` needs no explanation at all."""
    eligible = {r.graph_id for r in report.per_graph if r.eligible}
    hits = []
    for g in graphs:
        if g.graph_id not in eligible:
            continue
        original = gx.forward(model, g).predicted_class
        hits.append(
            any(
                gx.forward(
                    model, gx.node_induced_subgraph(g, gx.NodeSet((v,)))
                ).predicted_class
                == original
                for v in range(g.node_count)
            )
        )
    return sum(hits) / len(hits) if hits else None


def sparsity_info(model, graphs, report) -> dict:
    return {
        "sparsity": report.sparsity,
        "eligible_count": report.eligible_count,
        "sparsity_one_node_baseline": one_node_baseline(model, graphs, report),
        "sparsity_note": (
            "informational, not gated: sparsity is the mean minimal"
            " retaining ranking prefix over eligible graphs; where the"
            " one-node baseline is 1.0 a single node already keeps every"
            " eligible prediction, so the metric cannot tell explanations"
            " apart"
        ),
    }


@dataclass
class Workload:
    """Shared state and bookkeeping of one workload run."""

    seed: int
    sizes: Sizes
    work: Path
    ledger: Ledger = field(default_factory=Ledger)
    ref_ms: list = field(default_factory=list)
    op_ms: list = field(default_factory=list)
    op_cost: list = field(default_factory=list)
    stage_s: list = field(default_factory=list)
    stage_cost: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    explanation_bytes: int = 0

    @property
    def dataset_path(self) -> Path:
        return self.work / "dataset.json.gz"

    @property
    def model_path(self) -> Path:
        return self.work / "model.json"

    @property
    def explanation_dir(self) -> Path:
        return self.work / "explanations"

    def min_rounds(self) -> int:
        return 1

    def reference(self) -> None:
        self.ref_ms.append(reference_ms())

    def cost_of(self, ms: float) -> float:
        """A wall time over the median of the last five reference runs."""
        return ms / float(np.median(self.ref_ms[-5:]))

    def record_op(self, ms: float, cost: float) -> None:
        self.op_ms.append(ms)
        self.op_cost.append(cost)

    def record_stage(self, ms: float, cost: float) -> None:
        self.stage_s.append(ms / 1e3)
        self.stage_cost.append(cost)

    def path_of(self, g) -> Path:
        return self.explanation_dir / f"{g.graph_id}.json"

    def explain_one(self, g):
        """``gxplain explain``'s work on one graph: learn masks, save."""
        config = replace(BENCH_EXPLAIN_CONFIG, epochs=self.sizes.explain_epochs)
        explanation = gx.explain(self.model, g, config)
        gx.save_explanation(explanation, config, self.path_of(g))
        self.explanation_bytes += self.path_of(g).stat().st_size
        return explanation

    def load_explanations(self, graphs) -> dict:
        """``gxplain eval``'s read step; an unreadable file is a failed
        operation, not an error."""
        loaded = {}
        for g in graphs:
            result = self.ledger.attempt(
                f"load_explanation {g.graph_id}",
                gx.load_explanation,
                self.path_of(g),
            )
            if result is not FAILED:
                loaded[g.graph_id] = result[0]
        return loaded


class TrainWorkload(Workload):
    name = "train"
    op = "one training epoch"
    quality = "test accuracy"

    def setup(self) -> None:
        dataset = gx.generate_ba2motifs(self.sizes.graphs, self.seed)
        gx.save_dataset(dataset, self.dataset_path)

    def setup_digest(self) -> str:
        return dataset_digest(self.dataset_path)

    def round(self, i: int) -> None:
        stamps: list[float] = []
        refs: list[float] = []
        start = time.perf_counter()
        with epoch_clock(stamps, refs):
            out = self.ledger.attempt(
                "train", train_verb, self.dataset_path, self.model_path,
                self.sizes.epochs,
            )
        wall_ms = 1e3 * (time.perf_counter() - start)
        if out is FAILED:
            return
        for k in range(1, len(stamps)):
            self.ref_ms.append(refs[k])
            epoch_ms = 1e3 * (stamps[k] - stamps[k - 1]) - refs[k]
            self.record_op(epoch_ms, self.cost_of(epoch_ms))
        verb_ms = wall_ms - sum(refs)
        self.record_stage(verb_ms, verb_ms / float(np.median(refs)))
        dataset, result, test_accuracy = out
        self.model, self.result = result.model, result
        self.graphs = dataset.split_graphs("test")
        self.test_accuracies.append(test_accuracy)
        self.model_digests.append(sha256_file(self.model_path))

    def prepare(self) -> None:
        self.test_accuracies: list[float] = []
        self.model_digests: list[str] = []

    def finish(self) -> float:
        led = self.ledger
        led.check(
            "every training run writes the same model bytes",
            len(set(self.model_digests)) == 1,
        )
        led.check(
            "every training run scores the same test accuracy",
            len(set(self.test_accuracies)) == 1,
        )
        loaded = led.attempt("load_model", gx.load_model, self.model_path)
        same = loaded is not FAILED and all(
            np.array_equal(
                gx.forward(loaded, g).probabilities,
                gx.forward(self.model, g).probabilities,
            )
            for g in self.graphs
        )
        led.check("saved model round-trips through load_model", same)
        accuracy = self.test_accuracies[-1]
        led.check("test accuracy lies in [0, 1]", 0.0 <= accuracy <= 1.0)
        led.check(
            "training loss is finite",
            all(math.isfinite(v) for v in self.result.train_loss),
        )
        self.digests["model_sha256"] = self.model_digests[-1]
        self.info.update(
            test_accuracy=accuracy,
            train_accuracy=self.result.train_accuracy[-1],
            validation_accuracy=self.result.validation_accuracy[-1],
            train_loss=self.result.train_loss[-1],
        )
        return accuracy


def sweep(model, graphs, explanations, min_k_by_id):
    """``gxplain eval --sweep``: one evaluation per budget 1..max_n."""
    reports = []
    for budget in range(1, max(g.node_count for g in graphs) + 1):
        swept = gx.evaluate(
            model, graphs, explanations, k=budget, compute_sparsity=False
        )
        for row in swept.per_graph:
            row.min_k = min_k_by_id.get(row.graph_id)
        reports.append(swept)
    return reports


class ExplainWorkload(Workload):
    name = "explain"
    op = "one test graph: explain + save_explanation"
    quality = "mean ep_explained over the budget sweep"

    def setup(self) -> None:
        dataset = gx.generate_ba2motifs(self.sizes.graphs, self.seed)
        gx.save_dataset(dataset, self.dataset_path)
        _, _, self.setup_accuracy = train_verb(
            self.dataset_path, self.model_path, self.sizes.epochs
        )
        # the explain verb's own reads
        self.model = gx.load_model(self.model_path)
        dataset = gx.load_dataset(self.dataset_path)
        self.graphs = dataset.split_graphs("test")[: self.sizes.explain_graphs]

    def setup_digest(self) -> str:
        return sha256_file(self.model_path) + dataset_digest(self.dataset_path)

    def prepare(self) -> None:
        self.explanation_dir.mkdir(exist_ok=True)
        self.first_pass: dict = {}
        self.pass_ms = self.pass_cost = 0.0

    def min_rounds(self) -> int:
        return 2 * len(self.graphs)  # at least two passes for the stage

    def round(self, i: int) -> None:
        g = self.graphs[i % len(self.graphs)]
        self.reference()
        start = time.perf_counter()
        expl = self.ledger.attempt(f"explain {g.graph_id}", self.explain_one, g)
        elapsed_ms = 1e3 * (time.perf_counter() - start)
        cost = self.cost_of(elapsed_ms)
        self.pass_ms += elapsed_ms
        self.pass_cost += cost
        if i % len(self.graphs) == len(self.graphs) - 1:
            self.record_stage(self.pass_ms, self.pass_cost)
            self.pass_ms = self.pass_cost = 0.0
        if expl is FAILED:
            return
        self.record_op(elapsed_ms, cost)
        if i < len(self.graphs):
            self.first_pass[g.graph_id] = (expl, sha256_file(self.path_of(g)))
        elif g.graph_id in self.first_pass:
            self.ledger.check(
                f"{g.graph_id} explanation bytes repeat",
                sha256_file(self.path_of(g)) == self.first_pass[g.graph_id][1],
            )

    def finish(self) -> float:
        led = self.ledger
        graphs = [g for g in self.graphs if g.graph_id in self.first_pass]
        loaded = self.load_explanations(graphs)
        explained = {}
        for g in graphs:
            expl = self.first_pass[g.graph_id][0]
            check_explanation(led, g, expl, loaded.get(g.graph_id, FAILED))
            explained[g.graph_id] = expl
        start = time.perf_counter()
        report = gx.evaluate(self.model, graphs, explained, k=EVAL_BUDGET)
        eval_s = time.perf_counter() - start
        min_k = {r.graph_id: r.min_k for r in report.per_graph}
        swept = sweep(self.model, graphs, explained, min_k)
        led.check(
            "ep_explained at the full budget is 1.0",
            swept[-1].ep_explained == 1.0,
        )
        report_path = self.work / "report.json"
        gx.metrics.save_report(report, report_path)
        self.digests["explanations_sha256"] = sha256_files(
            self.path_of(g) for g in graphs
        )
        self.digests["eval_report_sha256"] = sha256_file(report_path)
        self.info.update(
            test_accuracy=self.setup_accuracy,
            explained_graphs=len(graphs),
            ep_explained=report.ep_explained,
            ep_remaining=report.ep_remaining,
            eval_s=eval_s,
            explain_graphs_per_s=(
                len(self.graphs) / min(self.stage_s) if self.stage_s else None
            ),
            sweep_ep_explained=[r.ep_explained for r in swept],
            **sparsity_info(self.model, graphs, report),
        )
        return float(np.mean([r.ep_explained for r in swept]))


class AuditWorkload(Workload):
    name = "audit"
    op = f"one oracle_report(k={EVAL_BUDGET}) on a 13-node graph"
    quality = "mean ep_explained over the budget sweep"

    def setup(self) -> None:
        dataset = gx.generate_motif_graphs(
            self.sizes.audit_graphs,
            self.seed,
            base_size=AUDIT_BASE_SIZE,
            name="motifs13",
        )
        gx.save_dataset(dataset, self.dataset_path)
        _, _, self.setup_accuracy = train_verb(
            self.dataset_path, self.model_path, self.sizes.audit_epochs
        )
        self.model = gx.load_model(self.model_path)
        dataset = gx.load_dataset(self.dataset_path)
        self.graphs = dataset.split_graphs("test")[:AUDITED_GRAPHS]
        self.explanation_dir.mkdir(exist_ok=True)
        self.explanations = {g.graph_id: self.explain_one(g) for g in self.graphs}

    def setup_digest(self) -> str:
        return sha256_file(self.model_path) + sha256_files(
            self.path_of(g) for g in self.graphs
        )

    def prepare(self) -> None:
        self.passes: list = []
        self.eval_s: list[float] = []

    def eval_pass(self):
        led = self.ledger
        loaded = self.load_explanations(self.graphs)
        graphs = [g for g in self.graphs if g.graph_id in loaded]
        report = led.attempt(
            "evaluate", gx.evaluate, self.model, graphs, loaded,
            k=EVAL_BUDGET, attr_top=ATTR_TOP,
        )
        if report is FAILED:
            return loaded, graphs, FAILED, FAILED
        min_k = {r.graph_id: r.min_k for r in report.per_graph}
        swept = led.attempt("sweep", sweep, self.model, graphs, loaded, min_k)
        return loaded, graphs, report, swept

    def round(self, i: int) -> None:
        self.reference()
        start = time.perf_counter()
        loaded, graphs, report, swept = self.eval_pass()
        stage_ms = 1e3 * (time.perf_counter() - start)
        stage_cost = self.cost_of(stage_ms)
        self.eval_s.append(stage_ms / 1e3)
        oracle = {}
        for g in self.graphs:
            self.reference()
            start = time.perf_counter()
            result = self.ledger.attempt(
                f"oracle_report {g.graph_id}",
                gx.oracle_report,
                self.model,
                g,
                min(EVAL_BUDGET, g.node_count),
            )
            elapsed_ms = 1e3 * (time.perf_counter() - start)
            cost = self.cost_of(elapsed_ms)
            stage_ms += elapsed_ms
            stage_cost += cost
            if result is not FAILED:
                self.record_op(elapsed_ms, cost)
                oracle[g.graph_id] = result
        self.record_stage(stage_ms, stage_cost)
        self.passes.append((loaded, graphs, report, swept, oracle))

    def finish(self) -> float:
        led = self.ledger
        loaded, graphs, report, swept, oracle = self.passes[0]
        for g in self.graphs:
            check_explanation(
                led, g, self.explanations[g.graph_id],
                loaded.get(g.graph_id, FAILED),
            )
        if report is FAILED or swept is FAILED:
            return float("nan")
        first = json.dumps(gx.metrics.report_to_dict(report), sort_keys=True)
        for _, _, rep, _, orc in self.passes[1:]:
            led.check(
                "every pass gives the same eval report",
                rep is not FAILED
                and json.dumps(gx.metrics.report_to_dict(rep), sort_keys=True)
                == first,
            )
            led.check(
                "every pass gives the same oracle results",
                all(
                    orc.get(gid) is not None
                    and orc[gid].best_subset == res.best_subset
                    and orc[gid].best_probability == res.best_probability
                    and orc[gid].exhaustive_min_k == res.exhaustive_min_k
                    for gid, res in oracle.items()
                ),
            )
        excess = []
        for row in report.per_graph:
            g_oracle = oracle.get(row.graph_id)
            if g_oracle is None:
                continue
            expl = loaded[row.graph_id]
            g = next(x for x in graphs if x.graph_id == row.graph_id)
            top = gx.node_induced_subgraph(
                g, gx.NodeSet(expl.node_ranking[:EVAL_BUDGET])
            )
            p_top = float(
                gx.forward(self.model, top).probabilities[expl.original_prediction]
            )
            led.check(
                f"{row.graph_id} oracle best_probability >= ranking top-5",
                g_oracle.best_probability >= p_top,
            )
            if row.min_k is not None:
                led.check(
                    f"{row.graph_id} ranking min_k >= exhaustive min_k",
                    row.min_k >= g_oracle.exhaustive_min_k,
                )
                excess.append(row.min_k - g_oracle.exhaustive_min_k)
        led.check(
            "ep_explained at the full budget is 1.0",
            swept[-1].ep_explained == 1.0,
        )
        report_path = self.work / "report.json"
        gx.metrics.save_report(report, report_path)
        self.digests["explanations_sha256"] = sha256_files(
            self.path_of(g) for g in self.graphs
        )
        self.digests["eval_report_sha256"] = sha256_file(report_path)
        sweep_ep = [s.ep_explained for s in swept]
        self.info.update(
            test_accuracy=self.setup_accuracy,
            audited_graphs=len(graphs),
            ep_explained=report.ep_explained,
            ep_remaining=report.ep_remaining,
            ep_attribute=report.ep_attribute,
            sweep_ep_explained=sweep_ep,
            audit_min_k_excess=float(np.mean(excess)) if excess else None,
            eval_s=float(np.median(self.eval_s)),
            **sparsity_info(self.model, graphs, report),
        )
        return float(np.mean(sweep_ep))


WORKLOADS = {
    w.name: w for w in (TrainWorkload, ExplainWorkload, AuditWorkload)
}


def kernel_timings(model, graphs, calls: int) -> dict:
    """Per-call time of the six hot kernels on the workload's own graphs.

    Each kernel is called through its public function; the inputs have the
    shapes one mask-learning step uses on that graph.
    """
    rng = np.random.default_rng(0)
    hc = BENCH_EXPLAIN_CONFIG.hard_concrete
    fwd, masked, grads, hcs, adams, nodes, subs = [], [], [], [], [], [], []
    zero_epochs = replace(BENCH_EXPLAIN_CONFIG, epochs=0)
    for g in graphs:
        size = g.arc_count + g.node_count * g.attr_dim
        logits = rng.normal(0.0, 1.0, size)
        u = rng.uniform(0.01, 0.99, size)
        gate = gx.sample_hard_concrete(logits, hc, u)
        mask = gx.MaskedInput(
            gate[: g.arc_count], gate[g.arc_count :].reshape(g.node_count, -1)
        )
        target = gx.forward(model, g).predicted_class
        fwd.append((model, g))
        masked.append((model, g, mask))
        grads.append((model, g, mask, target))
        hcs.append((logits, hc, u))
        params = [logits[: g.arc_count].copy(), logits[g.arc_count :].copy()]
        adams.append(
            (gx.optim.Adam(params, 0.01), [np.ones_like(p) * 1e-3 for p in params])
        )
        nodes.append((gx.explain(model, g, zero_epochs), g))
        subs.append((g, gx.NodeSet(rng.permutation(g.node_count)[:EVAL_BUDGET])))
    kernels = (
        ("model.forward_us", gx.forward, fwd),
        ("model.forward_masked_us", gx.forward, masked),
        ("model.mask_gradients_us", gx.mask_gradients, grads),
        ("explain.sample_hard_concrete_us", gx.sample_hard_concrete, hcs),
        ("optim.adam_step_us", lambda opt, grads: opt.step(grads), adams),
        ("explain.node_importance_us", gx.node_importance, nodes),
        ("graphs.subgraph_us", gx.node_induced_subgraph, subs),
    )
    # kernels take turns call by call, so a slow spell of the host falls on
    # all of them alike
    times = {name: [] for name, _, _ in kernels}
    clock = time.perf_counter
    for i in range(calls):
        for name, fn, arg_list in kernels:
            args = arg_list[i % len(arg_list)]
            start = clock()
            fn(*args)
            times[name].append(clock() - start)
    out = {}
    for name, samples in times.items():
        out[name] = 1e6 * float(np.median(samples))
        out[f"{name}_n"] = len(samples)
    out["model.backward_us"] = (
        out["model.mask_gradients_us"] - out["model.forward_masked_us"]
    )
    return out
