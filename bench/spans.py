"""Span tracing of the gxplain layers, installed from outside the library.

A traced phase replaces every public module-level function of each layer
module (plus ``Adam.step``, the optimizer layer's only entry point) with a
wrapper that records one span: name, start, end and the span that was open
when it was called.  Every reference to a function is patched, so calls that
one module makes into another through ``from .x import f`` are seen too.
The model layer's two kernels, ``_forward_trace`` and ``_backward``, are
wrapped as well: ``train_model`` and ``learn_masks`` call them directly, and
without their spans that work would count as training or explain time.
Other private helpers are not wrapped; their time shows up as self time of
the function that called them.

Spans are kept in flat arrays while the phase runs and reduced to the
per-layer figures by :func:`layer_metrics` afterwards.
"""

import gzip
import hashlib
import importlib
import inspect
import sys
import time
from array import array

LAYERS = (
    "datasets",
    "graphs",
    "model",
    "training",
    "optim",
    "explain",
    "metrics",
    "oracle",
)

# the optimizer layer has no module-level functions; its work is this method
_METHODS = {"optim": ("Adam", "step")}
# private kernels that other layers import and call directly
_KERNELS = {"model": ("_forward_trace", "_backward")}

# every forward pass, masked or not, whichever layer asked for it
_FORWARD = "model._forward_trace"
_BACKWARD = "model._backward"
_SUBGRAPH = "graphs.node_induced_subgraph"
_ADAM_STEP = "optim.Adam.step"
_LEARN_MASKS = "explain.learn_masks"
_EVALUATE = "metrics.evaluate"


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and not name.startswith("_")
        ):
            yield name, obj


class Tracer:
    """Records spans of the gxplain layers while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.forward_keys: dict[int, bytes] = {}
        self._stack: list[int] = []
        self._models: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, qualified: str, fn):
        if qualified not in self._wrappers:
            self._wrappers[qualified] = self._make_wrapper(qualified, fn)
        return self._wrappers[qualified]

    def _make_wrapper(self, qualified: str, fn):
        nid = len(self.names)
        self.names.append(qualified)
        start, end, parent = self.start, self.end, self.parent
        name_id, stack = self.name_id, self._stack
        clock = time.perf_counter
        on_forward = self._forward_key if qualified == _FORWARD else None

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            if on_forward is not None:
                on_forward(idx, args, kwargs)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _forward_key(self, idx: int, args, kwargs) -> None:
        # identifies the input of one forward, so repeated work can be counted
        model, g = args[0], args[1]
        mask = args[2] if len(args) > 2 else kwargs.get("mask")
        self._models[id(model)] = model  # keeps ids unique while tracing
        digest = hashlib.blake2b(digest_size=16)
        digest.update(id(model).to_bytes(8, "little"))
        digest.update(g.graph_id.encode())
        for part in g.arc_index_arrays():
            digest.update(part.tobytes())
        digest.update(g.attributes.tobytes())
        if mask is not None:
            digest.update(mask.edge_gate.tobytes())
            digest.update(mask.attribute_gate.tobytes())
        self.forward_keys[idx] = digest.digest()

    def install(self) -> None:
        """Patch every gxplain reference to a layer's public functions."""
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"gxplain.{layer}")
            for name, fn in _public_functions(module):
                originals[id(fn)] = self._wrap(f"{layer}.{name}", fn)
            for name in _KERNELS.get(layer, ()):
                fn = getattr(module, name)
                originals[id(fn)] = self._wrap(f"{layer}.{name}", fn)
            if layer in _METHODS:
                cls_name, meth = _METHODS[layer]
                cls = getattr(module, cls_name)
                fn = cls.__dict__[meth]
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gxplain" and not mod_name.startswith("gxplain."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self._models.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path) -> None:
        """Spans as gzip TSV: name, start, end, parent index (-1 = root)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self)):
                fh.write(
                    f"{self.names[self.name_id[i]]}\t{self.start[i]!r}"
                    f"\t{self.end[i]!r}\t{self.parent[i]}\n"
                )


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def function_totals(tracer: Tracer) -> dict[str, dict]:
    """Calls, total and self seconds of every traced function."""
    child_time = [0.0] * len(tracer)
    for i in range(len(tracer)):
        p = tracer.parent[i]
        if p >= 0:
            child_time[p] += tracer.end[i] - tracer.start[i]
    out: dict[str, dict] = {}
    for i in range(len(tracer)):
        dur = tracer.end[i] - tracer.start[i]
        row = out.setdefault(
            tracer.names[tracer.name_id[i]],
            {"calls": 0, "total_s": 0.0, "self_s": 0.0},
        )
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_time[i]
    return dict(sorted(out.items()))


def _useful_ratio(keys: list) -> float:
    # no forwards means no wasted forwards
    return len(set(keys)) / len(keys) if keys else 1.0


def layer_metrics(
    tracer: Tracer,
    traced_wall_s: float,
    timed_window: tuple[float, float],
    timed_wall_s: float,
) -> dict[str, float]:
    """Per-layer figures from the recorded spans.

    ``traced_wall_s`` is the wall time of every traced phase together;
    layer busy and self times are reported as shares of it.  The traced
    rounds of the timed loop lie inside ``timed_window`` and take
    ``timed_wall_s`` together; their top-level spans should cover it.
    """
    n = len(tracer)
    names = tracer.names
    layer_of_name = [LAYERS.index(name.split(".")[0]) for name in names]
    # ancestry bits: bit 0 marks learn_masks on the path, the rest layers
    name_flag = [int(name == _LEARN_MASKS) for name in names]
    layer_bit = [1 << (1 + l) for l in layer_of_name]
    oracle_bit = 1 << (1 + LAYERS.index("oracle"))
    metrics_bit = 1 << (1 + LAYERS.index("metrics"))

    ancestry = [0] * n
    calls = [0] * len(LAYERS)
    busy = [[] for _ in LAYERS]
    self_time = [0.0] * len(LAYERS)
    for name, row in function_totals(tracer).items():
        self_time[LAYERS.index(name.split(".")[0])] += row["self_s"]
    counts = {
        name: 0
        for name in (_FORWARD, _BACKWARD, _SUBGRAPH, _ADAM_STEP, _EVALUATE)
    }
    mask_steps = 0
    oracle_subsets = 0
    metrics_keys, oracle_keys, all_keys = [], [], []
    top_level = 0.0
    t0, t1 = timed_window
    start, end, parent, name_id = (
        tracer.start,
        tracer.end,
        tracer.parent,
        tracer.name_id,
    )
    for i in range(n):
        nid = name_id[i]
        p = parent[i]
        above = ancestry[p] if p >= 0 else 0
        ancestry[i] = above | layer_bit[nid] | name_flag[nid]
        layer = layer_of_name[nid]
        if p < 0 and t0 <= start[i] <= t1:
            top_level += end[i] - start[i]
        if p < 0 or layer_of_name[name_id[p]] != layer:
            calls[layer] += 1
            busy[layer].append((start[i], end[i]))
        name = names[nid]
        if name in counts:
            counts[name] += 1
        if name == _ADAM_STEP and above & 1:
            mask_steps += 1
        elif name == _SUBGRAPH and above & oracle_bit:
            oracle_subsets += 1
        elif name == _FORWARD:
            key = tracer.forward_keys[i]
            all_keys.append(key)
            if above & metrics_bit:
                metrics_keys.append(key)
            if above & oracle_bit:
                oracle_keys.append(key)

    out: dict[str, float] = {}
    for l, layer in enumerate(LAYERS):
        out[f"{layer}.calls"] = calls[l]
        out[f"{layer}.busy_frac"] = _union_length(busy[l]) / traced_wall_s
        out[f"{layer}.self_frac"] = self_time[l] / traced_wall_s
    out["model.forward_calls"] = counts[_FORWARD]
    out["model.backward_calls"] = counts[_BACKWARD]
    out["model.useful_forward_ratio"] = _useful_ratio(all_keys)
    out["graphs.node_induced_subgraph_calls"] = counts[_SUBGRAPH]
    out["optim.adam_steps"] = counts[_ADAM_STEP]
    out["explain.mask_steps"] = mask_steps
    out["metrics.evaluate_calls"] = counts[_EVALUATE]
    out["metrics.forwards"] = len(metrics_keys)
    out["metrics.useful_forward_ratio"] = _useful_ratio(metrics_keys)
    out["oracle.subsets_evaluated"] = oracle_subsets
    out["oracle.forwards"] = len(oracle_keys)
    out["oracle.useful_forward_ratio"] = _useful_ratio(oracle_keys)
    out["trace.spans"] = n
    out["trace.top_level_coverage"] = top_level / timed_wall_s
    return out
