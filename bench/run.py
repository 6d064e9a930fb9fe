"""Benchmark of the gxplain pipeline: one command, three workloads.

Run from the repository root:

    python3 bench/run.py --workload {train,explain,audit} --seed N \\
        --seconds S --trace {0,1}

The seed only sets dataset generation; the training seed (15) and the
explainer seed (0) are fixed by the acceptance configuration.  Each run
sets up the workload, runs its timed loop for at least ``--seconds``
seconds (and until the per-op percentiles have enough samples), then
checks the outputs.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, measured with tracing off.
* ``--trace 1``: the per-layer metrics.  The set-up, the timed loop and
  the finish step run under the span tracer of ``spans.py``; the timed
  loop also runs once untraced with the same number of rounds, and the
  difference of the two walls is the tracing overhead.  Kernel timings
  of the six hot kernels follow, untraced.

A full record (environment, informational quality numbers, output
digests, failures) goes to ``.bench_out/results/`` and the spans of a
traced run to ``.bench_out/spans/``.
"""

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# one process working on tiny matrices: extra BLAS threads only contend
BLAS_THREADS = 1
# the timed loop stops here even short of its sample count, so a run
# always ends well inside its time limit
TIMED_LIMIT_S = 120.0

# Stage and op times are gated as costs: wall time over the wall time of
# the reference computation run next to them (see workloads.reference_ms),
# which cancels the host's speed swings.  The wall times themselves are
# recorded in the run's record.
END_TO_END_UNITS = {
    "setup_s": "s",
    "setup_cost": "ref",
    "stage_cost": "ref",
    "op_cost_p50": "ref",
    "op_cost_p90": "ref",
    "quality": "fraction",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    from spans import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_frac"] = "fraction"
        units[f"{layer}.self_frac"] = "fraction"
    for name in (
        "model.forward_calls",
        "model.backward_calls",
        "graphs.node_induced_subgraph_calls",
        "optim.adam_steps",
        "explain.mask_steps",
        "metrics.evaluate_calls",
        "metrics.forwards",
        "oracle.subsets_evaluated",
        "oracle.forwards",
        "trace.spans",
    ):
        units[name] = "count"
    for name in (
        "model.useful_forward_ratio",
        "metrics.useful_forward_ratio",
        "oracle.useful_forward_ratio",
    ):
        units[name] = "ratio"
    units["trace.top_level_coverage"] = "fraction"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_frac"] = "fraction"
    for name in (
        "model.forward_us",
        "model.forward_masked_us",
        "model.mask_gradients_us",
        "explain.sample_hard_concrete_us",
        "optim.adam_step_us",
        "explain.node_importance_us",
        "graphs.subgraph_us",
    ):
        units[name] = "us"
        units[f"{name}_n"] = "count"
    units["model.backward_us"] = "us"
    units["datasets.file_bytes"] = "bytes"
    units["explain.output_bytes"] = "bytes"
    return units


def import_library():
    """Import gxplain from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "gxplain" / "__init__.py").is_file():
        raise SystemExit(f"error: no gxplain sources under {src}")
    sys.path.insert(0, str(src))
    import gxplain

    if Path(gxplain.__file__).resolve().parent != (src / "gxplain").resolve():
        raise SystemExit(f"error: imported gxplain from {gxplain.__file__}")
    return gxplain


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    loose = git / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == name:
                return parts[0]
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def timed_rounds(w, i: int, seconds: float, complete: bool):
    """Run rounds from index ``i`` for ``seconds``; with ``complete``, also
    until the workload's minimum rounds and op samples are reached.
    Returns the next round index and the wall time."""
    clock = time.perf_counter
    t0 = clock()
    while clock() - t0 < TIMED_LIMIT_S and (
        clock() - t0 < seconds
        or complete
        and (i < w.min_rounds() or len(w.op_ms) < w.sizes.min_samples)
    ):
        w.round(i)
        i += 1
    return i, clock() - t0


def _percentile(values, q: float) -> float | None:
    import numpy

    return float(numpy.percentile(values, q)) if values else None


# A set-up takes seconds, long enough for the host's speed to change while
# it runs, so the reference runs inside it, from a timer signal.
SETUP_TICK_S = 0.1


def timed_setup(w) -> tuple[float, float]:
    """Run the workload's set-up; return its wall time in seconds and its
    cost.  The reference runs before it, after it and every
    ``SETUP_TICK_S`` seconds of it.  Each stretch of set-up work between two
    reference runs is divided by the median of the six reference runs
    nearest to it; the reference runs' own time is left out of both."""
    import workloads

    clock = time.perf_counter
    refs = [workloads.reference_ms()]
    pauses = []

    def tick(signum, frame):
        paused = clock()
        refs.append(workloads.reference_ms())
        pauses.append((paused, clock()))

    previous = signal.signal(signal.SIGALRM, tick)
    start = clock()
    signal.setitimer(signal.ITIMER_REAL, SETUP_TICK_S, SETUP_TICK_S)
    try:
        w.setup()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        end = clock()
        signal.signal(signal.SIGALRM, previous)
    refs.append(workloads.reference_ms())
    stretches, resume = [], start
    for paused, resumed in pauses:
        stretches.append(paused - resume)
        resume = resumed
    stretches.append(end - resume)
    cost = sum(
        1e3 * s / statistics.median(refs[max(0, j - 2) : j + 4])
        for j, s in enumerate(stretches)
    )
    return sum(stretches), cost


def plain_run(w, seconds: float) -> tuple[dict, dict]:
    # Each set-up is followed by a share of the timed rounds, so the samples
    # spread over the whole run and a slow spell of the host is less likely
    # to cover all of them.
    import workloads

    workloads.reference_ms()  # the first run pays numpy's warm-up
    setup_s, setup_cost, digests = [], [], set()
    rounds, wall = 0, 0.0
    for k in range(w.sizes.setups):
        elapsed_s, cost = timed_setup(w)
        setup_s.append(elapsed_s)
        setup_cost.append(cost)
        digests.add(w.setup_digest())
        if k == 0:
            w.prepare()
        last = k == w.sizes.setups - 1
        rounds, spent = timed_rounds(w, rounds, seconds / w.sizes.setups, last)
        wall += spent
    w.ledger.check("every set-up writes the same outputs", len(digests) == 1)
    quality = w.finish()
    values = {
        "setup_s": statistics.median(setup_s),
        "setup_cost": statistics.median(setup_cost),
        "stage_cost": _percentile(w.stage_cost, 50),
        "op_cost_p50": _percentile(w.op_cost, 50),
        "op_cost_p90": _percentile(w.op_cost, 90),
        "quality": quality,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    w.info.update(
        op_samples=len(w.op_ms),
        stage_samples=len(w.stage_s),
        stage_s=_percentile(w.stage_s, 50),
        op_ms_p10=_percentile(w.op_ms, 10),
        op_ms_p50=_percentile(w.op_ms, 50),
        op_ms_p90=_percentile(w.op_ms, 90),
        reference_ms_p50=_percentile(w.ref_ms, 50),
    )
    samples = {
        "setup_s_all": setup_s,
        "setup_cost_all": setup_cost,
        "rounds": rounds,
        "timed_wall_s": wall,
        "stage_s_all": w.stage_s,
        "stage_cost_all": w.stage_cost,
        "op_ms_all": w.op_ms,
        "op_cost_all": w.op_cost,
        "reference_ms_all": w.ref_ms,
    }
    return values, samples


def traced_run(w, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    import spans
    import workloads

    tracer = spans.Tracer()
    clock = time.perf_counter
    start = clock()
    with tracer:
        w.setup()
    traced_wall = clock() - start
    written = w.explanation_bytes
    w.prepare()
    # untraced and traced rounds alternate, so that a slow spell of the host
    # falls on both sides of the overhead comparison; a traced round repeats
    # the untraced one before it (explain checks that its bytes repeat)
    untraced = traced = 0.0
    pairs = 0
    first = clock()
    while pairs < 1 or clock() - first < seconds:
        start = clock()
        w.round(pairs)
        untraced += clock() - start
        before = w.explanation_bytes
        with tracer:
            start = clock()
            w.round(w.min_rounds() + pairs)
            traced += clock() - start
        written += w.explanation_bytes - before
        pairs += 1
    last = clock()
    start = clock()
    with tracer:
        w.finish()
    traced_wall += traced + clock() - start
    values = spans.layer_metrics(tracer, traced_wall, (first, last), traced)
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_frac"] = (traced - untraced) / untraced
    values.update(
        workloads.kernel_timings(w.model, w.graphs, w.sizes.kernel_calls)
    )
    values["datasets.file_bytes"] = w.dataset_path.stat().st_size
    values["explain.output_bytes"] = written
    tracer.write(spans_path)
    samples = {
        "round_pairs": pairs,
        "untraced_timed_wall_s": untraced,
        "traced_timed_wall_s": traced,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "functions": spans.function_totals(tracer),
    }
    return values, samples


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None):
    """One benchmark run; returns the result line and the full record."""
    import workloads

    sizes = sizes or workloads.Sizes()
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    for sub in ("work", "results", "spans"):
        (OUT_DIR / sub).mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT_DIR / "work"))
    try:
        w = workloads.WORKLOADS[workload](seed=seed, sizes=sizes, work=work)
        if trace:
            values, samples = traced_run(
                w, seconds, OUT_DIR / "spans" / f"{tag}.tsv.gz"
            )
            units = per_layer_units()
        else:
            values, samples = plain_run(w, seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }
    ledger = w.ledger
    finite = True
    for metric in metrics.values():
        if metric["value"] is None or not math.isfinite(metric["value"]):
            metric["value"] = None  # no samples: the run is not correct
            finite = False
    line = {
        "correct": not ledger.failures and finite,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "op": w.op,
        "quality": w.quality,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": dataclasses.asdict(sizes),
        "environment": environment(seed),
        "samples": samples,
        "info": w.info,
        "digests": w.digests,
        "failures": ledger.failures,
        "tracebacks": ledger.tracebacks,
        "result": line,
    }
    path = OUT_DIR / "results" / f"{tag}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("train", "explain", "audit")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_library()
    line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = record["environment"]
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace}"
        f" python={env['python']} numpy={env['numpy']} nproc={env['nproc']}"
        f" blas_threads={BLAS_THREADS} commit={env['git_commit']}"
    )
    print(f"op: {record['op']}; quality: {record['quality']}")
    for name, metric in line["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    for key, value in record["info"].items():
        print(f"  info {key} = {value}")
    for name, row in record["samples"].get("functions", {}).items():
        print(
            f"  span {name} calls={row['calls']} total_s={row['total_s']:.6f}"
            f" self_s={row['self_s']:.6f}"
        )
    for key, value in record["digests"].items():
        print(f"  digest {key} = {value}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.exit(main())
