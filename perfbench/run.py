"""One end-to-end and per-layer benchmark for the scheduler and the proxy.

Run it from the repository root::

    python3 perfbench/run.py --workload dense --seed 1 --seconds 10 --trace 0

The workloads are defined in ``scenarios.py``: ``sparse`` and ``dense``
time whole-epoch runs of the online monitor, ``giant`` chronons of the
sharded engine, and ``churn``, ``durable`` and ``group_commit`` chronons
of the always-on proxy.  A run repeats episodes (a timed set-up, then a fixed
number of timed operations, one client in a closed loop) until
``--seconds`` of set-up and operation time have been measured, checks
each episode's outputs, and prints one JSON object as the last line of
its output:

* ``--trace 0``: ``op_p50_ms`` and ``op_p90_ms``, the median and 90th
  percentile of all the operations timed (a few hundred at least, so
  dozens lie beyond the 90th), and ``setup_s``, the median set-up time
  of the episodes;
* ``--trace 1``: each layer's self time per operation (``<layer>_ms``),
  the part of it spent waiting for the disk, a socket or a shard worker
  (``<layer>_wait_ms``), per-operation work counts, and ``op_count``,
  the number of operations timed, from the spans of ``spans.py``.

Times are wall-clock, so waiting for the disk, a socket or the shard
workers counts, scaled by the :class:`Yardstick`: on a small shared
machine the time of one operation swings by half with other tenants'
load, which would drown the changes the benchmark exists to see.

``correct`` is false when a check failed or an operation raised;
``failed`` counts the operations that raised.  Without the program's
sources beside it, or when a traced entry point is missing from them,
the script prints no result and exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sparse", "dense", "giant", "churn", "durable", "group_commit")
#: Layers whose self time ``--trace 1`` reports, in ms per operation.
LAYERS = (
    "register",
    "open",
    "phase",
    "sync",
    "score",
    "select",
    "walk",
    "capture",
    "refresh",
    "span",
    "close",
    "admit",
    "cancel",
    "arena_patch",
    "shard_recv",
    "merge",
    "wal_append",
    "fsync",
    "checkpoint",
    "http",
    "other",
)
#: Layers that block on something outside the process: their waiting is
#: reported as well.
WAIT_LAYERS = ("shard_recv", "wal_append", "fsync", "checkpoint", "http")


#: The yardstick's usual seconds on the machine the benchmark was tuned
#: on (2-core x86-64 VM, Python 3.11): times are scaled to that speed.
YARDSTICK_S = 0.0045
#: Operation time between two yardsticks: the host's speed drifts within
#: a second, so the yardstick is taken that often between operations.
BLOCK_S = 0.02


class Yardstick:
    """Times a fixed task mixing the program's kinds of work.

    Interpreter-bound dict and list traffic, NumPy sorting, and a walk
    over a heap far larger than the caches, like one chronon of the
    scheduler over a large instance.  On a shared host one core runs the
    same code up to half again as fast or as slow from one second to the
    next, as other tenants come and go.  So the operations of a
    single-core workload are timed in blocks of about ``BLOCK_S`` with a
    yardstick between each two, and each block is scaled by
    ``YARDSTICK_S`` over the mean of the yardsticks around it, which
    cancels the speed of that moment; set-up likewise.
    """

    def __init__(self) -> None:
        self.heap = [[i, str(i)] for i in range(200_000)]
        self.walk = random.Random(0).sample(range(len(self.heap)), 5_000)

    def __call__(self) -> float:
        """Wall seconds of one run of the task."""
        start = time.perf_counter()
        counts: dict[int, int] = {}
        values = list(range(5_000))
        for value in values:
            counts[value % 997] = counts.get(value % 997, 0) + value
        values.sort(key=lambda v: (v * 7919) % 5_003)
        keys = (np.arange(25_000, dtype=np.int64) * 7919) % 25_013
        np.argsort(keys, kind="stable")
        np.argpartition(keys, 250)
        heap = self.heap
        total = 0
        for i in self.walk:
            total += heap[i][0]
        return time.perf_counter() - start


def measure(workload, seconds: float, tracer, trace: bool, yardstick: Yardstick):
    """Run episodes until ``seconds`` of set-up and operations are timed.

    Returns the set-up times and the operation times, each scaled by
    the yardsticks taken around it, plus every scale factor.
    """
    clock = time.perf_counter

    def factor(before: float, after: float) -> float:
        return 2 * YARDSTICK_S / (before + after)

    setups: list[float] = []
    latencies: list[float] = []
    factors: list[float] = []
    attempted = failed = 0
    correct = True
    measured = 0.0
    episode = 0
    while episode == 0 or measured < seconds:
        inputs = workload.prepare(episode)
        gc.collect()
        before = yardstick()
        start = clock()
        state = workload.setup(inputs)
        setup = clock() - start
        measured += setup
        after = yardstick()
        factors.append(factor(before, after))
        setups.append(setup * factors[-1])
        block: list[float] = []
        try:
            for j in range(workload.ops):
                attempted += 1
                start = clock()
                try:
                    if trace:
                        with tracer.operation():
                            tracer.counters["probes"] += workload.op(state, j)
                    else:
                        workload.op(state, j)
                except Exception:
                    # The episode's state is suspect after a failure: end
                    # it and go on measuring with the next one.
                    failed += 1
                    correct = False
                    traceback.print_exc()
                    break
                block.append(clock() - start)
                measured += block[-1]
                if sum(block) >= BLOCK_S or j == workload.ops - 1:
                    before, after = after, yardstick()
                    factors.append(factor(before, after))
                    latencies.extend(latency * factors[-1] for latency in block)
                    block = []
            else:
                try:
                    workload.verify(state, episode)
                except Exception:
                    correct = False
                    traceback.print_exc()
        finally:
            workload.teardown(state)
        episode += 1
    return setups, latencies, factors, attempted, failed, correct


def end_to_end(setups: list[float], latencies: list[float]) -> dict:
    """Median and 90th percentile operation, and median set-up."""
    return {
        "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "op_p90_ms": {
            "value": statistics.quantiles(latencies, n=10)[-1] * 1e3,
            "unit": "ms",
        },
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def per_layer(tracer, operations: int, scale: float) -> dict:
    ms = scale * 1e3 / operations
    metrics = {
        f"{layer}_ms": {"value": tracer.self_s[layer] * ms, "unit": "ms"}
        for layer in LAYERS
    }
    for layer in WAIT_LAYERS:
        metrics[f"{layer}_wait_ms"] = {"value": tracer.wait_s[layer] * ms, "unit": "ms"}
    probes = tracer.counters["probes"]
    counts = {
        "scored_rows": tracer.counters["scored_rows"] / operations,
        "topk_slices": tracer.calls["select"] / operations,
        "shard_replies": tracer.calls["shard_recv"] / operations,
        "fsyncs": tracer.calls["fsync"] / operations,
        "eis_per_probe": tracer.counters["captured_eis"] / probes if probes else 0.0,
        "op_count": operations,
    }
    for name, value in counts.items():
        metrics[name] = {"value": value, "unit": "count"}
    return metrics


def stop_children() -> None:
    """Wait for every process the run started before it exits.

    Those are the sharded engine's workers, which its teardown joins
    already, and the resource tracker that the first shared-memory
    segment starts: left alone, it ends only after this process has,
    and outlives the run.  Collecting first runs the finalizers that
    unregister segments, so none restarts the tracker once it stopped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()
    gc.collect()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark of the scheduler "
        "and the always-on proxy."
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {src / 'repro'}; "
            "run it from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    import scenarios
    import spans

    tracer = spans.Tracer()
    if args.trace:
        try:
            spans.install(tracer)
        except (ImportError, AttributeError) as error:
            print(f"perfbench: cannot trace a layer: {error}", file=sys.stderr)
            return 2
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = scenarios.make(
            args.workload, args.seed, tracer=tracer, scratch=scratch
        )
        yardstick = Yardstick()
        # The inputs live for the whole run: keep the collector off them.
        gc.collect()
        gc.freeze()
        setups, latencies, factors, attempted, failed, correct = measure(
            workload, args.seconds, tracer, bool(args.trace), yardstick
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        stop_children()
    if len(latencies) < 2:
        print("perfbench: fewer than two operations completed", file=sys.stderr)
        return 1
    operations = len(latencies)
    # Spans span episodes: scale them by the run's median factor.
    scale = statistics.median(factors)
    metrics = (
        per_layer(tracer, operations, scale)
        if args.trace
        else end_to_end(setups, latencies)
    )
    print(
        f"perfbench: {args.workload} seed {args.seed}: {len(setups)} episodes, "
        f"{operations} operations, median scale {scale:.3f}",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
