"""Regression gate: the sharded engine wins on a dense giant instance.

One dense instance — a single huge candidate bag, the regime the
shared-memory sharded engine (:mod:`repro.online.sharded`) exists for —
is compiled into an arena once and run twice per round: single-engine
vectorized and sharded across ``--shards`` workers.  Per-shard scoring
and top-k slicing is the dominant per-chronon cost at this scale, and it
parallelizes across the forked workers; the coordinator's merge walk
must reproduce the single engine's probe schedule *exactly* or the
timing is meaningless, so probe-for-probe identity is asserted on every
round regardless of core count.

The throughput ratio is only gated when the host actually has the cores
(``cpu_count >= shards``): one worker per shard plus the coordinator.
Below that the script verifies identity, prints the honest (typically
<= 1x) ratio and exits 0 — a laptop or a 1-core CI runner cannot
measure a fork-parallel speedup and must not fail the build over it.

Exit status 0 when ``single / sharded >= THRESHOLD`` (or the gate is
skipped for lack of cores), 1 otherwise.  The gate writes nothing; the
sharded engine's per-layer cost (``shard_recv_ms``, ``merge_ms``) is
traced by the ``giant`` workload of ``perfbench/run.py``.

Usage::

    PYTHONPATH=src python benchmarks/check_shard_speedup.py [--shards 4]
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

import numpy as np

from repro.core.intervals import ComplexExecutionInterval, ExecutionInterval
from repro.core.schedule import BudgetVector
from repro.core.profile import Profile, ProfileSet
from repro.core.timebase import Epoch
from repro.online.config import MonitorConfig
from repro.online.monitor import OnlineMonitor
from repro.policies import make_policy
from repro.sim.arena import compile_arena

THRESHOLD = 2.0
SHARDS = 4
ROUNDS = 3

NUM_RESOURCES = 64
HORIZON = 60
NUM_CEIS = 50_000
BUDGET = 16.0
POLICY = "MRSF"


def _instance(num_ceis: int, seed: int = 42) -> ProfileSet:
    """A dense bag: every CEI's window overlaps most of the horizon."""
    rng = np.random.default_rng(seed)
    ranks = rng.integers(1, 4, size=num_ceis)
    ceis = []
    for rank in ranks:
        eis = []
        for _ in range(rank):
            start = int(rng.integers(0, HORIZON - 12))
            eis.append(
                ExecutionInterval(
                    resource=int(rng.integers(NUM_RESOURCES)),
                    start=start,
                    finish=start + int(rng.integers(10, 40)),
                )
            )
        ceis.append(ComplexExecutionInterval(eis=tuple(eis)))
    return ProfileSet([Profile(pid=0, ceis=ceis)])


def _timed_run(arena, shards) -> tuple[float, object]:
    """One monitor run over the arena; returns (seconds, probes)."""
    monitor = OnlineMonitor(
        policy=make_policy(POLICY),
        budget=BudgetVector.constant(BUDGET, HORIZON),
        config=MonitorConfig(engine="vectorized", shards=shards),
        arena=arena,
    )
    gc.collect()
    started = time.perf_counter()
    try:
        monitor.run(Epoch(HORIZON), arena.arrivals)
    finally:
        monitor.close()
    elapsed = time.perf_counter() - started
    return elapsed, monitor.schedule.probes


def compare(num_ceis: int, shards: int, rounds: int) -> dict:
    """Best-of-N single vs sharded over one shared arena; asserts identity."""
    arena = compile_arena(_instance(num_ceis))
    single_times: list[float] = []
    sharded_times: list[float] = []
    for _ in range(rounds):
        single_s, single_probes = _timed_run(arena, shards=None)
        sharded_s, sharded_probes = _timed_run(arena, shards=shards)
        if sharded_probes != single_probes:
            raise SystemExit(
                f"sharded({shards}) schedule diverged from the single "
                f"engine at {num_ceis} CEIs — identity is the merge's "
                "contract; timings are void"
            )
        single_times.append(single_s)
        sharded_times.append(sharded_s)
    single = min(single_times)
    sharded = min(sharded_times)
    return {
        "ceis": num_ceis,
        "rows": arena.n_rows,
        "shards": shards,
        "single_s": round(single, 6),
        "sharded_s": round(sharded, 6),
        "speedup": round(single / sharded, 4),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=int, default=SHARDS)
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--ceis", type=int, default=NUM_CEIS)
    args = parser.parse_args(argv)

    cores = os.cpu_count() or 1
    gated = cores >= args.shards
    cell = compare(args.ceis, args.shards, args.rounds)
    print(
        f"dense giant instance, {cell['ceis']} CEIs ({cell['rows']} rows), "
        f"best of {args.rounds}: single {cell['single_s']:.3f}s, "
        f"sharded({args.shards}) {cell['sharded_s']:.3f}s, "
        f"speedup {cell['speedup']:.2f}x (threshold {THRESHOLD}, "
        f"{cores} cores)"
    )
    if not gated:
        print(
            f"SKIP: ratio gate needs >= {args.shards} cores for "
            f"{args.shards} shard workers; this host has {cores}. "
            "Probe-for-probe identity verified."
        )
        return 0
    if cell["speedup"] < THRESHOLD:
        print(
            f"FAIL: sharding won only {cell['speedup']:.2f}x on the dense "
            f"giant instance (needs {THRESHOLD}x at {args.shards} shards)"
        )
        return 1
    print("OK: sharded engine holds its speedup on the dense cell")
    return 0


if __name__ == "__main__":
    sys.exit(main())
