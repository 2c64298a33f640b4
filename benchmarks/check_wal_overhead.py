"""Regression gate: write-ahead journaling stays under 5% overhead.

Runs an identical steady-state streaming workload — a dense initial bag
plus periodic submission bursts, driven chronon by chronon — through a
plain :class:`StreamingProxy` (WAL off) and a
:class:`DurableStreamingProxy` journaling every mutation to a real
on-disk write-ahead log (WAL on, ``fsync=interval`` +
``recovery=durable`` — the recommended throughput-oriented production
policy; ``always``/``exact`` trade throughput for a zero-loss window
and bit-identical replay, and are deliberately not what this gate
prices).  The two sides are
interleaved and best-of-N per side, which suppresses most scheduler
noise on shared CI runners.

A second leg prices group commit under ``fsync="always"``: the same
(smaller) workload runs with per-append fsync and again with a
``group_window`` that coalesces a window's appends into one fsync.
Grouping must not cost throughput — ``grouped / plain`` is gated at
``GROUP_THRESHOLD`` (it is normally well under 1.0 on spinning or
network volumes; on fast local disks the two converge).

Exit status 0 when ``wal_on / wal_off < THRESHOLD`` **and** the group
leg passes, 1 otherwise.  The gate writes nothing; the journal's
per-layer cost (``wal_append_ms``, ``fsync_ms``) is traced by the
``durable`` and ``group_commit`` workloads of ``perfbench/run.py``.

Usage::

    PYTHONPATH=src python benchmarks/check_wal_overhead.py [--rounds N]
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import tempfile
import time

from repro.core.intervals import ComplexExecutionInterval, ExecutionInterval
from repro.core.resource import ResourcePool
from repro.proxy.durability import DurabilityConfig, DurableStreamingProxy
from repro.proxy.streaming import StreamingProxy

THRESHOLD = 1.05
GROUP_THRESHOLD = 1.05
GROUP_WINDOW = 0.01
ROUNDS = 15
GROUP_ROUNDS = 5

NUM_RESOURCES = 32
CHRONONS = 200
INITIAL_CEIS = 24000
BURST_EVERY = 8
BURST_SIZE = 5
BUDGET = 12.0

# The fsync="always" group-commit leg runs a trimmed workload: every
# append hits the platter, so the full-size bag would price the disk,
# not the journaling code.
GROUP_CHRONONS = 60
GROUP_INITIAL_CEIS = 2000


def _ceis(rng: random.Random, count: int, horizon: int) -> list:
    out = []
    for _ in range(count):
        eis = []
        for _ in range(rng.randint(1, 3)):
            start = rng.randrange(0, horizon)
            eis.append(
                ExecutionInterval(
                    resource=rng.randrange(NUM_RESOURCES),
                    start=start,
                    finish=start + rng.randint(40, 160),
                )
            )
        out.append(ComplexExecutionInterval(eis=tuple(eis)))
    return out


def _boot(proxy, initial: int = INITIAL_CEIS, chronons: int = CHRONONS) -> None:
    """One-time bootstrap (not steady state, not timed)."""
    rng = random.Random(0)
    client = proxy.register_client("load")
    proxy.submit_ceis(client, _ceis(rng, initial, chronons))


def _steady(proxy, chronons: int = CHRONONS) -> None:
    """The steady-state loop the gate prices: ticks plus churn bursts."""
    rng = random.Random(1)
    for chronon in range(chronons):
        if chronon and chronon % BURST_EVERY == 0:
            proxy.submit_ceis(
                "load", _ceis(rng, BURST_SIZE, chronons + chronon)
            )
        proxy.tick()


def timed_wal_off() -> float:
    proxy = StreamingProxy(
        resources=ResourcePool.uniform(NUM_RESOURCES), budget=BUDGET
    )
    _boot(proxy)
    gc.collect()
    started = time.perf_counter()
    _steady(proxy)
    return time.perf_counter() - started


def timed_wal_on() -> float:
    with tempfile.TemporaryDirectory() as root:
        proxy = DurableStreamingProxy(
            DurabilityConfig(
                root=root,
                fsync="interval",
                fsync_every=256,
                snapshot_every=0,
                recovery="durable",
            ),
            resources=ResourcePool.uniform(NUM_RESOURCES),
            budget=BUDGET,
        )
        _boot(proxy)
        # Drain the bootstrap journal to disk before the clock starts, so
        # kernel writeback of boot-time dirty pages does not bleed into
        # the steady-state window being priced.
        proxy._wal.sync()
        gc.collect()
        started = time.perf_counter()
        _steady(proxy)
        elapsed = time.perf_counter() - started
        proxy.close()
        return elapsed


def timed_always(group_window: float) -> float:
    """The fsync="always" leg: per-append fsync vs. one per group."""
    with tempfile.TemporaryDirectory() as root:
        proxy = DurableStreamingProxy(
            DurabilityConfig(
                root=root,
                fsync="always",
                group_window=group_window,
                snapshot_every=0,
                recovery="durable",
            ),
            resources=ResourcePool.uniform(NUM_RESOURCES),
            budget=BUDGET,
        )
        _boot(proxy, initial=GROUP_INITIAL_CEIS, chronons=GROUP_CHRONONS)
        proxy._wal.sync()
        gc.collect()
        started = time.perf_counter()
        _steady(proxy, chronons=GROUP_CHRONONS)
        elapsed = time.perf_counter() - started
        proxy.close()
        return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--group-rounds", type=int, default=GROUP_ROUNDS)
    args = parser.parse_args(argv)

    timed_wal_off()  # warm both paths outside the scored rounds
    timed_wal_on()
    off_times: list[float] = []
    on_times: list[float] = []
    for _ in range(args.rounds):
        off_times.append(timed_wal_off())
        on_times.append(timed_wal_on())

    wal_off = min(off_times)
    wal_on = min(on_times)
    ratio = wal_on / wal_off
    print(
        f"streaming steady state, best of {args.rounds}: "
        f"WAL off {wal_off:.3f}s, WAL on {wal_on:.3f}s, "
        f"ratio {ratio:.4f} (threshold {THRESHOLD})"
    )

    # Group-commit leg: fsync="always" with and without a group window,
    # interleaved best-of-N like the main comparison.
    timed_always(0.0)  # warm
    timed_always(GROUP_WINDOW)
    plain_times: list[float] = []
    grouped_times: list[float] = []
    for _ in range(args.group_rounds):
        plain_times.append(timed_always(0.0))
        grouped_times.append(timed_always(GROUP_WINDOW))
    always_plain = min(plain_times)
    always_grouped = min(grouped_times)
    group_ratio = always_grouped / always_plain
    print(
        f"fsync=always, best of {args.group_rounds}: "
        f"plain {always_plain:.3f}s, "
        f"group_window={GROUP_WINDOW}s {always_grouped:.3f}s, "
        f"ratio {group_ratio:.4f} (threshold {GROUP_THRESHOLD})"
    )

    failed = False
    if ratio >= THRESHOLD:
        print(
            f"FAIL: write-ahead journaling costs more than "
            f"{(THRESHOLD - 1) * 100:.0f}% of steady-state throughput"
        )
        failed = True
    if group_ratio >= GROUP_THRESHOLD:
        print(
            "FAIL: group commit made fsync=always slower "
            f"(ratio {group_ratio:.4f} >= {GROUP_THRESHOLD})"
        )
        failed = True
    if failed:
        return 1
    print("OK: WAL overhead within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
