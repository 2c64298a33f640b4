"""Seeded workloads of the benchmark, and the timed operations on them.

Every workload has the same shape.  The constructor draws the inputs from
the seed; ``prepare(k)`` builds episode ``k``'s objects from them
(untimed); ``setup(inputs)`` brings the system up (timed: one ``setup_s``
sample); ``op(state, j)`` performs one end-to-end operation (timed: one
latency sample) and returns how many probes it issued; ``verify(state,
k)`` checks the episode's outputs and raises on a wrong one; and
``teardown(state)`` releases what set-up acquired.  Operations run in a
closed loop with one client: each starts when the previous one has
returned.

Every instance shape below is copied from a cell the repository already
measures, named where it is defined, so the benchmark drives the traffic
those cells were built to stand for:

* ``sparse`` and ``dense``: an operation is one whole-epoch run of the
  online monitor (Algorithm 1, vectorized engine) over the compiled arena
  of a paper-generator instance, with the short and long windows of
  ``benchmarks/bench_micro.py``'s two densities; set-up compiles the
  arena.
* ``giant``: the dense 50k-CEI cell of ``benchmarks/check_shard_speedup.py``
  run on the shared-memory sharded engine with two shard workers; set-up
  compiles the arena and starts the workers, an operation is one chronon
  (the workers' top-k slices and the coordinator's merge).
* ``churn``: the heaviest rate of the churn experiment
  (``repro-experiments run churn``) through the always-on proxy: an
  operation is one churn period of five chronons, a batch of 32 new needs
  and 8 withdrawals, then the ticks, all applied as arena patches.
* ``durable`` and ``group_commit``: the two steady states of
  ``benchmarks/check_wal_overhead.py``, the journaled proxy with
  ``fsync="interval"`` under a 24k-CEI standing bag and with
  ``fsync="always"`` plus a group-commit window under a 2k one.  An
  operation is one chronon; ``durable`` also checkpoints every 100
  chronons and answers a ``/healthz`` scrape from its HTTP front end
  every chronon.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro import (
    BudgetVector,
    ComplexExecutionInterval,
    Epoch,
    ExecutionInterval,
    GeneratorSpec,
    LengthRule,
    OnlineMonitor,
    Profile,
    ProfileSet,
    ResourcePool,
    evaluate_schedule,
    generate_profiles,
    make_policy,
    perfect_predictions,
    poisson_trace,
)
from repro.online import MonitorConfig, StreamingMonitor
from repro.proxy import DurabilityConfig, DurableStreamingProxy, StreamingProxy
from repro.proxy.service import serve
from repro.sim.arena import compile_arena


class CheckFailed(Exception):
    """The program produced an output it must not produce."""


# ---------------------------------------------------------------------------
# Whole-epoch runs
# ---------------------------------------------------------------------------

#: The paper generator's instance shape (Table I): 100 client profiles
#: crossing the Poisson update streams of 200 resources over 400 chronons.
PAPER_EPOCH = Epoch(400)


def paper_instances(rng, count, *, rate, window, rank_max):
    spec = GeneratorSpec(num_profiles=100, rank_max=rank_max)
    instances = []
    for _ in range(count):
        trace = poisson_trace(200, PAPER_EPOCH, rate, rng)
        instances.append(
            generate_profiles(
                perfect_predictions(trace),
                PAPER_EPOCH,
                spec,
                LengthRule.window(window),
                rng,
            )
        )
    return instances


#: ``benchmarks/check_shard_speedup.py``'s dense cell: one profile of
#: 50k CEIs of rank 1-3 over 64 resources, windows of 10-39 chronons
#: opening in the first 48 of a 60-chronon horizon, budget 16, MRSF.
GIANT_CEIS = 50_000
GIANT_RESOURCES = 64
GIANT_EPOCH = Epoch(60)


def giant_instance(rng) -> ProfileSet:
    horizon = len(GIANT_EPOCH)
    ceis = []
    for rank in rng.integers(1, 4, size=GIANT_CEIS):
        eis = []
        for _ in range(rank):
            start = int(rng.integers(0, horizon - 12))
            eis.append(
                ExecutionInterval(
                    resource=int(rng.integers(GIANT_RESOURCES)),
                    start=start,
                    finish=start + int(rng.integers(10, 40)),
                )
            )
        ceis.append(ComplexExecutionInterval(eis=tuple(eis)))
    return ProfileSet([Profile(pid=0, ceis=ceis)])


def check_run(monitor, profiles, budget, epoch):
    """The schedule fits the budget, and Eq. 1 recomputed from the
    schedule alone matches the monitor's belief."""
    monitor.check_budget_feasible()
    monitor.schedule.check_feasible(budget, epoch=epoch)
    report = evaluate_schedule(profiles, monitor.schedule)
    believed = (monitor.pool.num_satisfied, monitor.pool.num_registered)
    if (report.captured_ceis, report.num_ceis) != believed:
        raise CheckFailed(
            f"Eq. 1 from the schedule counts {report.captured_ceis}/"
            f"{report.num_ceis} CEIs captured, the monitor "
            f"{believed[0]}/{believed[1]}"
        )


def epoch_run(policy, budget, epoch, arena, config):
    monitor = OnlineMonitor(
        make_policy(policy),
        budget,
        config=config,
        arena=arena if config.engine == "vectorized" else None,
    )
    monitor.run(epoch, arena.arrivals)
    return monitor


class EpochRuns:
    """Whole-epoch monitor runs over compiled instances.

    Episodes cycle through the pre-generated instances, so one run's
    latencies cover several inputs drawn from its seed.
    """

    def __init__(self, instances, *, epoch, budget, policy, runs):
        self.instances = instances
        self.epoch = epoch
        self.budget = BudgetVector.constant(budget, len(epoch))
        self.policy = policy
        self.ops = runs
        self.config = MonitorConfig(engine="vectorized")

    def prepare(self, k):
        return self.instances[k % len(self.instances)]

    def setup(self, profiles):
        return {"profiles": profiles, "arena": compile_arena(profiles), "runs": []}

    def op(self, state, j):
        monitor = epoch_run(
            self.policy, self.budget, self.epoch, state["arena"], self.config
        )
        # Keep the first monitor for the checks, only the schedules of the
        # others.
        if not j:
            state["first"] = monitor
        state["runs"].append(list(monitor.schedule.pairs()))
        return monitor.probes_used

    def verify(self, state, k):
        """Every episode: repeated runs over one arena agree.  The first
        episode of each instance: :func:`check_run`.  The run's first
        episode: the reference engine (Algorithm 1 as written) produces
        the same schedule."""
        probes = state["runs"][0]
        if any(pairs != probes for pairs in state["runs"]):
            raise CheckFailed("repeated runs over one arena scheduled differently")
        if k >= len(self.instances):
            return
        check_run(state["first"], state["profiles"], self.budget, self.epoch)
        if k == 0:
            reference = epoch_run(
                self.policy, self.budget, self.epoch, state["arena"],
                MonitorConfig(engine="reference"),
            )
            if list(reference.schedule.pairs()) != probes:
                raise CheckFailed("the schedule diverged from the reference engine")

    def teardown(self, state):
        pass


class ShardedChronons:
    """One instance on the sharded engine, one chronon per operation.

    A sharded monitor's ``run`` steps chronon by chronon (it never
    batches event-free spans), so stepping here schedules exactly what
    ``run`` would, with the time of each chronon seen on its own.
    """

    def __init__(self, profiles, *, epoch, budget, policy, shards):
        self.profiles = profiles
        self.epoch = epoch
        self.chronons = list(epoch)
        self.budget = BudgetVector.constant(budget, len(epoch))
        self.policy = policy
        self.ops = len(self.chronons)
        self.config = MonitorConfig(engine="vectorized", shards=shards)
        self.probes = None

    def prepare(self, k):
        return self.profiles

    def setup(self, profiles):
        arena = compile_arena(profiles)
        monitor = OnlineMonitor(
            make_policy(self.policy), self.budget, config=self.config, arena=arena
        )
        return {"arena": arena, "monitor": monitor}

    def op(self, state, j):
        monitor = state["monitor"]
        before = monitor.probes_used
        t = self.chronons[j]
        monitor.step(t, state["arena"].arrivals.get(t, ()))
        return monitor.probes_used - before

    def verify(self, state, k):
        """Every episode: the run stayed sharded and scheduled what the
        first did.  The first: :func:`check_run`, and the single-process
        vectorized engine, which the other workloads tie to the
        reference engine, produces the same schedule."""
        monitor = state["monitor"]
        stats = monitor.sharding_stats
        if stats is None or stats.demote_reason is not None:
            raise CheckFailed(
                f"the sharded engine fell back: {stats and stats.demote_reason}"
            )
        pairs = list(monitor.schedule.pairs())
        if k:
            if pairs != self.probes:
                raise CheckFailed("repeated sharded runs scheduled differently")
            return
        check_run(monitor, self.profiles, self.budget, self.epoch)
        single = epoch_run(
            self.policy, self.budget, self.epoch, state["arena"],
            MonitorConfig(engine="vectorized"),
        )
        if list(single.schedule.pairs()) != pairs:
            raise CheckFailed("the sharded schedule diverged from the vectorized engine")
        self.probes = pairs

    def teardown(self, state):
        state["monitor"].close()


# ---------------------------------------------------------------------------
# The always-on proxy under churn
# ---------------------------------------------------------------------------

#: ``repro.experiments.churn`` at its heaviest rate: a standing paper
#: instance (60 resources, 240 chronons, 12 updates per resource, 40
#: profiles of rank up to 3, 20-chronon windows) under MRSF with budget
#: 1; every 5 chronons 32 new needs arrive (rank 1-2, windows of 3-17
#: chronons opening 1-11 chronons ahead) and a quarter as many withdrawn
#: needs, drawn from the submitted ones not yet withdrawn.
CHURN_RESOURCES = 60
CHURN_EPOCH = Epoch(240)
CHURN_PERIOD = 5
CHURN_RATE = 32
CHURN_CANCELS = CHURN_RATE // 4


@dataclass
class ChurnScript:
    """One episode's inputs: the standing instance and the churn specs."""

    profiles: ProfileSet
    batches: list  # per period: (resource, start, finish) tuples per CEI
    cancels: list  # per period: indexes into the flattened batches


def churn_script(rng) -> ChurnScript:
    trace = poisson_trace(CHURN_RESOURCES, CHURN_EPOCH, 12.0, rng)
    profiles = generate_profiles(
        perfect_predictions(trace),
        CHURN_EPOCH,
        GeneratorSpec(num_profiles=40, rank_max=3),
        LengthRule.window(20),
        rng,
    )
    batches, cancels = [], []
    still_open: list[int] = []
    for period in range(len(CHURN_EPOCH) // CHURN_PERIOD):
        now = period * CHURN_PERIOD
        batch = []
        for _ in range(CHURN_RATE):
            eis = []
            for _ in range(int(rng.integers(1, 3))):
                start = now + int(rng.integers(1, 12))
                eis.append((int(rng.integers(CHURN_RESOURCES)), start,
                            start + int(rng.integers(3, 18))))
            batch.append(tuple(eis))
        still_open.extend(range(period * CHURN_RATE, (period + 1) * CHURN_RATE))
        picks = rng.choice(len(still_open), size=CHURN_CANCELS, replace=False)
        victims = [still_open[int(i)] for i in picks]
        gone = set(victims)
        still_open = [i for i in still_open if i not in gone]
        batches.append(batch)
        cancels.append(victims)
    return ChurnScript(profiles, batches, cancels)


def build(eis) -> ComplexExecutionInterval:
    return ComplexExecutionInterval(
        eis=tuple(ExecutionInterval(resource=r, start=s, finish=f) for r, s, f in eis)
    )


@dataclass
class ChurnEpisode:
    script: ChurnScript
    batches: list
    flat: list
    proxy: Any = None
    client: Any = None


def fingerprint(monitor) -> tuple:
    """What two equivalent streaming runs must agree on."""
    pool = monitor.pool
    return (
        list(monitor.schedule.pairs()),
        monitor.probes_used,
        pool.num_satisfied,
        pool.num_failed,
        pool.num_cancelled,
        pool.num_open,
    )


class Churn:
    """The arena-backed always-on proxy: churn becomes arena patches."""

    budget = 1.0
    def __init__(self, rng):
        self.pool = ResourcePool.uniform(CHURN_RESOURCES)
        self.scripts = [churn_script(rng) for _ in range(2)]
        self.ops = len(CHURN_EPOCH) // CHURN_PERIOD
        self.config = MonitorConfig(engine="vectorized")

    def prepare(self, k):
        script = self.scripts[k % len(self.scripts)]
        batches = [[build(eis) for eis in batch] for batch in script.batches]
        return ChurnEpisode(
            script=script,
            batches=batches,
            flat=[cei for batch in batches for cei in batch],
        )

    def setup(self, ep):
        ep.proxy = StreamingProxy(
            resources=self.pool,
            budget=self.budget,
            policy="MRSF",
            config=self.config,
            arena=compile_arena(ep.script.profiles),
        )
        ep.client = ep.proxy.register_client("churn")
        return ep

    def withdrawals(self, ep, period):
        return [ep.flat[i] for i in ep.script.cancels[period]]

    def op(self, ep, period):
        proxy = ep.proxy
        before = proxy.monitor.probes_used
        proxy.submit_ceis(ep.client, ep.batches[period])
        proxy.cancel_ceis(ep.client, self.withdrawals(ep, period))
        proxy.tick(CHURN_PERIOD)
        return proxy.monitor.probes_used - before

    def verify(self, ep, k):
        """Every episode: the schedule fits the budget.  The first: a
        replay on the reference engine without an arena (churn through
        the reveal queue instead of patches) agrees on the schedule and
        the counters."""
        monitor = ep.proxy.monitor.monitor
        monitor.check_budget_feasible()
        monitor.schedule.check_feasible(
            BudgetVector.constant(self.budget, ep.proxy.now), pool=self.pool
        )
        if k:
            return
        replay = StreamingMonitor(
            "MRSF",
            budget=self.budget,
            resources=self.pool,
            config=self.config.replace(engine="reference"),
        )
        replay.submit([cei for profile in ep.script.profiles for cei in profile.ceis])
        for period in range(self.ops):
            replay.submit(ep.batches[period])
            replay.cancel(self.withdrawals(ep, period))
            replay.advance(CHURN_PERIOD)
        if fingerprint(replay) != fingerprint(ep.proxy.monitor):
            raise CheckFailed("arena-backed churn diverged from the reference replay")

    def teardown(self, ep):
        ep.proxy.monitor.close()


# ---------------------------------------------------------------------------
# The journaled proxy
# ---------------------------------------------------------------------------

#: ``benchmarks/check_wal_overhead.py``'s steady state: 32 resources,
#: budget 12, the default policy and engine, a standing bag submitted at
#: boot and a burst of 5 needs every 8 chronons; needs have rank 1-3 and
#: windows of 40-160 chronons opening anywhere in the horizon so far.
WAL_RESOURCES = 32
WAL_BUDGET = 12.0
BURST_EVERY = 8
BURST_SIZE = 5


def wal_ceis(rng: random.Random, count: int, horizon: int) -> list:
    specs = []
    for _ in range(count):
        eis = []
        for _ in range(rng.randint(1, 3)):
            start = rng.randrange(0, horizon)
            eis.append((rng.randrange(WAL_RESOURCES), start, start + rng.randint(40, 160)))
        specs.append(tuple(eis))
    return specs


@dataclass
class WalEpisode:
    initial: list
    bursts: dict  # chronon -> CEIs submitted before its tick
    proxy: Any = None
    service: Any = None
    root: Any = None


def _get(service, path):
    """One GET against the loopback service (proxy settings never apply)."""
    connection = http.client.HTTPConnection(service.host, service.port, timeout=10)
    try:
        connection.request("GET", path)
        reply = connection.getresponse()
        return reply.status, json.loads(reply.read())
    finally:
        connection.close()


class Journaled:
    """The journaled proxy, one chronon per operation."""

    def __init__(self, seed, tracer, scratch: Path, *, standing, chronons,
                 durability: dict, scrape: bool):
        rng = random.Random(seed)
        self.pool = ResourcePool.uniform(WAL_RESOURCES)
        self.ops = chronons
        self.tracer = tracer
        self.scratch = scratch
        self.durability = durability
        self.scrape = scrape
        self.scripts = []
        for _ in range(2):
            initial = wal_ceis(rng, standing, chronons)
            bursts = {
                t: wal_ceis(rng, BURST_SIZE, chronons + t)
                for t in range(BURST_EVERY, chronons, BURST_EVERY)
            }
            self.scripts.append((initial, bursts))

    def prepare(self, k):
        initial, bursts = self.scripts[k % len(self.scripts)]
        return WalEpisode(
            initial=[build(eis) for eis in initial],
            bursts={t: [build(eis) for eis in batch] for t, batch in bursts.items()},
        )

    def _open(self, root):
        return DurableStreamingProxy(
            DurabilityConfig(root=root, recovery="durable", **self.durability),
            resources=self.pool,
            budget=WAL_BUDGET,
        )

    def setup(self, ep):
        ep.root = tempfile.mkdtemp(dir=self.scratch)
        ep.proxy = self._open(ep.root)
        client = ep.proxy.register_client("load")
        ep.proxy.submit_ceis(client, ep.initial)
        if self.scrape:
            ep.service = serve(ep.proxy)
        return ep

    def op(self, ep, t):
        proxy = ep.proxy
        before = proxy.monitor.probes_used
        burst = ep.bursts.get(t)
        if burst:
            proxy.submit_ceis("load", burst)
        proxy.tick()
        if self.scrape:
            with self.tracer.region("http"):
                status, health = _get(ep.service, "/healthz")
            if status != 200 or health["status"] != "ok" or health["now"] != t + 1:
                raise CheckFailed(f"/healthz answered {status}: {health}")
        return proxy.monitor.probes_used - before

    def verify(self, ep, k):
        """Every episode: the schedule fits the budget and the journal
        holds one record per mutation.  The first: the directory alone
        recovers the clock, the client and every submitted need."""
        monitor = ep.proxy.monitor.monitor
        monitor.check_budget_feasible()
        monitor.schedule.check_feasible(
            BudgetVector.constant(WAL_BUDGET, ep.proxy.now), pool=self.pool
        )
        # register + standing bag, then one tick per chronon and one
        # submit per burst.
        records = 2 + self.ops + len(ep.bursts)
        if ep.proxy.journal_seq != records:
            raise CheckFailed(
                f"journal holds {ep.proxy.journal_seq} records, expected {records}"
            )
        if k:
            return
        expected = (
            ep.proxy.now,
            ["load"],
            len(ep.initial) + sum(map(len, ep.bursts.values())),
        )
        self._close(ep)
        recovered = self._open(ep.root)
        try:
            got = (recovered.now, recovered.client_names, len(recovered.submitted_ceis()))
        finally:
            recovered.close()
        if got != expected:
            raise CheckFailed(f"recovery gave {got}, expected {expected}")

    @staticmethod
    def _close(ep):
        if ep.service is not None:
            ep.service.shutdown()
            ep.service = None
        if ep.proxy is not None:
            ep.proxy.close()
            ep.proxy = None

    def teardown(self, ep):
        self._close(ep)
        shutil.rmtree(ep.root, ignore_errors=True)


def make(name: str, seed: int, *, tracer, scratch: Path):
    """The workload ``name``, its inputs drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if name == "sparse":
        return EpochRuns(
            paper_instances(rng, 16, rate=8.0, window=10, rank_max=5),
            epoch=PAPER_EPOCH, budget=2, policy="M-EDF", runs=8,
        )
    if name == "dense":
        return EpochRuns(
            paper_instances(rng, 8, rate=40.0, window=100, rank_max=12),
            epoch=PAPER_EPOCH, budget=1, policy="MRSF", runs=3,
        )
    if name == "giant":
        return ShardedChronons(
            giant_instance(rng), epoch=GIANT_EPOCH, budget=16, policy="MRSF", shards=2
        )
    if name == "churn":
        return Churn(rng)
    if name == "durable":
        # fsync every 256 records and O(needs) recovery, the policy the
        # WAL gate prices; a checkpoint every 100 chronons, the cadence
        # of the ``python -m repro.proxy serve`` usage example.
        return Journaled(
            seed, tracer, scratch, standing=24_000, chronons=200, scrape=True,
            durability={"fsync": "interval", "fsync_every": 256, "snapshot_every": 100},
        )
    if name == "group_commit":
        return Journaled(
            seed, tracer, scratch, standing=2_000, chronons=60, scrape=False,
            durability={"fsync": "always", "group_window": 0.01},
        )
    raise ValueError(f"unknown workload {name!r}")
