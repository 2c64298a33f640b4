"""The simulation engine: one end-to-end monitoring run.

"We implemented a simulation-based environment to test the different
solutions.  Given a profile template and an update event stream, we
generate m profile instances and their CEIs ...  In the online setting,
the proxy receives input at each chronon identifying the set of CEIs that
overlap in that chronon."  (paper Section V-A.3)

:func:`simulate` runs one online policy over one problem instance and
scores the resulting schedule against the ground-truth event windows;
:func:`simulate_offline` does the same for the local-ratio offline
approximation.  Both time the scheduling work and report it normalized
per EI, matching the paper's runtime metric (Section V-D).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.metrics import CompletenessReport, RuntimeStats, evaluate_schedule
from repro.core.profile import ProfileSet
from repro.core.resource import ResourcePool
from repro.core.schedule import BudgetVector, Schedule
from repro.core.timebase import Epoch
from repro.offline.local_ratio import LocalRatioScheduler
from repro.online.arrivals import arrivals_from_profiles
from repro.online.config import Engine, MonitorConfig, resolve_config
from repro.online.faults import FailureModel, RetryPolicy
from repro.online.health import HealthStats
from repro.online.monitor import OnlineMonitor
from repro.online.sharded import ShardingStats
from repro.online.shedding import SheddingStats
from repro.policies.base import Policy, make_policy
from repro.sim.arena import InstanceArena


def policy_label(name: str, preemptive: bool) -> str:
    """The paper's labels: "(P)" preemptive, "(NP)" non-preemptive."""
    return f"{name}({'P' if preemptive else 'NP'})"


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Outcome of one monitoring run on one problem instance."""

    label: str
    schedule: Schedule
    report: CompletenessReport
    runtime: RuntimeStats
    probes_used: int
    believed_completeness: float
    probes_failed: int = 0
    retries_used: int = 0
    backoffs: int = 0
    failures_by_resource: dict[int, int] = field(default_factory=dict)
    dropped_eis: int = 0
    health: Optional[HealthStats] = None
    shedding: Optional[SheddingStats] = None
    sharding: Optional[ShardingStats] = None

    @property
    def completeness(self) -> float:
        """Gained completeness (Eq. 1), validated against ground truth."""
        return self.report.completeness

    @property
    def probes_succeeded(self) -> int:
        """Probe attempts that actually retrieved data."""
        return self.probes_used - self.probes_failed


def simulate(
    profiles: ProfileSet | InstanceArena,
    epoch: Epoch,
    budget: BudgetVector,
    policy: Policy | str,
    preemptive: bool = True,
    resources: Optional[ResourcePool] = None,
    exploit_overlap: bool = True,
    config: Optional[MonitorConfig] = None,
    *,
    engine: Optional[str] = None,
    faults: Optional[FailureModel] = None,
    retry: Optional[RetryPolicy] = None,
) -> SimulationResult:
    """Run one online policy over a full epoch and score the schedule.

    ``profiles`` may be a plain :class:`ProfileSet` or a pre-compiled
    :class:`repro.sim.arena.InstanceArena` of one — the arena supplies
    its arrival map and (on the vectorized engine) its frozen candidate
    columns, so running many policies over the same instance skips the
    per-run registration walk.  Results are identical either way.

    ``config`` selects the monitor implementation (``Engine.REFERENCE``
    or ``Engine.VECTORIZED``) and the fault/retry universe; deterministic policies produce
    identical schedules on any engine, so that choice only changes the
    runtime statistics.  The equivalence extends to runs with a failure
    model: its verdicts are pure functions of
    ``(resource, chronon, attempt)``, never of engine internals.  The
    bare ``engine=``/``faults=``/``retry=`` keywords were removed; passing
    them raises :class:`TypeError` naming the ``config=`` replacement.
    """
    cfg = resolve_config(
        config, engine=engine, faults=faults, retry=retry, owner="simulate"
    )
    arena: Optional[InstanceArena] = None
    if isinstance(profiles, InstanceArena):
        arena = profiles
        profiles = arena.profiles
    if isinstance(policy, str):
        policy = make_policy(policy)
    monitor = OnlineMonitor(
        policy=policy,
        budget=budget,
        preemptive=preemptive,
        resources=resources,
        exploit_overlap=exploit_overlap,
        config=cfg,
        arena=arena if cfg.engine is not Engine.REFERENCE else None,
    )
    arrivals = (
        arena.arrivals
        if arena is not None
        else arrivals_from_profiles(profiles, epoch=epoch)
    )
    started = time.perf_counter()
    # run() rather than a bare step loop: the monitor skips idle chronons
    # and, for S-EDF/MRSF, walks the whole run from one heap, with
    # bit-identical results.
    try:
        monitor.run(epoch, arrivals)
    finally:
        # Sharded runs hold forked workers and a /dev/shm segment.
        monitor.close()
    elapsed = time.perf_counter() - started

    dropped = monitor.dropped_captures
    report = evaluate_schedule(
        profiles, monitor.schedule, use_true_window=True, dropped=dropped
    )
    stats = monitor.fault_stats
    return SimulationResult(
        label=policy_label(policy.name, preemptive),
        schedule=monitor.schedule,
        report=report,
        runtime=RuntimeStats(total_seconds=elapsed, num_eis=profiles.num_eis),
        probes_used=monitor.probes_used,
        believed_completeness=monitor.believed_completeness,
        probes_failed=monitor.probes_failed,
        retries_used=monitor.retries_used,
        backoffs=stats.backoffs,
        failures_by_resource=dict(stats.failures_by_resource),
        dropped_eis=len(dropped),
        health=monitor.health_stats,
        shedding=monitor.shedding_stats,
        sharding=monitor.sharding_stats,
    )


def simulate_offline(
    profiles: ProfileSet,
    epoch: Epoch,
    budget: BudgetVector,
    max_combinations: int = 100_000,
    mode: str = "paper",
    indexed_conflicts: bool = True,
) -> SimulationResult:
    """Run the local-ratio offline approximation and score its schedule.

    The offline solver is provided all CEIs for the whole epoch in
    advance (paper Section IV-B) — "such a scenario cannot be achieved in
    practice in most cases", which is why it serves only as a baseline.
    ``mode`` selects the paper-faithful ("paper") or strengthened
    ("tight") local-ratio variant; ``indexed_conflicts=False`` runs the
    published algorithm's all-pairs conflict scan (same output, the cost
    the Section V-D runtime experiment measures).
    """
    scheduler = LocalRatioScheduler(
        max_combinations=max_combinations,
        mode=mode,
        indexed_conflicts=indexed_conflicts,
    )
    started = time.perf_counter()
    result = scheduler.solve(profiles, epoch, budget)
    elapsed = time.perf_counter() - started

    report = evaluate_schedule(profiles, result.schedule, use_true_window=True)
    return SimulationResult(
        label="OFFLINE-LR",
        schedule=result.schedule,
        report=report,
        runtime=RuntimeStats(total_seconds=elapsed, num_eis=profiles.num_eis),
        probes_used=result.schedule.num_probes,
        believed_completeness=result.completeness,
    )
