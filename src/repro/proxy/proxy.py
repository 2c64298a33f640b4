"""The Web Monitoring 2.0 proxy facade.

The paper's platform vision (Section I): "a personalized proxy based
platform where users can satisfy their complex information monitoring
and aggregation/mashup needs by polling multiple information-rich and
volatile Web 2.0 data sources."

:class:`MonitoringProxy` is that platform's core loop as a library
object: register named clients, submit their needs (as parsed continuous
queries, query text, or pre-built CEIs), then run one monitoring epoch
under a policy and budget.  The result bundles the global completeness,
per-client reports with delivery latencies, and the raw schedule.

This facade composes the lower layers (compiler → profiles → online
monitor → metrics/delivery) and is what the examples and downstream
users are expected to touch first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.errors import ExperimentError
from repro.core.intervals import ComplexExecutionInterval
from repro.core.metrics import CompletenessReport, evaluate_schedule
from repro.core.profile import ProfileSet
from repro.core.resource import ResourcePool
from repro.core.schedule import BudgetVector, Schedule
from repro.core.timebase import Epoch
from repro.online.arrivals import arrivals_from_profiles
from repro.online.config import MonitorConfig, resolve_config
from repro.online.monitor import OnlineMonitor
from repro.online.shedding import SheddingStats
from repro.policies.base import Policy, make_policy
from repro.proxy.compiler import CompilationContext, compile_queries
from repro.proxy.delivery import ClientReport, client_report
from repro.proxy.queries import ContinuousQuery, parse_queries
from repro.proxy.registry import ClientRegistry


@dataclass(frozen=True, slots=True)
class ProxyRunResult:
    """Outcome of one proxy monitoring epoch."""

    schedule: Schedule
    report: CompletenessReport
    clients: tuple[ClientReport, ...]
    probes_used: int
    probes_failed: int = 0
    shedding: Optional[SheddingStats] = None

    @property
    def completeness(self) -> float:
        """Global gained completeness (Eq. 1) over all clients."""
        return self.report.completeness

    def client(self, name: str) -> ClientReport:
        """The report of one client by name."""
        for report in self.clients:
            if report.client == name:
                return report
        raise ExperimentError(f"unknown client {name!r}")


def epoch_budget(budget: BudgetVector | float, epoch: Epoch) -> BudgetVector:
    """A scalar broadcast over ``epoch``, or a vector that covers it.

    Raises :class:`ExperimentError` for a vector shorter than the epoch.
    """
    if isinstance(budget, (int, float)):
        return BudgetVector.constant(float(budget), len(epoch))
    if len(budget) < len(epoch):
        raise ExperimentError(
            f"budget covers {len(budget)} chronons but the epoch has "
            f"{len(epoch)}"
        )
    return budget


def score_run(
    registry: ClientRegistry, profiles: ProfileSet, monitor: OnlineMonitor
) -> ProxyRunResult:
    """Score a finished run of ``profiles`` (built from ``registry``)."""
    schedule = monitor.schedule
    report = evaluate_schedule(
        profiles, schedule, dropped=monitor.dropped_captures
    )
    clients = tuple(
        client_report(name, profiles[pid], schedule)
        for pid, name in enumerate(registry.names)
    )
    return ProxyRunResult(
        schedule=schedule,
        report=report,
        clients=clients,
        probes_used=monitor.probes_used,
        probes_failed=monitor.probes_failed,
        shedding=monitor.shedding_stats,
    )


class MonitoringProxy:
    """Register clients, compile their needs, run a monitoring epoch."""

    def __init__(
        self,
        epoch: Epoch,
        resources: ResourcePool,
        budget: BudgetVector | float = 1.0,
        policy: Policy | str = "MRSF",
        preemptive: bool = True,
        chronons_per_minute: float = 1.0,
        config: Optional[MonitorConfig] = None,
    ) -> None:
        self.epoch = epoch
        self.resources = resources
        self.budget = epoch_budget(budget, epoch)
        if isinstance(policy, str):
            policy = make_policy(policy)
        self.policy = policy
        self.preemptive = preemptive
        self.chronons_per_minute = chronons_per_minute
        self.config = resolve_config(config, owner="MonitoringProxy")
        self.registry = ClientRegistry()
        self._resource_ids = {r.name: r.rid for r in resources}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    @property
    def client_names(self) -> list[str]:
        return self.registry.names

    def submit_ceis(
        self, client: str, ceis: Sequence[ComplexExecutionInterval]
    ) -> int:
        """Attach pre-built CEIs to a client; returns how many."""
        return self.registry.submit(client, ceis)

    def submit_queries(
        self,
        client: str,
        queries: str | Sequence[ContinuousQuery],
        predictions=None,
        keyword_hits=None,
        weight: float = 1.0,
    ) -> int:
        """Compile a continuous-query set for a client (paper Section II).

        ``predictions`` maps resource ids to predicted event streams (for
        ON PUSH / ON UPDATE triggers); ``keyword_hits`` maps keywords to
        the trigger chronons where they match.  Returns the number of
        CEIs generated.
        """
        if isinstance(queries, str):
            queries = parse_queries(queries)
        context = CompilationContext(
            epoch=self.epoch,
            resource_ids=self._resource_ids,
            chronons_per_minute=self.chronons_per_minute,
            predictions=predictions or {},
            keyword_hits=keyword_hits or {},
            weight=weight,
        )
        ceis = compile_queries(queries, context)
        return self.submit_ceis(client, ceis)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def build_profiles(self) -> ProfileSet:
        """The current registration state as a profile set (one per client)."""
        return self.registry.build_profiles()

    def run(self, config: Optional[MonitorConfig] = None) -> ProxyRunResult:
        """Run one monitoring epoch over everything submitted so far.

        ``config`` overrides the proxy's configured :class:`MonitorConfig`
        for this run only.
        """
        if config is not None:
            cfg = resolve_config(config, owner="MonitoringProxy.run")
        else:
            cfg = self.config
        profiles = self.build_profiles()
        monitor = OnlineMonitor(
            policy=self.policy,
            budget=self.budget,
            preemptive=self.preemptive,
            resources=self.resources,
            config=cfg,
        )
        monitor.run(self.epoch, arrivals_from_profiles(profiles))
        return score_run(self.registry, profiles, monitor)
