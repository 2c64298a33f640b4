"""Interactive monitoring sessions: clients arrive *while* the proxy runs.

"At every chronon T_j, the proxy may receive a set of new CEIs."
(paper Section IV.)  :class:`MonitoringProxy.run` replays a fixed
workload; :class:`ProxySession` exposes the online loop over one epoch:
the caller advances the clock chronon by chronon and may submit new
client needs at any point — a CEI submitted at chronon ``t`` is revealed
to the monitor at ``max(t, release)``, never earlier, exactly like a
request arriving over the wire.

The session is an epoch-bounded adapter over
:class:`repro.online.streaming.StreamingMonitor`, the same online loop
:class:`repro.proxy.streaming.StreamingProxy` drives: the clock stops at
the epoch's end, and :meth:`ProxySession.finish` scores the run like
:meth:`MonitoringProxy.run` does.

Typical use::

    session = ProxySession(epoch, pool, budget=1.0, policy="MRSF")
    ana = session.registry.register("ana")
    ana.submit(morning_ceis)
    session.advance(300)                      # run the morning
    session.submit_ceis("ana", breaking_news) # needs arriving mid-run
    session.run_to_end()
    result = session.finish()
"""

from __future__ import annotations

from typing import Sequence

from repro.core.errors import ExperimentError
from repro.core.intervals import ComplexExecutionInterval
from repro.core.profile import ProfileSet
from repro.core.resource import ResourcePool
from repro.core.schedule import BudgetVector
from repro.core.timebase import Chronon, Epoch
from repro.online.streaming import StreamingMonitor
from repro.policies.base import Policy
from repro.proxy.proxy import ProxyRunResult, epoch_budget, score_run
from repro.proxy.registry import ClientRegistry


class ProxySession:
    """A steppable proxy run with mid-flight submissions."""

    def __init__(
        self,
        epoch: Epoch,
        resources: ResourcePool,
        budget: BudgetVector | float = 1.0,
        policy: Policy | str = "MRSF",
        preemptive: bool = True,
    ) -> None:
        self.epoch = epoch
        self.resources = resources
        self.budget = epoch_budget(budget, epoch)
        self._monitor = StreamingMonitor(
            policy,
            budget=self.budget,
            resources=resources,
            preemptive=preemptive,
        )
        self.registry = ClientRegistry()

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> Chronon:
        """The next chronon to be executed (0 before the first advance)."""
        return self._monitor.now

    @property
    def finished(self) -> bool:
        """Has the whole epoch been executed?"""
        return self.remaining == 0

    @property
    def remaining(self) -> int:
        """Chronons left to execute."""
        return len(self.epoch) - self._monitor.now

    # ------------------------------------------------------------------
    # Clients and submissions
    # ------------------------------------------------------------------

    @property
    def client_names(self) -> list[str]:
        return self.registry.names

    def submit_ceis(
        self, client: str, ceis: Sequence[ComplexExecutionInterval]
    ) -> int:
        """Submit CEIs now; they reveal at max(now, their release).

        CEIs whose windows already fully passed still count against the
        client's completeness (they can never be captured) — submitting
        stale needs is the client's loss, exactly as in a live proxy.  A
        CEI releasing past the epoch is never revealed and stays
        unsatisfied.  A batch the monitor refuses (a CEI submitted
        twice) raises :class:`repro.core.errors.ModelError` and changes
        nothing.
        """
        ceis = list(ceis)
        self.registry.require(client)
        self._monitor.submit(ceis)
        return self.registry.submit(client, ceis)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def advance(self, chronons: int = 1) -> Chronon:
        """Execute the next ``chronons`` chronons; returns the new now."""
        if chronons < 0:
            raise ExperimentError(f"cannot advance by {chronons}")
        return self._monitor.advance(min(chronons, self.remaining))

    def run_to_end(self) -> Chronon:
        """Execute every remaining chronon."""
        return self.advance(self.remaining)

    # ------------------------------------------------------------------
    # Live observation
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, float | int]:
        """Interim run statistics without disturbing the session.

        Useful for dashboards polling a live session: how many CEIs have
        been revealed, satisfied, failed, how many probes are spent, and
        the proxy's believed completeness so far.
        """
        live = self._monitor.snapshot()
        return {
            "now": live["now"],
            "remaining": self.remaining,
            "registered_ceis": live["registered_ceis"],
            "satisfied_ceis": live["satisfied_ceis"],
            "failed_ceis": live["failed_ceis"],
            "open_ceis": live["open_ceis"],
            "probes_used": live["probes_used"],
            "believed_completeness": live["believed_completeness"],
        }

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def build_profiles(self) -> ProfileSet:
        """Everything submitted so far, one profile per client."""
        return self.registry.build_profiles()

    def finish(self) -> ProxyRunResult:
        """Run to the end (if needed) and score the session."""
        self.run_to_end()
        profiles = self.build_profiles()
        return score_run(self.registry, profiles, self._monitor.monitor)
