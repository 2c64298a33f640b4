"""Interactive monitoring sessions: clients arrive *while* the proxy runs.

"At every chronon T_j, the proxy may receive a set of new CEIs."
(paper Section IV.)  :class:`MonitoringProxy.run` replays a fixed
workload; :class:`ProxySession` exposes the online loop over one epoch:
the caller advances the clock chronon by chronon and may submit new
client needs at any point — a CEI submitted at chronon ``t`` is revealed
to the monitor at ``max(t, release)``, never earlier, exactly like a
request arriving over the wire.

The session is an epoch bound around a
:class:`repro.proxy.streaming.StreamingProxy`, which owns the clock, the
client registry and admission: :meth:`ProxySession.advance` stops the
clock at the epoch's end, and :meth:`ProxySession.finish` scores the run
like :meth:`MonitoringProxy.run` does.  ``session.submit_ceis(client,
ceis)`` and ``handle.submit(ceis)`` are both the wrapped proxy's
:meth:`StreamingProxy.submit_ceis`.

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
from repro.policies.base import Policy
from repro.proxy.proxy import ProxyRunResult, epoch_budget, score_run
from repro.proxy.registry import ClientRegistry
from repro.proxy.streaming import StreamingProxy


class ProxySession:
    """A steppable proxy run over one epoch, with mid-flight submissions."""

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
        self._proxy = StreamingProxy(
            resources, budget=self.budget, policy=policy, preemptive=preemptive
        )

    @property
    def registry(self) -> ClientRegistry:
        """The wrapped proxy's registry; its handles admit through
        :meth:`submit_ceis`."""
        return self._proxy.registry

    @property
    def client_names(self) -> list[str]:
        return self._proxy.client_names

    @property
    def now(self) -> Chronon:
        """The next chronon to be executed (0 before the first advance)."""
        return self._proxy.now

    @property
    def remaining(self) -> int:
        """Chronons left to execute."""
        return len(self.epoch) - self._proxy.now

    @property
    def finished(self) -> bool:
        """Has the whole epoch been executed?"""
        return self.remaining == 0

    def submit_ceis(
        self, client: str, ceis: Sequence[ComplexExecutionInterval]
    ) -> int:
        """Submit CEIs now; they reveal at max(now, their release).

        CEIs whose windows already fully passed still count against the
        client's completeness (they can never be captured) — submitting
        stale needs is the client's loss, exactly as in a live proxy.  A
        CEI releasing past the epoch is never revealed and stays
        unsatisfied.  A batch the proxy refuses (a CEI submitted twice)
        raises :class:`repro.core.errors.ModelError` and changes nothing.
        """
        return self._proxy.submit_ceis(client, ceis)

    def advance(self, chronons: int = 1) -> Chronon:
        """Execute the next ``chronons`` chronons, never past the epoch's
        end; returns the new now."""
        if chronons < 0:
            raise ExperimentError(f"cannot advance by {chronons}")
        return self._proxy.tick(min(chronons, self.remaining))

    def run_to_end(self) -> Chronon:
        """Execute every remaining chronon."""
        return self.advance(self.remaining)

    def snapshot(self) -> dict[str, float | int]:
        """Interim run statistics without disturbing the session: the
        wrapped proxy's :meth:`StreamingProxy.stats` plus ``remaining``.

        Useful for dashboards polling a live session: how many CEIs have
        been revealed, satisfied, failed, how many probes are spent, and
        the proxy's believed completeness so far.
        """
        out = self._proxy.stats()
        out["remaining"] = self.remaining
        return out

    def build_profiles(self) -> ProfileSet:
        """Everything submitted so far, one profile per client."""
        return self.registry.build_profiles()

    def finish(self) -> ProxyRunResult:
        """Run to the end (if needed) and score the session."""
        self.run_to_end()
        return score_run(
            self.registry, self.build_profiles(), self._proxy.monitor.monitor
        )
