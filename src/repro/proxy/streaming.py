"""The always-on proxy: a service facade over the streaming monitor.

:class:`MonitoringProxy` replays one epoch and :class:`ProxySession`
steps one; :class:`StreamingProxy` is
the paper's Section I platform as a *service*: clients register, submit
and withdraw continuous needs at any time, and the proxy's clock runs
forever — driven manually (:meth:`StreamingProxy.tick`), by a background
thread (:meth:`StreamingProxy.start`), or by an asyncio task
(:meth:`StreamingProxy.run_async`).  Per-client statistics are computed
live from pool state, and the durable part of the service (the client
table and every submitted need) snapshots to plain JSON-ready dicts and
restores into a fresh process.

The facade shares :class:`repro.proxy.registry.ClientRegistry` with the
batch facades and delegates scheduling to
:class:`repro.online.streaming.StreamingMonitor` — the one online loop,
which :class:`ProxySession` also adapts, bounded to an epoch — so churn
rides the arena delta layer whenever the run is arena-backed.  Clients
register with :meth:`StreamingProxy.register_client`.  An optional thin
HTTP front end lives in :mod:`repro.proxy.service`.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional, Sequence, Union

from repro.core.errors import ExperimentError, ModelError
from repro.core.intervals import ComplexExecutionInterval
from repro.core.resource import ResourcePool
from repro.core.schedule import BudgetVector
from repro.core.timebase import Chronon
from repro.io.serialization import cei_from_record, cei_to_record
from repro.online.config import MonitorConfig
from repro.online.streaming import StreamingBudget, StreamingMonitor
from repro.policies.base import Policy
from repro.proxy.registry import ClientHandle, ClientRegistry
from repro.sim.arena import InstanceArena

__all__ = ["StreamingProxy"]

#: Snapshot payload format tag (bumped on incompatible layout changes).
SNAPSHOT_FORMAT = "repro.streaming-proxy/1"


class BackgroundClock:
    """``start``/``stop``/``running`` for a proxy whose ``tick()`` advances it.

    One daemon thread calls ``self.tick()`` once per interval: the same
    loop drives :class:`StreamingProxy` and the durable proxy, whose
    ``tick`` journals each chronon first.  ``_clock_name`` names the
    thread.
    """

    _clock_name: str
    _clock_thread: Optional[threading.Thread] = None
    _clock_stop: Optional[threading.Event] = None

    def start(self, interval: float = 1.0) -> None:
        """Drive the clock from a daemon thread: one tick per ``interval``
        seconds, until :meth:`stop`.  Starting twice is an error."""
        if self.running:
            raise ExperimentError(f"{self._clock_name} already running")
        stop = self._clock_stop = threading.Event()

        def _loop() -> None:
            while not stop.wait(interval):
                self.tick()

        self._clock_thread = threading.Thread(
            target=_loop, name=self._clock_name, daemon=True
        )
        self._clock_thread.start()

    def stop(self) -> None:
        """Stop the background clock (no-op if not running)."""
        if self._clock_thread is not None:
            self._clock_stop.set()
            self._clock_thread.join(timeout=5.0)
            self._clock_thread = None

    @property
    def running(self) -> bool:
        """Is a background clock thread currently driving ticks?"""
        return self._clock_thread is not None and self._clock_thread.is_alive()


class StreamingProxy(BackgroundClock):
    """Register clients, accept churn, and monitor forever.

    Parameters
    ----------
    resources:
        The monitored resource pool (probe costs, push flags).
    budget, policy, preemptive, config, arena, compact_every:
        Forwarded to :class:`StreamingMonitor`.
    registry:
        Optional pre-populated :class:`ClientRegistry` to adopt (CEIs
        already in it are submitted to the monitor on construction) —
        this is how :meth:`restore` rebuilds a proxy from a snapshot.
    """

    _clock_name = "streaming-proxy-clock"

    def __init__(
        self,
        resources: Optional[ResourcePool] = None,
        budget: Union[StreamingBudget, BudgetVector, float, int] = 1.0,
        policy: Union[Policy, str] = "MRSF",
        preemptive: bool = True,
        config: Optional[MonitorConfig] = None,
        *,
        arena: Optional[InstanceArena] = None,
        compact_every: int = 0,
        registry: Optional[ClientRegistry] = None,
    ) -> None:
        self._monitor = StreamingMonitor(
            policy,
            budget=budget,
            resources=resources,
            preemptive=preemptive,
            config=config,
            arena=arena,
            compact_every=compact_every,
        )
        self.registry = registry if registry is not None else ClientRegistry()
        # cid -> owning client name; the reverse of the registry's lists,
        # kept here because cancellation and stats are cid-keyed.
        self._owner_of_cid: dict[int, str] = {}
        self._ceis_by_cid: dict[int, ComplexExecutionInterval] = {}
        self._cancelled_cids: set[int] = set()
        self._lock = threading.RLock()
        adopted = {name: self.registry.ceis_of(name) for name in self.registry.names}
        # Everything the registry holds goes in as one submission (one
        # arena patch on an arena-backed run).
        self._monitor.submit([cei for ceis in adopted.values() for cei in ceis])
        for name, ceis in adopted.items():
            self._own(name, ceis)

    # ------------------------------------------------------------------
    # Clients and churn
    # ------------------------------------------------------------------

    def register_client(self, name: str) -> ClientHandle:
        """Register a new client; returns its typed handle."""
        with self._lock:
            return self.registry.register(name)

    @property
    def client_names(self) -> list[str]:
        return self.registry.names

    def _own(
        self, client: str, ceis: Sequence[ComplexExecutionInterval]
    ) -> None:
        for cei in ceis:
            self._owner_of_cid[cei.cid] = str(client)
            self._ceis_by_cid[cei.cid] = cei

    def _check_owners(
        self, client: str, ceis: Sequence[ComplexExecutionInterval]
    ) -> None:
        self.registry.require(client)
        for cei in ceis:
            owner = self._owner_of_cid.get(cei.cid)
            if owner is not None:
                raise ModelError(
                    f"CEI {cei.cid} was already submitted by client {owner!r}"
                )

    def check_submission(
        self, client: str, ceis: Sequence[ComplexExecutionInterval]
    ) -> None:
        """Raise unless :meth:`submit_ceis` would admit ``ceis``.

        The client must be registered (:class:`ExperimentError`); a cid
        repeated within the batch, already submitted by any client, or
        already held by the monitor raises :class:`ModelError`.  The
        durable facade calls this *before* journaling, so the journal
        never records a submission that replay would refuse.
        """
        with self._lock:
            self._check_owners(client, ceis)
            self._monitor.check_new(ceis)

    def submit_ceis(
        self, client: str, ceis: Sequence[ComplexExecutionInterval]
    ) -> int:
        """Admit CEIs for a client; they reveal at ``max(now, release)``.

        The batch reaches the monitor as one submission — one
        :class:`repro.sim.arena.ArenaPatch` on an arena-backed run — so
        churn costs one patch per call, not one per CEI.  A batch that
        :meth:`check_submission` refuses raises and changes nothing; one
        it passes is admitted by :meth:`_admit`.
        """
        ceis = list(ceis)
        with self._lock:
            self.check_submission(client, ceis)
            return self._admit(client, ceis)

    def _admit(
        self, client: str, ceis: list[ComplexExecutionInterval]
    ) -> int:
        """Admit a batch :meth:`check_submission` already passed, without
        checking it again (:meth:`submit_ceis` checks then admits; the
        durable facade checks, journals, then admits, all under its own
        lock)."""
        with self._lock:
            self._monitor._admit(ceis)
            self.registry.submit(client, ceis)
            self._own(client, ceis)
        return len(ceis)

    def resolve_cancel_targets(
        self,
        client: str,
        ceis: Optional[Iterable[ComplexExecutionInterval]] = None,
    ) -> list[ComplexExecutionInterval]:
        """Validate and materialize a cancellation's target list.

        ``ceis=None`` expands to every not-yet-cancelled need of the
        client, in submission order.  Explicit targets are checked for
        ownership (cancelling another client's CEI is an error).  The
        durable facade calls this *before* journaling so the journal
        records an explicit, replayable target list.
        """
        with self._lock:
            self.registry.require(client)
            if ceis is None:
                return [
                    cei for cid, cei in self._ceis_by_cid.items()
                    if self._owner_of_cid[cid] == str(client)
                    and cid not in self._cancelled_cids
                ]
            targets = list(ceis)
            for cei in targets:
                owner = self._owner_of_cid.get(cei.cid)
                if owner is None:
                    raise ExperimentError(
                        f"CEI {cei.cid} was never submitted to this proxy"
                    )
                if owner != str(client):
                    raise ExperimentError(
                        f"CEI {cei.cid} belongs to client {owner!r}, "
                        f"not {str(client)!r}"
                    )
            return targets

    def cancel_ceis(
        self,
        client: str,
        ceis: Optional[Iterable[ComplexExecutionInterval]] = None,
    ) -> int:
        """Withdraw a client's needs mid-flight; returns how many closed.

        With ``ceis=None`` every still-open need of the client is
        withdrawn.  Cancelling another client's CEI is an error.
        """
        with self._lock:
            targets = self.resolve_cancel_targets(client, ceis)
            withdrawn = self._monitor.cancel(targets)
            for cei in withdrawn:
                self._cancelled_cids.add(cei.cid)
            return len(withdrawn)

    def unregister_client(self, client: str) -> int:
        """Withdraw a client's open needs and drop it from the registry.

        Returns how many needs actually closed.  The client's history
        leaves the per-client tables entirely — its cids no longer
        resolve and its finished needs stop counting in ``stats()``
        denominators — matching a subscriber deleting their account.
        """
        with self._lock:
            self.registry.require(client)
            withdrawn = self.cancel_ceis(client)
            for cei in self.registry.ceis_of(client):
                self._owner_of_cid.pop(cei.cid, None)
                self._ceis_by_cid.pop(cei.cid, None)
                self._cancelled_cids.discard(cei.cid)
            self.registry.unregister(client)
            return withdrawn

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> Chronon:
        return self._monitor.now

    def tick(self, chronons: int = 1) -> Chronon:
        """Advance the proxy clock; returns the new now."""
        with self._lock:
            return self._monitor.advance(chronons)

    def fast_forward(self, to: Chronon) -> Chronon:
        """Advance the clock *to* an absolute chronon (never backwards)."""
        with self._lock:
            return self._monitor.fast_forward(to)

    def set_budget(
        self, budget: Union[StreamingBudget, BudgetVector, float, int]
    ) -> None:
        """Replace the per-chronon budget from the next tick onwards."""
        with self._lock:
            self._monitor.set_budget(budget)

    async def run_async(self, chronons: int, interval: float = 0.0) -> Chronon:
        """Asyncio-driven clock: tick ``chronons`` times, sleeping
        ``interval`` seconds between ticks (0 yields to the loop)."""
        import asyncio

        for _ in range(chronons):
            self.tick()
            await asyncio.sleep(interval)
        return self.now

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, float | int]:
        """Global service statistics (the monitor snapshot + client count)."""
        with self._lock:
            out = self._monitor.snapshot()
            out["clients"] = len(self.registry)
            return out

    def client_stats(self, client: str) -> dict[str, float | int]:
        """Live per-client statistics, computed from pool state."""
        with self._lock:
            self.registry.require(client)
            pool = self._monitor.pool
            pending = 0
            satisfied = 0
            failed = 0
            cancelled = 0
            open_ = 0
            total = 0
            for cid, owner in self._owner_of_cid.items():
                if owner != str(client):
                    continue
                total += 1
                if cid in self._cancelled_cids:
                    cancelled += 1
                    continue
                if self._monitor.is_pending(cid):
                    pending += 1
                    continue
                view = pool.state_of(self._ceis_by_cid[cid])
                if view is None:
                    pending += 1
                elif view.satisfied:
                    satisfied += 1
                elif view.failed:
                    failed += 1
                elif view.cancelled:
                    cancelled += 1
                else:
                    open_ += 1
            denom = total - cancelled - pending
            return {
                "client": str(client),
                "submitted_ceis": total,
                "pending_ceis": pending,
                "open_ceis": open_,
                "satisfied_ceis": satisfied,
                "failed_ceis": failed,
                "cancelled_ceis": cancelled,
                "believed_completeness": (
                    satisfied / denom if denom > 0 else 1.0
                ),
            }

    @property
    def monitor(self) -> StreamingMonitor:
        """The underlying rolling-horizon monitor (read-only use)."""
        return self._monitor

    # ------------------------------------------------------------------
    # Durable state
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The proxy's durable state as a JSON-ready payload.

        Durable state is what outlives a process: the client table,
        every submitted need (with which are withdrawn), and the clock.
        Volatile scheduling state (capture flags, shedding estimators)
        is deliberately not serialized — a restored proxy re-reveals the
        needs that are still ahead of the restored clock and re-scores
        from there.

        Each need is ``{"cei": ..., "cancelled": bool}``, its ``cei`` in
        :func:`repro.io.serialization.cei_to_record` form: a list of
        ``[resource, start, finish]`` triples for a plain CEI, the
        profile-file dict otherwise.  :meth:`restore` reads both, so
        snapshots written with dict-form CEIs still restore.
        """
        with self._lock:
            clients = {}
            for name in self.registry.names:
                clients[name] = [
                    {
                        "cei": cei_to_record(cei),
                        "cancelled": cei.cid in self._cancelled_cids,
                    }
                    for cei in self.registry.ceis_of(name)
                ]
            return {
                "format": SNAPSHOT_FORMAT,
                "now": self._monitor.now,
                "clients": clients,
            }

    @classmethod
    def restore(
        cls,
        payload: dict,
        *,
        resources: Optional[ResourcePool] = None,
        budget: Union[StreamingBudget, BudgetVector, float, int] = 1.0,
        policy: Union[Policy, str] = "MRSF",
        preemptive: bool = True,
        config: Optional[MonitorConfig] = None,
    ) -> "StreamingProxy":
        """Rebuild a proxy from :meth:`snapshot` durable state.

        The clock fast-forwards to the snapshot's ``now`` (needs whose
        windows already passed register dead-on-arrival, exactly as a
        late submission would); cancelled needs are re-cancelled.

        The snapshot's clock is validated before anything registers: a
        ``now`` that is not a plain non-negative integer would silently
        reveal needs at the wrong chronon (a truncated float) or run the
        clock backwards (a negative), so it raises :class:`ModelError`
        instead.
        """
        if payload.get("format") != SNAPSHOT_FORMAT:
            raise ExperimentError(
                f"not a streaming-proxy snapshot: format="
                f"{payload.get('format')!r}"
            )
        now = payload.get("now")
        if isinstance(now, bool) or not isinstance(now, int) or now < 0:
            raise ModelError(
                "snapshot clock must be a non-negative integer chronon, "
                f"got {now!r}"
            )
        proxy = cls(
            resources=resources,
            budget=budget,
            policy=policy,
            preemptive=preemptive,
            config=config,
        )
        if now:
            proxy.tick(now)
        for name, entries in payload["clients"].items():
            handle = proxy.register_client(name)
            ceis = [cei_from_record(entry["cei"]) for entry in entries]
            proxy.submit_ceis(handle, ceis)
            cancelled = [
                cei for cei, entry in zip(ceis, entries) if entry.get("cancelled")
            ]
            if cancelled:
                proxy.cancel_ceis(handle, cancelled)
        return proxy
