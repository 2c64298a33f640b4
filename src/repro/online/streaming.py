"""Always-on monitoring: a rolling-horizon driver over the step loop.

Everything else in :mod:`repro.online` replays an epoch-bounded batch;
:class:`StreamingMonitor` is the paper's Section II service framing —
"At every chronon T_j, the proxy may receive a set of new CEIs" — as a
long-lived object.  The clock is unbounded (a :class:`StreamingBudget`
extends any per-chronon budget past its last explicit value), clients
may submit *and withdraw* needs between any two steps, and the sliding
window compacts state behind the clock so an always-on process does not
accumulate the whole past.

Churn takes the cheap path when an :class:`repro.sim.arena.InstanceArena`
backs the run: submissions become :class:`repro.sim.arena.ArenaPatch`
batches applied incrementally to the compiled arena and mirrored into
the live pool (bit-identical to recompiling from scratch, without the
recompilation), and cancellations unschedule pending arrivals or close
live CEIs in place.  Without an arena the same API drives the pools'
ordinary incremental registration.

The driver composes with everything the step loop composes with: both
engines, fault injection and learned health, and tiered load shedding
all act per-step exactly as they do in a batch run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from repro.core.errors import ModelError
from repro.core.intervals import ComplexExecutionInterval
from repro.core.resource import ResourcePool
from repro.core.schedule import BudgetVector, Schedule
from repro.core.timebase import Chronon
from repro.online.config import MonitorConfig
from repro.online.fastpath import FastCandidatePool
from repro.online.monitor import OnlineMonitor
from repro.policies.base import Policy, make_policy
from repro.sim.arena import ArenaPatch, InstanceArena, apply_patch

__all__ = ["StreamingBudget", "StreamingMonitor", "coerce_budget"]


@dataclass(frozen=True, slots=True)
class StreamingBudget:
    """An unbounded per-chronon budget for always-on runs.

    Wraps an explicit prefix of per-chronon values; past the prefix the
    budget either cycles it (``cycle=True`` — a diurnal pattern repeats
    forever) or holds the last value (``cycle=False``).  Exposes the
    same ``at()`` surface as :class:`repro.core.schedule.BudgetVector`,
    which is all the step loop reads.
    """

    values: tuple[float, ...]
    cycle: bool = False

    def __post_init__(self) -> None:
        if not self.values:
            raise ModelError("streaming budget needs at least one value")
        for j, value in enumerate(self.values):
            if value < 0:
                raise ModelError(
                    f"budget at chronon {j} must be >= 0, got {value}"
                )

    @classmethod
    def constant(cls, c: float) -> "StreamingBudget":
        """The same budget ``c`` at every chronon, forever."""
        return cls(values=(float(c),))

    @classmethod
    def from_vector(
        cls, budget: BudgetVector, *, cycle: bool = False
    ) -> "StreamingBudget":
        """Extend a finite budget vector past its end."""
        return cls(values=budget.values, cycle=cycle)

    def at(self, chronon: Chronon) -> float:
        """``C_j`` for any chronon ``j >= 0``."""
        if chronon < 0:
            raise ModelError(f"chronon must be >= 0, got {chronon}")
        if chronon < len(self.values):
            return self.values[chronon]
        if self.cycle:
            return self.values[chronon % len(self.values)]
        return self.values[-1]


def coerce_budget(
    budget: Union[StreamingBudget, BudgetVector, float, int]
) -> StreamingBudget:
    """Any accepted budget spelling as a :class:`StreamingBudget`."""
    if isinstance(budget, StreamingBudget):
        return budget
    if isinstance(budget, BudgetVector):
        return StreamingBudget.from_vector(budget)
    return StreamingBudget.constant(float(budget))


_coerce_budget = coerce_budget


class StreamingMonitor:
    """A long-lived monitor: step the clock, accept churn between steps.

    Parameters
    ----------
    policy:
        The probing policy Φ (or its registry name).
    budget:
        Per-chronon budget: a :class:`StreamingBudget`, a finite
        :class:`BudgetVector` (extended past its end by holding the last
        value), or a scalar (constant forever).
    resources, preemptive, exploit_overlap, config:
        Forwarded to :class:`repro.online.monitor.OnlineMonitor`.
    arena:
        Optional compiled :class:`InstanceArena` of the *initial*
        workload (requires the vectorized engine).  The run is
        then arena-backed and every later submission or cancellation is
        applied as an :class:`ArenaPatch` — no recompilation — while the
        arena's ``arrivals`` map stays the exact from-scratch baseline
        of everything ever admitted.  CEIs already compiled into the
        arena are queued for revelation automatically; do not submit
        them again.
    compact_every:
        Sliding-window hygiene: every ``compact_every`` executed
        chronons the event timelines are pruned behind the clock
        (``ArenaPatch(expire_before=now)`` on a supplied arena; the
        vectorized pool's own arena otherwise), bounding the state an
        always-on process drags along.  0 (default) never compacts; the
        reference engine pops its timelines as it steps and needs none.
        Compaction never changes schedules.
    """

    def __init__(
        self,
        policy: Union[Policy, str],
        *,
        budget: Union[StreamingBudget, BudgetVector, float, int] = 1.0,
        resources: Optional[ResourcePool] = None,
        preemptive: bool = True,
        exploit_overlap: bool = True,
        config: Optional[MonitorConfig] = None,
        arena: Optional[InstanceArena] = None,
        compact_every: int = 0,
    ) -> None:
        if isinstance(policy, str):
            policy = make_policy(policy)
        if compact_every < 0:
            raise ModelError(
                f"compact_every must be >= 0, got {compact_every}"
            )
        self.budget = _coerce_budget(budget)
        self._monitor = OnlineMonitor(
            policy=policy,
            budget=self.budget,  # type: ignore[arg-type]  # .at() is the contract
            preemptive=preemptive,
            resources=resources,
            exploit_overlap=exploit_overlap,
            config=config,
            arena=arena,
        )
        self._arena: Optional[InstanceArena] = arena
        self._compact_every = compact_every
        self._next: Chronon = 0
        self._steps_since_compact = 0
        self._pending: dict[Chronon, list[ComplexExecutionInterval]] = {}
        # cid -> the chronon whose bucket of _pending holds it.
        self._reveal_of_cid: dict[int, Chronon] = {}
        self._num_submitted = 0
        self._num_cancelled_pending = 0
        if arena is not None:
            for at, ceis in arena.arrivals.items():
                for cei in ceis:
                    self._queue(cei, at)
                    self._num_submitted += 1

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> Chronon:
        """The next chronon to be executed (0 before the first advance)."""
        return self._next

    @property
    def monitor(self) -> OnlineMonitor:
        """The underlying step-loop monitor (read-only use intended)."""
        return self._monitor

    def close(self) -> None:
        """Release monitor-held external resources (sharded workers/shm)."""
        self._monitor.close()

    def advance(self, chronons: int = 1) -> Chronon:
        """Execute the next ``chronons`` chronons; returns the new now."""
        if chronons < 0:
            raise ModelError(f"cannot advance by {chronons}")
        for _ in range(chronons):
            t = self._next
            arriving = self._pending.pop(t, ())
            for cei in arriving:
                del self._reveal_of_cid[cei.cid]
            self._monitor.step(t, arriving)
            self._next = t + 1
            self._steps_since_compact += 1
            if (
                self._compact_every
                and self._steps_since_compact >= self._compact_every
            ):
                self.compact()
        return self._next

    def fast_forward(self, to: Chronon) -> Chronon:
        """Advance the clock *to* an absolute chronon (never backwards)."""
        if to < self._next:
            raise ModelError(
                f"cannot fast-forward backwards: clock is at {self._next}, "
                f"target is {to}"
            )
        return self.advance(to - self._next)

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------

    def set_budget(
        self, budget: Union[StreamingBudget, BudgetVector, float, int]
    ) -> None:
        """Replace the per-chronon budget from the next step onwards.

        The step loop reads the budget per chronon (``budget.at(t)``),
        so a live swap takes effect at the very next advance; already
        executed chronons are unaffected.
        """
        self.budget = coerce_budget(budget)
        self._monitor.budget = self.budget  # type: ignore[assignment]

    def _queue(self, cei: ComplexExecutionInterval, reveal_at: Chronon) -> None:
        self._pending.setdefault(reveal_at, []).append(cei)
        self._reveal_of_cid[cei.cid] = reveal_at

    def check_new(self, ceis: Sequence[ComplexExecutionInterval]) -> None:
        """Raise :class:`ModelError` unless :meth:`submit` would take ``ceis``.

        Refused: a cid repeated within the batch, or one this monitor
        already holds (compiled into the arena, queued, or registered).
        """
        seen: set[int] = set()
        for cei in ceis:
            if cei.cid in seen:
                raise ModelError(f"CEI {cei.cid} appears twice in one submission")
            if self._holds(cei):
                raise ModelError(f"CEI {cei.cid} was already submitted")
            seen.add(cei.cid)

    def _holds(self, cei: ComplexExecutionInterval) -> bool:
        if self._arena is not None:
            return cei.cid in self._arena.cidx_of_cid
        return (
            cei.cid in self._reveal_of_cid
            or self._monitor.pool.state_of(cei) is not None
        )

    def submit(self, ceis: Sequence[ComplexExecutionInterval]) -> int:
        """Admit new CEIs; each reveals at ``max(now, release)``.

        On an arena-backed run the batch is compiled in as one
        :class:`ArenaPatch` and mirrored into the live pool before it is
        queued, so churn costs one patch per call: submit a chronon's
        needs together.  A batch that :meth:`check_new` refuses raises
        :class:`ModelError` and admits nothing.  Returns how many CEIs
        were admitted.
        """
        ceis = list(ceis)
        self.check_new(ceis)
        return self._admit(ceis)

    def _admit(self, ceis: list[ComplexExecutionInterval]) -> int:
        """Admit a batch :meth:`check_new` already passed, without
        checking it again: the durable proxy checks a batch once, before
        it journals it."""
        if not ceis:
            return 0
        if self._arena is not None:
            self._patch(ArenaPatch.registrations(ceis, at=self._next))
        for cei in ceis:
            self._queue(cei, max(self._next, cei.release))
        self._num_submitted += len(ceis)
        return len(ceis)

    def cancel(
        self, ceis: Iterable[ComplexExecutionInterval]
    ) -> list[ComplexExecutionInterval]:
        """Withdraw CEIs mid-flight; returns the ones actually withdrawn.

        Pending (not yet revealed) CEIs are unscheduled and never
        register (only their reveal chronon's bucket is touched); live
        open CEIs close as *cancelled* — they leave the candidate bag and
        the completeness denominator without counting as failures.
        Already-closed or unknown CEIs are skipped (and absent from the
        returned list).
        """
        withdrawn: list[ComplexExecutionInterval] = []
        for cei in ceis:
            at = self._reveal_of_cid.pop(cei.cid, None)
            if at is not None:
                queued = self._pending[at]
                cid = cei.cid
                del queued[next(i for i, q in enumerate(queued) if q.cid == cid)]
                self._num_cancelled_pending += 1
                withdrawn.append(cei)
            elif self._monitor.pool.cancel_cei(cei):
                withdrawn.append(cei)
        if self._arena is not None and withdrawn:
            # Keep the arena's from-scratch baseline in sync: only CEIs
            # that really closed are recorded as cancelled (a cancel of
            # an already-satisfied CEI is a no-op in both worlds).
            known = tuple(
                cei.cid for cei in withdrawn
                if cei.cid in self._arena.cidx_of_cid
            )
            if known:
                self._patch(ArenaPatch(cancel=known))
        return withdrawn

    def compact(self) -> None:
        """Prune the event timelines behind the clock (vectorized runs)."""
        self._steps_since_compact = 0
        pool = self._monitor.pool
        if self._arena is not None:
            self._patch(ArenaPatch(expire_before=self._next))
        elif isinstance(pool, FastCandidatePool):
            pool.prune_timelines(self._next)

    def _patch(self, patch: ArenaPatch) -> None:
        """Apply one patch to the arena and mirror it into the live pool."""
        assert self._arena is not None
        apply_patch(self._arena, patch, pools=(self._monitor.pool,))

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    @property
    def arena(self) -> Optional[InstanceArena]:
        """The run's arena, patched in place (None on incremental runs)."""
        return self._arena

    @property
    def pending_count(self) -> int:
        """CEIs admitted but not yet revealed to the step loop."""
        return len(self._reveal_of_cid)

    def is_pending(self, cid: int) -> bool:
        """Is this cid admitted but not yet revealed to the step loop?"""
        return cid in self._reveal_of_cid

    @property
    def schedule(self) -> Schedule:
        return self._monitor.schedule

    @property
    def pool(self):
        return self._monitor.pool

    @property
    def probes_used(self) -> int:
        return self._monitor.probes_used

    @property
    def probes_failed(self) -> int:
        return self._monitor.probes_failed

    @property
    def believed_completeness(self) -> float:
        return self._monitor.believed_completeness

    @property
    def shedding_stats(self):
        return self._monitor.shedding_stats

    @property
    def health_stats(self):
        return self._monitor.health_stats

    @property
    def fault_stats(self):
        return self._monitor.fault_stats

    def snapshot(self) -> dict[str, float | int]:
        """Interim statistics for dashboards and durable state."""
        pool = self._monitor.pool
        return {
            "now": self._next,
            "pending_ceis": self.pending_count,
            "submitted_ceis": self._num_submitted,
            "registered_ceis": pool.num_registered,
            "satisfied_ceis": pool.num_satisfied,
            "failed_ceis": pool.num_failed,
            "cancelled_ceis": pool.num_cancelled,
            "cancelled_pending_ceis": self._num_cancelled_pending,
            "open_ceis": pool.num_open,
            "probes_used": self._monitor.probes_used,
            "probes_failed": self._monitor.probes_failed,
            "believed_completeness": self._monitor.believed_completeness,
        }
