"""Candidate pool: the monitor's view of pending CEIs and their EIs.

At chronon ``T_j`` the proxy considers ``cands(η)`` — all CEIs submitted up
to ``T_j`` and not yet completely captured — and the bag ``cands(I)`` of
their EIs (paper Section IV).  This module maintains that state
incrementally:

* CEIs are *registered* when the arrival stream reveals them;
* an EI becomes *active* when its scheduling window opens and leaves the
  active set when it is captured, when its window closes, or when its
  parent CEI dies (an uncaptured sibling expired) or is satisfied;
* a per-resource index supports the intra-resource overlap optimization —
  one probe of resource ``r`` captures every active EI on ``r`` — and
  WIC's accumulated-utility view.

Expiry follows Algorithm 1 (lines 20-27): at the end of chronon ``T_j``,
any candidate CEI that still needs an EI whose window closed at ``T_j`` can
never be satisfied and is dropped together with all its sibling EIs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional

from repro.core.errors import ModelError
from repro.core.intervals import ComplexExecutionInterval, ExecutionInterval
from repro.core.resource import ResourceId, ResourcePool
from repro.core.timebase import Chronon


@dataclass(eq=False, slots=True)
class CEIState:
    """Capture bookkeeping for one candidate CEI."""

    cei: ComplexExecutionInterval
    captured: set[int] = field(default_factory=set)  # EI seqs captured
    failed: bool = False
    satisfied: bool = False
    cancelled: bool = False

    @property
    def captured_count(self) -> int:
        return len(self.captured)

    @property
    def residual(self) -> int:
        """EIs still needed for satisfaction (0 once satisfied)."""
        return max(0, self.cei.required - self.captured_count)

    @property
    def closed(self) -> bool:
        """No longer a candidate (captured, failed, or withdrawn)."""
        return self.failed or self.satisfied or self.cancelled


class CandidatePool:
    """Incrementally-maintained ``cands(η)`` / ``cands(I)`` structures.

    Also implements the :class:`repro.policies.base.MonitorView` protocol,
    so policies rank candidates against the pool directly.
    """

    def __init__(self) -> None:
        self._states: dict[int, CEIState] = {}
        self._active: dict[int, ExecutionInterval] = {}
        self._by_resource: dict[ResourceId, set[ExecutionInterval]] = {}
        self._to_activate: dict[Chronon, list[ExecutionInterval]] = {}
        self._to_expire: dict[Chronon, list[ExecutionInterval]] = {}
        # EI seqs withdrawn by load shedding (soft-tier degradation):
        # never probe-able again, never activated, silent at expiry —
        # but still counted by the M-EDF sibling walk, which only skips
        # *captured* siblings (see repro.online.shedding).
        self._released_seqs: set[int] = set()
        self._num_registered = 0
        self._num_satisfied = 0
        self._num_failed = 0
        self._num_cancelled = 0

    @property
    def activate_at(self) -> Mapping[Chronon, list[ExecutionInterval]]:
        """Pending window openings: chronon -> the EIs opening there."""
        return self._to_activate

    # ------------------------------------------------------------------
    # MonitorView protocol
    # ------------------------------------------------------------------

    def is_ei_captured(self, ei: ExecutionInterval) -> bool:
        """Has this EI been captured (proxy belief)?"""
        cei = ei.parent
        if cei is None:
            return False
        state = self._states.get(cei.cid)
        return state is not None and ei.seq in state.captured

    def captured_count(self, cei: ComplexExecutionInterval) -> int:
        """Captured-EI count of a candidate CEI (0 if unknown)."""
        state = self._states.get(cei.cid)
        return state.captured_count if state is not None else 0

    def active_uncaptured_on(self, resource: ResourceId) -> int:
        """Number of active uncaptured candidate EIs on ``resource``."""
        return len(self._by_resource.get(resource, ()))

    # ------------------------------------------------------------------
    # Registration and activation
    # ------------------------------------------------------------------

    def register(
        self, cei: ComplexExecutionInterval, now: Chronon
    ) -> list[ExecutionInterval]:
        """Add a newly-revealed CEI; returns the EIs active immediately.

        A CEI is dead on arrival (empty return, state failed) when too
        many of its EIs already expired before ``now`` — only possible
        with late submission.
        """
        if cei.cid in self._states:
            raise ModelError(f"CEI {cei.cid} registered twice")
        state = CEIState(cei=cei)
        self._states[cei.cid] = state
        self._num_registered += 1

        expired_on_arrival = sum(1 for ei in cei.eis if ei.finish < now)
        alive = len(cei.eis) - expired_on_arrival
        if alive < cei.required:
            state.failed = True
            self._num_failed += 1
            return []

        activated: list[ExecutionInterval] = []
        for ei in cei.eis:
            if ei.finish < now:
                continue  # unusable, but enough siblings remain
            if ei.start <= now:
                self._activate(ei)
                activated.append(ei)
            else:
                self._to_activate.setdefault(ei.start, []).append(ei)
            self._to_expire.setdefault(ei.finish, []).append(ei)
        return activated

    def _activate(self, ei: ExecutionInterval) -> None:
        self._active[ei.seq] = ei
        self._by_resource.setdefault(ei.resource, set()).add(ei)

    def open_windows(self, now: Chronon) -> list[ExecutionInterval]:
        """Activate every EI whose window opens at ``now``; returns them."""
        opened: list[ExecutionInterval] = []
        released = self._released_seqs
        for ei in self._to_activate.pop(now, []):
            cei = ei.parent
            assert cei is not None
            state = self._states[cei.cid]
            if state.closed or ei.seq in state.captured:
                continue  # parent died or was satisfied while pending
            if released and ei.seq in released:
                continue  # shed away while pending: never activates
            self._activate(ei)
            opened.append(ei)
        return opened

    # ------------------------------------------------------------------
    # Capture and expiry
    # ------------------------------------------------------------------

    def capture_resource(
        self,
        resource: ResourceId,
        now: Chronon,
        skip: frozenset[int] = frozenset(),
    ) -> tuple[list[ExecutionInterval], list[ComplexExecutionInterval]]:
        """A probe of ``resource`` captures all its active candidate EIs.

        ``skip`` holds EI seqs the probe failed to retrieve (per-EI partial
        failures): those EIs stay active and uncaptured, so a later probe
        of the resource can still pick them up.

        Returns ``(captured_eis, touched_ceis)`` where ``touched_ceis`` are
        the parent CEIs whose capture state changed (policies that are
        sibling-sensitive must re-rank their remaining EIs).
        """
        eis_here = self._by_resource.get(resource)
        if not eis_here:
            return [], []
        if skip:
            captured = [ei for ei in eis_here if ei.seq not in skip]
        else:
            captured = list(eis_here)
        touched: list[ComplexExecutionInterval] = []
        for ei in captured:
            self._active.pop(ei.seq, None)
            cei = ei.parent
            assert cei is not None
            state = self._states[cei.cid]
            state.captured.add(ei.seq)
            touched.append(cei)
            if not state.satisfied and state.residual == 0:
                state.satisfied = True
                self._num_satisfied += 1
        if skip:
            for ei in captured:
                eis_here.discard(ei)
        else:
            eis_here.clear()
        # Satisfied CEIs (k-of-n / ANY semantics) release their leftover EIs.
        for cei in touched:
            state = self._states[cei.cid]
            if state.satisfied:
                self._drop_remaining_eis(state)
        return captured, touched

    def capture_single(
        self, ei: ExecutionInterval
    ) -> tuple[list[ExecutionInterval], list[ComplexExecutionInterval]]:
        """Capture exactly one EI (the overlap-exploitation ablation).

        The probe still happens at the resource level, but only the
        selected EI's update is kept — sibling EIs on the same resource
        stay active.  Returns ``(captured_eis, touched_ceis)`` like
        :meth:`capture_resource`; both are empty when ``ei`` is not
        currently active.
        """
        if ei.seq not in self._active:
            return [], []
        self._active.pop(ei.seq, None)
        group = self._by_resource.get(ei.resource)
        if group is not None:
            group.discard(ei)
        cei = ei.parent
        assert cei is not None
        state = self._states[cei.cid]
        state.captured.add(ei.seq)
        if not state.satisfied and state.residual == 0:
            state.satisfied = True
            self._num_satisfied += 1
            self._drop_remaining_eis(state)
        return [ei], [cei]

    def _drop_remaining_eis(self, state: CEIState) -> None:
        """Remove every still-pending EI of a closed CEI from the indexes."""
        for ei in state.cei.eis:
            if ei.seq in state.captured:
                continue
            removed = self._active.pop(ei.seq, None)
            if removed is not None:
                group = self._by_resource.get(ei.resource)
                if group is not None:
                    group.discard(ei)

    def close_windows(self, now: Chronon) -> list[ExecutionInterval]:
        """End-of-chronon expiry (Algorithm 1, lines 20-27).

        Every uncaptured EI whose window closed at ``now`` leaves the
        active set; if its parent CEI can no longer reach its required
        capture count, the CEI fails and all its sibling EIs are dropped.
        Returns the EIs that expired uncaptured.
        """
        expired: list[ExecutionInterval] = []
        released = self._released_seqs
        for ei in self._to_expire.pop(now, []):
            cei = ei.parent
            assert cei is not None
            state = self._states[cei.cid]
            if state.closed or ei.seq in state.captured:
                continue
            if released and ei.seq in released:
                continue  # shed away: spectral, no expiry event
            removed = self._active.pop(ei.seq, None)
            if removed is not None:
                group = self._by_resource.get(ei.resource)
                if group is not None:
                    group.discard(ei)
            expired.append(ei)
            if self._cannot_satisfy(state, now):
                state.failed = True
                self._num_failed += 1
                self._drop_remaining_eis(state)
        return expired

    def _cannot_satisfy(self, state: CEIState, now: Chronon) -> bool:
        """Can the CEI still reach its required capture count after ``now``?

        Released (shed-away) EIs can never be captured, so they do not
        count as usable.
        """
        usable = state.captured_count
        released = self._released_seqs
        for ei in state.cei.eis:
            if ei.seq in state.captured:
                continue
            if released and ei.seq in released:
                continue
            if ei.finish > now:
                usable += 1
        return usable < state.cei.required

    # ------------------------------------------------------------------
    # Load shedding (repro.online.shedding)
    # ------------------------------------------------------------------

    def is_ei_released(self, ei: ExecutionInterval) -> bool:
        """Was this EI withdrawn by load shedding?"""
        return ei.seq in self._released_seqs

    def release_ei(self, ei: ExecutionInterval) -> bool:
        """Withdraw one uncaptured EI from the probe-able bag for good.

        The EI is deactivated (if active), never activates later, and is
        silent at expiry — but its parent CEI stays open and the EI keeps
        its M-EDF sibling contribution (the sibling walk only skips
        captured EIs), so policy scores are unchanged by the withdrawal
        itself.  The caller (the soft-tier degrade pass) must leave the
        CEI with at least ``residual`` unreleased usable EIs, or the CEI
        will fail at its next expiry event.  Returns False when the EI is
        not releasable (unknown, closed parent, captured, or already
        released).
        """
        cei = ei.parent
        if cei is None:
            return False
        state = self._states.get(cei.cid)
        if state is None or state.closed or ei.seq in state.captured:
            return False
        if ei.seq in self._released_seqs:
            return False
        self._released_seqs.add(ei.seq)
        removed = self._active.pop(ei.seq, None)
        if removed is not None:
            group = self._by_resource.get(ei.resource)
            if group is not None:
                group.discard(ei)
        return True

    def shed_cei(self, cei: ComplexExecutionInterval) -> bool:
        """Evict one whole open CEI (counted as failed; EIs dropped)."""
        state = self._states.get(cei.cid)
        if state is None or state.closed:
            return False
        state.failed = True
        self._num_failed += 1
        self._drop_remaining_eis(state)
        return True

    def cancel_cei(self, cei: ComplexExecutionInterval) -> bool:
        """Withdraw one open CEI at its client's request (mid-flight churn).

        Like :meth:`shed_cei` the remaining EIs leave the candidate bag
        for good, but the CEI is accounted as *cancelled*, not failed: it
        leaves ``num_open`` without touching the failure counters, so
        completeness over the surviving workload is unaffected by clients
        walking away.  Returns False when the CEI is unknown or already
        closed.
        """
        state = self._states.get(cei.cid)
        if state is None or state.closed:
            return False
        state.cancelled = True
        self._num_cancelled += 1
        self._drop_remaining_eis(state)
        return True

    def open_cei_objects(self) -> list[ComplexExecutionInterval]:
        """Open (registered, not closed) CEIs in registration order."""
        return [st.cei for st in self._states.values() if not st.closed]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def pushable_resources(self, resources: ResourcePool) -> list[ResourceId]:
        """Push-enabled resources currently holding active candidate EIs.

        These deliver their updates without a pull probe (Example 3 of the
        paper); the monitor auto-captures them at window opening.
        """
        return [
            rid
            for rid, group in self._by_resource.items()
            if group and rid in resources and resources[rid].push_enabled
        ]

    def active_seqs_on(self, resource: ResourceId) -> list[int]:
        """Sorted seqs of the active candidate EIs on ``resource``.

        Sorted so per-EI fault verdicts (which consume one uniform draw per
        seq, in order) are independent of set iteration order — both
        engines see the identical sequence.
        """
        group = self._by_resource.get(resource)
        if not group:
            return []
        return sorted(ei.seq for ei in group)

    def active_eis(self) -> Iterator[ExecutionInterval]:
        """All currently active, uncaptured candidate EIs (the probe pool)."""
        return iter(self._active.values())

    def num_active(self) -> int:
        """Size of the active candidate EI bag."""
        return len(self._active)

    def is_active(self, ei: ExecutionInterval) -> bool:
        """Is this exact EI currently probe-able?"""
        return ei.seq in self._active

    def state_of(self, cei: ComplexExecutionInterval) -> Optional[CEIState]:
        """Capture state of a registered CEI (None if never registered)."""
        return self._states.get(cei.cid)

    def split_by_prior_capture(
        self, eis: Iterable[ExecutionInterval]
    ) -> tuple[list[ExecutionInterval], list[ExecutionInterval]]:
        """Partition candidates into ``cands+`` / ``cands-`` (Algorithm 1).

        ``cands+`` holds EIs whose parent CEI already has at least one
        captured EI; non-preemptive execution spends budget there first.
        """
        plus: list[ExecutionInterval] = []
        minus: list[ExecutionInterval] = []
        for ei in eis:
            cei = ei.parent
            assert cei is not None
            if self._states[cei.cid].captured_count > 0:
                plus.append(ei)
            else:
                minus.append(ei)
        return plus, minus

    @property
    def num_registered(self) -> int:
        """CEIs ever revealed to the monitor."""
        return self._num_registered

    @property
    def num_satisfied(self) -> int:
        """CEIs the proxy believes it fully captured."""
        return self._num_satisfied

    @property
    def num_failed(self) -> int:
        """CEIs that expired before satisfaction."""
        return self._num_failed

    @property
    def num_cancelled(self) -> int:
        """CEIs withdrawn by their clients mid-flight."""
        return self._num_cancelled

    @property
    def num_open(self) -> int:
        """CEIs still in play (registered and not yet closed)."""
        return (
            self._num_registered
            - self._num_satisfied
            - self._num_failed
            - self._num_cancelled
        )
