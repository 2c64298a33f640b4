"""Vectorized fast path for the online monitor.

The reference engine (:class:`repro.online.candidates.CandidatePool` plus
the heap in ``OnlineMonitor._probe_phase``) pays the paper's ``O(A log A)``
chronon bound in pure-Python ``sort_key`` calls.  This module provides the
``engine="vectorized"`` alternative:

* :class:`FastCandidatePool` — a structure-of-arrays mirror of the
  candidate state.  Every execution interval of every registered CEI
  occupies one row (rows of one CEI are contiguous), and per-CEI state
  (rank, captured count, the M-EDF aggregates) lives in parallel CEI-level
  columns.  Each column exists twice: a plain-Python list that absorbs the
  per-event bookkeeping (registration, window events, captures — all O(1)
  scalar updates, where NumPy element access would cost more than the
  work), and a NumPy mirror (``npr_*`` row columns, ``npc_*`` CEI columns)
  that the scoring kernels and the ``lexsort`` consume.  Mirrors are
  synchronized lazily at phase start: appended rows/CEIs by bulk slice
  assignment, mutated CEIs from a dirty set.
* :func:`run_fast_phases` — the vectorized ``probeEIs`` loop.  Each phase
  batch-scores the whole candidate bag with one
  :class:`repro.policies.kernels.ScoreKernel` call, then *selects* rather
  than sorts: a budget-aware ``np.argpartition`` extracts the ``~C_j +
  overflow`` smallest keys and only that slice is exact-sorted into the
  probe stream.  The partition boundary key is remembered as a strict
  lower bound on every unmaterialized candidate; whenever the walk would
  pick an overlay-heap re-rank at or past that bound — or drains the
  slice with budget left — the cut widens geometrically and the next
  slice materializes.  The probe walk consumes the stream re-ranking
  siblings of captured EIs through an overlay heap with stale-entry
  invalidation — the same invariant the reference heap maintains, at
  ``O(A + k log k)`` per phase instead of ``O(A log A)``.

Pools can also be built from a pre-compiled
:class:`repro.sim.arena.InstanceArena` (``FastCandidatePool(arena=...)``)
which shares the immutable row/CEI columns and mirrors across every
policy run of one problem instance and skips the per-EI registration
walk entirely.

The two engines are interchangeable: for any deterministic policy they
produce bit-for-bit identical schedules, probe counts and completeness
(``tests/test_fastpath_equivalence.py`` enforces this across policies,
execution modes, cost models, push resources and capture semantics).  The
only exception is RANDOM, whose priority draws depend on candidate
iteration order; it stays seeded-reproducible per engine but the two
engines consume the RNG in different orders.  Policies without a batched
kernel run unchanged against this pool through the reference probe loop
(it only uses the public ``CandidatePool`` surface, which this class
implements in full).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

import numpy as np

from repro.core.errors import ModelError
from repro.core.intervals import ComplexExecutionInterval, ExecutionInterval
from repro.core.resource import ResourceId, ResourcePool
from repro.core.timebase import Chronon
from repro.policies.kernels import pack_keys

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.online.monitor import OnlineMonitor
    from repro.sim.arena import InstanceArena

_EPS = 1e-9

# Top-k phase selection knobs (module-level so tests and the speedup gate
# can force tiny cuts or disable selection wholesale).  The initial cut
# covers the picks the budget can possibly consume (each probe attempt
# costs at least the cheapest resource) plus TOPK_OVERFLOW extra rows to
# absorb walk skips — captured siblings, already-probed or backed-off
# resources — without widening; each widening multiplies the cut by
# TOPK_GROWTH.
TOPK_ENABLED = True
TOPK_OVERFLOW = 32
TOPK_GROWTH = 4


class FastCEIView:
    """Read-only capture state of one CEI (``state_of`` compatibility)."""

    __slots__ = ("cei", "captured_count", "satisfied", "failed", "cancelled")

    def __init__(
        self,
        cei: ComplexExecutionInterval,
        captured_count: int,
        satisfied: bool,
        failed: bool,
        cancelled: bool = False,
    ) -> None:
        self.cei = cei
        self.captured_count = captured_count
        self.satisfied = satisfied
        self.failed = failed
        self.cancelled = cancelled

    @property
    def residual(self) -> int:
        return max(0, self.cei.required - self.captured_count)

    @property
    def closed(self) -> bool:
        return self.failed or self.satisfied or self.cancelled


class FastCandidatePool:
    """Structure-of-arrays implementation of the candidate pool.

    Implements the same public surface as
    :class:`repro.online.candidates.CandidatePool` (including the
    :class:`repro.policies.base.MonitorView` protocol), so reference-path
    policies and the monitor's fallback ranking loop run against it
    unchanged, while the vectorized probe loop reads the columns directly.
    """

    def __init__(self, arena: Optional["InstanceArena"] = None) -> None:
        #: Mirror-capacity reallocations performed so far.  Growth is
        #: geometric (capacity doubling), so this stays O(log rows) for
        #: any registration stream — bench_micro's mirror-growth bench
        #: and tests/test_fastpath_equivalence.py guard the bound.
        self.mirror_reallocs = 0
        if arena is not None:
            self._init_from_arena(arena)
            return
        self._arena: Optional["InstanceArena"] = None
        self._registered: Optional[bytearray] = None
        # Row-level columns (one row per usable EI; Python side).
        self.row_seq: list[int] = []
        self.row_finish: list[int] = []
        self.row_resource: list[int] = []
        self.row_cidx: list[int] = []
        self.row_captured: list[bool] = []
        self._row_ei: list[ExecutionInterval] = []
        self.active_set: set[int] = set()
        # Authoritative bag mask, updated per activation/deactivation —
        # one np.flatnonzero extracts the whole bag per phase.
        self.np_active = np.zeros(256, bool)

        # CEI-level columns (Python side).
        self.cei_rank: list[int] = []
        self.cei_required: list[int] = []
        self.cei_captured: list[int] = []
        self.cei_weight: list[float] = []
        self.cei_satisfied: list[bool] = []
        self.cei_failed: list[bool] = []
        self.cei_cancelled: list[bool] = []
        self.cei_medf_s: list[int] = []
        self.cei_medf_open: list[int] = []
        self.cei_row_begin: list[int] = []
        self.cei_row_end: list[int] = []
        self._cei_obj: list[ComplexExecutionInterval] = []

        # NumPy mirrors consumed by the kernels and the lexsort.  Appended
        # entries sync in bulk; mutated CEIs sync from the dirty set.
        cap = 256
        self._row_cap = cap
        self.npr_seq = np.zeros(cap, np.int64)
        self.npr_finish = np.zeros(cap, np.int64)
        self.npr_finish_f = np.zeros(cap, np.float64)
        self.npr_resource = np.zeros(cap, np.int64)
        self.npr_cidx = np.zeros(cap, np.int64)
        # Static per-row tie-break key: finish * 2^21 + seq orders rows
        # exactly like the lexicographic (finish, seq) pair as long as both
        # components stay below 2^21 (_packable tracks this); one int64
        # column then replaces two lexsort key levels per phase.
        self.npr_static = np.zeros(cap, np.int64)
        self._synced_rows = 0
        self._max_seq = 0
        self._max_finish = 0
        self._packable = True
        ccap = 64
        self._cei_cap = ccap
        self.npc_rank_f = np.zeros(ccap, np.float64)
        self.npc_captured_f = np.zeros(ccap, np.float64)
        self.npc_weight = np.ones(ccap, np.float64)
        self.npc_medf_s_f = np.zeros(ccap, np.float64)
        self.npc_medf_open_f = np.zeros(ccap, np.float64)
        self._synced_ceis = 0
        self._dirty_ceis: set[int] = set()

        self._row_of_seq: dict[int, int] = {}
        self._cidx_of_cid: dict[int, int] = {}
        self._by_resource: dict[ResourceId, set[int]] = {}
        self._to_activate: dict[Chronon, list[int]] = {}
        self._to_expire: dict[Chronon, list[int]] = {}
        # EI seqs withdrawn by load shedding: deactivated for good but
        # still contributing to the M-EDF aggregates (the reference
        # sibling walk counts them too; see repro.online.shedding).
        self._released_seqs: set[int] = set()
        self._num_registered = 0
        self._num_satisfied = 0
        self._num_failed = 0
        self._num_cancelled = 0

    def _init_from_arena(self, arena: "InstanceArena") -> None:
        """Start a run from a compiled arena: share statics, copy state.

        The immutable structures (row/CEI columns, NumPy mirrors, seq and
        cid indexes) are *shared* with the arena — and therefore with
        every other pool built from it — and never written; only the
        per-run mutable state (captured flags, active masks, M-EDF
        aggregates, counters) is freshly allocated.  The mirrors arrive
        fully synced, so ``sync_mirrors`` reduces to the dirty-CEI patch.
        """
        self._arena = arena
        self._registered = bytearray(arena.n_ceis)
        n = arena.n_rows
        self.row_seq = arena.row_seq
        self.row_finish = arena.row_finish
        self.row_resource = arena.row_resource
        self.row_cidx = arena.row_cidx
        self._row_ei = arena.row_ei
        self.row_captured = [False] * n
        self.active_set = set()
        self.np_active = np.zeros(max(n, 1), bool)

        m = arena.n_ceis
        self.cei_rank = arena.cei_rank
        self.cei_required = arena.cei_required
        self.cei_weight = arena.cei_weight
        self.cei_captured = [0] * m
        self.cei_satisfied = [False] * m
        self.cei_failed = [False] * m
        self.cei_cancelled = [False] * m
        self.cei_medf_s = list(arena.cei_medf_s0)
        self.cei_medf_open = list(arena.cei_medf_open0)
        self.cei_row_begin = arena.cei_row_begin
        self.cei_row_end = arena.cei_row_end
        self._cei_obj = arena.cei_obj

        self._row_cap = max(n, 1)
        self.npr_seq = arena.npr_seq
        self.npr_finish = arena.npr_finish
        self.npr_finish_f = arena.npr_finish_f
        self.npr_resource = arena.npr_resource
        self.npr_cidx = arena.npr_cidx
        self.npr_static = arena.npr_static
        self._synced_rows = n
        self._max_seq = arena.max_seq
        self._max_finish = arena.max_finish
        self._packable = arena.packable
        self._cei_cap = max(m, 1)
        self.npc_rank_f = arena.npc_rank_f
        self.npc_weight = arena.npc_weight
        self.npc_captured_f = np.zeros(m, np.float64)
        self.npc_medf_s_f = np.asarray(arena.cei_medf_s0, np.float64)
        self.npc_medf_open_f = np.asarray(arena.cei_medf_open0, np.float64)
        self._synced_ceis = m
        self._dirty_ceis = set()

        self._row_of_seq = arena.row_of_seq
        self._cidx_of_cid = arena.cidx_of_cid
        self._by_resource = {}
        # Window events come from the arena's shared timelines (read
        # without popping); these stay empty.
        self._to_activate = {}
        self._to_expire = {}
        self._released_seqs = set()
        self._num_registered = 0
        self._num_satisfied = 0
        self._num_failed = 0
        self._num_cancelled = 0

    def adopt_arena(self, arena: "InstanceArena") -> None:
        """Absorb a patched generation of this pool's arena mid-run.

        ``apply_patch`` has already extended the shared Python containers
        in place (this pool references them directly, so its row/CEI
        columns have silently grown); what remains is the per-run state
        the patch cannot see: extend the captured flags, the per-run CEI
        columns (fresh CEIs start from their compiled ``*0`` aggregates)
        and the registration mask, and privatize the NumPy mirrors —
        the shared arrays belong to the arena and are sized to the *old*
        generation, so the next ``sync_mirrors`` would otherwise write
        out of their bounds (or into sibling pools' shared view).  All
        run state accumulated so far (captures, active bag, counters,
        released seqs) is untouched: adopting a patch is invisible to the
        schedule until the patched CEIs' arrival chronons are stepped.
        """
        old = self._arena
        if old is None:
            raise ModelError("only arena-backed pools can adopt a patched arena")
        if arena.cidx_of_cid is not old.cidx_of_cid:
            raise ModelError(
                "adopt_arena requires a patched generation of this pool's own "
                "arena (shared containers must be identical)"
            )
        # Grow when capacity is short, not only when the mirrors are still
        # the arena's shared arrays: after a cancel-only patch the pool's
        # ``_arena`` is a newer generation whose mirror objects differ,
        # so the identity test alone would skip privatization and leave
        # ``np_active``/``npr_*`` sized to the pre-churn row count.
        n = len(self.row_seq)
        if n > self._row_cap or (
            n > self._synced_rows and self.npr_seq is old.npr_seq
        ):
            self._grow_rows(n)
        m = len(self.cei_rank)
        if m > self._cei_cap or (
            m > self._synced_ceis and self.npc_rank_f is old.npc_rank_f
        ):
            self._grow_ceis(m)
        self.row_captured.extend([False] * (n - len(self.row_captured)))
        grown = m - len(self.cei_captured)
        if grown:
            self.cei_captured.extend([0] * grown)
            self.cei_satisfied.extend([False] * grown)
            self.cei_failed.extend([False] * grown)
            self.cei_cancelled.extend([False] * grown)
            self.cei_medf_s.extend(arena.cei_medf_s0[m - grown :])
            self.cei_medf_open.extend(arena.cei_medf_open0[m - grown :])
            assert self._registered is not None
            self._registered.extend(bytes(grown))
        self._arena = arena

    # ------------------------------------------------------------------
    # Mirror synchronization
    # ------------------------------------------------------------------

    def _grow_rows(self, needed: int) -> None:
        # Guard the doubling loop against a zero starting capacity (an
        # empty arena, or a pool whose caps were sized to a tiny
        # instance): 0 * 2 never reaches `needed`.
        cap = max(self._row_cap, 1)
        while cap < needed:
            cap *= 2
        for name in (
            "npr_seq",
            "npr_finish",
            "npr_finish_f",
            "npr_resource",
            "npr_cidx",
            "npr_static",
        ):
            old = getattr(self, name)
            new = np.zeros(cap, old.dtype)
            new[: self._synced_rows] = old[: self._synced_rows]
            setattr(self, name, new)
        # np_active is written at event time, not sync time: copy it whole.
        new_active = np.zeros(cap, bool)
        new_active[: len(self.np_active)] = self.np_active
        self.np_active = new_active
        self._row_cap = cap
        self.mirror_reallocs += 1

    def _grow_ceis(self, needed: int) -> None:
        # Same zero-capacity guard as _grow_rows.
        cap = max(self._cei_cap, 1)
        while cap < needed:
            cap *= 2
        for name in (
            "npc_rank_f",
            "npc_captured_f",
            "npc_weight",
            "npc_medf_s_f",
            "npc_medf_open_f",
        ):
            old = getattr(self, name)
            new = np.zeros(cap, old.dtype)
            new[: self._synced_ceis] = old[: self._synced_ceis]
            setattr(self, name, new)
        self._cei_cap = cap
        self.mirror_reallocs += 1

    def sync_mirrors(self) -> None:
        """Bring the NumPy mirrors up to date with the Python columns.

        Called by the probe loop before each batch score.  Cost is
        amortized O(1) per row/CEI plus O(1) per CEI mutated since the
        last sync.
        """
        n = len(self.row_seq)
        if self._synced_rows < n:
            if n > self._row_cap:
                self._grow_rows(n)
            a = self._synced_rows
            self.npr_seq[a:n] = self.row_seq[a:n]
            self.npr_finish[a:n] = self.row_finish[a:n]
            self.npr_finish_f[a:n] = self.npr_finish[a:n]
            self.npr_resource[a:n] = self.row_resource[a:n]
            self.npr_cidx[a:n] = self.row_cidx[a:n]
            self.npr_static[a:n] = self.npr_finish[a:n] * (1 << 21) + self.npr_seq[a:n]
            self._max_seq = max(self._max_seq, int(self.npr_seq[a:n].max()))
            self._max_finish = max(self._max_finish, int(self.npr_finish[a:n].max()))
            self._packable = self._max_seq < (1 << 21) and self._max_finish < (1 << 21)
            self._synced_rows = n
        m = len(self.cei_rank)
        if self._synced_ceis < m:
            if m > self._cei_cap:
                self._grow_ceis(m)
            a = self._synced_ceis
            self.npc_rank_f[a:m] = self.cei_rank[a:m]
            self.npc_captured_f[a:m] = self.cei_captured[a:m]
            self.npc_weight[a:m] = self.cei_weight[a:m]
            self.npc_medf_s_f[a:m] = self.cei_medf_s[a:m]
            self.npc_medf_open_f[a:m] = self.cei_medf_open[a:m]
            self._synced_ceis = m
        if self._dirty_ceis:
            for c in self._dirty_ceis:
                self.npc_captured_f[c] = self.cei_captured[c]
                self.npc_medf_s_f[c] = self.cei_medf_s[c]
                self.npc_medf_open_f[c] = self.cei_medf_open[c]
            self._dirty_ceis.clear()

    # ------------------------------------------------------------------
    # MonitorView protocol
    # ------------------------------------------------------------------

    def is_ei_captured(self, ei: ExecutionInterval) -> bool:
        """Has this EI been captured (proxy belief)?"""
        row = self._row_of_seq.get(ei.seq)
        return row is not None and self.row_captured[row]

    def captured_count(self, cei: ComplexExecutionInterval) -> int:
        """Captured-EI count of a candidate CEI (0 if unknown)."""
        cidx = self._cidx_of_cid.get(cei.cid)
        return self.cei_captured[cidx] if cidx is not None else 0

    def active_uncaptured_on(self, resource: ResourceId) -> int:
        """Number of active uncaptured candidate EIs on ``resource``."""
        return len(self._by_resource.get(resource, ()))

    # ------------------------------------------------------------------
    # Registration and activation
    # ------------------------------------------------------------------

    def register(
        self, cei: ComplexExecutionInterval, now: Chronon, collect: bool = True
    ) -> list[ExecutionInterval]:
        """Add a newly-revealed CEI; returns the EIs active immediately.

        With ``collect=False`` the returned list is always empty (the
        vectorized engine skips building it when no activation hook needs
        the objects).  Semantics otherwise match
        :meth:`repro.online.candidates.CandidatePool.register` exactly,
        including the dead-on-arrival rule for late submissions.

        Arena-backed pools replay the compiled registration instead of
        walking the EIs: activate the precomputed immediate rows, copy
        nothing.  They only accept the CEIs (and arrival chronons) the
        arena was compiled for.
        """
        arena = self._arena
        if arena is not None:
            cidx = arena.cidx_of_cid.get(cei.cid)
            if cidx is None:
                raise ModelError(
                    f"CEI {cei.cid} is not part of this pool's compiled arena"
                )
            registered = self._registered
            assert registered is not None
            if registered[cidx]:
                raise ModelError(f"CEI {cei.cid} registered twice")
            if now != arena.cei_release[cidx]:
                raise ModelError(
                    "arena-backed pools compile registration at the CEI's "
                    f"arrival chronon {arena.cei_release[cidx]}, got {now}"
                )
            registered[cidx] = 1
            self._num_registered += 1
            if arena.cei_failed0[cidx]:
                self.cei_failed[cidx] = True
                self._num_failed += 1
                return []
            rows = arena.immediate_rows[cidx]
            row_resource = self.row_resource
            for row in rows:
                self._activate_row(row, row_resource[row])
            if collect and rows:
                row_ei = self._row_ei
                return [row_ei[row] for row in rows]
            return []
        if cei.cid in self._cidx_of_cid:
            raise ModelError(f"CEI {cei.cid} registered twice")
        if len(self.row_seq) + len(cei.eis) > self._row_cap:
            self._grow_rows(len(self.row_seq) + len(cei.eis))
        cidx = len(self.cei_rank)
        self._cidx_of_cid[cei.cid] = cidx
        self._cei_obj.append(cei)
        self._num_registered += 1

        eis = cei.eis
        expired_on_arrival = sum(1 for ei in eis if ei.finish < now)
        alive = len(eis) - expired_on_arrival
        failed = alive < cei.required
        n_rows = len(self.row_seq)
        self.cei_rank.append(len(eis))
        self.cei_required.append(cei.required)
        self.cei_captured.append(0)
        self.cei_weight.append(cei.weight)
        self.cei_satisfied.append(False)
        self.cei_failed.append(failed)
        self.cei_cancelled.append(False)
        self.cei_row_begin.append(n_rows)
        if failed:
            # Dead on arrival (late submission): no rows materialize.
            self.cei_row_end.append(n_rows)
            self.cei_medf_s.append(0)
            self.cei_medf_open.append(0)
            self._num_failed += 1
            return []

        activated: list[ExecutionInterval] = []
        medf_s = 0
        medf_open = 0
        row_seq = self.row_seq
        seq_append = row_seq.append
        finish_append = self.row_finish.append
        resource_append = self.row_resource.append
        cidx_append = self.row_cidx.append
        captured_append = self.row_captured.append
        ei_append = self._row_ei.append
        row_of_seq = self._row_of_seq
        to_activate = self._to_activate
        to_expire = self._to_expire
        for ei in eis:
            finish = ei.finish
            if finish < now:
                # Unusable, but an uncaptured sibling for M-EDF purposes:
                # contributes finish - T + 1 like any open-window sibling.
                medf_s += finish + 1
                medf_open += 1
                continue
            row = len(row_seq)
            seq_append(ei.seq)
            finish_append(finish)
            resource_append(ei.resource)
            cidx_append(cidx)
            captured_append(False)
            ei_append(ei)
            row_of_seq[ei.seq] = row
            if ei.start <= now:
                self._activate_row(row, ei.resource)
                medf_s += finish + 1
                medf_open += 1
                if collect:
                    activated.append(ei)
            else:
                medf_s += finish - ei.start + 1
                to_activate.setdefault(ei.start, []).append(row)
            to_expire.setdefault(finish, []).append(row)
        self.cei_row_end.append(len(row_seq))
        self.cei_medf_s.append(medf_s)
        self.cei_medf_open.append(medf_open)
        return activated

    def _activate_row(self, row: int, resource: ResourceId) -> None:
        self.active_set.add(row)
        self.np_active[row] = True
        group = self._by_resource.get(resource)
        if group is None:
            group = set()
            self._by_resource[resource] = group
        group.add(row)

    def _deactivate_row(self, row: int, resource: ResourceId) -> None:
        self.active_set.discard(row)
        self.np_active[row] = False
        group = self._by_resource.get(resource)
        if group is not None:
            group.discard(row)

    def open_windows(self, now: Chronon, collect: bool = True) -> list[ExecutionInterval]:
        """Activate every EI whose window opens at ``now``; returns them."""
        if self._arena is not None:
            # Shared timeline, read without popping (sibling pools of the
            # same arena replay it too).
            rows = self._arena.activate_at.get(now)
        else:
            rows = self._to_activate.pop(now, None)
        opened: list[ExecutionInterval] = []
        if rows is None:
            return opened
        registered = self._registered
        released = self._released_seqs
        for row in rows:
            cidx = self.row_cidx[row]
            if registered is not None and not registered[cidx]:
                continue  # compiled timeline row of a never-revealed CEI
            if (
                self.cei_satisfied[cidx]
                or self.cei_failed[cidx]
                or self.cei_cancelled[cidx]
            ):
                continue  # parent died or was satisfied while pending
            if self.row_captured[row]:
                continue
            ei = self._row_ei[row]
            if released and ei.seq in released:
                # Shed away while pending: never activates, but the
                # M-EDF move below must still happen — the reference
                # sibling walk switches a released sibling from its
                # future form to the open form at `start` like any
                # other uncaptured sibling.
                self.cei_medf_s[cidx] += ei.start
                self.cei_medf_open[cidx] += 1
                self._dirty_ceis.add(cidx)
                continue
            self._activate_row(row, ei.resource)
            # M-EDF bucket move, future -> open: the sibling's width
            # |I| becomes finish + 1 (the -T term arrives via n_open).
            self.cei_medf_s[cidx] += ei.start
            self.cei_medf_open[cidx] += 1
            self._dirty_ceis.add(cidx)
            if collect:
                opened.append(ei)
        return opened

    # ------------------------------------------------------------------
    # Capture and expiry
    # ------------------------------------------------------------------

    def _capture_row(self, row: int, cidx: int, ei: ExecutionInterval) -> None:
        """Mark one active row captured and update the CEI aggregates."""
        self._deactivate_row(row, ei.resource)
        self.row_captured[row] = True
        self.cei_captured[cidx] += 1
        self.cei_medf_s[cidx] -= ei.finish + 1
        self.cei_medf_open[cidx] -= 1
        self._dirty_ceis.add(cidx)
        if not self.cei_satisfied[cidx] and (
            self.cei_captured[cidx] >= self.cei_required[cidx]
        ):
            self.cei_satisfied[cidx] = True
            self._num_satisfied += 1

    def capture_resource_rows(
        self, resource: ResourceId, skip: frozenset[int] = frozenset()
    ) -> list[int]:
        """Vectorized-engine capture: probe ``resource``, return touched CEIs.

        ``skip`` holds EI *seqs* dropped by a partial per-EI fault verdict:
        their rows stay active and uncaptured.  The return value lists the
        CEI *index* of every captured row (with repeats, matching the
        reference's touched list) so the probe loop can re-rank siblings
        without materializing objects.
        """
        group = self._by_resource.get(resource)
        if not group:
            return []
        touched: list[int] = []
        row_seq = self.row_seq
        for row in list(group):
            if skip and row_seq[row] in skip:
                continue
            cidx = self.row_cidx[row]
            self._capture_row(row, cidx, self._row_ei[row])
            touched.append(cidx)
        for cidx in touched:
            if self.cei_satisfied[cidx]:
                self._drop_remaining_rows(cidx)
        return touched

    def capture_single_row(self, row: int) -> list[int]:
        """Overlap-ablation capture of exactly one row; returns touched CEIs."""
        if row not in self.active_set:
            return []
        cidx = self.row_cidx[row]
        self._capture_row(row, cidx, self._row_ei[row])
        if self.cei_satisfied[cidx]:
            self._drop_remaining_rows(cidx)
        return [cidx]

    def capture_resource(
        self,
        resource: ResourceId,
        now: Chronon,
        skip: frozenset[int] = frozenset(),
    ) -> tuple[list[ExecutionInterval], list[ComplexExecutionInterval]]:
        """Object-level capture API (reference-path compatibility)."""
        group = self._by_resource.get(resource)
        if not group:
            return [], []
        row_seq = self.row_seq
        captured = [
            self._row_ei[row]
            for row in group
            if not skip or row_seq[row] not in skip
        ]
        touched = [
            self._cei_obj[cidx]
            for cidx in self.capture_resource_rows(resource, skip)
        ]
        return captured, touched

    def capture_single(
        self, ei: ExecutionInterval
    ) -> tuple[list[ExecutionInterval], list[ComplexExecutionInterval]]:
        """Capture exactly one EI (the overlap-exploitation ablation)."""
        row = self._row_of_seq.get(ei.seq)
        if row is None or row not in self.active_set:
            return [], []
        touched = [self._cei_obj[cidx] for cidx in self.capture_single_row(row)]
        return [ei], touched

    def _drop_remaining_rows(self, cidx: int) -> None:
        """Deactivate every still-active row of a closed CEI."""
        for row in range(self.cei_row_begin[cidx], self.cei_row_end[cidx]):
            if row in self.active_set:
                self._deactivate_row(row, self.row_resource[row])

    def close_windows(self, now: Chronon, collect: bool = True) -> list[ExecutionInterval]:
        """End-of-chronon expiry (Algorithm 1, lines 20-27)."""
        if self._arena is not None:
            rows = self._arena.expire_at.get(now)
        else:
            rows = self._to_expire.pop(now, None)
        expired: list[ExecutionInterval] = []
        if rows is None:
            return expired
        registered = self._registered
        released = self._released_seqs
        row_seq = self.row_seq
        for row in rows:
            cidx = self.row_cidx[row]
            if registered is not None and not registered[cidx]:
                continue  # compiled timeline row of a never-revealed CEI
            if (
                self.cei_satisfied[cidx]
                or self.cei_failed[cidx]
                or self.cei_cancelled[cidx]
            ):
                continue
            if self.row_captured[row]:
                continue
            if released and row_seq[row] in released:
                continue  # shed away: spectral, no expiry event
            if row in self.active_set:
                self._deactivate_row(row, self.row_resource[row])
            if collect:
                expired.append(self._row_ei[row])
            if self._cannot_satisfy(cidx, now):
                self.cei_failed[cidx] = True
                self._num_failed += 1
                self._drop_remaining_rows(cidx)
        return expired

    def _cannot_satisfy(self, cidx: int, now: Chronon) -> bool:
        """Can the CEI still reach its required capture count after ``now``?

        Counts captures plus uncaptured siblings whose window is still open
        past ``now`` — siblings expiring *this* chronon are already
        unusable, exactly like the reference pool's scan.
        """
        usable = self.cei_captured[cidx]
        row_captured = self.row_captured
        row_finish = self.row_finish
        released = self._released_seqs
        if released:
            row_seq = self.row_seq
            for row in range(self.cei_row_begin[cidx], self.cei_row_end[cidx]):
                if (
                    not row_captured[row]
                    and row_finish[row] > now
                    and row_seq[row] not in released
                ):
                    usable += 1
        else:
            for row in range(self.cei_row_begin[cidx], self.cei_row_end[cidx]):
                if not row_captured[row] and row_finish[row] > now:
                    usable += 1
        return usable < self.cei_required[cidx]

    # ------------------------------------------------------------------
    # Load shedding (repro.online.shedding)
    # ------------------------------------------------------------------

    def is_ei_released(self, ei: ExecutionInterval) -> bool:
        """Was this EI withdrawn by load shedding?"""
        return ei.seq in self._released_seqs

    def release_ei(self, ei: ExecutionInterval) -> bool:
        """Withdraw one uncaptured EI from the probe-able bag for good.

        Pure deactivation: the M-EDF aggregates are *not* adjusted,
        because the reference sibling walk keeps counting a released
        sibling exactly like an uncaptured one (only captures subtract).
        Pending released rows get their future->open aggregate move at
        window opening without activating.  Semantics otherwise match
        :meth:`repro.online.candidates.CandidatePool.release_ei`.
        """
        row = self._row_of_seq.get(ei.seq)
        if row is None:
            return False  # expired on arrival: never materialized
        cidx = self.row_cidx[row]
        if self._registered is not None and not self._registered[cidx]:
            return False
        if (
            self.cei_satisfied[cidx]
            or self.cei_failed[cidx]
            or self.cei_cancelled[cidx]
        ):
            return False
        if self.row_captured[row]:
            return False
        if ei.seq in self._released_seqs:
            return False
        self._released_seqs.add(ei.seq)
        if row in self.active_set:
            self._deactivate_row(row, self.row_resource[row])
        return True

    def shed_cei(self, cei: ComplexExecutionInterval) -> bool:
        """Evict one whole open CEI (counted as failed; rows dropped)."""
        cidx = self._cidx_of_cid.get(cei.cid)
        if cidx is None:
            return False
        if self._registered is not None and not self._registered[cidx]:
            return False
        if (
            self.cei_satisfied[cidx]
            or self.cei_failed[cidx]
            or self.cei_cancelled[cidx]
        ):
            return False
        self.cei_failed[cidx] = True
        self._num_failed += 1
        self._drop_remaining_rows(cidx)
        return True

    def cancel_cei(self, cei: ComplexExecutionInterval) -> bool:
        """Withdraw one open CEI at its client's request (mid-flight churn).

        Like :meth:`shed_cei` the remaining rows leave the candidate bag
        for good, but the CEI is accounted as *cancelled*, not failed:
        it leaves ``num_open`` without touching the failure counters, so
        completeness over the surviving workload is unaffected by clients
        walking away.  Returns False when the CEI is unknown, never
        registered, or already closed.
        """
        cidx = self._cidx_of_cid.get(cei.cid)
        if cidx is None:
            return False
        if self._registered is not None and not self._registered[cidx]:
            return False
        if (
            self.cei_satisfied[cidx]
            or self.cei_failed[cidx]
            or self.cei_cancelled[cidx]
        ):
            return False
        self.cei_cancelled[cidx] = True
        self._num_cancelled += 1
        self._drop_remaining_rows(cidx)
        return True

    def open_cei_objects(self) -> list[ComplexExecutionInterval]:
        """Open (registered, not closed) CEIs in registration order."""
        registered = self._registered
        return [
            self._cei_obj[cidx]
            for cidx in range(len(self.cei_rank))
            if (registered is None or registered[cidx])
            and not self.cei_satisfied[cidx]
            and not self.cei_failed[cidx]
            and not self.cei_cancelled[cidx]
        ]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def pushable_resources(self, resources: ResourcePool) -> list[ResourceId]:
        """Push-enabled resources currently holding active candidate EIs."""
        return [
            rid
            for rid, group in self._by_resource.items()
            if group and rid in resources and resources[rid].push_enabled
        ]

    def active_seqs_on(self, resource: ResourceId) -> list[int]:
        """Sorted seqs of the active candidate EIs on ``resource``.

        Sorted so per-EI fault verdicts (one uniform draw per seq, in
        order) match the reference pool's regardless of set iteration
        order.
        """
        group = self._by_resource.get(resource)
        if not group:
            return []
        row_seq = self.row_seq
        return sorted(row_seq[row] for row in group)

    def active_eis(self) -> Iterator[ExecutionInterval]:
        """All currently active, uncaptured candidate EIs (the probe pool)."""
        row_ei = self._row_ei
        for row in self.active_set:
            yield row_ei[row]

    def num_active(self) -> int:
        """Size of the active candidate EI bag."""
        return len(self.active_set)

    def is_active(self, ei: ExecutionInterval) -> bool:
        """Is this exact EI currently probe-able?"""
        row = self._row_of_seq.get(ei.seq)
        return row is not None and row in self.active_set

    def state_of(self, cei: ComplexExecutionInterval) -> Optional[FastCEIView]:
        """Capture state of a registered CEI (None if never registered)."""
        cidx = self._cidx_of_cid.get(cei.cid)
        if cidx is None:
            return None
        return FastCEIView(
            cei=cei,
            captured_count=self.cei_captured[cidx],
            satisfied=self.cei_satisfied[cidx],
            failed=self.cei_failed[cidx],
            cancelled=self.cei_cancelled[cidx],
        )

    def split_by_prior_capture(
        self, eis: Iterable[ExecutionInterval]
    ) -> tuple[list[ExecutionInterval], list[ExecutionInterval]]:
        """Partition candidates into ``cands+`` / ``cands-`` (Algorithm 1)."""
        plus: list[ExecutionInterval] = []
        minus: list[ExecutionInterval] = []
        for ei in eis:
            cei = ei.parent
            assert cei is not None
            if self.cei_captured[self._cidx_of_cid[cei.cid]] > 0:
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


# ----------------------------------------------------------------------
# The vectorized probeEIs loop
# ----------------------------------------------------------------------


def run_fast_phases(
    monitor: "OnlineMonitor",
    chronon: Chronon,
    budget_left: float,
    probed: set[ResourceId],
) -> float:
    """Spend one chronon's budget on the candidate bag, vectorized.

    Handles both execution modes: preemptive ranks the whole bag at once;
    non-preemptive splits it into ``cands+`` / ``cands-`` by prior capture
    and spends leftover budget on the minus partition, exactly like the
    reference path.
    """
    pool: FastCandidatePool = monitor.pool
    if not pool.active_set:
        return budget_left
    pool.sync_mirrors()
    rows = np.flatnonzero(pool.np_active[: len(pool.row_seq)])
    if monitor.preemptive:
        # One phase over the whole bag: sibling refreshes never need a
        # phase-membership check (any active sibling is in the phase).
        return _fast_phase(monitor, rows, chronon, budget_left, probed, whole_bag=True)
    in_plus = pool.npc_captured_f[pool.npr_cidx[rows]] > 0
    plus = rows[in_plus]
    if plus.size:
        budget_left = _fast_phase(monitor, plus, chronon, budget_left, probed)
    if budget_left > _EPS:
        minus = rows[~in_plus]
        # Plus-phase overlap captures may have consumed minus rows.
        minus = minus[pool.np_active[minus]]
        if minus.size:
            budget_left = _fast_phase(monitor, minus, chronon, budget_left, probed)
    return budget_left


class _LocalStream:
    """Lazily-materialized sorted key stream over one phase partition.

    The stream plays the role of the reference heap's initial contents:
    ``sp``/``sr`` hold the materialized ``(priority, row)`` prefix in
    exact ``(priority, finish, seq)`` order, ``bound`` is a lower bound
    on every unmaterialized key (materialized keys lie strictly below
    it), and :meth:`widen` materializes the next geometric slice.  The
    concatenated slices are element-for-element the full lexsorted
    stream — keys never tie across a cut: packed keys are unique, float
    cuts absorb all boundary-priority ties — so the probe walk is
    oblivious to how much of it exists.

    :func:`_phase_walk` consumes this interface; the sharded engine
    (:mod:`repro.online.sharded`) supplies a merge-across-workers
    implementation of the same ``sp``/``sr``/``bound``/``exhausted``/
    ``widen`` surface.
    """

    __slots__ = (
        "sp",
        "sr",
        "bound",
        "_pool",
        "_rows",
        "_prio",
        "_packed_keys",
        "_static",
        "_remaining",
        "_next_cut",
    )

    def __init__(
        self,
        pool: FastCandidatePool,
        kernel,
        rows: np.ndarray,
        chronon: Chronon,
        budget_left: float,
        min_probe_cost: float,
    ) -> None:
        self._pool = pool
        self._rows = rows
        cidx = pool.npr_cidx[rows]
        prio = kernel.score_rows(pool, rows, cidx, chronon)
        self._prio = prio
        packed_keys = None
        static = None
        if pool._packable:
            static = pool.npr_static[rows]
            if kernel.integer_valued and float(np.abs(prio).max()) < float(1 << 20):
                # Integer priorities small enough to share an int64 with
                # the static key: keys are then unique (seq is), so any
                # slice is ordered by one plain argsort.
                packed_keys = pack_keys(prio, static)
        self._packed_keys = packed_keys
        self._static = static

        n = int(rows.size)
        self.sp: list[float] = []  # materialized priorities, sorted
        self.sr: list[int] = []  # materialized rows, sorted
        self._remaining: Optional[np.ndarray] = np.arange(n)
        self.bound: Optional[tuple] = None
        if TOPK_ENABLED:
            # Picks this phase can make: every probe attempt costs at
            # least the cheapest resource; the overflow absorbs walk
            # skips (captured siblings, probed or backed-off resources).
            cut = int(budget_left / min_probe_cost) + 1 + TOPK_OVERFLOW
            if 2 * cut >= n:
                cut = n  # partitioning would not pay for itself
        else:
            cut = n
        self._materialize(cut)
        self._next_cut = max(cut, 1) * TOPK_GROWTH

    @property
    def exhausted(self) -> bool:
        """Is every key of the partition materialized into ``sp``/``sr``?"""
        return self._remaining is None

    def widen(self) -> None:
        """Materialize the next geometric slice of the stream."""
        self._materialize(self._next_cut)
        self._next_cut *= TOPK_GROWTH

    def _slice_order(self, sel: np.ndarray) -> np.ndarray:
        """Exact (priority, finish, seq) order of one selected slice."""
        if self._packed_keys is not None:
            return sel[np.argsort(self._packed_keys[sel])]
        prio = self._prio
        if self._static is not None:
            return sel[np.lexsort((self._static[sel], prio[sel]))]
        pool = self._pool
        sub = self._rows[sel]
        return sel[np.lexsort((pool.npr_seq[sub], pool.npr_finish[sub], prio[sel]))]

    def _materialize(self, count: int) -> None:
        """Append the ``count`` smallest unmaterialized keys to the stream."""
        rem = self._remaining
        assert rem is not None
        prio = self._prio
        rows = self._rows
        if count >= rem.size:
            chosen = self._slice_order(rem)
            self._remaining = None
            self.bound = None
        elif self._packed_keys is not None:
            part = np.argpartition(self._packed_keys[rem], count)
            chosen = self._slice_order(rem[part[:count]])
            # Unique keys: the boundary element is the exact minimum of
            # the remainder, and every selected key is strictly below it.
            b = int(rem[part[count]])
            brow = int(rows[b])
            pool = self._pool
            self.bound = (float(prio[b]), pool.row_finish[brow], pool.row_seq[brow])
            self._remaining = rem[part[count:]]
        else:
            # Float keys may tie on priority: absorb every row tied with
            # the boundary value into the slice so the priority-only
            # bound stays a *strict* lower bound on the remainder.
            rem_prio = prio[rem]
            part = np.argpartition(rem_prio, count)
            cut_value = rem_prio[part[count]]
            mask = rem_prio <= cut_value
            chosen = self._slice_order(rem[mask])
            rest = rem[~mask]
            if rest.size:
                self.bound = (float(prio[rest].min()),)
                self._remaining = rest
            else:
                self.bound = None
                self._remaining = None
        self.sp.extend(prio[chosen].tolist())
        self.sr.extend(rows[chosen].tolist())


def _fast_phase(
    monitor: "OnlineMonitor",
    rows: np.ndarray,
    chronon: Chronon,
    budget_left: float,
    probed: set[ResourceId],
    whole_bag: bool = False,
) -> float:
    """One candidate partition: batch-score, top-k select, walk, refresh."""
    if rows.size == 0:
        return budget_left
    pool: FastCandidatePool = monitor.pool
    kernel = monitor._kernel
    assert kernel is not None
    pool.sync_mirrors()
    stream = _LocalStream(
        pool, kernel, rows, chronon, budget_left, monitor._min_probe_cost
    )
    # Phase membership covers the *whole* partition, not just the
    # materialized slice — an unmaterialized row's fresh key must reach
    # the overlay like any other sibling's.  Built lazily by the walk
    # (only if a sibling refresh actually fires); None when the phase
    # spans the whole bag, where active implies in-phase.
    membership = None if whole_bag else (lambda: set(rows.tolist()))
    return _phase_walk(monitor, chronon, budget_left, probed, stream, membership)


def _phase_walk(
    monitor: "OnlineMonitor",
    chronon: Chronon,
    budget_left: float,
    probed: set[ResourceId],
    stream,
    membership_factory,
) -> float:
    """The budget walk over one phase's sorted candidate stream.

    ``stream`` supplies the materialized sorted prefix (``sp``/``sr``),
    the lower ``bound`` on unmaterialized keys, and ``widen()`` —
    either a :class:`_LocalStream` or the sharded merge stream.
    Sibling refreshes push fresh keys onto a small overlay heap and
    invalidate the row's stream entry (the ``dirty`` set), so at every
    pick the chosen EI minimizes the *current* ``(priority, finish,
    seq)`` key over eligible candidates — the same invariant the
    reference heap maintains with stale-entry skipping.  The widening
    invariant: a pick is only trusted when its key is provably below
    ``bound``; stream keys always are, overlay keys at or past the
    bound force the cut to widen geometrically until the comparison is
    decisive.

    ``membership_factory`` builds the phase-membership container for
    sibling refreshes on first use (any object supporting ``in``); None
    means the phase spans the whole bag and needs no check.
    """
    pool: FastCandidatePool = monitor.pool
    policy = monitor.policy
    kernel = monitor._kernel
    resources = monitor.resources
    schedule = monitor.schedule

    faults = monitor._faults
    retry_partials = monitor._retry_partials
    reprobe = monitor._partial_retry_ok
    row_finish = pool.row_finish
    row_seq = pool.row_seq
    sp = stream.sp  # aliases: widen() extends these lists in place
    sr = stream.sr

    active = pool.active_set
    row_resource = pool.row_resource
    uniform = resources is None
    sensitive = monitor._sibling_sensitive
    probe_hook = monitor._wants_probe_hook
    exploit_overlap = monitor.exploit_overlap
    si = 0
    overlay: list[tuple] = []  # (priority, finish, seq, row, resource)
    cur: dict[int, tuple] = {}  # row -> freshest key among refreshed rows
    dirty: set[int] = set()  # rows whose stream entry was superseded
    in_phase = None  # any object supporting ``row in in_phase``

    while budget_left > _EPS:
        # Advance past permanently-invalid stream entries (captured or
        # expired rows, resources already probed or fault-ineligible,
        # refreshed rows whose fresh key lives in the overlay), widening
        # the cut whenever the materialized slice drains with rows left.
        row = -1
        rid = -1
        stream_ready = False
        while True:
            while si < len(sr):
                row = sr[si]
                if row in dirty or row not in active:
                    si += 1
                    continue
                rid = row_resource[row]
                if rid in probed and rid not in reprobe:
                    si += 1
                    continue
                if faults is not None and not faults.available(rid, chronon):
                    si += 1
                    continue
                stream_ready = True
                break
            if stream_ready or stream.exhausted:
                break
            stream.widen()
        # Drop stale / ineligible overlay entries.
        while overlay:
            entry = overlay[0]
            orow = entry[3]
            if (
                cur.get(orow) != (entry[0], entry[1], entry[2])
                or orow not in active
                or (entry[4] in probed and entry[4] not in reprobe)
                or (faults is not None and not faults.available(entry[4], chronon))
            ):
                heapq.heappop(overlay)
                continue
            break
        key = None
        if stream_ready and (
            not overlay
            or (sp[si], row_finish[row], row_seq[row]) <= overlay[0][:3]
        ):
            # Stream picks are always safe: materialized keys lie
            # strictly below `bound`, hence below every key not yet seen.
            from_stream = True
            if faults is not None:
                key = (sp[si], row_finish[row], row_seq[row])
        elif overlay:
            entry = overlay[0]
            bound = stream.bound
            if bound is not None and not (entry[:3] < bound):
                # A not-yet-materialized candidate may beat this
                # re-ranked key: widen until the comparison is decisive.
                stream.widen()
                continue
            row, rid = entry[3], entry[4]
            key = entry[:3]
            from_stream = False
        else:
            break  # phase exhausted

        cost = 1.0 if uniform else resources.probe_cost(rid)
        if cost > budget_left + _EPS:
            if uniform:
                # Unit costs: the budget is spent for this phase.
                break
            # Heterogeneous costs: cheaper candidates may still fit; this
            # entry can never fit later (budget only shrinks), drop it.
            if from_stream:
                si += 1
            else:
                heapq.heappop(overlay)
            continue

        if from_stream:
            si += 1
        else:
            heapq.heappop(overlay)
        budget_left -= cost
        monitor._probes_used += 1
        monitor._charge(rid, chronon, cost)
        if faults is not None and not faults.attempt(rid, chronon):
            # Failed probe: budget spent, nothing captured, no schedule
            # entry.  A permitted retry re-enters via the overlay with its
            # unchanged key — the same re-ranked-retry the reference heap
            # performs.
            if faults.can_retry(rid):
                cur[row] = key
                dirty.add(row)
                heapq.heappush(overlay, key + (row, rid))
            continue
        schedule.add_probe(rid, chronon)
        probed.add(rid)
        if probe_hook:
            policy.on_probe(rid, chronon)
        skip = monitor._partial_drops(rid, chronon)
        if exploit_overlap:
            touched = pool.capture_resource_rows(rid, skip)
        elif row_seq[row] in skip:
            # Per-EI verdict dropped exactly the selected EI.
            touched = []
        else:
            touched = pool.capture_single_row(row)
        retry_partial = (
            retry_partials and skip and faults is not None and faults.can_retry(rid)
        )
        if retry_partial:
            reprobe.add(rid)
        else:
            reprobe.discard(rid)
        pre = cur.get(row)
        if sensitive and touched and budget_left > _EPS:
            # (Skipped once the budget is spent: the refresh only feeds
            # later picks of this same phase, so it cannot change the
            # schedule — the reference loop does the work and discards it.)
            if in_phase is None and membership_factory is not None:
                in_phase = membership_factory()
            _refresh_siblings_fast(
                pool, kernel, touched, chronon, in_phase, probed, overlay, cur,
                dirty, reprobe,
            )
        if retry_partial and row in active:
            post = cur.get(row)
            if post is None or post == pre:
                # The chosen row itself was dropped and the sibling
                # refresh left its key unchanged: re-arm the consumed
                # entry via the overlay so it competes for a re-probe —
                # mirroring the reference heap's re-push.
                cur[row] = key
                dirty.add(row)
                heapq.heappush(overlay, key + (row, rid))
    return budget_left


def _refresh_siblings_fast(
    pool: FastCandidatePool,
    kernel,
    touched: list[int],
    chronon: Chronon,
    in_phase,
    probed: set[ResourceId],
    overlay: list[tuple],
    cur: dict[int, tuple],
    dirty: set[int],
    reprobe: set[ResourceId] = frozenset(),
) -> None:
    """Re-rank still-active siblings of CEIs whose state just changed.

    ``in_phase`` is None when the phase spans the whole bag (preemptive
    mode): there, membership needs no check because active implies
    in-phase.
    """
    active = pool.active_set
    row_finish = pool.row_finish
    row_seq = pool.row_seq
    row_resource = pool.row_resource
    row_dependent = kernel.row_dependent
    for cidx in touched:
        if (
            pool.cei_satisfied[cidx]
            or pool.cei_failed[cidx]
            or pool.cei_cancelled[cidx]
        ):
            continue  # closed CEIs left the candidate bag entirely
        # Row-dependent kernels (expected-gain: sibling rows on different
        # resources score differently) re-score per row; the rest score
        # once per CEI.
        fresh = None if row_dependent else kernel.score_cei(pool, cidx, chronon)
        for row in range(pool.cei_row_begin[cidx], pool.cei_row_end[cidx]):
            if row not in active:
                continue
            if in_phase is not None and row not in in_phase:
                continue
            rid = row_resource[row]
            if rid in probed and rid not in reprobe:
                continue
            score = (
                kernel.score_row(pool, row, cidx, chronon) if row_dependent else fresh
            )
            key = (score, row_finish[row], row_seq[row])
            if cur.get(row) != key:
                cur[row] = key
                dirty.add(row)
                heapq.heappush(overlay, key + (row, rid))


def run_fast_span(monitor: "OnlineMonitor", t0: Chronon, t1: Chronon) -> None:
    """Probe every chronon of the event-free span ``[t0, t1)`` in one call.

    The batched-stepping fast path for ``monitor.run``: when no window
    opens, no window expires and no CEI arrives anywhere in ``[t0, t1)``,
    the candidate bag only changes through this walk's own captures — so
    the whole span can be scored *once* at ``t0`` and consumed chronon by
    chronon from the same sorted stream.  The caller guarantees the gates
    (see ``OnlineMonitor._run_batched``): preemptive mode, overlap
    exploitation on, uniform probe costs, no faults, no probe hook, and a
    :attr:`repro.policies.kernels.ScoreKernel.shift_invariant` kernel.
    That last gate is what licenses cross-chronon key reuse: either the
    scores are chronon-free (MRSF family — so re-ranked sibling keys from
    a later slot compare exactly against span-start stream keys), or the
    policy is not sibling-sensitive and every score shifts by the same
    per-chronon constant (S-EDF), preserving the stream order.

    Per slot the walk replays the exact single-chronon semantics: a fresh
    budget and probed set, the stream rescanned from the top (entries
    skipped only because their resource was probed *this* slot become
    eligible again), and overlay entries blocked only by the probed set
    are *deferred* to the next slot instead of dropped.  Sibling
    refreshes run even with the slot's budget spent — unlike the
    single-phase walk, their fresh keys feed the later slots of the span.
    """
    pool: FastCandidatePool = monitor.pool
    kernel = monitor._kernel
    schedule = monitor.schedule
    budget = monitor.budget
    assert kernel is not None and kernel.shift_invariant
    pool.sync_mirrors()
    rows = np.flatnonzero(pool.np_active[: len(pool.row_seq)])
    if rows.size == 0:
        monitor._clock = t1 - 1
        return
    cidx = pool.npr_cidx[rows]
    prio = kernel.score_rows(pool, rows, cidx, t0)
    # Materialize the full sorted stream up front (no top-k cut: the span
    # replays it once per slot, and a budget-sized cut would have to be
    # sized for the whole span anyway).
    if pool._packable:
        static = pool.npr_static[rows]
        if kernel.integer_valued and float(np.abs(prio).max()) < float(1 << 20):
            order = np.argsort(pack_keys(prio, static))
        else:
            order = np.lexsort((static, prio))
    else:
        order = np.lexsort((pool.npr_seq[rows], pool.npr_finish[rows], prio))
    sp = prio[order].tolist()
    sr = rows[order].tolist()

    active = pool.active_set
    row_finish = pool.row_finish
    row_seq = pool.row_seq
    row_resource = pool.row_resource
    sensitive = monitor._sibling_sensitive
    no_probed: frozenset[ResourceId] = frozenset()
    overlay: list[tuple] = []  # (priority, finish, seq, row, resource)
    cur: dict[int, tuple] = {}  # row -> freshest key among refreshed rows
    dirty: set[int] = set()  # rows whose stream entry was superseded
    deferred: list[tuple] = []  # overlay entries blocked only by `probed`

    for t in range(t0, t1):
        if not active:
            break
        monitor._clock = t
        budget_left = budget.at(t)
        probed: set[ResourceId] = set()
        si = 0
        if deferred:
            # Their resources are probe-able again now the slot rolled.
            for entry in deferred:
                heapq.heappush(overlay, entry)
            deferred = []
        while budget_left > _EPS:
            if 1.0 > budget_left + _EPS:
                break  # uniform costs: the slot's budget is spent
            row = -1
            rid = -1
            stream_ready = False
            while si < len(sr):
                row = sr[si]
                if row in dirty or row not in active:
                    si += 1
                    continue
                rid = row_resource[row]
                if rid in probed:
                    si += 1  # per-slot skip; si resets at the next slot
                    continue
                stream_ready = True
                break
            while overlay:
                entry = overlay[0]
                orow = entry[3]
                if (
                    cur.get(orow) != (entry[0], entry[1], entry[2])
                    or orow not in active
                ):
                    heapq.heappop(overlay)
                    continue
                if entry[4] in probed:
                    # Ineligible only this slot: defer, don't drop.
                    deferred.append(heapq.heappop(overlay))
                    continue
                break
            if stream_ready and (
                not overlay
                or (sp[si], row_finish[row], row_seq[row]) <= overlay[0][:3]
            ):
                si += 1
            elif overlay:
                entry = heapq.heappop(overlay)
                row, rid = entry[3], entry[4]
            else:
                break  # bag exhausted for this slot
            budget_left -= 1.0
            monitor._probes_used += 1
            monitor._charge(rid, t, 1.0)
            schedule.add_probe(rid, t)
            probed.add(rid)
            touched = pool.capture_resource_rows(rid)
            if sensitive and touched:
                # Empty probed set on purpose: a probed-resource sibling
                # still needs its fresh key, or its stale stream entry
                # would rank it wrongly at the next slot.
                _refresh_siblings_fast(
                    pool, kernel, touched, t, None, no_probed, overlay, cur, dirty
                )
    monitor._clock = t1 - 1
