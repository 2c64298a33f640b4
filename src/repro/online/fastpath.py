"""Vectorized fast path for the online monitor.

The reference engine (:class:`repro.online.candidates.CandidatePool` plus
the heap in ``OnlineMonitor._probe_phase``) pays the paper's ``O(A log A)``
chronon bound in pure-Python ``sort_key`` calls.  This module provides the
``engine="vectorized"`` alternative:

* :class:`FastCandidatePool` — a structure-of-arrays mirror of the
  candidate state over a compiled
  :class:`repro.sim.arena.InstanceArena`.  Every usable execution
  interval of every compiled CEI occupies one row (rows of one CEI are
  contiguous), and per-CEI state (rank, captured count, the M-EDF
  aggregates) lives in parallel CEI-level columns.  Each column exists
  twice: a plain-Python list, and a NumPy mirror (``npr_*`` row
  columns, ``npc_*`` CEI columns) that the scoring kernels and the
  ``lexsort`` consume.  The static columns, the activation/expiry
  timelines and the per-resource row index belong to the arena; only
  its compile walk (``repro.sim.arena._register_cei``) appends rows.
  The pool holds the per-run state the events write (window events,
  captures).  Mirrors are synchronized lazily at phase start: appended
  rows/CEIs by bulk slice assignment, mutated CEIs from a dirty set.
  The candidate bag has one record, the ``np_active`` row mask (scalar
  paths use a byte ``memoryview`` of it, plus an exact count); the rows
  on one resource are every row ever placed there, filtered by the mask.
* Batched bookkeeping — an event touching few rows is handled row by
  row, where NumPy's per-call cost would exceed the work.  A window
  event, arrival batch or capture of at least ``BATCH_CUTOVER`` rows
  (CEIs, for arrivals) is handled group-wide instead: one NumPy write of
  the mask, mirror patches in place (``np.add.at``) rather than
  dirty-set entries, and one expiry verdict per CEI.  Activation hooks
  and shed (released) rows keep the scalar loops, which leave the same
  state.
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
* :func:`run_fast_span` — ``monitor.run``'s whole-run walker, one loop
  over the busy chronons around one priority heap.  Under a
  shift-invariant kernel (S-EDF, MRSF) each row is scored once, when it
  activates, and its key stays in the heap for the whole run, so a
  chronon costs ``O((new + touched) log A)`` instead of a pass over the
  bag.  Under M-EDF, whose keys move with the chronon at per-CEI
  slopes, the live bag is scored once per chronon and the heap
  re-seeded from its top-k cut, without the phase machinery.  Runs
  with float keys, faults, shedding, hooks, an explicit resource pool,
  shards, no preemption or no overlap step through
  :func:`run_fast_phases` (the gates are in ``OnlineMonitor.run``).

A pool built from a pre-compiled arena (``FastCandidatePool(arena=...)``)
shares its columns and mirrors with every other policy run of that
problem instance and registers a CEI without walking its EIs.  A pool
built without one owns an empty arena and compiles each CEI into it,
in place, when the CEI registers.

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
from functools import partial
from itertools import chain, compress
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Container, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro.core.errors import ModelError
from repro.core.intervals import ComplexExecutionInterval, ExecutionInterval
from repro.core.profile import ProfileSet
from repro.core.resource import ResourceId, ResourcePool
from repro.core.timebase import Chronon, Epoch
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

# Batched bookkeeping cut-over (module-level so tests can force either
# path).  A window event whose compiled row list, an arrival batch whose
# CEI list, or a capture whose live rows on the resource have at least
# this many entries is handled group-wide (NumPy mask and mirror writes,
# one verdict per CEI); smaller ones keep the scalar per-row loop, which
# NumPy's fixed per-call cost would beat.
# Chosen by measurement: see docs/performance.md, "Batched bookkeeping".
BATCH_CUTOVER = 32

# A resource's live rows are filtered from its index in Python below this
# many indexed rows, with NumPy at or above (measured break-even on an
# Intel Xeon: 1.5 us at 16 rows; NumPy is 2.5x faster at 128).
_NUMPY_FILTER_MIN = 16

# The whole-run walker packs keys with NumPy while priorities stay inside
# +-2^20 (as the phases do), above the 42-bit static key finish*2^21+seq.
_PRIO_LIMIT = float(1 << 20)
_SEQ_MASK = (1 << 21) - 1


def _gather(column: Sequence, idx: list[int]) -> tuple:
    """``tuple(column[i] for i in idx)`` in one C-level call."""
    if len(idx) == 1:
        return (column[idx[0]],)
    return itemgetter(*idx)(column)


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
        """Start a run over ``arena``, or over an empty arena of its own.

        The arena's columns, mirrors, indexes and timelines are *shared*
        (and, for a supplied arena, with every other pool built from it)
        and only the arena's compile walk appends to them; the per-run
        mutable state (captured flags, the active mask, M-EDF aggregates,
        counters) is the pool's own.  The mirrors arrive fully synced, so
        ``sync_mirrors`` reduces to the dirty-CEI patch until rows are
        added.

        A supplied arena fixes which CEIs may register, and at which
        chronon.  A pool built without one owns an empty arena and
        compiles each CEI into it as it registers (:meth:`register`), so
        it accepts any arrival; an owned arena is never patched.
        """
        #: Mirror-capacity reallocations performed so far.  Growth is
        #: geometric (capacity doubling), so this stays O(log rows) for
        #: any registration stream — bench_micro's mirror-growth bench
        #: and tests/test_fastpath_equivalence.py guard the bound.
        self.mirror_reallocs = 0
        #: The compile walk into the pool's own arena; None when the arena
        #: was supplied.
        self._compile_cei: Optional[Callable[..., None]] = None
        if arena is None:
            # Deferred: repro.sim imports the monitor, which imports this
            # module.
            from repro.sim.arena import _register_cei, compile_arena

            arena = compile_arena(ProfileSet(), arrivals={})
            self._compile_cei = partial(_register_cei, arena)
        self._arena = arena
        # Row and CEI capacities, floored at one so the doubling in
        # _grow_rows/_grow_ceis always makes progress.  The per-run
        # columns are sized to them (entries past the arena's rows and
        # CEIs are unused), so they grow with the NumPy mirrors' doubling
        # rather than by one extend per registered CEI.
        n = arena.n_rows
        m = arena.n_ceis
        self._row_cap = row_cap = max(n, 1)
        self._cei_cap = cei_cap = max(m, 1)
        self.row_seq = arena.row_seq
        self.row_finish = arena.row_finish
        self.row_resource = arena.row_resource
        self.row_cidx = arena.row_cidx
        self._row_ei = arena.row_ei
        self.row_captured = [False] * row_cap
        self.np_active = np.zeros(row_cap, bool)
        self._n_active = 0

        self.cei_rank = arena.cei_rank
        self.cei_required = arena.cei_required
        self.cei_weight = arena.cei_weight
        self._registered = bytearray(cei_cap)
        self.cei_captured = [0] * cei_cap
        self.cei_satisfied = [False] * cei_cap
        self.cei_failed = [False] * cei_cap
        self.cei_cancelled = [False] * cei_cap
        self.cei_medf_s = arena.cei_medf_s0 + [0] * (cei_cap - m)
        self.cei_medf_open = arena.cei_medf_open0 + [0] * (cei_cap - m)
        #: CEIs whose per-run aggregates are set: the rest of the
        #: capacity waits for _extend_run_state.
        self._run_ceis = m
        self.cei_row_begin = arena.cei_row_begin
        self.cei_row_end = arena.cei_row_end
        self._cei_obj = arena.cei_obj

        # NumPy mirrors consumed by the kernels and the lexsort, shared
        # with the arena until rows or CEIs are added (the first growth
        # privatizes them).  The static per-row tie-break key
        # npr_static = finish * 2^21 + seq orders rows exactly like the
        # lexicographic (finish, seq) pair as long as both components
        # stay below 2^21 (_packable tracks this); one int64 column then
        # replaces two lexsort key levels per phase.
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
        self.npc_rank_f = arena.npc_rank_f
        self.npc_weight = arena.npc_weight
        self.npc_captured_f = np.zeros(m, np.float64)
        self.npc_medf_s_f = np.asarray(arena.cei_medf_s0, np.float64)
        self.npc_medf_open_f = np.asarray(arena.cei_medf_open0, np.float64)
        self._synced_ceis = m
        self._dirty_ceis: set[int] = set()

        self._row_of_seq = arena.row_of_seq
        self._cidx_of_cid = arena.cidx_of_cid
        self._resource_rows = arena.resource_rows
        self._resource_rows_np = arena.resource_rows_np
        # EI seqs withdrawn by load shedding: deactivated for good but
        # still contributing to the M-EDF aggregates (the reference
        # sibling walk counts them too; see repro.online.shedding).
        self._released_seqs: set[int] = set()
        self._num_registered = 0
        self._num_satisfied = 0
        self._num_failed = 0
        self._num_cancelled = 0

    def adopt_arena(self, arena: "InstanceArena") -> None:
        """Absorb a patched generation of this pool's supplied arena mid-run.

        ``apply_patch`` has already extended the shared Python containers
        in place (this pool references them directly, so its row/CEI
        columns have silently grown); what remains is the per-run state
        the patch cannot see (:meth:`_extend_run_state`).  All run state
        accumulated so far (captures, active bag, counters, released
        seqs) is untouched: adopting a patch is invisible to the schedule
        until the patched CEIs' arrival chronons are stepped.
        """
        if self._compile_cei is not None:
            raise ModelError(
                "only pools built on a supplied arena (arena-backed pools) "
                "can adopt a patched arena"
            )
        if arena.cidx_of_cid is not self._arena.cidx_of_cid:
            raise ModelError(
                "adopt_arena requires a patched generation of this pool's own "
                "arena (shared containers must be identical)"
            )
        self._extend_run_state()
        self._arena = arena

    def prune_timelines(self, horizon: Chronon) -> None:
        """Drop this pool's own arena's timeline entries below ``horizon``.

        Compaction for a pool built without an arena: its timelines are
        read, never popped, and no patch reaches an owned arena.  A
        supplied arena is pruned by ``ArenaPatch(expire_before=...)``,
        which every pool sharing it sees.
        """
        if self._compile_cei is None:
            raise ModelError(
                "a supplied arena is pruned by ArenaPatch(expire_before=...)"
            )
        # Deferred for the same import cycle as compile_arena.
        from repro.sim.arena import expire_timelines

        expire_timelines(self._arena, horizon)

    def _extend_run_state(self) -> None:
        """Size the per-run state to the arena's grown shared columns.

        Grows the capacity of the per-run columns and the NumPy mirrors
        when the rows or CEIs outgrow it, and starts fresh CEIs from
        their compiled ``*0`` aggregates.  The first growth privatizes
        the mirrors: the arena's own are sized to the rows it had when
        this pool adopted it, so the next ``sync_mirrors`` would
        otherwise write out of their bounds (or into sibling pools'
        shared view).
        """
        # Grow when capacity is short, not only when the mirrors are still
        # the arena's shared arrays: after the first growth the mirrors
        # are private (identity no longer says anything) and later rows
        # may outgrow their doubled capacity.  The identity test covers
        # the one case capacity misses: shared mirrors of an empty arena,
        # whose capacity is rounded up to 1 row/CEI.
        arena = self._arena
        n = len(self.row_seq)
        if n > self._row_cap or (
            n > self._synced_rows and self.npr_seq is arena.npr_seq
        ):
            self._grow_rows(n)
        m = len(self.cei_rank)
        if m > self._cei_cap or (
            m > self._synced_ceis and self.npc_rank_f is arena.npc_rank_f
        ):
            self._grow_ceis(m)
        medf_s = self.cei_medf_s
        medf_open = self.cei_medf_open
        # A loop, not slice copies: registration adds one CEI at a time.
        for c in range(self._run_ceis, m):
            medf_s[c] = arena.cei_medf_s0[c]
            medf_open[c] = arena.cei_medf_open0[c]
        self._run_ceis = m

    # ------------------------------------------------------------------
    # The candidate bag
    # ------------------------------------------------------------------

    @property
    def np_active(self) -> np.ndarray:
        """The candidate bag, its only record: row ``r`` is active iff set.

        Scalar paths read and write it through a byte ``memoryview``.
        """
        return self._np_active

    @np_active.setter
    def np_active(self, mask: np.ndarray) -> None:
        # Every reassignment (growth, the sharded engine's shared segment
        # and its demotion) re-takes the view, so it never goes stale.
        self._np_active = mask
        self._active = memoryview(mask.view(np.uint8))

    @property
    def activate_at(self) -> Mapping[Chronon, list[int]]:
        """Window openings, chronon -> rows: the arena's timeline, never popped."""
        return self._arena.activate_at

    def _activate_row(self, row: int) -> None:
        self._active[row] = 1
        self._n_active += 1

    def _deactivate_row(self, row: int) -> None:
        self._active[row] = 0
        self._n_active -= 1

    def _activate_rows(self, rows: list[int]) -> None:
        """Batched :meth:`_activate_row` over distinct inactive ``rows``."""
        if rows:
            self._np_active[rows] = True
            self._n_active += len(rows)

    def _drop_rows_of(self, ceis: Iterable[int]) -> None:
        """Clear every still-active row of each closed CEI in ``ceis``."""
        active = self._active
        begin = self.cei_row_begin
        end = self.cei_row_end
        dropped = 0
        for c in ceis:
            a, b = begin[c], end[c]
            live = sum(active[a:b])
            if live:
                active[a:b] = bytes(b - a)
                dropped += live
        self._n_active -= dropped

    def _index_on(self, resource: ResourceId) -> np.ndarray:
        """Every row ever placed on ``resource``, cached until it grows."""
        rows = self._resource_rows.get(resource, ())
        at = self._resource_rows_np.get(resource)
        if at is None or len(at) != len(rows):
            at = self._resource_rows_np[resource] = np.array(rows, np.intp)
        return at

    def _live_rows_on(
        self, resource: ResourceId, skip: frozenset[int] = frozenset()
    ) -> list[int]:
        """Active rows on ``resource``, ascending, minus EI seqs in ``skip``."""
        rows = self._resource_rows.get(resource, ())
        if len(rows) < _NUMPY_FILTER_MIN:
            active = self._active
            live = [row for row in rows if active[row]]
        else:
            at = self._index_on(resource)
            live = at[self._np_active[at]].tolist()
        if skip:
            row_seq = self.row_seq
            live = [row for row in live if row_seq[row] not in skip]
        return live

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
        new_active[: len(self._np_active)] = self._np_active
        self.np_active = new_active
        self.row_captured += [False] * (cap - len(self.row_captured))
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
        pad = cap - len(self.cei_captured)
        self.cei_captured += [0] * pad
        falses = [False] * pad
        self.cei_satisfied += falses
        self.cei_failed += falses
        self.cei_cancelled += falses
        self.cei_medf_s += [0] * pad
        self.cei_medf_open += [0] * pad
        self._registered += bytes(pad)
        self._cei_cap = cap
        self.mirror_reallocs += 1

    def sync_mirrors(self) -> None:
        """Bring the NumPy mirrors up to date with the Python columns.

        Called by the probe loop before each batch score.  Cost is
        amortized O(1) per row/CEI plus O(1) per CEI mutated since the
        last sync.  Capacity already covers every row and CEI
        (:meth:`_extend_run_state` grows it when they are added).
        """
        if self._synced_rows < len(self.row_seq):
            self._sync_rows()
        m = len(self.cei_rank)
        if self._synced_ceis < m:
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

    def _sync_rows(self) -> None:
        """The row half of :meth:`sync_mirrors` (a compare when in sync)."""
        n = len(self.row_seq)
        if self._synced_rows < n:
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
        return len(self._live_rows_on(resource))

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

        Registration replays the CEI's compiled registration instead of
        walking its EIs: activate the precomputed immediate rows, copy
        nothing.  A pool that owns its arena first compiles a CEI it has
        not seen at ``now``; a supplied arena only accepts the CEIs (and
        arrival chronons) it was compiled for.
        """
        arena = self._arena
        registered = self._registered
        cidx = arena.cidx_of_cid.get(cei.cid)
        if cidx is None and self._compile_cei is not None:
            cidx = len(self.cei_rank)
            self._compile_cei(cei, now)
            self._extend_run_state()
        elif cidx is None or registered[cidx] or now != arena.cei_release[cidx]:
            self._compiled_cidx(cei, now)  # raises the error that applies
        registered[cidx] = 1
        self._num_registered += 1
        if arena.cei_failed0[cidx]:
            self.cei_failed[cidx] = True
            self._num_failed += 1
            return []
        rows = arena.immediate_rows[cidx]
        if rows:
            active = self._active
            for row in rows:
                active[row] = 1
            self._n_active += len(rows)
        if collect and rows:
            row_ei = self._row_ei
            return [row_ei[row] for row in rows]
        return []

    def register_arrivals(
        self,
        ceis: Iterable[ComplexExecutionInterval],
        now: Chronon,
        collect: bool = True,
    ) -> list[ExecutionInterval]:
        """Register one chronon's arrivals; returns the EIs active at once.

        Equivalent to calling :meth:`register` on each CEI in order.  A
        batch of at least ``BATCH_CUTOVER`` CEIs with ``collect=False``
        replays the compiled registrations as column operations instead
        (a pool that owns its arena compiles the whole batch first).  On
        a supplied arena it is atomic: an unknown or repeated cid, or a
        wrong arrival chronon, raises the same :class:`ModelError` the
        one-by-one loop would raise first and registers nothing.  On an
        owned arena a batch repeating a cid goes one by one, so it
        raises where that loop does.
        """
        if not isinstance(ceis, (list, tuple)):
            ceis = list(ceis)
        batch = not collect and len(ceis) >= BATCH_CUTOVER
        compile_cei = self._compile_cei
        if batch and compile_cei is not None:
            cids = {cei.cid for cei in ceis}
            batch = len(cids) == len(ceis) and cids.isdisjoint(self._cidx_of_cid)
            if batch:
                for cei in ceis:
                    compile_cei(cei, now)
                self._extend_run_state()
        if not batch:
            activated: list[ExecutionInterval] = []
            for cei in ceis:
                activated.extend(self.register(cei, now, collect))
            return activated
        arena = self._arena
        registered = self._registered
        cidxs = list(map(arena.cidx_of_cid.get, [cei.cid for cei in ceis]))
        if (
            None in cidxs
            or len(set(cidxs)) != len(cidxs)
            or _gather(arena.cei_release, cidxs).count(now) != len(cidxs)
        ):
            self._check_arrivals(ceis, now)
        at = np.array(cidxs, np.intp)
        # Zero-copy views of the bytearray, each dropped at once: while
        # one lives (say, in a raised error's frame) it cannot grow.
        if np.frombuffer(registered, np.bool_)[at].any():
            self._check_arrivals(ceis, now)
        np.frombuffer(registered, np.bool_)[at] = True
        self._num_registered += len(cidxs)
        failed0 = _gather(arena.cei_failed0, cidxs)
        if any(failed0):
            for cidx, failed in zip(cidxs, failed0):
                if failed:
                    self.cei_failed[cidx] = True
                    self._num_failed += 1
        # Dead-on-arrival CEIs compiled no rows, so no filter is needed.
        self._activate_rows(
            list(chain.from_iterable(_gather(arena.immediate_rows, cidxs)))
        )
        return []

    def _check_arrivals(
        self, ceis: Sequence[ComplexExecutionInterval], now: Chronon
    ) -> None:
        """Raise the error one-by-one registration of ``ceis`` hits first.

        Called only once a batch check has proven some CEI invalid.
        """
        seen: set[int] = set()
        for cei in ceis:
            seen.add(self._compiled_cidx(cei, now, seen))

    def _compiled_cidx(
        self,
        cei: ComplexExecutionInterval,
        now: Chronon,
        pending: Container[int] = frozenset(),
    ) -> int:
        """The arena index of a CEI that may register at ``now``.

        Raises :class:`ModelError` for a CEI outside the arena, one
        already registered (or in ``pending``, earlier in the same
        batch), or one compiled to arrive at another chronon.
        """
        arena = self._arena
        cidx = arena.cidx_of_cid.get(cei.cid)
        if cidx is None:
            raise ModelError(
                f"CEI {cei.cid} is not part of this pool's compiled arena"
            )
        if self._registered[cidx] or cidx in pending:
            raise ModelError(f"CEI {cei.cid} registered twice")
        if now != arena.cei_release[cidx]:
            raise ModelError(
                "arena-backed pools compile registration at the CEI's "
                f"arrival chronon {arena.cei_release[cidx]}, got {now}"
            )
        return cidx

    def open_windows(self, now: Chronon, collect: bool = True) -> list[ExecutionInterval]:
        """Activate every EI whose window opens at ``now``; returns them."""
        # The arena's timeline, read without popping (sibling pools of a
        # supplied arena replay it too).
        rows = self._arena.activate_at.get(now)
        opened: list[ExecutionInterval] = []
        if rows is None:
            return opened
        registered = self._registered
        released = self._released_seqs
        if len(rows) >= BATCH_CUTOVER and not collect and not released:
            self._open_batch(rows, now)
            return opened
        for row in rows:
            cidx = self.row_cidx[row]
            if not registered[cidx]:
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
            # M-EDF bucket move, future -> open: the sibling's width
            # |I| becomes finish + 1 (the -T term arrives via n_open).
            self.cei_medf_s[cidx] += ei.start
            self.cei_medf_open[cidx] += 1
            self._dirty_ceis.add(cidx)
            if released and ei.seq in released:
                # Shed away while pending: moved like any uncaptured
                # sibling (the reference sibling walk counts it too), but
                # never activates.
                continue
            self._activate_row(row)
            if collect:
                opened.append(ei)
        return opened

    def _open_batch(self, rows: list[int], now: Chronon) -> None:
        """Batched :meth:`open_windows` (no hook, nothing released)."""
        registered = self._registered
        satisfied = self.cei_satisfied
        failed = self.cei_failed
        cancelled = self.cei_cancelled
        captured = self.row_captured
        # The rows the scalar loop does not ``continue`` past.
        ceis = list(map(self.row_cidx.__getitem__, rows))
        live = [
            registered[c]
            and not (satisfied[c] or failed[c] or cancelled[c] or captured[row])
            for row, c in zip(rows, ceis)
        ]
        rows = list(compress(rows, live))
        ceis = list(compress(ceis, live))
        self._activate_rows(rows)
        # Every row here opens at ``now``: its M-EDF move adds ``now``.
        medf_s = self.cei_medf_s
        medf_open = self.cei_medf_open
        for c in ceis:
            medf_s[c] += now
            medf_open[c] += 1
        # Patch the mirrors in place rather than dirtying the CEIs: the
        # aggregates are integers, exact in float64.
        at = np.array(ceis, np.intp)
        np.add.at(self.npc_medf_s_f, at, float(now))
        np.add.at(self.npc_medf_open_f, at, 1.0)

    # ------------------------------------------------------------------
    # Capture and expiry
    # ------------------------------------------------------------------

    def _capture_row(self, row: int, cidx: int) -> bool:
        """Mark one active row captured; True if that satisfied its CEI."""
        self._deactivate_row(row)
        self.row_captured[row] = True
        captured = self.cei_captured[cidx] + 1
        self.cei_captured[cidx] = captured
        self.cei_medf_s[cidx] -= self.row_finish[row] + 1
        self.cei_medf_open[cidx] -= 1
        self._dirty_ceis.add(cidx)
        if not self.cei_satisfied[cidx] and captured >= self.cei_required[cidx]:
            self.cei_satisfied[cidx] = True
            self._num_satisfied += 1
            return True
        return False

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
        return self._capture_rows(self._live_rows_on(resource, skip))

    def _capture_rows(self, live: list[int]) -> list[int]:
        """Capture the active rows ``live`` (batched when there are many)."""
        if len(live) >= BATCH_CUTOVER:
            return self._capture_batch(live)
        touched: list[int] = []
        done: list[int] = []
        row_cidx = self.row_cidx
        for row in live:
            cidx = row_cidx[row]
            if self._capture_row(row, cidx):
                done.append(cidx)
            touched.append(cidx)
        if done:
            self._drop_rows_of(done)
        return touched

    def _capture_batch(self, live: list[int]) -> list[int]:
        """Batched :meth:`_capture_rows` of the active rows ``live``."""
        self._sync_rows()  # push captures can precede the phase's sync
        at = np.array(live, np.intp)
        self._np_active[at] = False
        self._n_active -= len(live)
        cidx = self.npr_cidx[at]
        touched = cidx.tolist()
        row_captured = self.row_captured
        captured = self.cei_captured
        medf_s = self.cei_medf_s
        medf_open = self.cei_medf_open
        for row, c, finish in zip(live, touched, self.npr_finish[at].tolist()):
            row_captured[row] = True
            captured[c] += 1
            medf_s[c] -= finish + 1
            medf_open[c] -= 1
        # Mirrors patched in place, as in _open_batch.
        np.add.at(self.npc_captured_f, cidx, 1.0)
        np.add.at(self.npc_medf_s_f, cidx, -1.0 - self.npr_finish_f[at])
        np.add.at(self.npc_medf_open_f, cidx, -1.0)
        satisfied = self.cei_satisfied
        required = self.cei_required
        done = []
        for c in touched:
            if not satisfied[c] and captured[c] >= required[c]:
                satisfied[c] = True
                done.append(c)
        self._num_satisfied += len(done)
        self._drop_rows_of(done)
        return touched

    def capture_single_row(self, row: int) -> list[int]:
        """Overlap-ablation capture of exactly one row; returns touched CEIs."""
        if not self._active[row]:
            return []
        cidx = self.row_cidx[row]
        if self._capture_row(row, cidx):
            self._drop_rows_of((cidx,))
        return [cidx]

    def capture_resource(
        self,
        resource: ResourceId,
        now: Chronon,
        skip: frozenset[int] = frozenset(),
    ) -> tuple[list[ExecutionInterval], list[ComplexExecutionInterval]]:
        """Object-level capture API (reference-path compatibility)."""
        live = self._live_rows_on(resource, skip)
        touched = self._capture_rows(live)
        return [self._row_ei[r] for r in live], [self._cei_obj[c] for c in touched]

    def capture_single(
        self, ei: ExecutionInterval
    ) -> tuple[list[ExecutionInterval], list[ComplexExecutionInterval]]:
        """Capture exactly one EI (the overlap-exploitation ablation)."""
        row = self._row_of_seq.get(ei.seq)
        if row is None or not self._active[row]:
            return [], []
        touched = [self._cei_obj[cidx] for cidx in self.capture_single_row(row)]
        return [ei], touched

    def close_windows(self, now: Chronon, collect: bool = True) -> list[ExecutionInterval]:
        """End-of-chronon expiry (Algorithm 1, lines 20-27)."""
        rows = self._arena.expire_at.get(now)
        expired: list[ExecutionInterval] = []
        if rows is None:
            return expired
        registered = self._registered
        released = self._released_seqs
        if len(rows) >= BATCH_CUTOVER and not collect and not released:
            self._close_batch(rows, now)
            return expired
        row_seq = self.row_seq
        for row in rows:
            cidx = self.row_cidx[row]
            if not registered[cidx]:
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
            if self._active[row]:
                self._deactivate_row(row)
            if collect:
                expired.append(self._row_ei[row])
            if self._cannot_satisfy(cidx, now):
                self.cei_failed[cidx] = True
                self._num_failed += 1
                self._drop_rows_of((cidx,))
        return expired

    def _close_batch(self, rows: list[int], now: Chronon) -> None:
        """Batched :meth:`close_windows` (no hook, nothing released).

        With no row shed, the rows the scalar loop acts on (registered,
        open CEI, uncaptured) are exactly the active ones: such a row was
        activated at its window's start and only capture, closing its
        CEI or shedding deactivate it before expiry.  The scalar loop
        judges a CEI at its first expiring row, but the verdict cannot
        change at its later ones: siblings expiring at ``now`` never
        count as usable, and closing changes no capture.  So one verdict
        per CEI, after deactivating every expiring row, leaves the same
        state.
        """
        at = np.array(rows, np.intp)
        at = at[self._np_active[at]]
        self._np_active[at] = False
        self._n_active -= at.size
        ceis = map(self.row_cidx.__getitem__, at.tolist())
        begin = self.cei_row_begin
        end = self.cei_row_end
        required = self.cei_required
        # A CEI loses its expiring row, so at most its other rows stay
        # usable: too few of them settles the verdict without a scan.
        doomed = [
            c
            for c in dict.fromkeys(ceis)
            if end[c] - begin[c] - 1 < required[c] or self._cannot_satisfy(c, now)
        ]
        failed = self.cei_failed
        for c in doomed:
            failed[c] = True
        self._num_failed += len(doomed)
        self._drop_rows_of(doomed)

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
        if not self._registered[cidx]:
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
        if self._active[row]:
            self._deactivate_row(row)
        return True

    def shed_cei(self, cei: ComplexExecutionInterval) -> bool:
        """Evict one whole open CEI (counted as failed; rows dropped)."""
        cidx = self._cidx_of_cid.get(cei.cid)
        if cidx is None:
            return False
        if not self._registered[cidx]:
            return False
        if (
            self.cei_satisfied[cidx]
            or self.cei_failed[cidx]
            or self.cei_cancelled[cidx]
        ):
            return False
        self.cei_failed[cidx] = True
        self._num_failed += 1
        self._drop_rows_of((cidx,))
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
        if not self._registered[cidx]:
            return False
        if (
            self.cei_satisfied[cidx]
            or self.cei_failed[cidx]
            or self.cei_cancelled[cidx]
        ):
            return False
        self.cei_cancelled[cidx] = True
        self._num_cancelled += 1
        self._drop_rows_of((cidx,))
        return True

    def open_cei_objects(self) -> list[ComplexExecutionInterval]:
        """Open (registered, not closed) CEIs in registration order."""
        registered = self._registered
        return [
            self._cei_obj[cidx]
            for cidx in range(len(self.cei_rank))
            if registered[cidx]
            and not self.cei_satisfied[cidx]
            and not self.cei_failed[cidx]
            and not self.cei_cancelled[cidx]
        ]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def pushable_resources(self, resources: ResourcePool) -> list[ResourceId]:
        """Push-enabled resources currently holding active candidate EIs."""
        active = self._np_active
        return [
            rid
            for rid in self._resource_rows
            if rid in resources
            and resources[rid].push_enabled
            and active[self._index_on(rid)].any()
        ]

    def active_seqs_on(self, resource: ResourceId) -> list[int]:
        """Sorted seqs of the active candidate EIs on ``resource``.

        Sorted so per-EI fault verdicts (one uniform draw per seq, in
        order) match the reference pool's regardless of row order.
        """
        row_seq = self.row_seq
        return sorted([row_seq[row] for row in self._live_rows_on(resource)])

    def active_eis(self) -> Iterator[ExecutionInterval]:
        """All currently active, uncaptured candidate EIs (the probe pool)."""
        row_ei = self._row_ei
        for row in np.flatnonzero(self._np_active[: len(self.row_seq)]).tolist():
            yield row_ei[row]

    def num_active(self) -> int:
        """Size of the active candidate EI bag."""
        return self._n_active

    def is_active(self, ei: ExecutionInterval) -> bool:
        """Is this exact EI currently probe-able?"""
        row = self._row_of_seq.get(ei.seq)
        return row is not None and bool(self._active[row])

    def state_of(self, cei: ComplexExecutionInterval) -> Optional[FastCEIView]:
        """Capture state of a registered CEI (None if never registered)."""
        cidx = self._cidx_of_cid.get(cei.cid)
        if cidx is None or not self._registered[cidx]:
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
    if not pool.num_active():
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


def _topk_cut(budget_left: float, min_probe_cost: float, n: int) -> int:
    """How many of a phase's ``n`` keys to materialize first.

    The picks the budget can make (every probe attempt costs at least the
    cheapest resource), plus ``TOPK_OVERFLOW`` to absorb walk skips
    (captured siblings, probed or backed-off resources); all ``n`` when
    selection is off or partitioning would not pay for itself.
    """
    if not TOPK_ENABLED:
        return n
    cut = int(budget_left / min_probe_cost) + 1 + TOPK_OVERFLOW
    return n if 2 * cut >= n else cut


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
        cut = _topk_cut(budget_left, min_probe_cost, n)
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

    active = pool._active
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
                if row in dirty or not active[row]:
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
                or not active[orow]
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
        if retry_partial and active[row]:
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
    active = pool._active
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
            if not active[row]:
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


def run_fast_span(
    monitor: "OnlineMonitor",
    epoch: Epoch,
    arrivals: Mapping[Chronon, Sequence[ComplexExecutionInterval]],
) -> None:
    """Probe a whole run from one priority heap (``monitor.run``'s fast path).

    A shift-invariant kernel (S-EDF, MRSF; see
    :attr:`repro.policies.kernels.ScoreKernel.shift_invariant`) carries
    its keys across chronons: each row is scored once, when it
    activates, in the frame of the epoch's first chronon, so a chronon
    costs O((new + touched) log A), never O(A).  An integer-valued kernel
    without that licence (M-EDF) is re-keyed instead: on each chronon
    with budget, one ``score_rows`` call scores the live bag in the frame
    of that chronon and the heap is seeded from its top-k cut
    (:func:`_topk_cut`).  The smallest key left out is the bound: a pick
    past it widens the cut first, as in :func:`_phase_walk`.  The other
    gates are in ``OnlineMonitor.run``.

    Per chronon: register and open, then walk the budget, then close.
    A popped key is stale when its row left the bag or a sibling re-rank
    superseded it, so the first fresh one is the step loop's pick.
    Overlap is on, so a probe captures every live row on its resource:
    no "already probed" check.  Re-ranks score in the current frame.
    Carried keys are re-ranked even once the budget is spent, for later
    chronons; a re-keyed heap is dropped when its chronon ends.

    Keys are packed ints, ``priority << 42 | finish << 21 | seq``
    (:func:`repro.policies.kernels.pack_keys`), while every key pushed
    fits.  From the first that does not, they are ``(priority, finish,
    seq, row)`` tuples over the whole bag: for the rest of the run when
    keys are carried, for that chronon when they are re-keyed.
    """
    pool: FastCandidatePool = monitor.pool
    kernel = monitor._kernel
    schedule = monitor.schedule
    budget = monitor.budget
    assert kernel is not None and (kernel.shift_invariant or kernel.integer_valued)
    carry = kernel.shift_invariant
    sensitive = monitor._sibling_sensitive
    timeline = monitor._activation_timeline()
    row_of_seq = pool._row_of_seq
    row_resource = pool.row_resource
    heap: list = []
    cur: dict[int, object] = {}  # row -> its freshest re-ranked key
    rest: Optional[_KeyCut] = None  # re-keyed bag keys not yet in the heap
    packed = kernel.integer_valued
    frame = epoch.first
    rows: list[int] = []  # the bag starts empty: run() refuses a stepped monitor
    for t in monitor._busy_chronons(epoch, arrivals):
        monitor._clock = t
        new = arrivals.get(t)
        if new:
            pool.register_arrivals(new, t, collect=False)
            if carry:
                for cei in new:
                    c = pool._cidx_of_cid[cei.cid]
                    rows.extend(range(pool.cei_row_begin[c], pool.cei_row_end[c]))
        if carry:
            rows.extend(timeline.get(t, ()))
        pool.open_windows(t, collect=False)
        active = pool._active  # registration may have grown the mask
        budget_left = budget.at(t)
        at = None  # the rows to score and push
        if carry:
            rows = [row for row in rows if active[row]]
            if rows:
                at = np.array(rows, np.intp)
                rows = []
        else:
            # Re-keyed: last chronon's keys are void in this frame.
            frame = t
            heap.clear()
            cur.clear()
            rest = None
            packed = True  # until this chronon's keys prove too wide
            if 1.0 <= budget_left + _EPS and pool.num_active():
                at = pool.np_active[: len(pool.row_seq)].nonzero()[0]
        if at is not None:
            pool.sync_mirrors()
            prio = kernel.score_rows(pool, at, pool.npr_cidx[at], frame)
            if packed and not (pool._packable and abs(prio).max() < _PRIO_LIMIT):
                # A key that will not pack: restart the heap in tuple form
                # from the whole bag, whose live keys are its scores now.
                packed = False
                if carry:
                    heap.clear()
                    cur.clear()
                    at = np.flatnonzero(pool.np_active[: len(pool.row_seq)])
                    prio = kernel.score_rows(pool, at, pool.npr_cidx[at], frame)
            if packed and not carry:
                rest = _KeyCut(
                    pack_keys(prio, pool.npr_static[at]),
                    _topk_cut(budget_left, monitor._min_probe_cost, at.size),
                ).widen(heap)
            else:
                if packed:
                    keys = pack_keys(prio, pool.npr_static[at]).tolist()
                else:
                    seen = at.tolist()
                    finish, seq = _gather(pool.row_finish, seen), _gather(pool.row_seq, seen)
                    keys = zip(prio.tolist(), finish, seq, seen)
                for key in keys:
                    heapq.heappush(heap, key)

        while 1.0 <= budget_left + _EPS:
            if not heap:
                if rest is None:
                    break
                rest = rest.widen(heap)
                continue
            key = heapq.heappop(heap)
            row = row_of_seq[key & _SEQ_MASK] if packed else key[3]
            if not active[row] or cur.get(row, key) != key:
                continue  # left the bag, or superseded by a re-rank
            if rest is not None and key > rest.bound:
                # A key not yet in the heap may rank first: widen the cut
                # before trusting this pick.
                heapq.heappush(heap, key)
                rest = rest.widen(heap)
                continue
            rid = row_resource[row]
            budget_left -= 1.0
            monitor._probes_used += 1
            monitor._charge(rid, t, 1.0)
            schedule.add_probe(rid, t)
            touched = pool.capture_resource_rows(rid)
            if sensitive and touched and (carry or 1.0 <= budget_left + _EPS):
                _rerank_siblings(pool, kernel, touched, frame, heap, cur, packed)
        pool.close_windows(t, collect=False)


class _KeyCut:
    """The packed keys of one re-keyed bag that the run heap lacks.

    :meth:`widen` pushes the ``count`` smallest onto the heap, then grows
    ``count`` by ``TOPK_GROWTH``; ``bound``, the smallest key left, lies
    above every key pushed.
    """

    __slots__ = ("keys", "count", "bound")

    def __init__(self, keys: np.ndarray, count: int) -> None:
        self.keys = keys
        self.count = count

    def widen(self, heap: list) -> Optional["_KeyCut"]:
        """Push the next slice onto ``heap``; None once no key is left."""
        keys, count = self.keys, self.count
        if count >= keys.size:
            taken, self.keys = keys, None
        else:
            part = np.partition(keys, count)  # distinct keys: part[count] is the bound
            taken, self.keys = part[:count], part[count:]
            self.bound = int(part[count])
            self.count *= TOPK_GROWTH
        heap.extend(taken.tolist())
        heapq.heapify(heap)
        return None if self.keys is None else self


def _rerank_siblings(
    pool: FastCandidatePool, kernel, touched: list[int], frame: Chronon,
    heap: list, cur: dict[int, object], packed: bool,
) -> None:
    """Push fresh keys for the live siblings of each CEI in ``touched``.

    Packed keys are Python ints here, so no score is too large to pack.
    """
    active = pool._active
    row_finish = pool.row_finish
    row_seq = pool.row_seq
    push = heapq.heappush
    for cidx in touched:
        if pool.cei_satisfied[cidx] or pool.cei_failed[cidx] or pool.cei_cancelled[cidx]:
            continue  # closed CEIs left the candidate bag entirely
        fresh = kernel.score_cei(pool, cidx, frame)
        # One loop per key form keeps the branch out of the row loop.
        rows = range(pool.cei_row_begin[cidx], pool.cei_row_end[cidx])
        if packed:
            high = int(fresh) << 42
            for row in rows:
                if active[row]:
                    key = high + (row_finish[row] << 21) + row_seq[row]
                    if cur.get(row) != key:
                        cur[row] = key
                        push(heap, key)
        else:
            for row in rows:
                if active[row]:
                    key = (fresh, row_finish[row], row_seq[row], row)
                    if cur.get(row) != key:
                        cur[row] = key
                        push(heap, key)
