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
  aggregates) lives in parallel CEI-level columns.  The static columns,
  the activation/expiry timelines and the per-resource row index belong
  to the arena; only its compile walk (``repro.sim.arena._register_cei``)
  appends rows.  The arena also owns the static columns' NumPy mirrors
  (``npr_*`` row columns, ``npc_*`` CEI columns) that the scoring
  kernels and the ``lexsort`` consume, and brings them up to date at
  the end of every call that compiles rows; the pool reads them under
  the same names, re-pointed when the arena reallocates them.  The
  pool holds the per-run state the events write, each column as one
  NumPy record with a ``memoryview`` of it for the scalar paths
  (:class:`_Record`): the candidate bag
  ``np_active`` (plus an exact count), each row's fate ``row_state``
  (free, released by load shedding, captured), each CEI's fate
  ``cei_state`` (unseen, open, satisfied, failed, cancelled), captured
  count and M-EDF aggregates.  A scalar write is a write to the record,
  so the kernels read it without a sync.  The rows on one resource are
  every row ever placed there, filtered by the mask.
* Batched bookkeeping — an event touching few rows is handled row by
  row, where NumPy's per-call cost would exceed the work.  A window
  event, arrival batch or capture of at least ``BATCH_CUTOVER`` rows
  (CEIs, for arrivals) is handled group-wide instead, with no per-row
  Python: gathers and writes over the records, ``np.add.at`` patches of
  the CEI aggregates, and one verdict per CEI.  Only activation hooks
  (``collect``) keep the scalar loops, which leave the same state; shed
  rows ride either path.
* :func:`run_fast_phases` — the vectorized ``probeEIs`` loop, one
  phase per candidate partition (the whole bag, or ``cands+`` then
  ``cands-``).  A phase batch-scores its rows with one
  :class:`repro.policies.kernels.ScoreKernel` call, then *selects*
  rather than sorts: a budget-aware ``np.partition`` extracts the ``~C_j
  + overflow`` smallest keys and only that slice is pushed onto the
  phase's one heap (:class:`_LocalStream`).  The smallest key held back
  is a lower bound on every key not yet in the heap; a pick at or past
  it, or a heap drained with budget left, widens the cut geometrically.
  The walk (:func:`_phase_walk`) skips stale keys as the reference heap
  does: a sibling re-rank pushes a fresh key and records it in ``cur``,
  a failed probe that may retry re-pushes its key.  One phase costs
  ``O(A + k log k)`` instead of ``O(A log A)``.
* :func:`run_fast_span` — ``monitor.run``'s whole-run walk.  Under a
  shift-invariant kernel (S-EDF, MRSF, W-MRSF) one heap ranks CEIs, not
  rows, for the whole run: one entry per open CEI, keyed at its best
  live row, so every registration, window opening and capture costs
  ``O(log A)`` and nothing is scored in bulk.  Under M-EDF, whose keys
  move with the chronon at per-CEI slopes, each busy chronon with
  budget is one :func:`_phase_walk` over the re-keyed bag, as in
  ``step()``, without the per-chronon hooks.  Runs with float keys,
  faults, shedding, hooks, an explicit resource pool, shards, no
  preemption or no overlap step through :func:`run_fast_phases` (the
  gates are in ``OnlineMonitor.run``).

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
from itertools import chain
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

# A phase packs its keys with NumPy while priorities stay inside +-2^20,
# above the 42-bit static key finish*2^21+seq; the carried walk and the
# sibling re-ranks pack Python ints, whose priorities are unbounded.
_PRIO_LIMIT = float(1 << 20)
_SEQ_MASK = (1 << 21) - 1

# A CEI's fate (``FastCandidatePool.cei_state``): not yet revealed, in
# play, then closed one of three ways.
_UNSEEN, _OPEN, _SATISFIED, _FAILED, _CANCELLED = range(5)
# An EI's fate (``FastCandidatePool.row_state``): a candidate, withdrawn
# by load shedding, or captured.
_FREE, _RELEASED, _CAPTURED = range(3)


def _gather(column: Sequence, idx: list[int]) -> tuple:
    """``tuple(column[i] for i in idx)`` in one C-level call."""
    if len(idx) == 1:
        return (column[idx[0]],)
    return itemgetter(*idx)(column)


class _Record:
    """A per-run pool column, held once as a NumPy array.

    Reading the attribute returns the array itself (this descriptor has
    no ``__get__``, so the instance dict answers).  Assigning an array,
    as growth and the sharded engine's re-pointing do, also re-takes the
    ``memoryview`` the scalar paths index, named ``scalar``, so no view
    outlives its array.  A bool mask is viewed as bytes.
    """

    def __init__(self, scalar: str) -> None:
        self.scalar = scalar

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __set__(self, pool: "FastCandidatePool", array: np.ndarray) -> None:
        attrs = vars(pool)
        attrs[self.name] = array
        attrs[self.scalar] = memoryview(
            array.view(np.uint8) if array.dtype == bool else array
        )


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

    #: The per-run records, each beside its scalar view: the candidate
    #: bag (row ``r`` is active iff set), each row's fate (``_FREE``,
    #: ``_RELEASED``, ``_CAPTURED``), each CEI's fate (``_UNSEEN``,
    #: ``_OPEN``, ``_SATISFIED``, ``_FAILED``, ``_CANCELLED``), captured
    #: count and M-EDF aggregates.  A released (shed) row is deactivated
    #: for good but still counts in the M-EDF aggregates, as the reference
    #: sibling walk counts it (see repro.online.shedding).
    np_active = _Record("_active")
    npr_state = _Record("row_state")
    npc_state = _Record("cei_state")
    npc_captured_f = _Record("cei_captured")
    npc_medf_s_f = _Record("cei_medf_s")
    npc_medf_open_f = _Record("cei_medf_open")

    def __init__(self, arena: Optional["InstanceArena"] = None) -> None:
        """Start a run over ``arena``, or over an empty arena of its own.

        The arena's columns, mirrors, indexes and timelines are *shared*
        (and, for a supplied arena, with every other pool built from it)
        and only the arena's compile walk appends to them; the per-run
        records (the active mask, row and CEI fates, captured counts,
        M-EDF aggregates) and counters are the pool's own, sized to the
        arena's mirror capacity.

        A supplied arena fixes which CEIs may register, and at which
        chronon.  A pool built without one owns an empty arena and
        compiles each CEI into it as it registers (:meth:`register`), so
        it accepts any arrival; an owned arena is never patched.
        """
        #: Reallocations of the per-run records so far: at most one per
        #: reallocation of the arena's mirrors, so O(log rows).
        self.record_reallocs = 0
        #: The compile walk into the pool's own arena; None when the arena
        #: was supplied.
        self._compile_cei: Optional[Callable[..., None]] = None
        if arena is None:
            # Deferred: repro.sim imports the monitor, which imports this
            # module.
            from repro.sim.arena import _register_cei, compile_arena

            arena = compile_arena(ProfileSet(), arrivals={})
            arena.owned = True
            self._compile_cei = partial(_register_cei, arena)
        self._arena = arena
        # The records have the arena's mirror capacity (entries past its
        # rows and CEIs are unused) and grow with its mirrors.
        m = arena.n_ceis
        row_cap = arena.npr_seq.size
        cei_cap = arena.npc_rank_f.size
        self.row_seq = arena.row_seq
        self.row_finish = arena.row_finish
        self.row_resource = arena.row_resource
        self.row_cidx = arena.row_cidx
        self._row_ei = arena.row_ei
        self.npr_state = np.full(row_cap, _FREE, np.uint8)
        self.np_active = np.zeros(row_cap, bool)
        self._n_active = 0

        self.cei_rank = arena.cei_rank
        self.cei_required = arena.cei_required
        self.cei_weight = arena.cei_weight
        self.npc_state = np.full(cei_cap, _UNSEEN, np.uint8)
        self.npc_captured_f = np.zeros(cei_cap)
        self.npc_medf_s_f = np.zeros(cei_cap)
        self.npc_medf_open_f = np.zeros(cei_cap)
        self.npc_medf_s_f[:m] = arena.cei_medf_s0
        self.npc_medf_open_f[:m] = arena.cei_medf_open0
        #: CEIs whose per-run aggregates are set: the rest of the
        #: capacity waits for _extend_run_state.
        self._run_ceis = m
        self.cei_row_begin = arena.cei_row_begin
        self.cei_row_end = arena.cei_row_end
        self._cei_obj = arena.cei_obj
        self._follow_mirrors()

        self._row_of_seq = arena.row_of_seq
        self._cidx_of_cid = arena.cidx_of_cid
        self._resource_rows = arena.resource_rows
        self._resource_rows_np = arena.resource_rows_np
        self._num_registered = 0
        self._num_satisfied = 0
        self._num_failed = 0
        self._num_cancelled = 0

    def adopt_arena(self, arena: "InstanceArena") -> None:
        """Absorb a patch of this pool's supplied arena mid-run.

        ``apply_patch`` has already compiled the patch into the arena in
        place (this pool reads its columns and mirrors, so they have
        silently grown); what remains is the per-run state the patch
        cannot see (:meth:`_extend_run_state`).  All run state
        accumulated so far (row and CEI states, active bag, counters) is
        untouched: adopting a patch is invisible to the schedule
        until the patched CEIs' arrival chronons are stepped.
        """
        if self._compile_cei is not None:
            raise ModelError(
                "only pools built on a supplied arena (arena-backed pools) "
                "can adopt a patched arena"
            )
        if arena is not self._arena:
            raise ModelError("adopt_arena requires this pool's own arena")
        self._extend_run_state()

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
        """Size the per-run state to the arena's grown columns.

        After the arena reallocated its mirrors, re-points this pool at
        them and grows the per-run records to their capacity: one
        reallocation of the records per reallocation of the mirrors.
        Fresh CEIs start from their compiled ``*0`` aggregates.
        """
        arena = self._arena
        # The arena reallocates every mirror at once.
        if self.npr_seq is not arena.npr_seq:
            self._follow_mirrors()
            self._grow_records()
        m = len(self.cei_rank)
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
    def activate_at(self) -> Mapping[Chronon, list[int]]:
        """Window openings, chronon -> rows: the arena's timeline, never popped."""
        return self._arena.activate_at

    def _activate_row(self, row: int) -> None:
        self._active[row] = 1
        self._n_active += 1

    def _deactivate_row(self, row: int) -> None:
        self._active[row] = 0
        self._n_active -= 1

    def _activate_rows(self, rows) -> None:
        """Batched :meth:`_activate_row` over distinct inactive ``rows``."""
        if len(rows):
            self.np_active[rows] = True
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

    def _drop_rows_batch(self, ceis: np.ndarray) -> None:
        """Batched :meth:`_drop_rows_of`: one write over the CEIs' row ranges.

        ``ceis`` ascend without repeats.
        """
        # Rows are compiled CEI by CEI, so their CEI index ascends
        # (check_candidate_bag in the tests asserts this layout).
        cidx = self.npr_cidx[: len(self.row_seq)]
        begin = cidx.searchsorted(ceis)
        size = cidx.searchsorted(ceis, "right") - begin
        # Row k of the concatenation lies (k - its range's offset) past its begin.
        rows = np.arange(size.sum()) + np.repeat(begin - (np.cumsum(size) - size), size)
        self._n_active -= int(np.count_nonzero(self.np_active[rows]))
        self.np_active[rows] = False

    def _index_on(self, resource: ResourceId) -> np.ndarray:
        """Every row ever placed on ``resource``, as an index array.

        The arena caches a view of a capacity-doubling buffer per
        resource; rows only ever append, so a call after growth copies
        just the new tail into the buffer, in one write.
        """
        rows = self._resource_rows.get(resource, ())
        n = len(rows)
        at = self._resource_rows_np.get(resource)
        if at is None:
            at = np.empty(0, np.intp)
        elif len(at) == n:
            return at
        have = len(at)
        buffer = at if at.base is None else at.base
        if len(buffer) < n:
            buffer = np.empty(max(n, 2 * len(buffer)), np.intp)
            buffer[:have] = at
        buffer[have:n] = rows[have:]
        at = self._resource_rows_np[resource] = buffer[:n]
        return at

    def _live_rows_on(
        self, resource: ResourceId, skip: frozenset[int] = frozenset()
    ) -> Sequence[int]:
        """Active rows on ``resource``, ascending, minus EI seqs in ``skip``.

        A resource with many rows and no ``skip`` answers with an index array.
        """
        rows = self._resource_rows.get(resource, ())
        if len(rows) >= _NUMPY_FILTER_MIN:
            at = self._index_on(resource)
            live = at[self.np_active[at]]
            if not skip:
                return live
            live = live.tolist()
        else:
            active = self._active
            live = [row for row in rows if active[row]]
        if skip:
            row_seq = self.row_seq
            live = [row for row in live if row_seq[row] not in skip]
        return live

    # ------------------------------------------------------------------
    # The arena's mirrors
    # ------------------------------------------------------------------

    def _follow_mirrors(self) -> None:
        """Point this pool's mirror names at the arena's current mirrors."""
        arena = self._arena
        self.npr_seq = arena.npr_seq
        self.npr_finish = arena.npr_finish
        self.npr_finish_f = arena.npr_finish_f
        self.npr_resource = arena.npr_resource
        self.npr_cidx = arena.npr_cidx
        self.npr_static = arena.npr_static
        self.npc_rank_f = arena.npc_rank_f
        self.npc_weight = arena.npc_weight
        self.npc_required = arena.npc_required

    def _grow_records(self) -> None:
        """Grow the per-run records to the capacity of the arena's mirrors.

        Entries past the compiled rows and CEIs are zero (``_FREE``,
        ``_UNSEEN``) and unused.
        """
        for names, cap in (
            (("np_active", "npr_state"), self.npr_seq.size),
            (("npc_state", "npc_captured_f", "npc_medf_s_f", "npc_medf_open_f"),
             self.npc_rank_f.size),
        ):
            for name in names:
                old = getattr(self, name)
                if old.size < cap:
                    new = np.zeros(cap, old.dtype)
                    new[: old.size] = old
                    setattr(self, name, new)
        self.record_reallocs += 1

    def sync_mirrors(self) -> None:
        """Bring the arena's mirrors up to date, then follow them.

        Called at the end of each registration that compiles CEIs into
        this pool's own arena (a supplied arena is synced by
        ``compile_arena`` and ``apply_patch``, and its pools adopt it):
        copies the new rows and CEIs into the mirrors, then re-points
        this pool and sizes its per-run state (:meth:`_extend_run_state`).
        """
        self._arena.sync_mirrors()
        self._extend_run_state()

    # ------------------------------------------------------------------
    # MonitorView protocol
    # ------------------------------------------------------------------

    def is_ei_captured(self, ei: ExecutionInterval) -> bool:
        """Has this EI been captured (proxy belief)?"""
        row = self._row_of_seq.get(ei.seq)
        return row is not None and self.row_state[row] == _CAPTURED

    def captured_count(self, cei: ComplexExecutionInterval) -> int:
        """Captured-EI count of a candidate CEI (0 if unknown)."""
        cidx = self._cidx_of_cid.get(cei.cid)
        return int(self.cei_captured[cidx]) if cidx is not None else 0

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
        cidx = arena.cidx_of_cid.get(cei.cid)
        if cidx is None and self._compile_cei is not None:
            cidx = len(self.cei_rank)
            self._compile_cei(cei, now)
            self.sync_mirrors()
        elif (
            cidx is None
            or self.cei_state[cidx] != _UNSEEN
            or now != arena.cei_release[cidx]
        ):
            self._compiled_cidx(cei, now)  # raises the error that applies
        self._num_registered += 1
        if arena.cei_failed0[cidx]:
            self.cei_state[cidx] = _FAILED
            self._num_failed += 1
            return []
        self.cei_state[cidx] = _OPEN
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
        pool that owns its arena compiles the whole batch first, with one
        mirror sync.  A batch of at least ``BATCH_CUTOVER`` CEIs with
        ``collect=False`` replays the compiled registrations as column
        operations instead.  On a supplied arena it is atomic: an
        unknown or repeated cid, or a wrong arrival chronon, raises the
        same :class:`ModelError` the one-by-one loop would raise first
        and registers nothing.  On an owned arena a batch repeating a
        cid, or naming one already compiled, goes one by one, so it
        raises where that loop does.
        """
        if not isinstance(ceis, (list, tuple)):
            ceis = list(ceis)
        batch = not collect and len(ceis) >= BATCH_CUTOVER
        compile_cei = self._compile_cei
        if compile_cei is not None:
            cids = {cei.cid for cei in ceis}
            # Over the batch's cids, not over every compiled one.
            if len(cids) == len(ceis) and self._cidx_of_cid.keys().isdisjoint(cids):
                for cei in ceis:
                    compile_cei(cei, now)
                self.sync_mirrors()
            else:
                batch = False
        if not batch:
            activated: list[ExecutionInterval] = []
            for cei in ceis:
                activated.extend(self.register(cei, now, collect))
            return activated
        arena = self._arena
        state = self.cei_state
        cidxs = list(map(arena.cidx_of_cid.get, [cei.cid for cei in ceis]))
        if (
            None in cidxs
            or len(set(cidxs)) != len(cidxs)
            or _gather(arena.cei_release, cidxs).count(now) != len(cidxs)
            or _gather(state, cidxs).count(_UNSEEN) != len(cidxs)
        ):
            self._check_arrivals(ceis, now)
        failed0 = _gather(arena.cei_failed0, cidxs)
        for cidx, failed in zip(cidxs, failed0):
            state[cidx] = _FAILED if failed else _OPEN
        self._num_registered += len(cidxs)
        self._num_failed += failed0.count(True)
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
        if self.cei_state[cidx] != _UNSEEN or cidx in pending:
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
        if len(rows) >= BATCH_CUTOVER and not collect:
            self._open_batch(rows, now)
            return opened
        cei_state = self.cei_state
        row_state = self.row_state
        for row in rows:
            cidx = self.row_cidx[row]
            if cei_state[cidx] != _OPEN:
                continue  # never revealed, or closed while pending
            ei = self._row_ei[row]
            # M-EDF bucket move, future -> open: the sibling's width
            # |I| becomes finish + 1 (the -T term arrives via n_open).
            self.cei_medf_s[cidx] += ei.start
            self.cei_medf_open[cidx] += 1
            if row_state[row] == _RELEASED:
                # Shed away while pending: moved like any uncaptured
                # sibling (the reference sibling walk counts it too), but
                # never activates.  (A pending row was never active, so
                # it cannot be captured.)
                continue
            self._activate_row(row)
            if collect:
                opened.append(ei)
        return opened

    def _open_batch(self, rows: list[int], now: Chronon) -> None:
        """Batched :meth:`open_windows` (no hook)."""
        at = np.array(rows, np.intp)
        ceis = self.npr_cidx[at]
        # The rows of open CEIs all move; the shed ones among them never
        # activate.
        live = self.npc_state[ceis] == _OPEN
        at = at[live]
        ceis = ceis[live]
        self._activate_rows(at[self.npr_state[at] == _FREE])
        # Every row here opens at ``now``: its M-EDF move adds ``now``.
        np.add.at(self.npc_medf_s_f, ceis, float(now))
        np.add.at(self.npc_medf_open_f, ceis, 1.0)

    # ------------------------------------------------------------------
    # Capture and expiry
    # ------------------------------------------------------------------

    def _capture_row(self, row: int, cidx: int) -> bool:
        """Mark one active row captured; True if that satisfied its CEI.

        The CEI is open, or was satisfied earlier in the same capture: its
        count reaches ``required`` exactly once.
        """
        self._deactivate_row(row)
        self.row_state[row] = _CAPTURED
        captured = self.cei_captured[cidx] + 1.0
        self.cei_captured[cidx] = captured
        self.cei_medf_s[cidx] -= self.row_finish[row] + 1
        self.cei_medf_open[cidx] -= 1.0
        if captured == self.cei_required[cidx]:
            self.cei_state[cidx] = _SATISFIED
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

    def _capture_rows(self, live: Sequence[int]) -> list[int]:
        """Capture the active rows ``live`` (batched when there are many)."""
        if len(live) >= BATCH_CUTOVER:
            return self._capture_batch(np.asarray(live, np.intp))
        if isinstance(live, np.ndarray):
            live = live.tolist()
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

    def _capture_batch(self, live: np.ndarray) -> list[int]:
        """Batched :meth:`_capture_rows` of the active rows ``live``, ascending."""
        self.np_active[live] = False
        self._n_active -= live.size
        self.npr_state[live] = _CAPTURED
        cidx = self.npr_cidx[live]
        captured = self.npc_captured_f
        np.add.at(captured, cidx, 1.0)
        np.add.at(self.npc_medf_s_f, cidx, -1.0 - self.npr_finish_f[live])
        np.add.at(self.npc_medf_open_f, cidx, -1.0)
        # One verdict per touched CEI (open, since its rows were active),
        # on its count after the capture.  The rows ascend, and so do
        # their CEIs: each run of equal entries is one CEI.
        first = np.empty(cidx.size, bool)
        first[0] = True
        np.not_equal(cidx[1:], cidx[:-1], out=first[1:])
        ceis = cidx[first]
        done = ceis[captured[ceis] >= self.npc_required[ceis]]
        if done.size:
            self.npc_state[done] = _SATISFIED
            self._num_satisfied += done.size
            self._drop_rows_batch(done)
        return cidx.tolist()

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
        if len(rows) >= BATCH_CUTOVER and not collect:
            self._close_batch(rows, now)
            return expired
        cei_state = self.cei_state
        row_state = self.row_state
        for row in rows:
            cidx = self.row_cidx[row]
            if cei_state[cidx] != _OPEN:
                continue  # never revealed, or already closed
            if row_state[row] != _FREE:
                continue  # captured, or shed away (spectral, no expiry event)
            if self._active[row]:
                self._deactivate_row(row)
            if collect:
                expired.append(self._row_ei[row])
            if self._cannot_satisfy(cidx, now):
                cei_state[cidx] = _FAILED
                self._num_failed += 1
                self._drop_rows_of((cidx,))
        return expired

    def _close_batch(self, rows: list[int], now: Chronon) -> None:
        """Batched :meth:`close_windows` (no hook).

        The rows the scalar loop acts on (an open CEI's free rows) are
        exactly the active ones: such a row was activated at its window's
        start and only capture, closing its CEI or shedding deactivate it
        before expiry.  The scalar loop judges a CEI at its first expiring
        row, but the verdict cannot change at its later ones: siblings
        expiring at ``now`` never count as usable, and closing changes no
        capture.  So one verdict per CEI, after deactivating every
        expiring row, leaves the same state.
        """
        at = np.array(rows, np.intp)
        at = at[self.np_active[at]]
        self.np_active[at] = False
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
        cei_state = self.cei_state
        for c in doomed:
            cei_state[c] = _FAILED
        self._num_failed += len(doomed)
        self._drop_rows_of(doomed)

    def _cannot_satisfy(self, cidx: int, now: Chronon) -> bool:
        """Can the CEI still reach its required capture count after ``now``?

        Counts captures plus free (uncaptured, unshed) siblings whose
        window is still open past ``now`` — siblings expiring *this*
        chronon are already unusable, exactly like the reference pool's
        scan.
        """
        usable = self.cei_captured[cidx]
        row_state = self.row_state
        row_finish = self.row_finish
        for row in range(self.cei_row_begin[cidx], self.cei_row_end[cidx]):
            if row_state[row] == _FREE and row_finish[row] > now:
                usable += 1
        return usable < self.cei_required[cidx]

    # ------------------------------------------------------------------
    # Load shedding (repro.online.shedding)
    # ------------------------------------------------------------------

    def is_ei_released(self, ei: ExecutionInterval) -> bool:
        """Was this EI withdrawn by load shedding?"""
        row = self._row_of_seq.get(ei.seq)
        return row is not None and self.row_state[row] == _RELEASED

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
        if self.cei_state[self.row_cidx[row]] != _OPEN or self.row_state[row] != _FREE:
            return False
        self.row_state[row] = _RELEASED
        if self._active[row]:
            self._deactivate_row(row)
        return True

    def shed_cei(self, cei: ComplexExecutionInterval) -> bool:
        """Evict one whole open CEI (counted as failed; rows dropped)."""
        cidx = self._cidx_of_cid.get(cei.cid)
        if cidx is None or self.cei_state[cidx] != _OPEN:
            return False
        self.cei_state[cidx] = _FAILED
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
        if cidx is None or self.cei_state[cidx] != _OPEN:
            return False
        self.cei_state[cidx] = _CANCELLED
        self._num_cancelled += 1
        self._drop_rows_of((cidx,))
        return True

    def open_cei_objects(self) -> list[ComplexExecutionInterval]:
        """Open (registered, not closed) CEIs in registration order."""
        is_open = self.npc_state[: len(self.cei_rank)] == _OPEN
        return [self._cei_obj[cidx] for cidx in np.flatnonzero(is_open).tolist()]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def pushable_resources(self, resources: ResourcePool) -> list[ResourceId]:
        """Push-enabled resources currently holding active candidate EIs."""
        active = self.np_active
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
        for row in np.flatnonzero(self.np_active[: len(self.row_seq)]).tolist():
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
        state = _UNSEEN if cidx is None else self.cei_state[cidx]
        if state == _UNSEEN:
            return None
        return FastCEIView(
            cei=cei,
            captured_count=int(self.cei_captured[cidx]),
            satisfied=state == _SATISFIED,
            failed=state == _FAILED,
            cancelled=state == _CANCELLED,
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
    rows = pool.np_active[: len(pool.row_seq)].nonzero()[0]
    if monitor.preemptive:
        return _fast_phase(monitor, rows, chronon, budget_left, probed)
    # The split is per CEI and fixed at chronon start: a CEI that captures
    # during the plus phase still belongs to the minus phase.
    plus_ceis = pool.npc_captured_f[: len(pool.cei_rank)] > 0
    in_plus = plus_ceis[pool.npr_cidx[rows]]
    budget_left = _fast_phase(monitor, rows[in_plus], chronon, budget_left, probed, plus_ceis)
    if budget_left > _EPS:
        minus = rows[~in_plus]
        # Plus-phase overlap captures may have consumed minus rows.
        minus = minus[pool.np_active[minus]]
        budget_left = _fast_phase(monitor, minus, chronon, budget_left, probed, ~plus_ceis)
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


def _fast_phase(
    monitor: "OnlineMonitor",
    rows: np.ndarray,
    chronon: Chronon,
    budget_left: float,
    probed: set[ResourceId],
    in_phase: Optional[np.ndarray] = None,
) -> float:
    """One candidate partition: key its rows, cut the keys, walk the cut.

    ``in_phase`` marks the CEIs of a plus or minus partition (one bool
    per CEI); None when the partition is the whole bag.
    """
    if rows.size == 0:
        return budget_left
    stream = _LocalStream(
        monitor.pool, monitor._kernel, rows, chronon,
        _topk_cut(budget_left, monitor._min_probe_cost, rows.size),
    )
    return _phase_walk(monitor, chronon, budget_left, probed, stream, in_phase)


class _LocalStream:
    """One phase's keys, fed to the walk's heap a top-k slice at a time.

    One ``score_rows`` call keys the phase's rows in the frame of its
    chronon.  The keys are packed ints, ``priority << 42 | finish << 21 |
    seq``, when the kernel is integer-valued and scores per CEI, the pool
    packable and every priority inside ``+-_PRIO_LIMIT``; ``(priority,
    finish, seq, row)`` tuples otherwise.  :meth:`_materialize` pushes
    the ``count`` smallest keys still held back onto ``heap``, sorted, so
    that with selection off the whole bag is sorted once.  ``bound`` is
    the smallest key held back, strictly above every key pushed (None
    once none is): packed keys are unique, and a float cut takes every
    row tied at its boundary priority and keeps the 1-tuple
    ``(priority,)``.  :meth:`widen` pushes the next slice,
    ``TOPK_GROWTH`` times larger.  A slice that finds the heap empty
    becomes the heap, so a walk re-reads ``heap`` after each widening.

    The sharded engine's merge (:mod:`repro.online.sharded`) feeds
    :func:`_phase_walk` through the same ``heap``/``packed``/``bound``/
    ``widen`` surface.
    """

    __slots__ = ("heap", "packed", "bound", "_pool", "_keys", "_rows", "_cut")

    def __init__(
        self, pool: FastCandidatePool, kernel, rows: np.ndarray, chronon: Chronon, count: int
    ) -> None:
        prio = kernel.score_rows(pool, rows, pool.npr_cidx[rows], chronon)
        # np.maximum.reduce, not .max(): no Python-level wrapper per phase.
        self.packed = packed = (
            pool._arena.packable
            and kernel.integer_valued
            and not kernel.row_dependent
            and float(np.maximum.reduce(abs(prio))) < _PRIO_LIMIT
        )
        if packed:  # a packed key names its row
            self._keys = pack_keys(prio, pool.npr_static[rows])
        else:
            self._keys, self._rows, self._pool = prio, rows, pool
        self._cut = count
        self.heap = ()  # the first slice becomes the heap
        self._materialize(count)

    def widen(self) -> None:
        """Push the next geometric slice of the keys held back."""
        self._cut = max(self._cut, 1) * TOPK_GROWTH
        self._materialize(self._cut)

    def _materialize(self, count: int) -> None:
        """Push the ``count`` smallest keys held back onto the heap."""
        keys = self._keys
        if self.packed:
            # In place: the keys are this cut's own array.
            if count < keys.size:
                keys.partition(count)  # distinct keys: keys[count] is the bound
                keys, self._keys, self.bound = keys[:count], keys[count:], int(keys[count])
            else:
                self._keys = self.bound = None
            keys.sort()
            taken = keys.tolist()
        else:
            rows = self._rows
            if count < keys.size:
                # Float keys may tie on priority: take every row tied with
                # the boundary so the priority-only bound stays strict.
                take = keys <= keys[np.argpartition(keys, count)[count]]
                rest = ~take
                if rest.any():
                    self.bound = (float(keys[rest].min()),)
                    self._keys, self._rows = keys[rest], rows[rest]
                else:
                    self._keys = self._rows = self.bound = None
                keys, rows = keys[take], rows[take]
            else:
                self._keys = self._rows = self.bound = None
            pool = self._pool
            if pool._arena.packable:
                order = np.lexsort((pool.npr_static[rows], keys))
            else:
                order = np.lexsort((pool.npr_seq[rows], pool.npr_finish[rows], keys))
            rows = rows[order]
            taken = list(zip(
                keys[order].tolist(), pool.npr_finish[rows].tolist(),
                pool.npr_seq[rows].tolist(), rows.tolist(),
            ))
        heap = self.heap
        if heap:
            heap.extend(taken)
            heapq.heapify(heap)
        else:
            self.heap = taken  # a sorted list is a heap already


def _phase_walk(
    monitor: "OnlineMonitor",
    chronon: Chronon,
    budget_left: float,
    probed: set[ResourceId],
    stream,
    in_phase: Optional[np.ndarray],
) -> float:
    """The budget walk over one phase: one heap of keys, stale ones skipped.

    ``stream`` holds the heap, seeded with the phase's top-k cut, and
    the ``bound`` below which the heap holds every key of the phase (a
    :class:`_LocalStream` or the sharded merge).  A popped key is stale
    when its row left the bag or a sibling re-rank superseded it
    (``cur`` holds each re-ranked row's freshest key), so the first
    fresh, eligible key is the reference heap's pick, unless it lies at
    or past ``bound``: then a key not yet in the heap may rank first, so
    the cut widens before the pick is trusted.  A failed probe that may
    retry re-pushes its key, and a partial capture that may retry
    re-arms it unless a re-rank moved it, as the reference heap does.

    ``in_phase`` marks the CEIs of the partition whose siblings are
    re-ranked (see :func:`_fast_phase`); None for the whole bag.
    """
    pool: FastCandidatePool = monitor.pool
    faults = monitor._faults
    guarded = monitor._guarded_picks  # costs, faults, a probe hook or no overlap
    sensitive = monitor._sibling_sensitive
    schedule = monitor.schedule
    heap = stream.heap
    packed = stream.packed
    bound = stream.bound
    row_of_seq = pool._row_of_seq
    row_resource = pool.row_resource
    active = pool._active
    pop = heapq.heappop
    cost = 1.0
    cur: dict[int, object] = {}

    while budget_left > _EPS:
        if not heap:
            if bound is None:
                break  # phase exhausted
            stream.widen()
            heap, bound = stream.heap, stream.bound
            continue
        key = pop(heap)
        row = row_of_seq[key & _SEQ_MASK] if packed else key[3]
        if not active[row] or (cur and cur.get(row, key) != key):
            continue  # left the bag, or superseded by a re-rank
        rid = row_resource[row]
        if guarded:
            if rid in probed and rid not in monitor._partial_retry_ok:
                continue  # captured by this chronon's probe of rid
            if faults is not None and not faults.available(rid, chronon):
                continue  # backed off, or out of attempts
            if monitor.resources is not None:
                cost = monitor.resources.probe_cost(rid)
                if cost > budget_left + _EPS:
                    continue  # can never fit: the budget only shrinks
        if cost > budget_left + _EPS:
            break  # unit costs: the budget is spent
        if bound is not None and key > bound:
            heapq.heappush(heap, key)
            stream.widen()
            heap, bound = stream.heap, stream.bound
            continue

        budget_left -= cost
        monitor._probes_used += 1
        monitor._charge(rid, chronon, cost)
        if guarded and faults is not None and not faults.attempt(rid, chronon):
            # Failed probe: budget spent, nothing captured, no schedule
            # entry.  A permitted retry competes again with its key.
            if faults.can_retry(rid):
                heapq.heappush(heap, key)
            continue
        schedule.add_probe(rid, chronon)
        probed.add(rid)
        if not guarded:
            touched = pool.capture_resource_rows(rid)
        else:
            if monitor._wants_probe_hook:
                monitor.policy.on_probe(rid, chronon)
            skip = monitor._partial_drops(rid, chronon)
            if monitor.exploit_overlap:
                touched = pool.capture_resource_rows(rid, skip)
            elif pool.row_seq[row] in skip:
                touched = []  # the per-EI verdict dropped exactly this EI
            else:
                touched = pool.capture_single_row(row)
            retry_partial = bool(skip) and monitor._retry_partials and faults.can_retry(rid)
            if retry_partial:
                monitor._partial_retry_ok.add(rid)
            else:
                monitor._partial_retry_ok.discard(rid)
            pre = cur.get(row)
        if sensitive and touched and budget_left > _EPS:
            # (Skipped once the budget is spent: a re-rank only feeds
            # later picks of this phase.)
            _refresh_siblings_fast(
                pool, monitor._kernel, touched, chronon, in_phase, heap, cur, packed
            )
        if guarded and retry_partial and active[row] and cur.get(row) == pre:
            # The probe dropped the chosen EI itself and no re-rank moved
            # its key: re-arm it for a re-probe.
            heapq.heappush(heap, key)
    return budget_left


def _refresh_siblings_fast(
    pool: FastCandidatePool,
    kernel,
    touched: Iterable[int],
    chronon: Chronon,
    in_phase: Optional[np.ndarray],
    heap: list,
    cur: dict[int, object],
    packed: bool,
) -> None:
    """Push fresh keys for the live siblings of each CEI in ``touched``.

    A CEI outside the phase (``in_phase`` false) keeps its keys; None
    means the phase spans the whole bag.  Packed keys are Python ints
    here, so no score is too large to pack, and their kernel scores per
    CEI (:class:`_LocalStream` packs no row-dependent kernel).
    """
    active = pool._active
    row_finish = pool.row_finish
    row_seq = pool.row_seq
    cei_state = pool.cei_state
    row_dependent = kernel.row_dependent
    push = heapq.heappush
    for cidx in touched:
        if cei_state[cidx] != _OPEN or (in_phase is not None and not in_phase[cidx]):
            continue  # closed, or not in this phase
        rows = range(pool.cei_row_begin[cidx], pool.cei_row_end[cidx])
        # One loop per key form keeps the branches out of the row loop.
        if packed:
            high = int(kernel.score_cei(pool, cidx, chronon)) << 42
            for row in rows:
                if active[row]:
                    key = high + (row_finish[row] << 21) + row_seq[row]
                    if cur.get(row) != key:
                        cur[row] = key
                        push(heap, key)
            continue
        # Row-dependent kernels (expected gain: siblings on different
        # resources score differently) score per row, the rest per CEI.
        fresh = None if row_dependent else kernel.score_cei(pool, cidx, chronon)
        for row in rows:
            if active[row]:
                score = kernel.score_row(pool, row, cidx, chronon) if row_dependent else fresh
                key = (score, row_finish[row], row_seq[row], row)
                if cur.get(row) != key:
                    cur[row] = key
                    push(heap, key)


def run_fast_span(
    monitor: "OnlineMonitor",
    epoch: Epoch,
    arrivals: Mapping[Chronon, Sequence[ComplexExecutionInterval]],
) -> None:
    """Probe a whole run from one priority heap (``monitor.run``'s fast path).

    A shift-invariant kernel (S-EDF, MRSF, W-MRSF; see
    :attr:`repro.policies.kernels.ScoreKernel.shift_invariant`) carries
    its keys across chronons and ranks CEIs, not rows
    (:func:`_walk_carried`): the heap holds one entry per open CEI, so
    every event costs O(log A), never O(A).  An integer-valued kernel
    without that licence (M-EDF) is re-keyed instead
    (:func:`_walk_rekeyed`): each chronon with budget is one
    :func:`_phase_walk` over the live bag, scored in the frame of that
    chronon and cut to its top-k (:class:`_LocalStream`).  The other
    gates are in ``OnlineMonitor.run``.

    Per chronon: register and open, then walk the budget, then close.
    A popped key is stale when a later key superseded it, so the first
    fresh one is the step loop's pick.  Overlap is on, so a probe
    captures every live row on its resource: no "already probed" check.

    Keys are packed ints, ``priority << 42 | finish << 21 | seq``, while
    every key pushed fits.  From the first that does not, they are
    ``(priority, finish, seq, row)`` tuples: for the rest of the run when
    keys are carried, for that chronon when they are re-keyed.
    """
    kernel = monitor._kernel
    assert kernel is not None and (kernel.shift_invariant or kernel.integer_valued)
    if kernel.shift_invariant:
        _walk_carried(monitor, epoch, arrivals)
    else:
        _walk_rekeyed(monitor, epoch, arrivals)


def _walk_carried(
    monitor: "OnlineMonitor",
    epoch: Epoch,
    arrivals: Mapping[Chronon, Sequence[ComplexExecutionInterval]],
) -> None:
    """The whole run under a shift-invariant kernel: one entry per open CEI.

    Every key is scored in the frame of the epoch's first chronon and
    stays valid for the whole run.  The kernel ranks a CEI's live rows
    by ``(finish, seq)``, so the heap needs only each open CEI's best
    live row: the global pick is the best of the bests.  ``best[c]`` is
    the key of CEI ``c``'s entry (None without one) and ``entry[c]`` its
    row; a popped key that is not its CEI's ``best`` was superseded.
    Every event pushes at most once per CEI:

    * a row that activates (at registration, or when its window opens)
      pushes only when it beats its CEI's entry;
    * a capture re-keys each distinct touched CEI once, under a
      sibling-sensitive kernel (MRSF's residual falls): at its fresh
      score while its entry row lives, at its next-best live row once
      the probe took that row, and not at all once it is satisfied.
      Other kernels' scores stay put, so only the probed CEI, whose
      entry was just consumed, is re-keyed at once;
    * an expiry pushes nothing.

    Any other entry whose row left the bag still lies below every live
    row of its CEI, and is re-keyed when it surfaces: an AND CEI whose
    best row expired has failed, but a k-of-n CEI may live on.
    """
    pool: FastCandidatePool = monitor.pool
    kernel = monitor._kernel
    schedule = monitor.schedule
    budget = monitor.budget
    timeline = monitor._activation_timeline()
    sensitive = monitor._sibling_sensitive
    score = kernel.score_row
    frame = epoch.first
    row_of_seq = pool._row_of_seq
    cidx_of_cid = pool._cidx_of_cid
    row_resource = pool.row_resource
    row_cidx = pool.row_cidx
    row_finish = pool.row_finish
    row_seq = pool.row_seq
    begin = pool.cei_row_begin
    end = pool.cei_row_end
    immediate = pool._arena.immediate_rows
    push = heapq.heappush
    pop = heapq.heappop
    static_bits = (1 << 42) - 1
    heap: list = []
    best: list = [None] * len(pool.cei_rank)
    entry = [-1] * len(pool.cei_rank)
    packed = kernel.integer_valued and pool._arena.packable
    active = pool._active

    def enter(row: int, cidx: int) -> None:
        """Make ``row`` the entry of CEI ``cidx``: key it and push it."""
        prio = score(pool, row, cidx, frame)
        if packed:
            key = (int(prio) << 42) + (row_finish[row] << 21) + row_seq[row]
        else:
            key = (prio, row_finish[row], row_seq[row], row)
        best[cidx] = key
        entry[cidx] = row
        push(heap, key)

    def rescan(cidx: int) -> None:
        """Re-key CEI ``cidx``, whose entry row left the bag, at its best live row."""
        first = -1
        for row in range(begin[cidx], end[cidx]):
            if active[row] and (
                first < 0
                or row_finish[row] < row_finish[first]
                or (row_finish[row] == row_finish[first] and row_seq[row] < row_seq[first])
            ):
                first = row
        if first < 0:
            best[cidx] = None  # no live row: it closed, or waits for an opening
        else:
            enter(first, cidx)

    for t in monitor._busy_chronons(epoch, arrivals):
        monitor._clock = t
        new = arrivals.get(t)
        rows = timeline.get(t, ())
        if new:
            n = len(row_seq)
            pool.register_arrivals(new, t, collect=False)
            if len(pool.cei_rank) > len(best):  # an owned arena compiled CEIs
                grown = len(pool.cei_rank) - len(best)
                best.extend([None] * grown)
                entry.extend([-1] * grown)
            # An owned arena compiles rows as their CEIs register.
            if packed and len(row_seq) > n and (max(row_finish[n:]) | max(row_seq[n:])) >> 21:
                # The first key that will not pack: tuples from here on.
                packed = False
                for cidx, key in enumerate(best):
                    if key is not None:
                        finish, seq = (key >> 21) & _SEQ_MASK, key & _SEQ_MASK
                        best[cidx] = (float(key >> 42), finish, seq, entry[cidx])
                heap[:] = [key for key in best if key is not None]
                heapq.heapify(heap)
            rows = [row for cei in new for row in immediate[cidx_of_cid[cei.cid]]] + list(rows)
        pool.open_windows(t, collect=False)
        # Registration may have grown the records.
        active, cei_state = pool._active, pool.cei_state
        for row in rows:
            if active[row]:
                cidx = row_cidx[row]
                first = entry[cidx]
                if best[cidx] is None or (
                    row_finish[row] < row_finish[first]
                    or (row_finish[row] == row_finish[first] and row_seq[row] < row_seq[first])
                ):
                    enter(row, cidx)

        budget_left = budget.at(t)
        while 1.0 <= budget_left + _EPS and heap:
            key = pop(heap)
            row = row_of_seq[key & _SEQ_MASK] if packed else key[3]
            cidx = row_cidx[row]
            if best[cidx] != key:
                continue  # superseded
            if not active[row]:
                rescan(cidx)  # a k-of-n CEI's best row expired, or the CEI closed
                continue
            rid = row_resource[row]
            budget_left -= 1.0
            monitor._probes_used += 1
            monitor._charge(rid, t, 1.0)
            schedule.add_probe(rid, t)
            touched = pool.capture_resource_rows(rid)
            if not sensitive:
                rescan(cidx)  # the only entry the capture consumed
                continue
            for cidx in dict.fromkeys(touched):
                if cei_state[cidx] != _OPEN:  # satisfied by this capture
                    best[cidx] = None  # its entry in the heap is stale now
                    continue
                row = entry[cidx]
                if not active[row]:
                    rescan(cidx)
                    continue
                # Still the CEI's best row: only its score may move.
                key = best[cidx]
                prio = score(pool, row, cidx, frame)
                fresh = (int(prio) << 42) + (key & static_bits) if packed else (prio, *key[1:])
                if fresh != key:
                    best[cidx] = fresh
                    push(heap, fresh)
        pool.close_windows(t, collect=False)


def _walk_rekeyed(
    monitor: "OnlineMonitor",
    epoch: Epoch,
    arrivals: Mapping[Chronon, Sequence[ComplexExecutionInterval]],
) -> None:
    """The whole run under M-EDF: one phase walk per busy chronon.

    M-EDF's keys move with the chronon at per-CEI slopes, so each chronon
    with budget re-keys the live bag in its own frame (a
    :class:`_LocalStream`) and spends the budget with :func:`_phase_walk`,
    as ``step()`` would; the heap is dropped when the chronon ends.
    """
    pool: FastCandidatePool = monitor.pool
    kernel = monitor._kernel
    budget = monitor.budget
    # One probed set for the whole run: an unguarded walk only adds to it.
    probed: set[ResourceId] = set()
    for t in monitor._busy_chronons(epoch, arrivals):
        monitor._clock = t
        new = arrivals.get(t)
        if new:
            pool.register_arrivals(new, t, collect=False)
        pool.open_windows(t, collect=False)
        budget_left = budget.at(t)
        if 1.0 <= budget_left + _EPS and pool._n_active:
            rows = pool.np_active[: len(pool.row_seq)].nonzero()[0]
            stream = _LocalStream(
                pool, kernel, rows, t, _topk_cut(budget_left, 1.0, rows.size)
            )
            _phase_walk(monitor, t, budget_left, probed, stream, None)
        pool.close_windows(t, collect=False)
