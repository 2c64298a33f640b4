"""Compiled problem-instance arenas: the vectorized engine's candidate columns.

Every :class:`repro.online.fastpath.FastCandidatePool` runs over an
:class:`InstanceArena`: a structure-of-arrays record of the CEIs it can
register, holding the per-row and per-CEI columns, the initial M-EDF
aggregates, the rows active at registration and the activation/expiry
timelines, plus the arrival map the monitor consumes.  One function
compiles a CEI into it, :func:`_register_cei`; it is the only code that
appends rows.  A pool *shares* the arena's structures and holds only the
per-run records (the active mask, row and CEI fates, captured counts,
M-EDF aggregates), so registering a compiled CEI replays its compiled
activation without walking its EIs.

Each static column exists twice: as a Python list, which the compile
walk appends to and the scalar paths index, and as a NumPy mirror
(``npr_*`` row columns, ``npc_*`` CEI columns), which the scoring
kernels and the ``lexsort`` read.  The arena owns both, and every call
that compiles rows ends with :meth:`InstanceArena.sync_mirrors`, which
copies the new rows and CEIs into the mirrors and doubles their
capacity when they run out.  So the mirrors are current wherever rows
are read, and a stream of compiles reallocates them O(log rows) times.

There are two ways to get an arena:

* :func:`compile_arena` compiles a whole instance up front, for arrival
  at each CEI's release chronon by default — the arrival rule
  ``simulate`` / ``run_suite`` use — or at explicit arrival chronons for
  streaming workloads.  The suite methodology (paper Section V-A.3) runs
  *every* policy on the identical instance of each repetition, so the
  O(total EIs) walk is paid once per instance instead of once per
  *(repetition, policy)* cell; pools built from the arena
  (``FastCandidatePool(arena=...)``) reject CEIs and arrival chronons it
  was not compiled for.
* ``FastCandidatePool()`` compiles an empty arena of its own and
  compiles each CEI into it, in place, when the CEI registers: any CEI
  may arrive at any chronon, and registration costs O(new EIs).

A run is bit-for-bit identical whichever way its arena was built
(``tests/test_arena.py`` enforces this, and
``tests/test_fastpath_equivalence.py`` closes the loop against the
reference engine).

**Delta layer.**  A long-lived proxy cannot afford a full recompile per
churn event.  :class:`ArenaPatch` describes one churn batch (CEIs to
register at given arrival chronons, cids to cancel, a horizon to expire)
and :func:`apply_patch` applies it to the arena *in place*: the columns
are extended through the same per-CEI compile walk, the mirrors take
the new rows, and live pools size their per-run records to the grown
arena without losing any run state
(``FastCandidatePool.adopt_arena``).  A patch is validated in full
before anything is touched, so a refused one leaves the arena as it
was; an arena a pool owns takes no patch.  Because the probe loop's
selection keys are ``(priority, finish, seq)`` — and seqs are
process-unique — appended rows rank exactly as they would in a
from-scratch compile, so a patched run stays bit-identical to one whose
profiles were known in advance (``tests/test_churn_equivalence.py``).
"""

from __future__ import annotations

import os
import secrets
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence

import numpy as np

from repro.core.errors import ModelError
from repro.core.intervals import ComplexExecutionInterval, ExecutionInterval
from repro.core.profile import ProfileSet
from repro.core.timebase import Chronon
from repro.online.arrivals import arrivals_from_profiles

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.online.fastpath import FastCandidatePool


def _column(dtype):
    """An empty NumPy mirror: a dataclass field default."""
    return field(default_factory=partial(np.zeros, 0, dtype))


@dataclass(eq=False, slots=True)
class InstanceArena:
    """Structure-of-arrays record of one problem instance, grown in place.

    One object per instance: :func:`apply_patch`, or the pool that owns
    the arena, compiles new CEIs into it, and every pool built from it
    reads its columns and never writes them.  Rows appear in
    registration order (CEIs sorted by arrival, EIs in CEI order),
    exactly the order a pool compiling the CEIs as they register would
    build.  The NumPy mirrors hold capacity past the compiled rows and
    CEIs; :meth:`sync_mirrors` keeps them current and replaces them
    when it grows them, so a reader re-reads them from the arena.
    """

    profiles: ProfileSet
    #: The arrival map ``simulate`` consumes (arrival chronon -> CEIs).
    arrivals: dict[Chronon, list[ComplexExecutionInterval]]

    # Row-level columns (one row per usable EI).
    row_seq: list[int] = field(default_factory=list)
    row_finish: list[int] = field(default_factory=list)
    row_resource: list[int] = field(default_factory=list)
    row_cidx: list[int] = field(default_factory=list)
    row_ei: list[ExecutionInterval] = field(default_factory=list)

    # Their NumPy mirrors.  The static per-row tie-break key
    # npr_static = finish * 2^21 + seq orders rows exactly like the
    # lexicographic (finish, seq) pair while both components stay below
    # 2^21 (``packable``); one int64 column then replaces two lexsort key
    # levels per phase.
    npr_seq: np.ndarray = _column(np.int64)
    npr_finish: np.ndarray = _column(np.int64)
    npr_finish_f: np.ndarray = _column(np.float64)
    npr_resource: np.ndarray = _column(np.int64)
    npr_cidx: np.ndarray = _column(np.int64)
    npr_static: np.ndarray = _column(np.int64)
    packable: bool = True

    # CEI-level columns.
    cei_rank: list[int] = field(default_factory=list)
    cei_required: list[int] = field(default_factory=list)
    cei_weight: list[float] = field(default_factory=list)
    cei_failed0: list[bool] = field(default_factory=list)
    cei_medf_s0: list[int] = field(default_factory=list)
    cei_medf_open0: list[int] = field(default_factory=list)
    cei_row_begin: list[int] = field(default_factory=list)
    cei_row_end: list[int] = field(default_factory=list)
    cei_release: list[Chronon] = field(default_factory=list)
    cei_obj: list[ComplexExecutionInterval] = field(default_factory=list)
    npc_rank_f: np.ndarray = _column(np.float64)
    npc_weight: np.ndarray = _column(np.float64)
    npc_required: np.ndarray = _column(np.int64)

    #: Rows active immediately at registration, per CEI index.
    immediate_rows: list[list[int]] = field(default_factory=list)
    #: Window-event timelines: chronon -> rows opening / expiring there.
    #: Like ``resource_rows``, a ``defaultdict(list)`` that only
    #: :func:`_register_cei` subscripts; readers use ``get``.
    activate_at: defaultdict[Chronon, list[int]] = field(
        default_factory=partial(defaultdict, list)
    )
    expire_at: defaultdict[Chronon, list[int]] = field(
        default_factory=partial(defaultdict, list)
    )

    row_of_seq: dict[int, int] = field(default_factory=dict)
    cidx_of_cid: dict[int, int] = field(default_factory=dict)
    #: Every row ever placed on each resource, in row order.  Pools find
    #: the live rows on a resource by filtering this with their active
    #: mask; :func:`apply_patch` extends it in place.
    resource_rows: defaultdict[int, list[int]] = field(
        default_factory=partial(defaultdict, list)
    )
    #: NumPy copies of ``resource_rows``' lists, shared by every pool of
    #: the arena: each is a view of a capacity-doubling buffer, and a
    #: view shorter than its list takes the list's new tail.
    resource_rows_np: dict[int, np.ndarray] = field(default_factory=dict)

    #: cids withdrawn by :func:`apply_patch` cancellations.
    #: Informational: registration replay of a cancelled cid still
    #: works — the streaming layer consults this to keep cancelled CEIs
    #: out of future registrations.
    cancelled_cids: set[int] = field(default_factory=set)

    #: True for the arena a ``FastCandidatePool()`` compiles its CEIs
    #: into as they register; :func:`apply_patch` refuses it.
    owned: bool = False
    #: Rows and CEIs already copied into the mirrors.
    mirrored_rows: int = 0
    mirrored_ceis: int = 0
    #: Mirror reallocations so far: O(log rows) for any compile stream
    #: (tests/test_fastpath_equivalence.py and bench_micro's
    #: mirror-growth bench guard the bound).
    mirror_reallocs: int = 0

    @property
    def n_rows(self) -> int:
        return len(self.row_seq)

    @property
    def n_ceis(self) -> int:
        return len(self.cei_rank)

    def sync_mirrors(self) -> None:
        """Copy the rows and CEIs compiled since the last sync into the mirrors.

        When they outgrow the mirrors' capacity, every mirror is
        replaced by one of ``max(needed, 2 * capacity)`` entries: a
        from-scratch compile gets exact-size mirrors, and any stream of
        compiles O(log rows) reallocations.  Entries past the compiled
        rows and CEIs are zero.
        """
        a, n = self.mirrored_rows, len(self.row_seq)
        b, m = self.mirrored_ceis, len(self.cei_rank)
        if n > self.npr_seq.size or m > self.npc_rank_f.size:
            rows = max(n, 2 * self.npr_seq.size)
            ceis = max(m, 2 * self.npc_rank_f.size)
            for names, cap in (
                (("npr_seq", "npr_finish", "npr_finish_f", "npr_resource",
                  "npr_cidx", "npr_static"), rows),
                (("npc_rank_f", "npc_weight", "npc_required"), ceis),
            ):
                for name in names:
                    old = getattr(self, name)
                    new = np.zeros(cap, old.dtype)
                    new[: old.size] = old
                    setattr(self, name, new)
            self.mirror_reallocs += 1
        if a < n:
            seq = self.npr_seq[a:n]
            finish = self.npr_finish[a:n]
            seq[:] = self.row_seq[a:n]
            finish[:] = self.row_finish[a:n]
            self.npr_finish_f[a:n] = finish
            self.npr_resource[a:n] = self.row_resource[a:n]
            self.npr_cidx[a:n] = self.row_cidx[a:n]
            self.npr_static[a:n] = finish * (1 << 21) + seq
            if self.packable and max(seq.max(), finish.max()) >= 1 << 21:
                self.packable = False
            self.mirrored_rows = n
        if b < m:
            self.npc_rank_f[b:m] = self.cei_rank[b:m]
            self.npc_weight[b:m] = self.cei_weight[b:m]
            self.npc_required[b:m] = self.cei_required[b:m]
            self.mirrored_ceis = m


@dataclass(frozen=True, slots=True)
class ArenaPatch:
    """One churn batch against a compiled arena.

    Parameters
    ----------
    register:
        ``(cei, arrival_chronon)`` pairs to compile into the arena.  The
        arrival chronon is where the CEI will be revealed to the monitor
        (``register(cei, arrival)``); late arrivals (past the CEI's
        release) compile with the reference pool's exact late-submission
        semantics, dead-on-arrival included.
    cancel:
        cids to withdraw: pending arrivals are unscheduled, already
        registered CEIs are closed in every live pool the patch is
        applied to (see :func:`apply_patch`).
    expire_before:
        Optional horizon: arrival and window-event timeline entries at
        chronons strictly below it are pruned (they are in the past for
        any monitor that already stepped there).  Bounds the event-dict
        growth of a long-running stream; rows are never re-indexed.
    """

    register: tuple[tuple[ComplexExecutionInterval, Chronon], ...] = ()
    cancel: tuple[int, ...] = ()
    expire_before: Optional[Chronon] = None

    @classmethod
    def registrations(
        cls,
        ceis: Sequence[ComplexExecutionInterval],
        at: Optional[Chronon] = None,
    ) -> "ArenaPatch":
        """A register-only patch; ``at=None`` uses each CEI's release."""
        return cls(
            register=tuple(
                (cei, cei.release if at is None else max(at, cei.release))
                for cei in ceis
            )
        )

    def __bool__(self) -> bool:
        return bool(self.register or self.cancel or self.expire_before is not None)


def _register_cei(
    arena: InstanceArena, cei: ComplexExecutionInterval, at: Chronon
) -> None:
    """Compile one CEI's registration at arrival chronon ``at``.

    Appends to ``arena``'s containers: the arena being compiled or
    patched, or the arena a ``FastCandidatePool`` owns, when the CEI
    registers there.  This is the only code that appends rows; its
    caller syncs the mirrors once the batch is compiled.  It follows
    ``CandidatePool.register``: EIs already expired at arrival contribute
    the open M-EDF form ``(finish + 1, 1)`` without materializing a row,
    and a CEI whose surviving EIs cannot reach ``required`` is dead on
    arrival (no rows).
    """
    row_seq = arena.row_seq
    row = len(row_seq)
    cidx = len(arena.cei_rank)
    arena.cidx_of_cid[cei.cid] = cidx
    arena.cei_obj.append(cei)
    arena.cei_release.append(at)
    eis = cei.eis
    arena.cei_rank.append(len(eis))
    arena.cei_required.append(cei.required)
    arena.cei_weight.append(cei.weight)
    alive = len(eis)
    for ei in eis:
        if ei.finish < at:
            alive -= 1
    failed = alive < cei.required
    arena.cei_failed0.append(failed)
    arena.cei_row_begin.append(row)
    immediate: list[int] = []
    medf_s = 0
    medf_open = 0
    if not failed:
        row_finish = arena.row_finish
        row_resource = arena.row_resource
        row_cidx = arena.row_cidx
        row_ei = arena.row_ei
        row_of_seq = arena.row_of_seq
        resource_rows = arena.resource_rows
        activate_at = arena.activate_at
        expire_at = arena.expire_at
        for ei in eis:
            finish = ei.finish
            if finish < at:
                # Unusable, but an uncaptured sibling for M-EDF purposes:
                # contributes finish - T + 1 like any open-window sibling.
                medf_s += finish + 1
                medf_open += 1
                continue
            seq = ei.seq
            resource = ei.resource
            row_seq.append(seq)
            row_finish.append(finish)
            row_resource.append(resource)
            row_cidx.append(cidx)
            row_ei.append(ei)
            row_of_seq[seq] = row
            resource_rows[resource].append(row)
            start = ei.start
            if start <= at:
                immediate.append(row)
                medf_s += finish + 1
                medf_open += 1
            else:
                medf_s += finish - start + 1
                activate_at[start].append(row)
            expire_at[finish].append(row)
            row += 1
    arena.cei_row_end.append(row)
    arena.cei_medf_s0.append(medf_s)
    arena.cei_medf_open0.append(medf_open)
    arena.immediate_rows.append(immediate)


def compile_arena(
    profiles: ProfileSet,
    *,
    arrivals: Optional[dict[Chronon, list[ComplexExecutionInterval]]] = None,
) -> InstanceArena:
    """Compile a profile set into a reusable :class:`InstanceArena`.

    Performs the registration walk (:func:`_register_cei`) of every CEI
    exactly once: the dead-on-arrival rule, the immediate-vs-deferred
    activation split and the initial M-EDF aggregates (``S`` and
    ``n_open`` right after registration).  The cost is O(total EIs) —
    amortized over every policy run that reuses the arena.

    By default every CEI registers at its release chronon (the only
    arrival rule ``simulate`` / ``run_suite`` use).  An explicit
    ``arrivals`` map compiles each CEI at the chronon it appears under
    instead — the from-scratch baseline for a streaming run whose churn
    timeline is known in advance.
    """
    if arrivals is None:
        arrivals = arrivals_from_profiles(profiles)
    arena = InstanceArena(profiles=profiles, arrivals=arrivals)
    for arrival in sorted(arrivals):
        for cei in arrivals[arrival]:
            _register_cei(arena, cei, arrival)
    arena.sync_mirrors()
    return arena


def _check_patch(arena: InstanceArena, patch: ArenaPatch) -> None:
    """Reject a patch that :func:`apply_patch` could only half apply.

    Runs before anything is mutated, so a refused patch leaves the arena
    (and every pool sharing it) exactly as it was.
    """
    batch: set[int] = set()
    for cei, at in patch.register:
        if cei.cid in arena.cidx_of_cid:
            raise ModelError(f"CEI {cei.cid} is already compiled into this arena")
        if cei.cid in batch:
            raise ModelError(f"CEI {cei.cid} appears twice in one patch")
        if at < 0:
            raise ModelError(f"arrival chronon must be >= 0, got {at}")
        batch.add(cei.cid)
    for cid in patch.cancel:
        if cid not in arena.cidx_of_cid and cid not in batch:
            raise ModelError(f"cannot cancel CEI {cid}: not in this arena")


def expire_timelines(arena: InstanceArena, horizon: Chronon) -> None:
    """Prune ``arena``'s arrival and window-event timelines below ``horizon``.

    The entries dropped are in the past for any monitor that already
    stepped to ``horizon``; rows are never re-indexed.  ``apply_patch``
    runs it for ``ArenaPatch.expire_before``, and a pool that owns its
    arena runs it on that arena directly (no patch reaches an owned
    arena).
    """
    for timeline in (arena.arrivals, arena.activate_at, arena.expire_at):
        for chronon in [t for t in timeline if t < horizon]:
            del timeline[chronon]


def apply_patch(
    arena: InstanceArena,
    patch: ArenaPatch,
    pools: "Sequence[FastCandidatePool]" = (),
) -> InstanceArena:
    """Apply one churn batch to ``arena`` in place; returns ``arena``.

    The whole patch is validated first (an arena a pool owns, cids
    already compiled or repeated within the batch, negative arrivals,
    unknown cancel targets, foreign pools): a refused patch raises
    :class:`ModelError` and changes nothing.

    Registrations run the compile walk, O(new EIs) Python work, and
    their rows are copied into the mirrors, which double when they run
    out of capacity: no recompile, and no copy of the rows already
    compiled, except at an O(log rows) number of reallocations.

    ``pools`` lists the live pools built on ``arena``; each one sizes
    its per-run records to the grown arena (``adopt_arena``) and has the
    patch's cancellations applied to its open CEIs.  **Every** live
    pool of the arena must be listed — a pool left out would observe the
    grown columns without the matching per-run state.  Registered CEIs
    are *not* revealed here: they enter each pool when the monitor steps
    their arrival chronon, exactly like a compiled-in arrival.
    """
    if arena.owned:
        raise ModelError(
            "this arena is owned by a pool, which compiles CEIs into it as "
            "they register; patch an arena from compile_arena instead"
        )
    for pool in pools:
        if pool._arena is not arena:
            raise ModelError(
                "apply_patch pools must be live pools of the patched arena"
            )
    _check_patch(arena, patch)

    for cei, at in patch.register:
        _register_cei(arena, cei, at)
        arena.arrivals.setdefault(at, []).append(cei)
    arena.sync_mirrors()

    for cid in patch.cancel:
        if cid in arena.cancelled_cids:
            continue
        arena.cancelled_cids.add(cid)
        cidx = arena.cidx_of_cid[cid]
        cei = arena.cei_obj[cidx]
        # Unschedule a still-pending arrival so no pool ever registers it.
        pending = arena.arrivals.get(arena.cei_release[cidx])
        if pending is not None and cei in pending:
            pending.remove(cei)

    if patch.expire_before is not None:
        expire_timelines(arena, patch.expire_before)

    for pool in pools:
        pool.adopt_arena(arena)
        for cid in patch.cancel:
            # A no-op for a CEI the pool never registered or already closed.
            pool.cancel_cei(arena.cei_obj[arena.cidx_of_cid[cid]])
    return arena


# ----------------------------------------------------------------------
# Shared-memory arena views (the sharded scheduling engine's substrate).
# ----------------------------------------------------------------------

#: /dev/shm segments created by this process carry this prefix so tests
#: (and operators) can audit for leaks.
SHM_PREFIX = "repro-shard"


def _release_segment(shm: shared_memory.SharedMemory, owner: bool) -> None:
    """Detach (and, for the owner, remove) one shared-memory segment.

    Runs from ``weakref.finalize`` / explicit ``close``; every step is
    best-effort because the segment may already be gone (worker died, or
    the owner unlinked first) and a leaked *mapping* in a dying process
    is harmless while a leaked */dev/shm name* is not.
    """
    try:
        shm.close()
    except BufferError:  # a NumPy view is still alive; mapping freed at exit
        pass
    except OSError:  # pragma: no cover - platform-specific detach races
        pass
    if owner:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover
            pass


class SharedArenaView:
    """Zero-copy NumPy columns reconstructed from one shared-memory block.

    ``publish`` lays a set of named 1-D arrays into a single
    ``multiprocessing.shared_memory`` segment (64-byte-aligned offsets)
    and returns the owning view; :attr:`manifest` is a picklable layout
    descriptor — ``{"name", "size", "fields": {name: (offset, dtype,
    length)}}`` — from which ``attach`` rebuilds the identical arrays in
    another process without copying a byte.  Writes through any view's
    arrays are visible to every attached process; the caller provides
    the ordering barrier (the sharded engine uses its command pipes).

    Lifecycle: the *owner* (publisher) unlinks the segment; attachers
    only detach.  Both register a ``weakref.finalize`` so segments are
    reclaimed even on abnormal teardown, and ``attach`` unregisters the
    segment from ``multiprocessing.resource_tracker`` — otherwise any
    attaching child's exit would unlink the name out from under the
    owner (CPython < 3.13 tracks attachments too).
    """

    __slots__ = ("arrays", "manifest", "owner", "_shm", "_finalizer", "__weakref__")

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        fields: Mapping[str, tuple],
        owner: bool,
    ) -> None:
        self._shm = shm
        self.owner = owner
        self.arrays: Dict[str, np.ndarray] = {}
        for name, (offset, dtype, length) in fields.items():
            self.arrays[name] = np.ndarray(
                (length,), dtype=np.dtype(dtype), buffer=shm.buf, offset=offset
            )
        self.manifest = {
            "name": shm.name,
            "size": shm.size,
            "fields": {name: tuple(spec) for name, spec in fields.items()},
        }
        self._finalizer = weakref.finalize(self, _release_segment, shm, owner)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    @classmethod
    def publish(
        cls, columns: Mapping[str, np.ndarray], prefix: str = SHM_PREFIX
    ) -> "SharedArenaView":
        """Create a segment holding copies of ``columns`` and own it."""
        specs: Dict[str, tuple] = {}
        offset = 0
        sources: Dict[str, np.ndarray] = {}
        for name, arr in columns.items():
            arr = np.ascontiguousarray(arr)
            if arr.ndim != 1:
                raise ModelError(
                    f"shared arena column {name!r} must be 1-D, got {arr.ndim}-D"
                )
            offset = -(-offset // 64) * 64  # 64-byte alignment per column
            specs[name] = (offset, arr.dtype.str, int(arr.shape[0]))
            offset += arr.nbytes
            sources[name] = arr
        name = f"{prefix}-{os.getpid()}-{secrets.token_hex(4)}"
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1), name=name)
        view = cls(shm, specs, owner=True)
        for field_name, arr in sources.items():
            view.arrays[field_name][...] = arr
        return view

    @classmethod
    def attach(cls, manifest: Mapping) -> "SharedArenaView":
        """Rebuild the arrays of a published segment in this process.

        Tracker registration is suppressed for the duration of the
        attach: CPython < 3.13 registers *attachments* with the
        ``resource_tracker`` too, which would let any attaching child's
        exit unlink the segment out from under the owner (and racing
        register/unregister pairs from sibling shards trip the tracker's
        bookkeeping).  The owner remains the one tracked registrant.
        """
        try:
            from multiprocessing import resource_tracker

            original = resource_tracker.register
            resource_tracker.register = lambda name, rtype: None
            try:
                shm = shared_memory.SharedMemory(name=manifest["name"])
            finally:
                resource_tracker.register = original
        except ImportError:  # pragma: no cover - tracker module moved
            shm = shared_memory.SharedMemory(name=manifest["name"])
        return cls(shm, manifest["fields"], owner=False)

    def close(self) -> None:
        """Release this view: detach, and unlink if this view owns it."""
        self._finalizer.detach()
        self.arrays.clear()
        _release_segment(self._shm, self.owner)
