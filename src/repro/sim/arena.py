"""Compiled problem-instance arenas: the vectorized engine's candidate columns.

Every :class:`repro.online.fastpath.FastCandidatePool` runs over an
:class:`InstanceArena`: a structure-of-arrays record of the CEIs it can
register, holding the per-row columns, NumPy mirrors, the initial M-EDF
aggregates, the rows active at registration and the activation/expiry
timelines, plus the arrival map the monitor consumes.  One function
compiles a CEI into it, :func:`_register_cei`; it is the only code that
appends rows.  A pool *shares* the arena's structures and holds only the
per-run records (the active mask, row and CEI fates, captured counts,
M-EDF aggregates), so registering a compiled CEI replays its compiled
activation without walking its EIs.

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
and :func:`apply_patch` applies it *incrementally*: the shared Python
columns are extended in place through the same per-CEI compile walk, the NumPy mirrors are extended by one
concatenate each, and live arena-backed pools adopt the result without
losing any run state (``FastCandidatePool.adopt_arena``).  The mirror
copies are a fixed cost per registering patch, so a whole batch should
go in one patch; a patch that registers nothing keeps the generation.
A patch is validated in full before anything is touched, so a refused
one leaves the arena as it was.  Because the
probe loop's selection keys are ``(priority, finish, seq)`` — and seqs
are process-unique — appended rows rank exactly as they would in a
from-scratch compile, so a patched run stays bit-identical to one whose
profiles were known in advance (``tests/test_churn_equivalence.py``).
"""

from __future__ import annotations

import dataclasses
import os
import secrets
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
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


@dataclass(frozen=True, slots=True)
class InstanceArena:
    """Frozen structure-of-arrays snapshot of one problem instance.

    The scalar fields and NumPy mirrors are immutable for the lifetime of
    *this arena object*; pools built from it share the Python containers
    and never write to them.  Rows appear in registration order (CEIs
    sorted by arrival, EIs in CEI order), exactly the order a pool
    compiling the CEIs as they register would build.  A pool's own arena
    (``FastCandidatePool()``) keeps the scalars and mirrors of its empty
    compile while its containers grow: the pool holds the mirrors.

    :func:`apply_patch` extends the shared containers in place; a patch
    that registers CEIs returns a *new* ``InstanceArena`` with fresh
    scalars and mirrors, and the patched-out object must not be used to
    build new pools afterwards (its scalar fields undercount the shared
    containers).  Live pools
    migrate via :meth:`repro.online.fastpath.FastCandidatePool.adopt_arena`.
    """

    profiles: ProfileSet
    #: The arrival map ``simulate`` consumes (arrival chronon -> CEIs).
    arrivals: dict[Chronon, list[ComplexExecutionInterval]]

    n_rows: int
    n_ceis: int

    # Row-level columns (one row per usable EI).
    row_seq: list[int]
    row_finish: list[int]
    row_resource: list[int]
    row_cidx: list[int]
    row_ei: list[ExecutionInterval]

    # Pre-synced NumPy mirrors (see FastCandidatePool.sync_mirrors).
    npr_seq: np.ndarray
    npr_finish: np.ndarray
    npr_finish_f: np.ndarray
    npr_resource: np.ndarray
    npr_cidx: np.ndarray
    npr_static: np.ndarray
    max_seq: int
    max_finish: int
    packable: bool

    # CEI-level columns.
    cei_rank: list[int]
    cei_required: list[int]
    cei_weight: list[float]
    cei_failed0: list[bool]
    cei_medf_s0: list[int]
    cei_medf_open0: list[int]
    cei_row_begin: list[int]
    cei_row_end: list[int]
    cei_release: list[Chronon]
    cei_obj: list[ComplexExecutionInterval]
    npc_rank_f: np.ndarray
    npc_weight: np.ndarray
    npc_required: np.ndarray

    #: Rows active immediately at registration, per CEI index.
    immediate_rows: list[list[int]]
    #: Window-event timelines: chronon -> rows opening / expiring there.
    #: Like ``resource_rows``, a ``defaultdict(list)`` that only
    #: :func:`_register_cei` subscripts; readers use ``get``.
    activate_at: defaultdict[Chronon, list[int]]
    expire_at: defaultdict[Chronon, list[int]]

    row_of_seq: dict[int, int]
    cidx_of_cid: dict[int, int]
    #: Every row ever placed on each resource, in row order.  Pools find
    #: the live rows on a resource by filtering this with their active
    #: mask; :func:`apply_patch` extends it in place.
    resource_rows: defaultdict[int, list[int]]
    #: NumPy copies of ``resource_rows``' lists, shared by every pool of
    #: the arena; a copy shorter than its list is stale and rebuilt.
    resource_rows_np: dict[int, np.ndarray] = field(default_factory=dict)

    #: cids withdrawn by :func:`apply_patch` cancellations (shared across
    #: patch generations).  Informational: registration replay of a
    #: cancelled cid still works — the streaming layer consults this to
    #: keep cancelled CEIs out of future registrations.
    cancelled_cids: set[int] = field(default_factory=set)


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
    registers there.  This is the only code that appends rows.  It follows
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


def _row_mirrors(
    row_seq: Sequence[int],
    row_finish: Sequence[int],
    row_resource: Sequence[int],
    row_cidx: Sequence[int],
) -> dict:
    """NumPy row mirrors plus the packed-key scalars for a row slice."""
    npr_seq = np.asarray(row_seq, np.int64)
    npr_finish = np.asarray(row_finish, np.int64)
    # Same packed tie-break key the pool's own mirror sync computes: valid
    # while both components fit in 21 bits (FastCandidatePool._packable).
    return dict(
        npr_seq=npr_seq,
        npr_finish=npr_finish,
        npr_finish_f=npr_finish.astype(np.float64),
        npr_resource=np.asarray(row_resource, np.int64),
        npr_cidx=np.asarray(row_cidx, np.int64),
        npr_static=npr_finish * (1 << 21) + npr_seq,
        max_seq=int(npr_seq.max()) if len(row_seq) else 0,
        max_finish=int(npr_finish.max()) if len(row_seq) else 0,
    )


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

    arena = InstanceArena(
        profiles=profiles,
        arrivals=arrivals,
        n_rows=0,
        n_ceis=0,
        row_seq=[],
        row_finish=[],
        row_resource=[],
        row_cidx=[],
        row_ei=[],
        npr_seq=np.empty(0, np.int64),
        npr_finish=np.empty(0, np.int64),
        npr_finish_f=np.empty(0, np.float64),
        npr_resource=np.empty(0, np.int64),
        npr_cidx=np.empty(0, np.int64),
        npr_static=np.empty(0, np.int64),
        max_seq=0,
        max_finish=0,
        packable=True,
        cei_rank=[],
        cei_required=[],
        cei_weight=[],
        cei_failed0=[],
        cei_medf_s0=[],
        cei_medf_open0=[],
        cei_row_begin=[],
        cei_row_end=[],
        cei_release=[],
        cei_obj=[],
        npc_rank_f=np.empty(0, np.float64),
        npc_weight=np.empty(0, np.float64),
        npc_required=np.empty(0, np.int64),
        immediate_rows=[],
        activate_at=defaultdict(list),
        expire_at=defaultdict(list),
        row_of_seq={},
        cidx_of_cid={},
        resource_rows=defaultdict(list),
    )
    for arrival in sorted(arrivals):
        for cei in arrivals[arrival]:
            _register_cei(arena, cei, arrival)

    mirrors = _row_mirrors(
        arena.row_seq, arena.row_finish, arena.row_resource, arena.row_cidx
    )
    arena = dataclasses.replace(
        arena,
        n_rows=len(arena.row_seq),
        n_ceis=len(arena.cei_rank),
        packable=mirrors["max_seq"] < (1 << 21)
        and mirrors["max_finish"] < (1 << 21),
        npc_rank_f=np.asarray(arena.cei_rank, np.float64),
        npc_weight=np.asarray(arena.cei_weight, np.float64),
        npc_required=np.asarray(arena.cei_required, np.int64),
        **mirrors,
    )
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


def _next_generation(
    arena: InstanceArena, old_rows: int, old_ceis: int
) -> InstanceArena:
    """The arena view covering rows/CEIs appended since ``old_rows``/``old_ceis``.

    Extends every mirror by one concatenate (exact-size, fully synced,
    never written afterwards — same contract as a fresh compile).
    """
    new = _row_mirrors(
        arena.row_seq[old_rows:],
        arena.row_finish[old_rows:],
        arena.row_resource[old_rows:],
        arena.row_cidx[old_rows:],
    )
    max_seq = max(arena.max_seq, new.pop("max_seq"))
    max_finish = max(arena.max_finish, new.pop("max_finish"))
    mirrors = {
        name: np.concatenate([getattr(arena, name), fresh])
        for name, fresh in new.items()
    }
    return dataclasses.replace(
        arena,
        n_rows=len(arena.row_seq),
        n_ceis=len(arena.cei_rank),
        max_seq=max_seq,
        max_finish=max_finish,
        packable=max_seq < (1 << 21) and max_finish < (1 << 21),
        npc_rank_f=np.concatenate(
            [arena.npc_rank_f, np.asarray(arena.cei_rank[old_ceis:], np.float64)]
        ),
        npc_weight=np.concatenate(
            [arena.npc_weight, np.asarray(arena.cei_weight[old_ceis:], np.float64)]
        ),
        npc_required=np.concatenate(
            [arena.npc_required, np.asarray(arena.cei_required[old_ceis:], np.int64)]
        ),
        **mirrors,
    )


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
    """Apply one churn batch incrementally; returns the patched arena.

    The whole patch is validated first (cids already compiled or repeated
    within the batch, negative arrivals, unknown cancel targets, a stale
    generation, foreign pools): a refused patch raises
    :class:`ModelError` and changes nothing.

    The shared Python containers are extended **in place** (so every
    structure a live pool already shares keeps working).  A patch that
    registers CEIs returns a new ``InstanceArena`` carrying extended
    NumPy mirrors and corrected scalars: O(new EIs) Python work plus one
    O(total rows) NumPy concatenate per mirror — no recompile, but a
    fixed cost per call, so callers should batch.  A patch that registers
    nothing (cancellations, ``expire_before`` compaction) leaves rows,
    mirrors and scalars as they were and returns ``arena`` itself.

    ``pools`` lists the live arena-backed pools sharing ``arena``; each
    one adopts the patched arena (per-run columns extended, mirrors
    privatized) and has the patch's cancellations applied to its open
    CEIs.  **Every** live pool of the arena must be listed — a pool left
    out would observe the grown shared columns without the matching
    per-run state.  Registered CEIs are *not* revealed here: they enter
    each pool when the monitor steps their arrival chronon, exactly like
    a compiled-in arrival.

    After a registering patch the passed-in ``arena`` object must not
    build new pools or take further patches; use the returned arena.
    """
    for pool in pools:
        if pool._arena.cidx_of_cid is not arena.cidx_of_cid:
            raise ModelError(
                "apply_patch pools must be live pools of the patched arena"
            )

    old_rows = len(arena.row_seq)
    old_ceis = len(arena.cei_rank)
    if old_rows != arena.n_rows or old_ceis != arena.n_ceis:
        raise ModelError(
            "apply_patch must run against the arena's newest generation "
            f"(arena records {arena.n_ceis} CEIs, containers hold {old_ceis})"
        )
    _check_patch(arena, patch)

    for cei, at in patch.register:
        _register_cei(arena, cei, at)
        arena.arrivals.setdefault(at, []).append(cei)

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

    # Only registrations grow rows or CEIs; everything else was an
    # in-place edit of containers the current generation already shares.
    patched = (
        _next_generation(arena, old_rows, old_ceis) if patch.register else arena
    )
    for pool in pools:
        if patched is not arena:
            pool.adopt_arena(patched)
        for cid in patch.cancel:
            # A no-op for a CEI the pool never registered or already closed.
            pool.cancel_cei(patched.cei_obj[patched.cidx_of_cid[cid]])
    return patched


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
