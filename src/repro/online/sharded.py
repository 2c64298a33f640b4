"""Shared-memory sharded scheduling: one giant instance across cores.

Every engine so far runs one instance inside one Python process; the
scalability north star (the paper's Fig. 11 curve pushed to ~10^6 CEIs)
is bounded by that core.  This module partitions the *resource universe*
of a compiled :class:`repro.sim.arena.InstanceArena` across N persistent
shard workers (one ``fork`` per run, not per chronon) and parallelizes
the only super-linear part of a chronon — scoring the candidate bag and
extracting its budget-aware top-k prefix — while the coordinator keeps
every sequential decision.

Division of labor
-----------------
The coordinator owns the real :class:`~repro.online.fastpath.
FastCandidatePool` and performs *all* ordering-sensitive work:
registration, window events, captures, sibling re-ranks, fault draws,
shedding, and the budget walk itself (:func:`~repro.online.fastpath.
_phase_walk`).  Workers only compute ``kernel.score_rows`` over their
row partition, ``argpartition`` the budget-sized prefix, exact-sort the
slice, and ship ``(priority, row)`` pairs plus a strict lower *bound*
on their unmaterialized remainder.  The coordinator merges shard slices
into one global sorted stream (:class:`_ShardedStream`): an entry is
*released* into the walk only when its full ``(priority, finish, seq)``
key lies strictly below the minimum bound over all non-exhausted
shards, so every released prefix is exactly the prefix the single-core
lexsorted stream would produce — which, combined with the walk's
pick-only-below-bound invariant, makes the sharded schedule
bit-identical to ``engine="vectorized"`` for every shard count
(``tests/test_fastpath_equivalence.py::TestShardedEquivalence``).

Shared state
------------
Workers see coordinator mutations through one
:class:`repro.sim.arena.SharedArenaView` segment: the static row/CEI
columns are copied in once, and the pool's *mutable* mirror columns
(``np_active``, ``npc_captured_f``, ``npc_medf_s_f``,
``npc_medf_open_f``) are re-pointed at the segment so the coordinator's
ordinary elementwise writes are immediately shard-visible; the
command/response pipe round-trip is the ordering barrier.  A fork-safe
``npc_in_plus`` column freezes the non-preemptive plus/minus split at
chronon start (a CEI capturing mid-plus must stay in the minus
partition, exactly like the local engine's precomputed mask).

Demotion
--------
Arena churn that grows the instance (:func:`repro.sim.arena.apply_patch`
with registrations) reallocates mirror columns and detaches them from
the segment; the engine detects this at step start and *demotes*: pool
state is privatized (copied out of shared memory), workers stop, the
segment is unlinked, and the run continues bit-identically on the local
vectorized path.  Cancel-only patches mutate in place and stay sharded.
A worker dying mid-run demotes the same way — the picks already made
are a correct prefix, and the local engine re-scores the live partition
fresh, which the walk invariant makes equivalent.  Segments are always
reclaimed: explicit close, ``weakref.finalize``, and atexit all funnel
into the same idempotent teardown.
"""

from __future__ import annotations

import heapq
import multiprocessing
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.errors import ModelError
from repro.online import fastpath
from repro.online.fastpath import _EPS, _fast_phase, _phase_walk
from repro.policies.kernels import pack_keys

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.online.fastpath import FastCandidatePool
    from repro.online.monitor import OnlineMonitor
    from repro.sim.arena import SharedArenaView


class ShardWorkerDied(RuntimeError):
    """A shard worker's pipe broke mid-run (killed or crashed)."""


@dataclass
class ShardingStats:
    """Run counters for the sharded engine (``monitor.sharding_stats``)."""

    shards: int
    #: Phases opened across shard workers.
    phases: int = 0
    #: Widening round-trips (stream drained or overlay forced a widen).
    widenings: int = 0
    #: Times the run fell back to the single-engine path.
    demotions: int = 0
    #: Why the engine demoted (or never started), if it did.
    demote_reason: Optional[str] = None


def shardable_reason(kernel) -> Optional[str]:
    """Why this kernel cannot run sharded (None when it can).

    Shard workers score their partition against the shared mirror
    columns only; a kernel is shardable iff its ``score_rows`` is a pure
    elementwise gather over those columns.  Row-dependent kernels
    (expected-gain families) read live policy/health state that exists
    only in the coordinator.
    """
    if kernel is None:
        return "policy has no batched score kernel"
    if kernel.row_dependent:
        return "row-dependent kernel reads coordinator-only policy state"
    return None


#: Mutable pool columns re-pointed into the shared segment (coordinator
#: writes, workers read).  ``npc_in_plus`` exists only in the segment.
_MUTABLE_FIELDS = ("np_active", "npc_captured_f", "npc_medf_s_f", "npc_medf_open_f")
_STATIC_FIELDS = (
    "npr_seq",
    "npr_finish",
    "npr_finish_f",
    "npr_resource",
    "npr_cidx",
    "npr_static",
    "npc_rank_f",
    "npc_weight",
)


class _ShardColumns:
    """Duck-typed ``FastCandidatePool`` facade for worker-side scoring.

    Exposes exactly the attribute surface ``kernel.score_rows`` and the
    slice sorter touch, every array a zero-copy view into the shared
    segment.
    """

    __slots__ = _STATIC_FIELDS + _MUTABLE_FIELDS + ("npc_in_plus", "_packable")

    def __init__(self, view: "SharedArenaView", packable: bool) -> None:
        for name in _STATIC_FIELDS + _MUTABLE_FIELDS + ("npc_in_plus",):
            setattr(self, name, view[name])
        self._packable = packable


class _ShardSlicer:
    """One phase's lazily-sliced sorted key stream inside a worker.

    The worker-side half of :class:`~repro.online.fastpath._LocalStream`:
    identical argpartition / exact-sort / strict-bound mechanics over the
    shard's partition, but slices are *returned* (to cross the pipe)
    rather than appended to the walk's stream.
    """

    __slots__ = ("cols", "rows", "prio", "packed", "remaining")

    def __init__(self, cols: _ShardColumns, kernel, rows: np.ndarray, chronon) -> None:
        self.cols = cols
        self.rows = rows
        n = int(rows.size)
        if n:
            cidx = cols.npr_cidx[rows]
            prio = np.asarray(kernel.score_rows(cols, rows, cidx, chronon), np.float64)
        else:
            prio = np.empty(0, np.float64)
        self.prio = prio
        self.packed = None
        if (
            cols._packable
            and n
            and kernel.integer_valued
            and float(np.abs(prio).max()) < float(1 << 20)
        ):
            # Per-shard decision: the coordinator compares full-key
            # *tuples* across shards, so shards may disagree on packing
            # (each form yields a valid strict bound on its remainder).
            self.packed = pack_keys(prio, cols.npr_static[rows])
        self.remaining: Optional[np.ndarray] = np.arange(n)

    def _order(self, sel: np.ndarray) -> np.ndarray:
        if self.packed is not None:
            return sel[np.argsort(self.packed[sel])]
        cols = self.cols
        sub = self.rows[sel]
        if cols._packable:
            return sel[np.lexsort((cols.npr_static[sub], self.prio[sel]))]
        return sel[np.lexsort((cols.npr_seq[sub], cols.npr_finish[sub], self.prio[sel]))]

    def slice(self, count: int) -> tuple:
        """Materialize the next ``count`` smallest keys.

        Returns ``(prios, rows, bound, exhausted)``: the slice in exact
        key order (global row ids), and the strict lower bound on every
        key still unmaterialized in this shard (None once exhausted).
        """
        rem = self.remaining
        if rem is None:
            return ([], [], None, True)
        cols = self.cols
        prio = self.prio
        bound: Optional[tuple] = None
        if 2 * count >= rem.size:
            chosen = self._order(rem)
            self.remaining = None
        elif self.packed is not None:
            part = np.argpartition(self.packed[rem], count)
            chosen = self._order(rem[part[:count]])
            b = int(rem[part[count]])
            brow = int(self.rows[b])
            bound = (float(prio[b]), int(cols.npr_finish[brow]), int(cols.npr_seq[brow]))
            self.remaining = rem[part[count:]]
        else:
            rem_prio = prio[rem]
            part = np.argpartition(rem_prio, count)
            cut_value = rem_prio[part[count]]
            mask = rem_prio <= cut_value
            chosen = self._order(rem[mask])
            rest = rem[~mask]
            if rest.size:
                bound = (float(prio[rest].min()),)
                self.remaining = rest
            else:
                self.remaining = None
        return (
            prio[chosen].tolist(),
            self.rows[chosen].tolist(),
            bound,
            self.remaining is None,
        )


def _shard_worker(conn, manifest, shard_id, n_shards, kernel, packable) -> None:
    """Shard worker loop: attach the segment, serve phase/widen frames.

    Runs in a forked child.  The partition is *resource-modular*
    (``npr_resource % n_shards == shard_id``) so every row of a probed
    resource lives in exactly one shard.  Exits on ``stop``, pipe EOF,
    or parent death (daemonized); never unlinks the segment.
    """
    # Deferred: repro.sim.arena imports the sim package, which imports
    # the monitor (which imports this module) — lazy breaks the cycle.
    from repro.sim.arena import SharedArenaView

    view = SharedArenaView.attach(manifest)
    try:
        cols = _ShardColumns(view, packable)
        np_active = view["np_active"]
        in_plus = view["npc_in_plus"]
        mine = np.flatnonzero(cols.npr_resource % n_shards == shard_id)
        slicer: Optional[_ShardSlicer] = None
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "phase":
                _, chronon, kind, count = msg
                rows = mine[np_active[mine]]
                if kind == "plus":
                    rows = rows[in_plus[cols.npr_cidx[rows]]]
                elif kind == "minus":
                    rows = rows[~in_plus[cols.npr_cidx[rows]]]
                slicer = _ShardSlicer(cols, kernel, rows, chronon)
                conn.send(slicer.slice(count))
            elif cmd == "widen":
                conn.send(slicer.slice(msg[1]))
            elif cmd == "stop":
                break
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        view.close()
        conn.close()


def _cleanup_engine(procs, pipes, view) -> None:
    """Idempotent teardown shared by close/finalize/atexit paths."""
    for pipe in pipes:
        try:
            pipe.send(("stop",))
        except (OSError, ValueError):
            pass
    for proc in procs:
        proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.terminate()
            proc.join(timeout=2.0)
    for pipe in pipes:
        try:
            pipe.close()
        except OSError:  # pragma: no cover
            pass
    view.close()


class _ShardedStream:
    """Global sorted stream merged from per-shard slices.

    Presents the same ``sp`` / ``sr`` / ``bound`` / ``exhausted`` /
    ``widen()`` surface :func:`~repro.online.fastpath._phase_walk`
    consumes.  Per-shard slices arrive in exact local key order; entries
    park in a pending heap keyed by the full ``(priority, finish, seq)``
    tuple and are released into ``sp``/``sr`` only while strictly below
    ``bound`` — the minimum bound over all non-exhausted shards.  Every
    unreleased or unmaterialized key is ≥ that bound, so each release
    batch extends the exact global sorted prefix (releases are monotone:
    a later batch's keys are ≥ the bound that gated the earlier one).
    """

    __slots__ = ("sp", "sr", "bound", "_engine", "_pending", "_shard_bounds", "_next_cut")

    def __init__(self, engine: "ShardedEngine", kind: str, chronon, budget_left: float,
                 min_probe_cost: float) -> None:
        self._engine = engine
        self.sp: list[float] = []
        self.sr: list[int] = []
        self._pending: list[tuple] = []
        if fastpath.TOPK_ENABLED:
            cut = int(budget_left / min_probe_cost) + 1 + fastpath.TOPK_OVERFLOW
        else:
            cut = max(engine.n_rows, 1)
        engine.broadcast(("phase", chronon, kind, cut))
        self._shard_bounds: list = [None] * engine.shards
        self._collect(range(engine.shards))
        self._next_cut = max(cut, 1) * fastpath.TOPK_GROWTH
        stats = engine.stats
        if stats is not None:
            stats.phases += 1

    @property
    def exhausted(self) -> bool:
        return self.bound is None and not self._pending

    def _collect(self, shard_ids) -> None:
        engine = self._engine
        pool = engine.pool
        row_finish = pool.row_finish
        row_seq = pool.row_seq
        pending = self._pending
        for sid in shard_ids:
            prios, rows, bound, exhausted = engine.recv(sid)
            self._shard_bounds[sid] = None if exhausted else bound
            for p, row in zip(prios, rows):
                heapq.heappush(pending, (p, row_finish[row], row_seq[row], row))
        live = [b for b in self._shard_bounds if b is not None]
        self.bound = min(live) if live else None
        bound = self.bound
        sp = self.sp
        sr = self.sr
        while pending and (bound is None or pending[0][:3] < bound):
            entry = heapq.heappop(pending)
            sp.append(entry[0])
            sr.append(entry[3])

    def widen(self) -> None:
        engine = self._engine
        cut = self._next_cut
        self._next_cut *= fastpath.TOPK_GROWTH
        targets = [sid for sid, b in enumerate(self._shard_bounds) if b is not None]
        for sid in targets:
            engine.send(sid, ("widen", cut))
        self._collect(targets)
        stats = engine.stats
        if stats is not None:
            stats.widenings += 1


class _PlusMembership:
    """Duck-typed phase-membership container for sibling refreshes.

    ``row in membership`` iff the row's CEI sat on the requested side of
    the frozen chronon-start plus/minus split — equivalent to the local
    engine's ``set(rows.tolist())`` because activations only happen at
    chronon start and the refresh loop filters inactive rows first.
    """

    __slots__ = ("_cidx", "_in_plus", "_want")

    def __init__(self, cidx: np.ndarray, in_plus: np.ndarray, want: bool) -> None:
        self._cidx = cidx
        self._in_plus = in_plus
        self._want = want

    def __contains__(self, row: int) -> bool:
        return bool(self._in_plus[self._cidx[row]]) == self._want


class ShardedEngine:
    """Coordinator half of the sharded scheduling engine.

    Owns the shared segment, the persistent worker pool, and the merge
    stream machinery; :func:`run_sharded_phases` drives it once per
    chronon.
    """

    def __init__(self, pool: "FastCandidatePool", shards: int, kernel,
                 stats: Optional[ShardingStats] = None) -> None:
        self.pool = pool
        self.shards = shards
        self.kernel = kernel
        self.stats = stats
        self.n_rows = len(pool.row_seq)
        self.n_ceis = len(pool.cei_rank)
        self.closed = False

        from repro.sim.arena import SharedArenaView  # lazy: import cycle

        columns = {name: getattr(pool, name) for name in _STATIC_FIELDS}
        for name in _MUTABLE_FIELDS:
            columns[name] = getattr(pool, name)
        columns["npc_in_plus"] = np.zeros(max(self.n_ceis, 1), bool)
        self.view = SharedArenaView.publish(columns)
        # Re-point the pool's mutable mirrors at the segment (current
        # values were copied in by publish) so the coordinator's ordinary
        # event-time writes are shard-visible without extra copies.
        for name in _MUTABLE_FIELDS:
            setattr(pool, name, self.view[name])
        self.in_plus = self.view["npc_in_plus"]

        ctx = multiprocessing.get_context("fork")
        self._procs = []
        self._pipes = []
        try:
            for sid in range(shards):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(child, self.view.manifest, sid, shards, kernel,
                          pool._packable),
                    daemon=True,
                    name=f"repro-shard-{sid}",
                )
                proc.start()
                child.close()
                self._procs.append(proc)
                self._pipes.append(parent)
        except BaseException:
            _cleanup_engine(self._procs, self._pipes, self.view)
            raise
        # Reclaim workers and the /dev/shm segment on every exit path:
        # explicit close, garbage collection, or interpreter shutdown
        # (finalize objects still alive run at atexit).  Forked children
        # exit via os._exit and never run parent finalizers.
        self._finalizer = weakref.finalize(
            self, _cleanup_engine, self._procs, self._pipes, self.view
        )

    # -- worker IPC ----------------------------------------------------

    def broadcast(self, msg: tuple) -> None:
        for sid in range(self.shards):
            self.send(sid, msg)

    def send(self, sid: int, msg: tuple) -> None:
        try:
            self._pipes[sid].send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise ShardWorkerDied(f"shard worker {sid} is gone") from exc

    def recv(self, sid: int):
        try:
            return self._pipes[sid].recv()
        except (EOFError, OSError) as exc:
            raise ShardWorkerDied(f"shard worker {sid} is gone") from exc

    # -- chronon hooks -------------------------------------------------

    def attached(self, pool: "FastCandidatePool") -> bool:
        """Does ``pool`` still share this engine's segment?

        Growth churn (``adopt_arena`` after a registering patch)
        reallocates mirrors and detaches them; cancel-only churn mutates
        in place and stays attached.
        """
        if len(pool.row_seq) != self.n_rows or len(pool.cei_rank) != self.n_ceis:
            return False
        return all(
            getattr(pool, name) is self.view[name] for name in _MUTABLE_FIELDS
        )

    def freeze_split(self) -> None:
        """Freeze the non-preemptive plus/minus split for this chronon."""
        m = self.n_ceis
        np.greater(self.pool.npc_captured_f, 0.0, out=self.in_plus[:m])

    def open_stream(self, kind: str, chronon, budget_left: float,
                    min_probe_cost: float) -> _ShardedStream:
        return _ShardedStream(self, kind, chronon, budget_left, min_probe_cost)

    def membership(self, want_plus: bool) -> _PlusMembership:
        return _PlusMembership(self.pool.npr_cidx, self.in_plus, want_plus)

    # -- teardown ------------------------------------------------------

    def demote(self, pool: "FastCandidatePool") -> np.ndarray:
        """Privatize shared state, stop workers, unlink the segment.

        Returns a private copy of the frozen in-plus split so a phase
        interrupted by worker death can restart with the same partition.
        Safe to call repeatedly.
        """
        in_plus = np.array(self.in_plus)
        if not self.closed:
            for name in _MUTABLE_FIELDS:
                if getattr(pool, name) is self.view[name]:
                    setattr(pool, name, np.array(self.view[name]))
            self.close()
        return in_plus

    def close(self) -> None:
        """Stop workers and release the segment (idempotent).

        The pool must no longer reference the segment's arrays (see
        :meth:`demote`) — closing only detaches/unlinks the name; any
        stray view keeps its mapping alive until process exit.
        """
        if self.closed:
            return
        self.closed = True
        self._finalizer()  # runs _cleanup_engine exactly once


def run_sharded_phases(
    monitor: "OnlineMonitor",
    chronon,
    budget_left: float,
    probed,
) -> float:
    """Spend one chronon's budget via the sharded engine.

    Mirrors :func:`~repro.online.fastpath.run_fast_phases` phase-for-
    phase; any :class:`ShardWorkerDied` demotes the monitor mid-phase
    and finishes the chronon (and the rest of the run) on the local
    vectorized path — a correct continuation because completed picks
    are a prefix of the true selection order and the local walk
    re-scores the still-active partition fresh.
    """
    pool = monitor.pool
    engine: ShardedEngine = monitor._sharded
    if not pool.active_set:
        return budget_left
    pool.sync_mirrors()

    if monitor.preemptive:
        try:
            stream = engine.open_stream("whole", chronon, budget_left,
                                        monitor._min_probe_cost)
            return _phase_walk(monitor, chronon, budget_left, probed, stream, None)
        except ShardWorkerDied:
            _demote(monitor, "shard worker died mid-run")
            rows = np.flatnonzero(pool.np_active[: len(pool.row_seq)])
            return _fast_phase(monitor, rows, chronon, budget_left, probed,
                               whole_bag=True)

    engine.freeze_split()
    frozen: Optional[np.ndarray] = None  # private split copy once demoted
    try:
        stream = engine.open_stream("plus", chronon, budget_left,
                                    monitor._min_probe_cost)
        membership = engine.membership(want_plus=True)
        budget_left = _phase_walk(
            monitor, chronon, budget_left, probed, stream, lambda: membership
        )
    except ShardWorkerDied:
        frozen = _demote(monitor, "shard worker died mid-run")
        budget_left = _local_split_phase(monitor, chronon, budget_left, probed,
                                         frozen, plus=True)
    if budget_left > _EPS:
        if frozen is None:
            try:
                # Plus-phase captures must reach the scoring columns the
                # workers read, exactly as the local engine syncs at each
                # phase start.
                pool.sync_mirrors()
                stream = engine.open_stream("minus", chronon, budget_left,
                                            monitor._min_probe_cost)
                membership = engine.membership(want_plus=False)
                budget_left = _phase_walk(
                    monitor, chronon, budget_left, probed, stream,
                    lambda: membership,
                )
            except ShardWorkerDied:
                frozen = _demote(monitor, "shard worker died mid-run")
                budget_left = _local_split_phase(monitor, chronon, budget_left,
                                                 probed, frozen, plus=False)
        else:
            budget_left = _local_split_phase(monitor, chronon, budget_left,
                                             probed, frozen, plus=False)
    return budget_left


def _local_split_phase(monitor, chronon, budget_left, probed,
                       frozen: np.ndarray, plus: bool) -> float:
    """One plus/minus phase on the local path with a pre-frozen split."""
    pool = monitor.pool
    rows = np.flatnonzero(pool.np_active[: len(pool.row_seq)])
    side = frozen[pool.npr_cidx[rows]]
    rows = rows[side] if plus else rows[~side]
    if not rows.size:
        return budget_left
    return _fast_phase(monitor, rows, chronon, budget_left, probed)


def _demote(monitor: "OnlineMonitor", reason: str) -> np.ndarray:
    """Fall back to the local vectorized engine for the rest of the run."""
    engine: ShardedEngine = monitor._sharded
    frozen = engine.demote(monitor.pool)
    monitor._sharded = None
    stats = monitor._sharding_stats
    if stats is not None:
        stats.demotions += 1
        if stats.demote_reason is None:
            stats.demote_reason = reason
    return frozen
