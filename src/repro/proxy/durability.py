"""Durable write-ahead journaling and crash recovery for the streaming proxy.

The always-on service (:mod:`repro.proxy.streaming`, DESIGN.md §14) keeps
every byte of state in one process: a crash loses all submitted needs,
the clock, and everything learned since boot.  This module is the
durability layer underneath it:

* :class:`WriteAheadLog` — an append-only journal of every mutating
  service event (client register/unregister, submit, cancel, tick
  boundaries, budget changes) as length-prefixed, CRC32-checksummed JSON
  frames with a configurable fsync policy (``always`` / ``interval`` /
  ``never``).  Disk faults degrade the log instead of crashing the
  service: appends are retried with exponential backoff, and when the
  volume stays broken the frames queue in memory (the *backlog*) and the
  log reports itself :attr:`WriteAheadLog.degraded` until a later append
  heals it.
* :class:`SnapshotStore` — periodic checkpoints of the proxy's state in
  SQLite (stdlib :mod:`sqlite3`), keeping the last few snapshots and
  falling back to an older one when the newest row fails to parse.
* :class:`DurableStreamingProxy` — the service facade that journals every
  mutation *before* applying it, checkpoints every ``snapshot_every``
  chronons, truncates the journal behind each checkpoint, and recovers
  on construction from whatever the directory holds: latest valid
  snapshot + replay of the journal tail, tolerating a torn final frame
  and refusing corrupt mid-log frames with :class:`JournalCorruptError`.

Two recovery modes (``DurabilityConfig.recovery``):

* ``"exact"`` (default) — the snapshot carries the compacted operation
  history (every churn record with the chronon it happened at), and
  recovery *re-executes* it through a fresh monitor.  Because the step
  loop is deterministic (seeded faults, seeded health, replay-invariant
  churn — ``tests/test_churn_equivalence.py``), the recovered proxy is
  bit-identical to one that never died: same schedule, same counters,
  same learned state.  Cost: recovery time grows with the clock.
* ``"durable"`` — recovery restores only the durable client/need table
  via :meth:`StreamingProxy.restore` and fast-forwards the clock.
  O(needs) recovery, but volatile scheduling state (captures, health,
  breakers) is rebuilt from scratch, exactly as documented on
  :meth:`StreamingProxy.snapshot`.

The crash-injection harness (``tests/crash_harness.py``) kills a
subprocess-hosted service at randomized points — including mid-frame via
an injectable torn-write file — and asserts exact-mode recovery is
bit-identical to an uninterrupted reference run.
"""

from __future__ import annotations

import json
import os
import sqlite3
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.core.errors import ModelError, ReproError
from repro.core.intervals import ComplexExecutionInterval
from repro.core.resource import ResourcePool
from repro.core.schedule import BudgetVector
from repro.core.timebase import Chronon
from repro.io.serialization import cei_from_record, cei_to_record
from repro.online.config import MonitorConfig
from repro.online.streaming import StreamingBudget, coerce_budget
from repro.policies.base import Policy
from repro.proxy.registry import ClientHandle
from repro.proxy.streaming import BackgroundClock, StreamingProxy

__all__ = [
    "DurabilityConfig",
    "DurableStreamingProxy",
    "JournalCorruptError",
    "SnapshotRecord",
    "SnapshotStore",
    "WriteAheadLog",
    "decode_frames",
    "encode_frame",
]

#: Snapshot payload format tag of the durable layer (wraps the proxy's
#: own ``repro.streaming-proxy/1`` durable payload plus the oplog).
DURABLE_FORMAT = "repro.durable-proxy/1"

#: Frame header: payload byte length, CRC32 of the payload.
_HEADER = struct.Struct(">II")

_FSYNC_POLICIES = ("always", "interval", "never")
_RECOVERY_MODES = ("exact", "durable")


class JournalCorruptError(ReproError):
    """The write-ahead journal holds a frame that cannot be trusted.

    Raised for complete frames whose CRC32 does not match (bit rot, torn
    overwrite) and for records that violate the journal's ordering
    invariants during replay.  A *truncated* final frame is not an
    error — it is the signature of a crash mid-append and is dropped.
    """


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------


def encode_frame(record: dict) -> bytes:
    """One journal record as a length-prefixed, CRC32-checksummed frame.

    Layout: ``>II`` header (payload length, CRC32 of payload) followed by
    the payload — compact JSON with sorted keys, so identical records
    encode to identical bytes.  The encoder takes any JSON-ready record;
    a ``submit`` record carries its CEIs in
    :func:`repro.io.serialization.cei_to_record` form (``[resource,
    start, finish]`` triples for a plain CEI), which keeps the standing
    bag's record about a third of its dict-form size.
    """
    payload = json.dumps(record, separators=(",", ":"), sort_keys=True).encode()
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_frames(data: bytes) -> tuple[list[dict], int, bool]:
    """Decode a journal byte string into ``(records, clean_length, torn)``.

    ``clean_length`` is the byte offset of the last fully-validated
    frame; ``torn`` reports whether trailing bytes (an incomplete header
    or a payload shorter than its length prefix promises) were dropped —
    the expected residue of a crash mid-append.  A *complete* frame whose
    CRC32 does not match raises :class:`JournalCorruptError`: that is bit
    rot, not a torn write, and replaying past it would resurrect a state
    the service never had.
    """
    records: list[dict] = []
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < _HEADER.size:
            return records, offset, True
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            return records, offset, True
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            raise JournalCorruptError(
                f"CRC mismatch in journal frame at byte {offset}: "
                f"expected {crc:#010x}, found {zlib.crc32(payload):#010x}"
            )
        try:
            record = json.loads(payload)
        except ValueError as error:  # pragma: no cover - CRC catches first
            raise JournalCorruptError(
                f"unparseable journal frame at byte {offset}: {error}"
            ) from error
        if not isinstance(record, dict):
            raise JournalCorruptError(
                f"journal frame at byte {offset} is not a record object"
            )
        records.append(record)
        offset = end
    return records, offset, False


# ---------------------------------------------------------------------------
# Write-ahead log
# ---------------------------------------------------------------------------


class WriteAheadLog:
    """An append-only journal of service events with crash-safe framing.

    Parameters
    ----------
    path:
        The journal file (created on first append).
    fsync:
        ``"always"`` — fsync after every append (full durability);
        ``"interval"`` — fsync every ``fsync_every`` appended records
        (bounded loss window); ``"never"`` — hand frames to the OS
        (``flush``) but let the kernel decide when they hit the platter.
    group_window:
        Group-commit batching for ``fsync="always"``: appends landing
        within ``group_window`` seconds of the last fsync are written
        and flushed but *not* individually fsynced — the next append
        past the window (or any :meth:`sync`/:meth:`close`) commits the
        whole group with one fsync.  ``0.0`` (the default) keeps the
        strict one-fsync-per-append behavior; a small window (a few
        milliseconds) trades a bounded durability horizon for
        dramatically fewer fsyncs under bursty traffic.  Requires
        ``fsync="always"`` (the other policies already batch).
    clock:
        Injectable monotonic clock for the group window (tests).
    retries, backoff:
        Disk faults (``OSError`` from write/fsync) are retried up to
        ``retries`` times with exponential backoff starting at
        ``backoff`` seconds.  When every attempt fails the log marks
        itself :attr:`degraded`, keeps the frames in an in-memory
        backlog, and keeps accepting appends — each later append retries
        the whole backlog once, so a healed volume drains it and clears
        the flag.
    opener:
        Injectable replacement for :func:`open` used for the append
        handle — the crash harness substitutes a torn-write file here.
    sleep:
        Injectable replacement for :func:`time.sleep` (tests).
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        fsync: str = "always",
        fsync_every: int = 32,
        group_window: float = 0.0,
        retries: int = 3,
        backoff: float = 0.01,
        opener: Optional[Callable[[str, str], object]] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if fsync not in _FSYNC_POLICIES:
            raise ModelError(
                f"fsync policy must be one of {_FSYNC_POLICIES}, got {fsync!r}"
            )
        if fsync_every < 1:
            raise ModelError(f"fsync_every must be >= 1, got {fsync_every}")
        if group_window < 0:
            raise ModelError(f"group_window must be >= 0, got {group_window}")
        if group_window > 0 and fsync != "always":
            raise ModelError(
                "group_window only applies to fsync='always' "
                f"(got fsync={fsync!r}); interval/never already batch"
            )
        if retries < 0:
            raise ModelError(f"retries must be >= 0, got {retries}")
        if backoff < 0:
            raise ModelError(f"backoff must be >= 0, got {backoff}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._fsync_every = fsync_every
        self._group_window = group_window
        self._clock = clock
        self._last_fsync: Optional[float] = None
        self._sync_pending = False  # frames flushed but deferred by the window
        self._retries = retries
        self._backoff = backoff
        self._opener = opener if opener is not None else open
        self._sleep = sleep
        self._file: Optional[object] = None
        self._lock = threading.Lock()
        self._seq = 0  # last assigned sequence number
        self._good_end = 0  # byte offset of the last committed frame end
        self._appends_since_sync = 0
        self._backlog: list[bytes] = []
        self._needs_rollback = False
        self.degraded = False
        self.last_error: Optional[str] = None

    # -- observation ---------------------------------------------------

    @property
    def last_seq(self) -> int:
        """The sequence number of the most recently accepted record."""
        return self._seq

    @property
    def lag(self) -> int:
        """Records accepted but not yet committed to disk (degraded mode)."""
        return len(self._backlog)

    def set_seq(self, seq: int) -> None:
        """Raise the sequence high-water mark (from a snapshot's coverage)."""
        with self._lock:
            self._seq = max(self._seq, int(seq))

    # -- recovery ------------------------------------------------------

    def recover(self) -> list[dict]:
        """Read every valid record, drop a torn tail, open for append.

        Physically truncates the file back to the last clean frame so
        later appends never interleave with torn residue.  Raises
        :class:`JournalCorruptError` on a complete-but-corrupt frame.
        """
        with self._lock:
            data = self.path.read_bytes() if self.path.exists() else b""
            records, clean, torn = decode_frames(data)
            if torn:
                with open(self.path, "r+b") as handle:
                    handle.truncate(clean)
                    handle.flush()
                    os.fsync(handle.fileno())
            self._good_end = clean
            for record in records:
                seq = record.get("seq")
                if isinstance(seq, int):
                    self._seq = max(self._seq, seq)
            return records

    # -- appends -------------------------------------------------------

    def append(self, record: dict) -> dict:
        """Journal one record; returns it stamped (in place) with its ``seq``.

        The record is accepted even when the disk is misbehaving: after
        ``retries`` failed attempts it stays in the in-memory backlog,
        the log flips :attr:`degraded`, and the caller keeps running.
        """
        with self._lock:
            self._seq += 1
            record["seq"] = self._seq
            stamped = record
            frame = encode_frame(stamped)
            file = self._file
            if (
                file is not None
                and not self._backlog
                and not self._needs_rollback
                and not self.degraded
            ):
                # Hot path: healthy log, nothing queued.  Write the frame
                # directly; any failure falls through to the resilient
                # backlog-and-retry path below.
                try:
                    file.write(frame)
                    file.flush()
                    if self._due_for_sync(1):
                        os.fsync(file.fileno())
                        self._note_synced()
                    else:
                        self._appends_since_sync += 1
                        if self._fsync == "always":
                            self._sync_pending = True
                    self._good_end += len(frame)
                    return stamped
                except OSError:
                    self._needs_rollback = True
                    self._reset_file()
            self._backlog.append(frame)
            self._commit_locked(force_sync=False)
            return stamped

    def sync(self) -> None:
        """Push the backlog to disk and fsync regardless of policy."""
        with self._lock:
            self._commit_locked(force_sync=self._fsync != "never")

    def _commit_locked(self, *, force_sync: bool) -> None:
        try:
            self._with_retries(lambda: self._write_backlog(force_sync))
        except OSError as error:
            self.degraded = True
            self.last_error = f"{type(error).__name__}: {error}"
        else:
            if self.degraded and not self._backlog:
                self.degraded = False
                self.last_error = None

    def _write_backlog(self, force_sync: bool) -> None:
        if not self._backlog and not force_sync:
            return
        if self._file is None:
            self._file = self._opener(str(self.path), "ab")
        if self._needs_rollback:
            # A failed earlier attempt may have left a partial frame
            # behind; roll back to the last committed boundary first.
            self._file.truncate(self._good_end)
            self._needs_rollback = False
        written = 0
        for frame in self._backlog:
            self._file.write(frame)
            written += len(frame)
        self._file.flush()
        appended = len(self._backlog)
        if force_sync or self._due_for_sync(appended):
            os.fsync(self._file.fileno())
            self._note_synced()
        else:
            self._appends_since_sync += appended
            if self._fsync == "always":
                self._sync_pending = True
        self._good_end += written
        self._backlog.clear()

    def _due_for_sync(self, appended: int) -> bool:
        """Should the current write commit with an fsync right now?

        Under ``fsync="always"`` with a group window, an append inside
        the window defers its fsync to the next qualifying append (or an
        explicit :meth:`sync`/:meth:`close`) — one fsync then commits
        the whole group.
        """
        if self._fsync == "always":
            if self._group_window <= 0.0:
                return True
            last = self._last_fsync
            return last is None or self._clock() - last >= self._group_window
        if self._fsync == "interval":
            return self._appends_since_sync + appended >= self._fsync_every
        return False

    def _note_synced(self) -> None:
        self._appends_since_sync = 0
        self._sync_pending = False
        if self._group_window > 0.0:
            self._last_fsync = self._clock()

    def _with_retries(self, operation: Callable[[], None]) -> None:
        attempt = 0
        while True:
            try:
                operation()
                return
            except OSError:
                self._needs_rollback = True
                self._reset_file()
                if attempt >= self._retries:
                    raise
                self._sleep(self._backoff * (2 ** attempt))
                attempt += 1

    def _reset_file(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None

    # -- truncation ----------------------------------------------------

    def truncate_through(self, seq: int) -> None:
        """Drop records with ``seq`` at or below the given sequence.

        Called after a snapshot covering that prefix is durably stored.
        The survivor records are rewritten to a temporary file which
        atomically replaces the journal, so a crash mid-truncation leaves
        either the old or the new journal — never a mixture.  Failures
        degrade the log (a too-long journal is safe; a lost one is not).
        """
        with self._lock:
            try:
                self._with_retries(lambda: self._rewrite(seq))
            except OSError as error:
                self.degraded = True
                self.last_error = f"{type(error).__name__}: {error}"

    def _rewrite(self, keep_after: int) -> None:
        self._write_backlog(force_sync=self._fsync != "never")
        self._reset_file()
        data = self.path.read_bytes() if self.path.exists() else b""
        records, _, _ = decode_frames(data)
        kept = [r for r in records if int(r.get("seq", 0)) > keep_after]
        frames = b"".join(encode_frame(r) for r in kept)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(frames)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._good_end = len(frames)
        self._needs_rollback = False

    def close(self) -> None:
        """Flush, fsync and release the append handle (idempotent)."""
        self.sync()
        with self._lock:
            self._reset_file()


# ---------------------------------------------------------------------------
# Snapshot store
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SnapshotRecord:
    """One checkpoint row: its id, clock position, and journal coverage."""

    snapshot_id: int
    chronon: Chronon
    wal_seq: int
    payload: dict


class SnapshotStore:
    """Checkpoints of the proxy's state in a SQLite database.

    Keeps the ``keep`` most recent snapshots; :meth:`latest` skips rows
    whose payload no longer parses, falling back to an older checkpoint
    instead of refusing to recover at all.
    """

    def __init__(self, path: Union[str, Path], *, keep: int = 2) -> None:
        if keep < 1:
            raise ModelError(f"keep must be >= 1, got {keep}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._keep = keep
        self._lock = threading.Lock()
        # The proxy's background clock thread may trigger checkpoints, so
        # the connection crosses threads; the lock serializes access.
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS snapshots ("
            " id INTEGER PRIMARY KEY AUTOINCREMENT,"
            " chronon INTEGER NOT NULL,"
            " wal_seq INTEGER NOT NULL,"
            " payload TEXT NOT NULL)"
        )
        self._conn.commit()

    def save(self, *, chronon: Chronon, wal_seq: int, payload: dict) -> int:
        """Store a checkpoint; prunes beyond ``keep``; returns its id."""
        text = json.dumps(payload, sort_keys=True)
        with self._lock:
            cursor = self._conn.execute(
                "INSERT INTO snapshots (chronon, wal_seq, payload)"
                " VALUES (?, ?, ?)",
                (int(chronon), int(wal_seq), text),
            )
            self._conn.execute(
                "DELETE FROM snapshots WHERE id NOT IN"
                " (SELECT id FROM snapshots ORDER BY id DESC LIMIT ?)",
                (self._keep,),
            )
            self._conn.commit()
            return int(cursor.lastrowid)

    def latest(self) -> Optional[SnapshotRecord]:
        """The newest snapshot whose payload still parses, or None."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT id, chronon, wal_seq, payload FROM snapshots"
                " ORDER BY id DESC"
            ).fetchall()
        for snapshot_id, chronon, wal_seq, text in rows:
            try:
                payload = json.loads(text)
            except ValueError:
                continue  # corrupt row: fall back to an older checkpoint
            if isinstance(payload, dict):
                return SnapshotRecord(
                    snapshot_id=int(snapshot_id),
                    chronon=int(chronon),
                    wal_seq=int(wal_seq),
                    payload=payload,
                )
        return None

    def count(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM snapshots"
            ).fetchone()
            return int(row[0])

    def close(self) -> None:
        with self._lock:
            self._conn.close()


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DurabilityConfig:
    """Frozen knobs of the durability layer.

    Parameters
    ----------
    root:
        Directory holding the journal (``wal.log``) and the snapshot
        database (``snapshots.sqlite3``); created on first use.
    fsync, fsync_every:
        Journal fsync policy — see :class:`WriteAheadLog`.
    group_window:
        Group-commit window (seconds) coalescing ``fsync="always"``
        appends into one fsync — see :class:`WriteAheadLog`.
    snapshot_every:
        Checkpoint every N executed chronons (0 = manual checkpoints
        only, via :meth:`DurableStreamingProxy.checkpoint` or the HTTP
        ``POST /snapshot`` trigger).
    keep_snapshots:
        Snapshot rows retained in SQLite (older ones are pruned).
    retries, backoff:
        Disk-fault retry budget — see :class:`WriteAheadLog`.
    recovery:
        ``"exact"`` re-executes the journaled history (bit-identical
        recovery); ``"durable"`` restores only the client/need table.
    """

    root: Union[str, Path]
    fsync: str = "always"
    fsync_every: int = 32
    group_window: float = 0.0
    snapshot_every: int = 0
    keep_snapshots: int = 2
    retries: int = 3
    backoff: float = 0.01
    recovery: str = "exact"

    def __post_init__(self) -> None:
        if self.fsync not in _FSYNC_POLICIES:
            raise ModelError(
                f"fsync policy must be one of {_FSYNC_POLICIES}, "
                f"got {self.fsync!r}"
            )
        if self.recovery not in _RECOVERY_MODES:
            raise ModelError(
                f"recovery mode must be one of {_RECOVERY_MODES}, "
                f"got {self.recovery!r}"
            )
        if self.fsync_every < 1:
            raise ModelError(
                f"fsync_every must be >= 1, got {self.fsync_every}"
            )
        if self.group_window < 0:
            raise ModelError(
                f"group_window must be >= 0, got {self.group_window}"
            )
        if self.group_window > 0 and self.fsync != "always":
            raise ModelError(
                "group_window only applies to fsync='always' "
                f"(got fsync={self.fsync!r})"
            )
        if self.snapshot_every < 0:
            raise ModelError(
                f"snapshot_every must be >= 0, got {self.snapshot_every}"
            )
        if self.keep_snapshots < 1:
            raise ModelError(
                f"keep_snapshots must be >= 1, got {self.keep_snapshots}"
            )
        if self.retries < 0:
            raise ModelError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ModelError(f"backoff must be >= 0, got {self.backoff}")

    @property
    def wal_path(self) -> Path:
        return Path(self.root) / "wal.log"

    @property
    def snapshot_path(self) -> Path:
        return Path(self.root) / "snapshots.sqlite3"


# ---------------------------------------------------------------------------
# The durable facade
# ---------------------------------------------------------------------------


class DurableStreamingProxy(BackgroundClock):
    """A :class:`StreamingProxy` whose state outlives its process.

    Every mutating call — :meth:`register_client`,
    :meth:`unregister_client`, :meth:`submit_ceis`, :meth:`cancel_ceis`,
    :meth:`tick`, :meth:`set_budget` — is journaled to the write-ahead
    log *before* it is applied, so a crash between the append and the
    apply loses nothing the journal promised.  Construction always
    recovers whatever the durability directory holds (an empty directory
    is a fresh start), so restarting a dead service is just constructing
    the proxy again with the same configuration.

    Infrastructure configuration (resources, policy, budget default,
    :class:`MonitorConfig`) is *not* journaled — like a database's server
    config it must be supplied identically at recovery; only the event
    history is durable state.

    CEIs are identified across processes by their *ordinal* — the global
    submission index — because object identity and ``cid`` values do not
    survive serialization.  Cancellations journal the resolved ordinals,
    which replay maps back onto the recovered objects.
    """

    _clock_name = "durable-proxy-clock"

    def __init__(
        self,
        durability: Union[DurabilityConfig, str, Path],
        *,
        resources: Optional[ResourcePool] = None,
        budget: Union[StreamingBudget, BudgetVector, float, int] = 1.0,
        policy: Union[Policy, str] = "MRSF",
        preemptive: bool = True,
        config: Optional[MonitorConfig] = None,
        opener: Optional[Callable[[str, str], object]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if not isinstance(durability, DurabilityConfig):
            durability = DurabilityConfig(root=durability)
        self.durability = durability
        self._factory = dict(
            resources=resources,
            budget=budget,
            policy=policy,
            preemptive=preemptive,
            config=config,
        )
        Path(durability.root).mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._store = SnapshotStore(
            durability.snapshot_path, keep=durability.keep_snapshots
        )
        self._wal = WriteAheadLog(
            durability.wal_path,
            fsync=durability.fsync,
            fsync_every=durability.fsync_every,
            group_window=durability.group_window,
            retries=durability.retries,
            backoff=durability.backoff,
            opener=opener,
            sleep=sleep,
        )
        self._oplog: list[dict] = []
        # Exact recovery re-executes the full event history, so it must
        # stay resident; durable recovery only ever needs the ordinal
        # skeleton of submits, so everything else is dropped as it is
        # journaled — O(needs) memory instead of O(history).
        self._keep_oplog = durability.recovery == "exact"
        self._cei_of_ordinal: dict[int, ComplexExecutionInterval] = {}
        self._ordinal_of_cid: dict[int, int] = {}
        self._next_ordinal = 0
        self._snapshot_error: Optional[str] = None
        self._last_snapshot_chronon: Optional[Chronon] = None
        self._last_snapshot_seq = 0
        self._recover()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _fresh_proxy(self) -> StreamingProxy:
        return StreamingProxy(**self._factory)

    def _recover(self) -> None:
        snapshot = self._store.latest()
        records = self._wal.recover()
        if snapshot is not None:
            if snapshot.payload.get("format") != DURABLE_FORMAT:
                raise JournalCorruptError(
                    "snapshot store holds an unknown payload format "
                    f"{snapshot.payload.get('format')!r}"
                )
            # Sequence numbering continues across truncations even when
            # the journal file itself is empty after a checkpoint.
            self._wal.set_seq(snapshot.wal_seq)
            self._last_snapshot_chronon = snapshot.chronon
            self._last_snapshot_seq = snapshot.wal_seq
        # Records at or below the snapshot's coverage — or below a seq
        # the journal already replayed — are duplicates left by a
        # truncation that never completed; replaying them would
        # double-apply, so the monotonic sequence filter drops them.
        applied_seq = snapshot.wal_seq if snapshot is not None else 0
        tail = []
        for record in records:
            seq = int(record.get("seq", 0))
            if seq and seq <= applied_seq:
                continue
            applied_seq = max(applied_seq, seq)
            tail.append(record)
        if snapshot is None:
            self._proxy = self._fresh_proxy()
        elif self.durability.recovery == "exact":
            if not snapshot.payload.get("oplog_complete", True):
                raise ModelError(
                    "snapshot was checkpointed with recovery='durable' "
                    "and holds no replayable oplog; recover this "
                    "directory with recovery='durable'"
                )
            self._proxy = self._fresh_proxy()
            for record in snapshot.payload.get("oplog", []):
                self._apply(record)
                self._oplog.append(record)
            self._proxy.fast_forward(int(snapshot.payload["durable"]["now"]))
        else:
            self._proxy = StreamingProxy.restore(
                snapshot.payload["durable"], **self._factory
            )
            self._rebind_ordinals(snapshot.payload.get("oplog", []))
        for record in tail:
            self._apply(record)
            self._retain(record)
        if snapshot is not None or records:
            # Re-anchor immediately: the tail has been absorbed, so the
            # next crash recovers from one snapshot instead of two hops.
            self.checkpoint()

    def _rebind_ordinals(self, oplog: Iterable[dict]) -> None:
        """Durable-mode ordinal table: map journal ordinals onto the CEI
        objects :meth:`StreamingProxy.restore` actually registered.

        The restored registry preserves per-client submission order, so
        walking the oplog's submit records and consuming each client's
        restored list in parallel realigns the global ordinals.
        """
        cursors: dict[str, Iterable] = {}
        for name in self._proxy.registry.names:
            cursors[name] = iter(self._proxy.registry.ceis_of(name))
        for record in oplog:
            self._retain(record)
            if record.get("op") != "submit":
                continue
            ordinals = [int(o) for o in record["ordinals"]]
            cursor = cursors.get(record["client"])
            if cursor is None:
                # The client was unregistered later in the history; its
                # needs are gone and nothing can reference them again.
                self._next_ordinal = max(
                    self._next_ordinal, ordinals[-1] + 1
                )
                continue
            for ordinal in ordinals:
                cei = next(cursor, None)
                if cei is None:
                    break
                self._cei_of_ordinal[ordinal] = cei
                self._ordinal_of_cid[cei.cid] = ordinal
            self._next_ordinal = max(self._next_ordinal, ordinals[-1] + 1)

    def _retain(self, record: dict) -> None:
        """Keep what later checkpoints and rebinds need from a record.

        Exact mode keeps the full record (recovery re-executes it);
        durable mode keeps only the ordinal skeleton of submits, which is
        all :meth:`_rebind_ordinals` reads.  Ticks are never retained —
        the clock position lives in the snapshot itself.
        """
        op = record.get("op")
        if op == "tick":
            return
        if self._keep_oplog:
            self._oplog.append(record)
        elif op == "submit":
            self._oplog.append(
                {
                    "op": "submit",
                    "client": record["client"],
                    "ordinals": list(record["ordinals"]),
                }
            )

    def _advance_to(self, at: Chronon, op: str, *, strict: bool) -> None:
        if at > self._proxy.now:
            self._proxy.tick(at - self._proxy.now)
        elif at < self._proxy.now and strict:
            raise JournalCorruptError(
                f"journal {op} record at chronon {at} precedes the "
                f"replayed clock {self._proxy.now}: the journal runs "
                "backwards"
            )

    def _bind(
        self,
        ordinals: Sequence[int],
        ceis: Sequence[ComplexExecutionInterval],
    ) -> None:
        for ordinal, cei in zip(ordinals, ceis):
            self._cei_of_ordinal[ordinal] = cei
            self._ordinal_of_cid[cei.cid] = ordinal
        if ordinals:
            self._next_ordinal = max(self._next_ordinal, ordinals[-1] + 1)

    def _apply(self, record: dict) -> None:
        """Apply one journal record to the in-memory proxy (replay path).

        Idempotent under duplicate replay: records whose effect is
        already present (a registered client, an assigned ordinal, a
        clock already past the tick target) are skipped.
        """
        op = record.get("op")
        if op == "tick":
            to = int(record["to"])
            if to > self._proxy.now:
                self._proxy.tick(to - self._proxy.now)
            return
        at = int(record.get("at", self._proxy.now))
        if op == "register":
            if record["client"] in self._proxy.registry:
                return
            self._advance_to(at, op, strict=False)
            self._proxy.register_client(record["client"])
        elif op == "unregister":
            if record["client"] not in self._proxy.registry:
                return
            self._advance_to(at, op, strict=False)
            self._proxy.unregister_client(record["client"])
        elif op == "submit":
            ordinals = [int(o) for o in record["ordinals"]]
            if ordinals and ordinals[-1] < self._next_ordinal:
                return  # duplicate replay: these needs are already in
            self._advance_to(at, op, strict=True)
            ceis = [cei_from_record(entry) for entry in record["ceis"]]
            self._bind(ordinals, ceis)
            self._proxy.submit_ceis(record["client"], ceis)
        elif op == "cancel":
            self._advance_to(at, op, strict=True)
            targets = [
                self._cei_of_ordinal[int(o)]
                for o in record["ordinals"]
                if int(o) in self._cei_of_ordinal
            ]
            if targets:
                self._proxy.cancel_ceis(record["client"], targets)
        elif op == "budget":
            self._advance_to(at, op, strict=True)
            self._proxy.set_budget(
                StreamingBudget(
                    values=tuple(float(v) for v in record["values"]),
                    cycle=bool(record["cycle"]),
                )
            )
        else:
            raise JournalCorruptError(f"unknown journal op {op!r}")

    # ------------------------------------------------------------------
    # Journaled mutators
    # ------------------------------------------------------------------

    def _journal(self, record: dict) -> dict:
        # Callers always pass a fresh literal, so stamping in place is
        # safe and avoids a copy on the journaling hot path.
        record["at"] = int(self._proxy.now)
        stamped = self._wal.append(record)
        self._retain(stamped)
        return stamped

    def register_client(self, name: str) -> ClientHandle:
        """Register a new client (journaled); returns its typed handle."""
        with self._lock:
            if str(name) in self._proxy.registry:
                return self._proxy.register_client(name)  # raises
            self._journal({"op": "register", "client": str(name)})
            return self._proxy.register_client(name)

    def unregister_client(self, client: str) -> int:
        """Withdraw a client's open needs and drop it (journaled)."""
        with self._lock:
            self._proxy.registry.require(client)
            self._journal({"op": "unregister", "client": str(client)})
            return self._proxy.unregister_client(client)

    def submit_ceis(
        self, client: str, ceis: Sequence[ComplexExecutionInterval]
    ) -> int:
        """Admit CEIs for a client (journaled before they register).

        The batch is checked once (:meth:`StreamingProxy.check_submission`),
        journaled as one ``submit`` record with its CEIs in
        :func:`repro.io.serialization.cei_to_record` form, then admitted
        without a second check, all under one hold of the lock.  A
        refused batch raises before anything is journaled or changed.
        Replay (:meth:`_apply`) goes through the checking
        :meth:`StreamingProxy.submit_ceis`.
        """
        ceis = list(ceis)
        with self._lock:
            self._proxy.check_submission(client, ceis)
            if not ceis:
                return 0
            ordinals = list(
                range(self._next_ordinal, self._next_ordinal + len(ceis))
            )
            self._journal(
                {
                    "op": "submit",
                    "client": str(client),
                    "ordinals": ordinals,
                    "ceis": [cei_to_record(cei) for cei in ceis],
                }
            )
            self._bind(ordinals, ceis)
            return self._proxy._admit(client, ceis)

    def cancel_ceis(
        self,
        client: str,
        ceis: Optional[Iterable[ComplexExecutionInterval]] = None,
    ) -> int:
        """Withdraw needs mid-flight (journaled as resolved ordinals).

        ``ceis=None`` resolves to every still-open need of the client
        *before* journaling, so the journal records an explicit target
        list and replays deterministically in both recovery modes.
        """
        with self._lock:
            targets = self._proxy.resolve_cancel_targets(client, ceis)
            ordinals = [
                self._ordinal_of_cid[cei.cid]
                for cei in targets
                if cei.cid in self._ordinal_of_cid
            ]
            self._journal(
                {"op": "cancel", "client": str(client), "ordinals": ordinals}
            )
            return self._proxy.cancel_ceis(client, targets)

    def tick(self, chronons: int = 1) -> Chronon:
        """Advance the clock (the boundary is journaled before stepping)."""
        with self._lock:
            if chronons < 0:
                raise ModelError(f"cannot advance by {chronons}")
            if chronons == 0:
                return self._proxy.now
            self._journal(
                {"op": "tick", "to": int(self._proxy.now) + int(chronons)}
            )
            now = self._proxy.tick(chronons)
            self._maybe_checkpoint()
            return now

    def set_budget(
        self, budget: Union[StreamingBudget, BudgetVector, float, int]
    ) -> None:
        """Replace the per-chronon budget from now on (journaled)."""
        with self._lock:
            streaming_budget = coerce_budget(budget)
            self._journal(
                {
                    "op": "budget",
                    "values": list(streaming_budget.values),
                    "cycle": streaming_budget.cycle,
                }
            )
            self._proxy.set_budget(streaming_budget)

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def _maybe_checkpoint(self) -> None:
        every = self.durability.snapshot_every
        if not every:
            return
        anchor = self._last_snapshot_chronon or 0
        if self._proxy.now - anchor >= every:
            self.checkpoint()

    def checkpoint(self) -> Optional[int]:
        """Durably snapshot the proxy and truncate the journal behind it.

        Returns the snapshot id, or None when the store refused the row
        (the service then reports itself degraded but keeps running —
        the journal still holds the full history).  The payload holds
        every admitted CEI (compact triples for plain ones), so a
        checkpoint costs O(all CEIs) with the lock held.
        """
        with self._lock:
            self._wal.sync()
            payload = {
                "format": DURABLE_FORMAT,
                "durable": self._proxy.snapshot(),
                "oplog": list(self._oplog),
                "oplog_complete": self._keep_oplog,
                "next_ordinal": self._next_ordinal,
            }
            wal_seq = self._wal.last_seq
            try:
                snapshot_id = self._store.save(
                    chronon=self._proxy.now, wal_seq=wal_seq, payload=payload
                )
            except (OSError, sqlite3.Error) as error:
                self._snapshot_error = f"{type(error).__name__}: {error}"
                return None
            self._snapshot_error = None
            self._last_snapshot_chronon = int(self._proxy.now)
            self._last_snapshot_seq = wal_seq
            self._wal.truncate_through(wal_seq)
            return snapshot_id

    def close(self) -> None:
        """Graceful shutdown: stop the clock, flush, final checkpoint."""
        self.stop()
        with self._lock:
            self.checkpoint()
            self._wal.close()
            self._store.close()

    # ------------------------------------------------------------------
    # Observation and passthroughs
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """Is the durable layer limping (disk faults on WAL or store)?"""
        return self._wal.degraded or self._snapshot_error is not None

    def durability_status(self) -> dict:
        """The durable layer's health, as served by ``/healthz``."""
        with self._lock:
            return {
                "degraded": self.degraded,
                "wal_lag": self._wal.lag,
                "wal_seq": self._wal.last_seq,
                "records_since_snapshot": (
                    self._wal.last_seq - self._last_snapshot_seq
                ),
                "last_snapshot_chronon": self._last_snapshot_chronon,
                "last_error": self._wal.last_error or self._snapshot_error,
            }

    @property
    def journal_seq(self) -> int:
        """Sequence number of the last journaled record (0 when fresh)."""
        return self._wal.last_seq

    def submitted_ceis(self) -> list[ComplexExecutionInterval]:
        """Every submitted CEI in global ordinal (submission) order."""
        with self._lock:
            return [
                self._cei_of_ordinal[o]
                for o in sorted(self._cei_of_ordinal)
            ]

    @property
    def proxy(self) -> StreamingProxy:
        """The wrapped in-memory proxy.  Mutate only through the durable
        facade — direct mutations bypass the journal."""
        return self._proxy

    @property
    def registry(self):
        return self._proxy.registry

    @property
    def client_names(self) -> list[str]:
        return self._proxy.client_names

    @property
    def now(self) -> Chronon:
        return self._proxy.now

    @property
    def monitor(self):
        return self._proxy.monitor

    def stats(self) -> dict[str, float | int]:
        with self._lock:
            out = self._proxy.stats()
            out["wal_seq"] = self._wal.last_seq
            out["degraded"] = self.degraded
            return out

    def client_stats(self, client: str) -> dict[str, float | int]:
        return self._proxy.client_stats(client)

    def snapshot(self) -> dict:
        """The inner proxy's durable payload (see
        :meth:`StreamingProxy.snapshot`), plain CEIs as triples; every
        :meth:`checkpoint` stores one."""
        return self._proxy.snapshot()
