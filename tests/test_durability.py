"""Tests for the durability layer: WAL codec, snapshot store, recovery.

The crash-injection harness proper lives in ``tests/crash_harness.py``
(run by the CI ``crash-recovery`` job with a seed matrix); this file
covers the unit surface — frame codec edge cases, disk-fault
degradation and healing, checkpoint/truncate mechanics, both recovery
modes, the journaled HTTP/service surface — plus one representative
harness cell so tier-1 always exercises process-death recovery, and the
hypothesis fixed-point property ``snapshot() → restore() → snapshot()``
across engines × shedding × faults.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import sqlite3
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ExperimentError, ModelError
from repro.core.resource import ResourcePool
from repro.io.serialization import _cei_to_dict, cei_from_record
from repro.online import MonitorConfig, StreamingMonitor
from repro.online.faults import FailureModel
from repro.online.health import HealthConfig
from repro.online.shedding import SheddingConfig
from repro.proxy.durability import (
    DurabilityConfig,
    DurableStreamingProxy,
    JournalCorruptError,
    SnapshotStore,
    WriteAheadLog,
    decode_frames,
    encode_frame,
)
from repro.proxy.service import serve
from repro.proxy.streaming import StreamingProxy
from tests.conftest import make_cei
from tests.crash_harness import (
    EXIT_KILLED,
    recover_and_finish,
    reference_fingerprint,
    run_child,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _post(url: str):
    request = urllib.request.Request(url, data=b"", method="POST")
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------


class TestFrameCodec:
    def test_empty_log(self):
        assert decode_frames(b"") == ([], 0, False)

    def test_roundtrip(self):
        records = [{"op": "tick", "to": 3}, {"op": "register", "client": "a"}]
        data = b"".join(encode_frame(r) for r in records)
        decoded, clean, torn = decode_frames(data)
        assert decoded == records
        assert clean == len(data)
        assert not torn

    @pytest.mark.parametrize("cut", [1, 4, 7, 9, 12])
    def test_torn_tail_is_dropped(self, cut):
        frames = [encode_frame({"op": "tick", "to": j}) for j in range(3)]
        whole = b"".join(frames[:2])
        data = whole + frames[2][:cut]
        decoded, clean, torn = decode_frames(data)
        assert [r["to"] for r in decoded] == [0, 1]
        assert clean == len(whole)
        assert torn

    def test_bit_flip_raises_corrupt(self):
        data = bytearray(
            encode_frame({"op": "tick", "to": 1})
            + encode_frame({"op": "tick", "to": 2})
        )
        data[10] ^= 0x40  # flip a payload bit of the first frame
        with pytest.raises(JournalCorruptError, match="CRC mismatch"):
            decode_frames(bytes(data))

    def test_non_object_record_rejected(self):
        payload = json.dumps([1, 2, 3]).encode()
        import struct
        import zlib

        frame = struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
        with pytest.raises(JournalCorruptError, match="not a record"):
            decode_frames(frame)


# ---------------------------------------------------------------------------
# Write-ahead log
# ---------------------------------------------------------------------------


class FlakyOpener:
    """An opener whose files fail their first ``fail_writes`` writes."""

    def __init__(self, fail_writes: int) -> None:
        self.remaining = fail_writes

    def __call__(self, path: str, mode: str):
        outer = self

        class _File:
            def __init__(self) -> None:
                self._inner = open(path, mode)

            def write(self, data: bytes) -> int:
                if outer.remaining > 0:
                    outer.remaining -= 1
                    raise OSError(28, "No space left on device")
                return self._inner.write(data)

            def __getattr__(self, name: str):
                return getattr(self._inner, name)

        return _File()


class TestWriteAheadLog:
    def test_append_recover_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append({"op": "register", "client": "a"})
        wal.append({"op": "tick", "to": 4})
        wal.close()
        fresh = WriteAheadLog(tmp_path / "wal.log")
        records = fresh.recover()
        assert [r["op"] for r in records] == ["register", "tick"]
        assert [r["seq"] for r in records] == [1, 2]
        assert fresh.last_seq == 2

    def test_recover_truncates_torn_tail_physically(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"op": "tick", "to": 1})
        wal.append({"op": "tick", "to": 2})
        wal.close()
        clean_bytes = path.read_bytes()
        path.write_bytes(clean_bytes + encode_frame({"op": "tick", "to": 3})[:7])
        fresh = WriteAheadLog(path)
        records = fresh.recover()
        assert [r["to"] for r in records] == [1, 2]
        assert path.read_bytes() == clean_bytes
        # Appends after a torn recovery extend the clean prefix.
        fresh.append({"op": "tick", "to": 9})
        fresh.close()
        again = WriteAheadLog(path)
        assert [r["to"] for r in again.recover()] == [1, 2, 9]

    def test_corrupt_mid_log_refused(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"op": "tick", "to": 1})
        wal.append({"op": "tick", "to": 2})
        wal.close()
        data = bytearray(path.read_bytes())
        data[10] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError):
            WriteAheadLog(path).recover()

    def test_truncate_through_drops_prefix(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for j in range(5):
            wal.append({"op": "tick", "to": j})
        wal.truncate_through(3)
        wal.append({"op": "tick", "to": 99})
        wal.close()
        records = WriteAheadLog(path).recover()
        assert [r["seq"] for r in records] == [4, 5, 6]

    @pytest.mark.parametrize("policy", ["always", "interval", "never"])
    def test_fsync_policies_all_persist(self, tmp_path, policy):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync=policy, fsync_every=2)
        for j in range(5):
            wal.append({"op": "tick", "to": j})
        wal.close()
        assert len(WriteAheadLog(path).recover()) == 5

    def test_bad_policy_rejected(self, tmp_path):
        with pytest.raises(ModelError, match="fsync policy"):
            WriteAheadLog(tmp_path / "wal.log", fsync="sometimes")

    def test_transient_fault_retried(self, tmp_path):
        sleeps: list[float] = []
        wal = WriteAheadLog(
            tmp_path / "wal.log",
            retries=3,
            backoff=0.5,
            opener=FlakyOpener(fail_writes=2),
            sleep=sleeps.append,
        )
        wal.append({"op": "tick", "to": 1})
        assert not wal.degraded
        assert sleeps == [0.5, 1.0]  # exponential backoff, injected sleep
        wal.close()
        assert len(WriteAheadLog(tmp_path / "wal.log").recover()) == 1

    def test_sustained_fault_degrades_then_heals(self, tmp_path):
        opener = FlakyOpener(fail_writes=100)
        wal = WriteAheadLog(
            tmp_path / "wal.log",
            retries=1,
            backoff=0.0,
            opener=opener,
            sleep=lambda _s: None,
        )
        wal.append({"op": "tick", "to": 1})
        wal.append({"op": "tick", "to": 2})
        assert wal.degraded
        assert wal.lag == 2
        assert "No space left" in wal.last_error
        # The volume heals: the next append drains the whole backlog.
        opener.remaining = 0
        wal.append({"op": "tick", "to": 3})
        assert not wal.degraded
        assert wal.lag == 0
        assert wal.last_error is None
        wal.close()
        records = WriteAheadLog(tmp_path / "wal.log").recover()
        assert [r["to"] for r in records] == [1, 2, 3]
        assert [r["seq"] for r in records] == [1, 2, 3]


# ---------------------------------------------------------------------------
# Group-commit fsync batching
# ---------------------------------------------------------------------------


class FakeClock:
    """Injectable monotonic clock for deterministic window tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestGroupCommit:
    @pytest.fixture
    def fsync_count(self, monkeypatch):
        calls = {"n": 0}
        real = os.fsync

        def counting(fd):
            calls["n"] += 1
            real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        return calls

    def test_in_window_appends_defer_fsync(self, tmp_path, fsync_count):
        clock = FakeClock()
        wal = WriteAheadLog(
            tmp_path / "wal.log", fsync="always", group_window=0.05, clock=clock
        )
        wal.append({"op": "tick", "to": 1})  # first append opens the group
        assert fsync_count["n"] == 1
        clock.now = 0.01
        wal.append({"op": "tick", "to": 2})
        clock.now = 0.02
        wal.append({"op": "tick", "to": 3})
        assert fsync_count["n"] == 1  # both rode the open group
        clock.now = 0.06  # window elapsed: next append commits the group
        wal.append({"op": "tick", "to": 4})
        assert fsync_count["n"] == 2
        wal.close()
        records = WriteAheadLog(tmp_path / "wal.log").recover()
        assert [r["to"] for r in records] == [1, 2, 3, 4]

    def test_sync_commits_pending_group(self, tmp_path, fsync_count):
        clock = FakeClock()
        wal = WriteAheadLog(
            tmp_path / "wal.log", fsync="always", group_window=10.0, clock=clock
        )
        wal.append({"op": "tick", "to": 1})
        clock.now = 0.5
        wal.append({"op": "tick", "to": 2})
        before = fsync_count["n"]
        wal.sync()  # explicit barrier commits the deferred group now
        assert fsync_count["n"] == before + 1
        wal.close()

    def test_close_commits_pending_group(self, tmp_path, fsync_count):
        clock = FakeClock()
        wal = WriteAheadLog(
            tmp_path / "wal.log", fsync="always", group_window=10.0, clock=clock
        )
        wal.append({"op": "tick", "to": 1})
        clock.now = 1.0
        wal.append({"op": "tick", "to": 2})
        before = fsync_count["n"]
        wal.close()
        assert fsync_count["n"] == before + 1
        assert len(WriteAheadLog(tmp_path / "wal.log").recover()) == 2

    def test_zero_window_is_plain_always(self, tmp_path, fsync_count):
        wal = WriteAheadLog(tmp_path / "wal.log", fsync="always")
        for j in range(3):
            wal.append({"op": "tick", "to": j})
        assert fsync_count["n"] == 3
        wal.close()

    def test_backlog_drain_joins_group(self, tmp_path, fsync_count):
        clock = FakeClock()
        opener = FlakyOpener(fail_writes=100)
        wal = WriteAheadLog(
            tmp_path / "wal.log",
            fsync="always",
            group_window=10.0,
            clock=clock,
            retries=0,
            backoff=0.0,
            opener=opener,
            sleep=lambda _s: None,
        )
        wal.append({"op": "tick", "to": 1})
        wal.append({"op": "tick", "to": 2})
        assert wal.degraded and wal.lag == 2
        opener.remaining = 0
        wal.append({"op": "tick", "to": 3})  # drains the backlog in one write
        assert not wal.degraded
        assert fsync_count["n"] == 1  # one group commit for all three
        clock.now = 11.0
        wal.append({"op": "tick", "to": 4})
        assert fsync_count["n"] == 2
        wal.close()
        records = WriteAheadLog(tmp_path / "wal.log").recover()
        assert [r["to"] for r in records] == [1, 2, 3, 4]

    def test_window_validation(self, tmp_path):
        with pytest.raises(ModelError, match="group_window"):
            WriteAheadLog(tmp_path / "wal.log", group_window=-0.1)
        with pytest.raises(ModelError, match="group_window"):
            WriteAheadLog(
                tmp_path / "wal.log", fsync="interval", group_window=0.5
            )
        with pytest.raises(ModelError, match="group_window"):
            DurabilityConfig(root=tmp_path, group_window=-1.0)
        with pytest.raises(ModelError, match="group_window"):
            DurabilityConfig(root=tmp_path, fsync="never", group_window=0.5)

    def test_proxy_passes_window_through(self, tmp_path, fsync_count):
        proxy = DurableStreamingProxy(
            DurabilityConfig(root=tmp_path, fsync="always", group_window=30.0),
            resources=ResourcePool.uniform(4),
            budget=1.0,
        )
        proxy.register_client("alice")
        proxy.submit_ceis("alice", [make_cei((0, 0, 5))])
        proxy.tick(2)
        appends = fsync_count["n"]
        assert appends <= 2  # first append fsyncs; the rest ride the group
        expected = _state(proxy)
        proxy.close()
        recovered = make_durable(
            tmp_path, fsync="always", group_window=30.0
        )
        assert _state(recovered) == expected
        recovered.close()


# ---------------------------------------------------------------------------
# Snapshot store
# ---------------------------------------------------------------------------


class TestSnapshotStore:
    def test_save_latest_roundtrip(self, tmp_path):
        store = SnapshotStore(tmp_path / "snap.sqlite3", keep=2)
        store.save(chronon=3, wal_seq=7, payload={"x": 1})
        store.save(chronon=9, wal_seq=12, payload={"x": 2})
        latest = store.latest()
        assert latest.chronon == 9
        assert latest.wal_seq == 12
        assert latest.payload == {"x": 2}
        store.close()

    def test_keep_prunes_old_rows(self, tmp_path):
        store = SnapshotStore(tmp_path / "snap.sqlite3", keep=2)
        for j in range(5):
            store.save(chronon=j, wal_seq=j, payload={"j": j})
        assert store.count() == 2
        assert store.latest().payload == {"j": 4}
        store.close()

    def test_corrupt_newest_row_falls_back(self, tmp_path):
        path = tmp_path / "snap.sqlite3"
        store = SnapshotStore(path, keep=3)
        store.save(chronon=1, wal_seq=1, payload={"good": "old"})
        store.save(chronon=2, wal_seq=2, payload={"good": "new"})
        store.close()
        conn = sqlite3.connect(str(path))
        conn.execute(
            "UPDATE snapshots SET payload = 'not json{' WHERE chronon = 2"
        )
        conn.commit()
        conn.close()
        fresh = SnapshotStore(path, keep=3)
        assert fresh.latest().payload == {"good": "old"}
        fresh.close()

    def test_empty_store(self, tmp_path):
        store = SnapshotStore(tmp_path / "snap.sqlite3")
        assert store.latest() is None
        store.close()


# ---------------------------------------------------------------------------
# Durable proxy: recovery semantics
# ---------------------------------------------------------------------------


def make_durable(root, **overrides) -> DurableStreamingProxy:
    defaults = dict(root=root, fsync="never", snapshot_every=0)
    defaults.update(overrides)
    return DurableStreamingProxy(
        DurabilityConfig(**defaults),
        resources=ResourcePool.uniform(4),
        budget=1.0,
    )


def _churn(proxy) -> None:
    alice = proxy.register_client("alice")
    proxy.submit_ceis(alice, [make_cei((0, 0, 5), (1, 3, 9)), make_cei((2, 1, 8))])
    proxy.tick(3)
    bob = proxy.register_client("bob")
    proxy.submit_ceis(bob, [make_cei((3, 4, 14))])
    proxy.cancel_ceis(alice, [proxy.submitted_ceis()[1]])
    proxy.set_budget(2.0)
    proxy.tick(5)


def _state(proxy) -> dict:
    return {
        "pairs": [list(p) for p in proxy.monitor.schedule.pairs()],
        "stats": {
            k: v
            for k, v in proxy.stats().items()
            if k not in ("wal_seq", "degraded")
        },
        "clients": {
            name: proxy.client_stats(name) for name in proxy.client_names
        },
    }


class TestDurableRecovery:
    def test_fresh_directory_is_fresh_start(self, tmp_path):
        proxy = make_durable(tmp_path)
        assert proxy.now == 0
        assert proxy.journal_seq == 0
        assert proxy.client_names == []
        proxy.close()

    def test_exact_recovery_is_bit_identical(self, tmp_path):
        proxy = make_durable(tmp_path)
        _churn(proxy)
        expected = _state(proxy)
        proxy.close()
        recovered = make_durable(tmp_path)
        assert _state(recovered) == expected
        # ... and stays identical as both continue.
        recovered.tick(4)
        recovered.close()

    def test_recovery_without_close_replays_wal_tail(self, tmp_path):
        proxy = make_durable(tmp_path)
        _churn(proxy)
        expected = _state(proxy)
        # No close(): simulate process death with the journal as the only
        # durable state (fsync=never still flushes to the page cache).
        proxy._wal.sync()
        recovered = make_durable(tmp_path)
        assert _state(recovered) == expected

    def test_durable_mode_recovers_client_table(self, tmp_path):
        proxy = make_durable(tmp_path, recovery="durable")
        _churn(proxy)
        before = proxy.stats()
        proxy.close()
        recovered = make_durable(tmp_path, recovery="durable")
        after = recovered.stats()
        assert after["now"] == before["now"]
        assert after["clients"] == before["clients"]
        assert after["submitted_ceis"] == before["submitted_ceis"]
        # Cancels keep working against recovered (re-parsed) objects.
        recovered.cancel_ceis("bob")
        recovered.close()

    def test_duplicate_replay_is_idempotent(self, tmp_path):
        proxy = make_durable(tmp_path)
        _churn(proxy)
        expected = _state(proxy)
        proxy._wal.sync()
        wal_path = proxy.durability.wal_path
        records, _, _ = decode_frames(wal_path.read_bytes())
        # A botched truncation could leave every frame duplicated.
        with open(wal_path, "ab") as handle:
            for record in records:
                handle.write(encode_frame(record))
        recovered = make_durable(tmp_path)
        assert _state(recovered) == expected
        recovered.close()

    def test_corrupt_mid_journal_refused(self, tmp_path):
        proxy = make_durable(tmp_path)
        _churn(proxy)
        proxy._wal.sync()
        wal_path = proxy.durability.wal_path
        data = bytearray(wal_path.read_bytes())
        data[12] ^= 0x20
        wal_path.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError):
            make_durable(tmp_path)

    def test_periodic_checkpoint_truncates_journal(self, tmp_path):
        proxy = make_durable(tmp_path, snapshot_every=2)
        alice = proxy.register_client("alice")
        proxy.submit_ceis(alice, [make_cei((0, 0, 30))])
        for _ in range(10):
            proxy.tick(1)
        status = proxy.durability_status()
        assert status["last_snapshot_chronon"] == 10
        assert status["records_since_snapshot"] == 0
        assert proxy._store.count() >= 1
        # The journal behind the checkpoint is gone, but sequence
        # numbering survives recovery.
        seq = proxy.journal_seq
        proxy.close()
        recovered = make_durable(tmp_path, snapshot_every=2)
        assert recovered.journal_seq == seq
        assert recovered.now == 10
        recovered.close()

    def test_unregister_is_journaled(self, tmp_path):
        proxy = make_durable(tmp_path)
        alice = proxy.register_client("alice")
        proxy.register_client("bob")
        proxy.submit_ceis(alice, [make_cei((0, 0, 50))])
        proxy.tick(2)
        proxy.unregister_client(alice)
        assert proxy.client_names == ["bob"]
        expected = _state(proxy)
        proxy.close()
        recovered = make_durable(tmp_path)
        assert recovered.client_names == ["bob"]
        assert _state(recovered) == expected
        recovered.close()

    def test_disk_faults_degrade_and_heal(self, tmp_path):
        opener = FlakyOpener(fail_writes=100)
        proxy = DurableStreamingProxy(
            DurabilityConfig(
                root=tmp_path, fsync="never", retries=0, backoff=0.0
            ),
            budget=1.0,
            opener=opener,
            sleep=lambda _s: None,
        )
        proxy.register_client("alice")
        assert proxy.degraded
        assert proxy.durability_status()["wal_lag"] == 1
        assert proxy.stats()["degraded"] is True
        # The service keeps accepting work while degraded...
        proxy.submit_ceis("alice", [make_cei((0, 0, 9))])
        proxy.tick(2)
        assert proxy.durability_status()["wal_lag"] == 3
        # ...and self-heals once the volume recovers.
        opener.remaining = 0
        proxy.tick(1)
        assert not proxy.degraded
        assert proxy.durability_status()["wal_lag"] == 0
        expected = _state(proxy)
        proxy.close()
        recovered = make_durable(tmp_path)
        assert _state(recovered) == expected
        recovered.close()


class TestDurableClock:
    def test_background_clock(self, tmp_path):
        """The durable proxy's clock thread runs like the streaming
        proxy's (same error on a second start) and journals its ticks."""
        proxy = make_durable(tmp_path)
        proxy.start(interval=0.01)
        assert proxy.running
        with pytest.raises(ExperimentError, match="already running"):
            proxy.start(interval=0.01)
        for _ in range(200):
            if proxy.now >= 2:
                break
            time.sleep(0.01)
        proxy.stop()
        assert not proxy.running
        now = proxy.now
        assert now >= 2
        proxy.close()
        recovered = make_durable(tmp_path)
        assert recovered.now == now
        recovered.close()


class TestDurableModeOplog:
    """``recovery='durable'`` keeps O(needs) memory, not O(history)."""

    def test_oplog_holds_only_submit_skeletons(self, tmp_path):
        proxy = make_durable(tmp_path, recovery="durable")
        _churn(proxy)
        assert proxy._oplog, "submits must still be retained for rebinding"
        for record in proxy._oplog:
            assert record["op"] == "submit"
            assert set(record) == {"op", "client", "ordinals"}
        proxy.close()

    def test_exact_mode_retains_full_history(self, tmp_path):
        proxy = make_durable(tmp_path, recovery="exact")
        _churn(proxy)
        ops = {record["op"] for record in proxy._oplog}
        assert "submit" in ops and "cancel" in ops and "register" in ops
        assert any("ceis" in r for r in proxy._oplog if r["op"] == "submit")
        proxy.close()

    def test_exact_recovery_from_durable_snapshot_refused(self, tmp_path):
        proxy = make_durable(tmp_path, recovery="durable")
        _churn(proxy)
        proxy.close()  # checkpoints with oplog_complete=False
        with pytest.raises(ModelError, match="recovery='durable'"):
            make_durable(tmp_path, recovery="exact")

    def test_durable_snapshot_rebinds_ordinals_across_restarts(self, tmp_path):
        proxy = make_durable(tmp_path, recovery="durable")
        alice = proxy.register_client("alice")
        proxy.submit_ceis(
            alice, [make_cei((0, 2, 40)), make_cei((1, 3, 50)), make_cei((2, 4, 60))]
        )
        proxy.tick(1)
        proxy.close()
        recovered = make_durable(tmp_path, recovery="durable")
        # Cancel by ordinal: the skeleton oplog realigns the global index
        # onto the re-parsed CEI objects.
        victim = recovered.submitted_ceis()[1]
        assert recovered.cancel_ceis("alice", [victim]) == 1
        recovered.close()
        again = make_durable(tmp_path, recovery="durable")
        assert again.client_stats("alice")["cancelled_ceis"] == 1
        # The surviving needs re-admit and satisfy; the cancelled one
        # stays withdrawn forever.
        again.tick(4)
        stats = again.client_stats("alice")
        assert stats["satisfied_ceis"] == 2
        assert stats["cancelled_ceis"] == 1
        again.close()


# ---------------------------------------------------------------------------
# Admission: one check, one compact record
# ---------------------------------------------------------------------------


def _churn_mixed(proxy) -> None:
    """``_churn`` plus a batch mixing a plain CEI with a weighted one, so
    the journal holds both CEI forms."""
    _churn(proxy)
    proxy.submit_ceis(
        "bob", [make_cei((1, 9, 20), (0, 10, 22)), make_cei((2, 9, 20), weight=2.0)]
    )
    proxy.tick(2)


def _recovered_view(proxy) -> tuple:
    """Clock, ordinal table and schedule of a (recovered) proxy."""
    ordinals = [
        (ordinal, [(e.resource, e.start, e.finish) for e in cei.eis], cei.weight)
        for ordinal, cei in sorted(proxy._cei_of_ordinal.items())
    ]
    return proxy.now, ordinals, proxy._next_ordinal, _state(proxy)


def _to_dict_form(entries: list) -> list:
    return [_cei_to_dict(cei_from_record(entry)) for entry in entries]


class TestCompactRecords:
    """Plain CEIs journal and snapshot as triples; the dict form written
    before that still recovers to the same clock, ordinals and schedule."""

    def test_submit_record_holds_both_forms(self, tmp_path):
        proxy = make_durable(tmp_path)
        _churn_mixed(proxy)
        proxy._wal.sync()
        records, _, _ = decode_frames(proxy.durability.wal_path.read_bytes())
        forms = [
            type(entry) for r in records if r["op"] == "submit" for entry in r["ceis"]
        ]
        assert forms == [list, list, list, list, dict]
        proxy.close()

    def test_dict_form_journal_recovers(self, tmp_path):
        source = make_durable(tmp_path / "source")
        _churn_mixed(source)
        expected = _recovered_view(source)
        source._wal.sync()
        for name in ("compact", "legacy"):
            shutil.copytree(tmp_path / "source", tmp_path / name)
        source.close()
        wal_path = DurabilityConfig(root=tmp_path / "legacy").wal_path
        records, _, torn = decode_frames(wal_path.read_bytes())
        assert not torn
        for record in records:
            if record["op"] == "submit":
                record["ceis"] = _to_dict_form(record["ceis"])
        wal_path.write_bytes(b"".join(encode_frame(r) for r in records))

        compact = make_durable(tmp_path / "compact")
        legacy = make_durable(tmp_path / "legacy")
        assert _recovered_view(compact) == expected
        assert _recovered_view(legacy) == expected
        compact.tick(6)
        legacy.tick(6)
        assert _recovered_view(legacy) == _recovered_view(compact)
        compact.close()
        legacy.close()

    @pytest.mark.parametrize("recovery", ["exact", "durable"])
    def test_dict_form_snapshot_recovers(self, tmp_path, recovery):
        source = make_durable(tmp_path / "source", recovery=recovery)
        _churn_mixed(source)
        source.close()
        for name in ("compact", "legacy"):
            shutil.copytree(tmp_path / "source", tmp_path / name)
        store = SnapshotStore(DurabilityConfig(root=tmp_path / "legacy").snapshot_path)
        latest = store.latest()
        payload = latest.payload
        assert payload["durable"]["format"] == "repro.streaming-proxy/1"
        rewritten = 0
        for entries in payload["durable"]["clients"].values():
            for entry in entries:
                rewritten += isinstance(entry["cei"], list)
                entry["cei"] = _cei_to_dict(cei_from_record(entry["cei"]))
        for record in payload["oplog"]:
            if "ceis" in record:
                record["ceis"] = _to_dict_form(record["ceis"])
        assert rewritten == 4
        store.save(chronon=latest.chronon, wal_seq=latest.wal_seq, payload=payload)
        store.close()

        compact = make_durable(tmp_path / "compact", recovery=recovery)
        legacy = make_durable(tmp_path / "legacy", recovery=recovery)
        assert _recovered_view(legacy) == _recovered_view(compact)
        compact.tick(6)
        legacy.tick(6)
        assert _recovered_view(legacy) == _recovered_view(compact)
        compact.close()
        legacy.close()

    def test_submit_validates_once(self, tmp_path, monkeypatch):
        proxy = make_durable(tmp_path)
        alice = proxy.register_client("alice")
        calls = []

        def spy(cls, name):
            original = getattr(cls, name)

            def wrapped(self, *args):
                calls.append(name)
                return original(self, *args)

            monkeypatch.setattr(cls, name, wrapped)

        spy(StreamingMonitor, "check_new")
        spy(StreamingProxy, "_check_owners")
        assert proxy.submit_ceis(alice, [make_cei((0, 0, 5)), make_cei((1, 2, 8))]) == 2
        assert sorted(calls) == ["_check_owners", "check_new"]
        assert proxy.monitor.pending_count == 2
        proxy.close()

    @pytest.mark.parametrize("case", ["duplicate", "already_submitted", "unregistered"])
    def test_refused_batch_journals_nothing(self, tmp_path, case):
        proxy = make_durable(tmp_path)
        alice = proxy.register_client("alice")
        old = make_cei((0, 0, 9))
        proxy.submit_ceis(alice, [old])
        proxy.tick(1)
        new = make_cei((1, 2, 8))
        client, batch, error = {
            "duplicate": ("alice", [new, new], ModelError),
            "already_submitted": ("alice", [new, old], ModelError),
            "unregistered": ("ghost", [new], ExperimentError),
        }[case]
        seq = proxy.journal_seq
        before = (_recovered_view(proxy), proxy.monitor.pending_count)
        with pytest.raises(error):
            proxy.submit_ceis(client, batch)
        assert proxy.journal_seq == seq
        assert (_recovered_view(proxy), proxy.monitor.pending_count) == before
        proxy._wal.sync()
        records, _, _ = decode_frames(proxy.durability.wal_path.read_bytes())
        assert [r["seq"] for r in records] == list(range(1, seq + 1))
        # The refused need was never admitted: it can still go in.
        assert proxy.submit_ceis(alice, [new]) == 1
        proxy.close()


# ---------------------------------------------------------------------------
# One representative crash-harness cell (the full matrix runs in CI)
# ---------------------------------------------------------------------------


class TestCrashRecoverySmoke:
    def test_torn_write_recovery_matches_reference(self, tmp_path):
        seed = 0
        reference = reference_fingerprint(seed)
        root = str(tmp_path / "crash")
        os.makedirs(root)
        code = run_child(root, seed, "--kill-frame", "9", "--torn-bytes", "5")
        assert code == EXIT_KILLED
        assert recover_and_finish(root, seed) == reference


# ---------------------------------------------------------------------------
# Service surface: healthz shapes, POST /snapshot, graceful shutdown
# ---------------------------------------------------------------------------


class TestDurableService:
    def test_healthz_durable_shape(self, tmp_path):
        proxy = make_durable(tmp_path)
        proxy.register_client("ana")
        service = serve(proxy)
        try:
            status, health = _get(f"{service.url}/healthz")
            assert status == 200
            assert health["status"] == "ok"
            assert health["wal_lag"] == 0
            assert health["last_snapshot_chronon"] is None
            assert set(health["breakers"]) == {
                "opens", "reopens", "closes", "short_circuited",
            }
            assert health["durability"]["degraded"] is False
            # Core keys of the pre-durability shape are still present.
            assert {"now", "clients", "open_ceis", "clock_running"} <= set(
                health
            )
        finally:
            service.shutdown()
            proxy.close()

    def test_post_snapshot_triggers_checkpoint(self, tmp_path):
        proxy = make_durable(tmp_path)
        proxy.register_client("ana")
        proxy.tick(3)
        service = serve(proxy)
        try:
            status, body = _post(f"{service.url}/snapshot")
            assert status == 200
            assert body["snapshot_id"] >= 1
            assert body["degraded"] is False
            status, health = _get(f"{service.url}/healthz")
            assert health["last_snapshot_chronon"] == 3
        finally:
            service.shutdown()
            proxy.close()

    def test_post_snapshot_conflicts_on_plain_proxy(self):
        proxy = StreamingProxy(budget=1.0)
        service = serve(proxy)
        try:
            status, body = _post(f"{service.url}/snapshot")
            assert status == 409
            assert "not durable" in body["error"]
        finally:
            service.shutdown()

    def test_post_unknown_route_404(self, tmp_path):
        proxy = make_durable(tmp_path)
        service = serve(proxy)
        try:
            status, body = _post(f"{service.url}/no/such")
            assert status == 404
        finally:
            service.shutdown()
            proxy.close()


class TestGracefulShutdown:
    def test_sigterm_writes_final_snapshot(self, tmp_path):
        wal_dir = tmp_path / "state"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.proxy",
                "serve",
                "--wal-dir",
                str(wal_dir),
                "--tick-interval",
                "0.01",
            ],
            env=env,
            cwd=str(REPO_ROOT),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = process.stdout.readline()
            assert line.startswith("serving http://"), line
            url = line.split()[1]
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                status, health = _get(f"{url}/healthz")
                assert status == 200
                if health["now"] > 0:
                    break
                time.sleep(0.02)
            assert health["clock_running"] is True
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=15) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=5)
        # The shutdown path stopped the clock, flushed the journal and
        # wrote a final snapshot: a recovered proxy resumes at the exact
        # chronon the dying service reached.
        store = SnapshotStore(wal_dir / "snapshots.sqlite3")
        final = store.latest()
        store.close()
        assert final is not None
        assert final.chronon > 0
        recovered = DurableStreamingProxy(DurabilityConfig(root=wal_dir))
        assert recovered.now == final.chronon
        recovered.close()


# ---------------------------------------------------------------------------
# Satellite: restore() clock validation regressions
# ---------------------------------------------------------------------------


class TestRestoreValidation:
    def _payload(self, now):
        proxy = StreamingProxy(budget=1.0)
        proxy.register_client("ana")
        payload = proxy.snapshot()
        payload["now"] = now
        return payload

    @pytest.mark.parametrize("now", [-1, -7, 2.5, True, "3", None])
    def test_invalid_clock_rejected(self, now):
        with pytest.raises(ModelError, match="non-negative integer"):
            StreamingProxy.restore(self._payload(now))

    def test_valid_clock_accepted(self):
        restored = StreamingProxy.restore(self._payload(4))
        assert restored.now == 4

    def test_wrong_format_still_experiment_error(self):
        with pytest.raises(ExperimentError, match="not a streaming-proxy"):
            StreamingProxy.restore({"format": "bogus", "now": 0})


# ---------------------------------------------------------------------------
# Hypothesis: snapshot → restore → snapshot is a fixed point
# ---------------------------------------------------------------------------

NUM_RESOURCES = 4
HORIZON = 16

CONFIGS = {
    "reference": MonitorConfig(engine="reference"),
    "vectorized": MonitorConfig(engine="vectorized"),
    "shedding": MonitorConfig(
        engine="vectorized",
        shedding=SheddingConfig(
            overload_on=1.2, overload_off=1.0, sustain=2, target_ratio=1.0
        ),
    ),
    "faults": MonitorConfig(
        engine="reference",
        faults=FailureModel(rate=0.25, seed=11),
        health=HealthConfig(),
    ),
}


@st.composite
def proxy_histories(draw):
    def window():
        resource = draw(st.integers(0, NUM_RESOURCES - 1))
        start = draw(st.integers(0, HORIZON - 2))
        return (resource, start, start + draw(st.integers(0, 6)))

    steps = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["submit", "cancel", "tick", "register"]))
        if kind == "submit":
            steps.append(
                (
                    "submit",
                    [
                        tuple(window() for _ in range(draw(st.integers(1, 2))))
                        for _ in range(draw(st.integers(1, 3)))
                    ],
                )
            )
        elif kind == "cancel":
            steps.append(("cancel", draw(st.integers(0, 7))))
        elif kind == "tick":
            steps.append(("tick", draw(st.integers(1, 4))))
        else:
            steps.append(("register", None))
    return steps


class TestSnapshotRoundtripProperty:
    @settings(max_examples=20, deadline=None)
    @given(steps=proxy_histories(), config_key=st.sampled_from(sorted(CONFIGS)))
    def test_snapshot_restore_snapshot_fixed_point(self, steps, config_key):
        kwargs = dict(
            resources=ResourcePool.uniform(NUM_RESOURCES),
            budget=1.0,
            policy="MRSF",
            config=CONFIGS[config_key],
        )
        proxy = StreamingProxy(**kwargs)
        clients = [proxy.register_client("c0")]
        submitted = []
        for kind, payload in steps:
            if kind == "register":
                clients.append(proxy.register_client(f"c{len(clients)}"))
            elif kind == "submit":
                ceis = [make_cei(*windows) for windows in payload]
                proxy.submit_ceis(clients[-1], ceis)
                submitted.extend((clients[-1], cei) for cei in ceis)
            elif kind == "cancel":
                if submitted:
                    owner, cei = submitted[payload % len(submitted)]
                    proxy.cancel_ceis(owner, [cei])
            else:
                proxy.tick(payload)
        payload = proxy.snapshot()
        restored = StreamingProxy.restore(payload, **kwargs)
        assert restored.snapshot() == payload
