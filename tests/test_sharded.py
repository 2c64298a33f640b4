"""The shared-memory sharded engine: lifecycle, churn, and fault injection.

Bit-for-bit schedule equivalence lives in
``tests/test_fastpath_equivalence.py::TestShardedEquivalence``; this
module covers everything around the hot loop:

* :class:`repro.sim.arena.SharedArenaView` — publish/attach round-trips,
  the picklable manifest, owner-side unlink, input validation;
* segment hygiene — ``/dev/shm`` holds no ``repro-shard-*`` entries
  after clean closes, double-closes, *or* a SIGKILLed worker (the leak
  regression this suite exists for);
* demotion — a killed worker or growth churn drops the run to the
  single-engine path mid-flight with the reason recorded, while
  cancel-only churn stays sharded; either way the schedule matches the
  never-sharded run exactly;
* configuration — ``MonitorConfig.shards`` validation and the
  unshardable-kernel fallback.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ModelError
from repro.core.profile import Profile, ProfileSet
from repro.core.resource import ResourcePool
from repro.core.schedule import BudgetVector
from repro.core.timebase import Epoch
from repro.online import MonitorConfig
from repro.online.monitor import OnlineMonitor
from repro.online.sharded import ShardingStats, _demote, shardable_reason
from repro.online.streaming import StreamingMonitor
from repro.policies import make_policy
from repro.sim.arena import SHM_PREFIX, SharedArenaView, compile_arena
from tests.conftest import make_cei, random_general_instance

NUM_CHRONONS = 30
NUM_RESOURCES = 6


def shm_entries() -> list[str]:
    """Live shared-memory segments published by this engine."""
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-Linux
        return []
    return [name for name in os.listdir(root) if SHM_PREFIX in name]


def _profiles(seed: int, num_ceis: int = 40) -> ProfileSet:
    rng = np.random.default_rng(seed)
    return random_general_instance(
        rng,
        num_resources=NUM_RESOURCES,
        num_chronons=NUM_CHRONONS,
        num_ceis=num_ceis,
        max_rank=4,
        max_width=5,
    )


def _monitor(profiles, shards=None, policy="MRSF") -> OnlineMonitor:
    arena = compile_arena(profiles)
    return OnlineMonitor(
        policy=make_policy(policy),
        budget=BudgetVector.constant(2.0, NUM_CHRONONS),
        config=MonitorConfig(engine="vectorized", shards=shards),
        arena=arena,
    )


def _run(monitor: OnlineMonitor) -> OnlineMonitor:
    arena = monitor.pool._arena
    try:
        monitor.run(Epoch(NUM_CHRONONS), arena.arrivals)
    finally:
        monitor.close()
    return monitor


# ---------------------------------------------------------------------------
# SharedArenaView
# ---------------------------------------------------------------------------


class TestSharedArenaView:
    COLUMNS = {
        "npr_seq": np.arange(7, dtype=np.int64),
        "npr_finish_f": np.linspace(0.0, 3.0, 7),
        "np_active": np.array([True, False, True, True, False, True, True]),
        "empty": np.empty(0, dtype=np.float64),
    }

    def test_publish_attach_roundtrip(self):
        owner = SharedArenaView.publish(self.COLUMNS)
        try:
            attached = SharedArenaView.attach(owner.manifest)
            try:
                for name, column in self.COLUMNS.items():
                    np.testing.assert_array_equal(attached[name], column)
                    assert attached[name].dtype == column.dtype
            finally:
                attached.close()
        finally:
            owner.close()
        assert shm_entries() == []

    def test_attached_view_sees_owner_writes(self):
        """The point of the segment: no copies between the two sides."""
        owner = SharedArenaView.publish(self.COLUMNS)
        attached = SharedArenaView.attach(owner.manifest)
        try:
            owner["npr_finish_f"][3] = 99.5
            assert attached["npr_finish_f"][3] == 99.5
        finally:
            attached.close()
            owner.close()

    def test_manifest_is_plain_data(self):
        """Workers receive the manifest through a pipe: must pickle flat."""
        import pickle

        owner = SharedArenaView.publish(self.COLUMNS)
        try:
            clone = pickle.loads(pickle.dumps(owner.manifest))
            assert clone == owner.manifest
            assert set(clone["fields"]) == set(self.COLUMNS)
        finally:
            owner.close()

    def test_only_owner_unlinks(self):
        owner = SharedArenaView.publish(self.COLUMNS)
        attached = SharedArenaView.attach(owner.manifest)
        attached.close()
        assert shm_entries()  # reader close never unlinks
        owner.close()
        assert shm_entries() == []

    def test_close_idempotent(self):
        owner = SharedArenaView.publish(self.COLUMNS)
        owner.close()
        owner.close()
        assert shm_entries() == []

    def test_rejects_multidimensional_columns(self):
        with pytest.raises(ModelError, match="1-D"):
            SharedArenaView.publish({"bad": np.zeros((2, 3))})
        assert shm_entries() == []

    def test_garbage_collection_unlinks(self):
        """A dropped owner must not leak its segment (finalizer path)."""
        import gc

        SharedArenaView.publish(self.COLUMNS)
        gc.collect()
        assert shm_entries() == []


# ---------------------------------------------------------------------------
# Engine lifecycle and fault injection
# ---------------------------------------------------------------------------


class TestEngineLifecycle:
    def test_run_leaves_no_segments(self):
        _run(_monitor(_profiles(1), shards=3))
        assert shm_entries() == []

    def test_monitor_close_idempotent(self):
        monitor = _run(_monitor(_profiles(2), shards=2))
        monitor.close()
        monitor.close()
        assert monitor.sharding_stats.demotions == 0
        assert shm_entries() == []

    def test_close_mid_run_continues_single_engine(self):
        monitor = _monitor(_profiles(3), shards=2)
        arena = monitor.pool._arena
        arrivals = arena.arrivals
        for t in range(10):
            monitor.step(t, arrivals.get(t, ()))
        monitor.close()
        assert shm_entries() == []
        for t in range(10, NUM_CHRONONS):
            monitor.step(t, arrivals.get(t, ()))
        baseline = _run(_monitor(_profiles(3)))
        assert monitor.schedule.probes == baseline.schedule.probes

    def test_records_follow_the_segment(self):
        """Re-pointing a per-run record re-takes its scalar view: a
        coordinator write through ``pool.cei_captured`` lands in the
        segment the workers read, and after demotion in the pool's
        private copy."""
        monitor = _monitor(_profiles(5), shards=2)
        pool = monitor.pool
        view = monitor._sharded.view
        records = {
            "np_active": pool._active.obj.base,
            "npc_captured_f": pool.cei_captured.obj,
            "npc_medf_s_f": pool.cei_medf_s.obj,
            "npc_medf_open_f": pool.cei_medf_open.obj,
        }
        try:
            for name, record in records.items():
                assert record is view[name] and getattr(pool, name) is record
            segment = view["npc_captured_f"]
            pool.cei_captured[3] = 7.0
            assert segment[3] == 7.0
            _demote(monitor, "test")
            private = pool.npc_captured_f
            assert private is not segment and pool.cei_captured.obj is private
            assert private[3] == 7.0
            pool.cei_captured[3] = 0.0
            assert private[3] == 0.0
            assert pool._active.obj.base is pool.np_active
            assert pool.cei_medf_s.obj is pool.npc_medf_s_f
            assert pool.cei_medf_open.obj is pool.npc_medf_open_f
        finally:
            monitor.close()
        assert shm_entries() == []

    def test_killed_worker_demotes_and_leaves_no_segments(self):
        """The leak regression: SIGKILL mid-run must not orphan the
        segment, and the run must finish (demoted) with the same
        schedule as a never-sharded run."""
        monitor = _monitor(_profiles(4), shards=3)
        arena = monitor.pool._arena
        arrivals = arena.arrivals
        victim = monitor._sharded._procs[1]
        try:
            for t in range(NUM_CHRONONS):
                if t == 8:
                    os.kill(victim.pid, signal.SIGKILL)
                    victim.join(timeout=5.0)
                monitor.step(t, arrivals.get(t, ()))
        finally:
            monitor.close()
        stats = monitor.sharding_stats
        assert stats.demotions == 1
        assert stats.demote_reason == "shard worker died mid-run"
        baseline = _run(_monitor(_profiles(4)))
        assert monitor.schedule.probes == baseline.schedule.probes
        # Give the dead worker's mapping a beat, then check the name set.
        time.sleep(0.05)
        assert shm_entries() == []


# ---------------------------------------------------------------------------
# Configuration and fallback
# ---------------------------------------------------------------------------


class TestConfiguration:
    def test_shards_must_be_positive(self):
        with pytest.raises(ModelError, match="shards"):
            MonitorConfig(engine="vectorized", shards=0)
        with pytest.raises(ModelError, match="shards"):
            MonitorConfig(engine="vectorized", shards=-2)

    def test_requires_vectorized_engine(self):
        with pytest.raises(ModelError, match="vectorized"):
            OnlineMonitor(
                policy=make_policy("MRSF"),
                budget=BudgetVector.constant(2.0, NUM_CHRONONS),
                config=MonitorConfig(engine="reference", shards=2),
            )

    def test_requires_arena(self):
        with pytest.raises(ModelError, match="arena"):
            OnlineMonitor(
                policy=make_policy("MRSF"),
                budget=BudgetVector.constant(2.0, NUM_CHRONONS),
                config=MonitorConfig(engine="vectorized", shards=2),
            )

    def test_unshardable_kernel_falls_back_with_reason(self):
        """EXPECTED-GAIN has no batched kernel: record why, then run
        single-engine rather than failing."""
        monitor = _run(_monitor(_profiles(5), shards=2, policy="EXPECTED-GAIN"))
        stats = monitor.sharding_stats
        assert stats == ShardingStats(
            shards=2,
            demotions=1,
            demote_reason="policy has no batched score kernel",
        )
        baseline = _run(_monitor(_profiles(5), policy="EXPECTED-GAIN"))
        assert monitor.schedule.probes == baseline.schedule.probes
        assert shm_entries() == []

    def test_shardable_reason_strings(self):
        assert shardable_reason(None) == "policy has no batched score kernel"
        monitor = _monitor(_profiles(6))
        try:
            assert shardable_reason(monitor._kernel) is None
        finally:
            monitor.close()

    def test_unsharded_monitor_has_no_stats(self):
        monitor = _run(_monitor(_profiles(7)))
        assert monitor.sharding_stats is None


# ---------------------------------------------------------------------------
# Churn: ArenaPatch deltas against a live sharded pool
# ---------------------------------------------------------------------------


def _initial_ceis(seed: int, count: int = 14):
    rng = np.random.default_rng(seed)
    ceis = []
    for _ in range(count):
        width = int(rng.integers(1, 4))
        eis = []
        for _ in range(width):
            start = int(rng.integers(0, NUM_CHRONONS - 4))
            eis.append(
                (int(rng.integers(NUM_RESOURCES)), start,
                 start + int(rng.integers(3, 10)))
            )
        ceis.append(make_cei(*eis))
    return ceis


def _streaming(initial, shards=None) -> StreamingMonitor:
    arena = compile_arena(ProfileSet([Profile(pid=0, ceis=list(initial))]))
    return StreamingMonitor(
        "MRSF",
        budget=1.5,
        resources=ResourcePool.uniform(NUM_RESOURCES),
        config=MonitorConfig(engine="vectorized", shards=shards),
        arena=arena,
    )


def _fingerprint(monitor: StreamingMonitor) -> dict:
    pool = monitor.pool
    return {
        "schedule": sorted(monitor.schedule.pairs()),
        "probes_used": monitor.probes_used,
        "satisfied": pool.num_satisfied,
        "failed": pool.num_failed,
        "cancelled": pool.num_cancelled,
        "believed": monitor.believed_completeness,
    }


def _drive(monitor, cancels=(), submits=(), horizon=NUM_CHRONONS):
    """cancels: (chronon, [ceis]); submits: (chronon, [ceis])."""
    try:
        for t in range(horizon):
            for at, batch in submits:
                if at == t:
                    monitor.submit(batch)
            for at, batch in cancels:
                if at == t:
                    monitor.cancel(batch)
            monitor.advance(1)
    finally:
        monitor.close()
    return monitor


class TestChurn:
    def test_cancel_only_churn_stays_sharded(self):
        """ArenaPatch cancellations mutate the shared columns in place:
        no demotion, and the schedule matches the unsharded replay."""
        initial = _initial_ceis(11)
        cancels = [(5, [initial[2], initial[7]]), (12, [initial[0]])]
        plain = _drive(_streaming(initial), cancels=cancels)
        sharded = _drive(_streaming(initial, shards=3), cancels=cancels)
        stats = sharded.monitor.sharding_stats
        assert stats.demotions == 0, stats.demote_reason
        assert _fingerprint(sharded) == _fingerprint(plain)
        assert shm_entries() == []

    def test_growth_churn_demotes_cleanly(self):
        """A registering patch reallocates the pool's mirrors away from
        the segment: the next step detaches, records why, and the rest
        of the run is identical to the unsharded replay."""
        initial = _initial_ceis(12)
        submits = [(6, _initial_ceis(13, count=5))]
        plain = _drive(_streaming(initial), submits=submits)
        sharded = _drive(_streaming(initial, shards=2), submits=submits)
        stats = sharded.monitor.sharding_stats
        assert stats.demotions == 1
        assert stats.demote_reason == "arena churn outgrew the shared segment"
        assert _fingerprint(sharded) == _fingerprint(plain)
        assert shm_entries() == []

    def test_mixed_churn(self):
        initial = _initial_ceis(14)
        submits = [(4, _initial_ceis(15, count=4))]
        cancels = [(2, [initial[1]]), (9, [initial[5], initial[8]])]
        plain = _drive(_streaming(initial), cancels=cancels, submits=submits)
        sharded = _drive(
            _streaming(initial, shards=4), cancels=cancels, submits=submits
        )
        assert _fingerprint(sharded) == _fingerprint(plain)
        assert shm_entries() == []


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shards=st.sampled_from([2, 3]),
    cancel_at=st.integers(1, NUM_CHRONONS - 2),
    submit_at=st.integers(1, NUM_CHRONONS - 2),
    grow=st.booleans(),
)
def test_property_churn_never_diverges(seed, shards, cancel_at, submit_at, grow):
    """Random churn timelines: propagate (cancel) or demote (growth),
    the sharded replay never opens daylight against the plain one."""
    initial = _initial_ceis(seed)
    cancels = [(cancel_at, [initial[seed % len(initial)]])]
    submits = [(submit_at, _initial_ceis(seed + 1, count=3))] if grow else []
    plain = _drive(_streaming(initial), cancels=cancels, submits=submits)
    sharded = _drive(
        _streaming(initial, shards=shards), cancels=cancels, submits=submits
    )
    assert _fingerprint(sharded) == _fingerprint(plain)
    assert shm_entries() == []
