"""Tests for the always-on proxy facade and its HTTP front end.

The in-process surface (clients, churn, clocks, stats, snapshots) is
exercised directly; the HTTP layer is driven end to end against the
dependency-free ``http.server`` endpoint on a loopback port, which is
exactly what the CI service-smoke job does.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import numpy as np
import pytest

import repro.online.streaming as streaming_module
from repro.core.errors import ExperimentError, ModelError
from repro.core.resource import ResourcePool
from repro.online import MonitorConfig, StreamingMonitor
from repro.proxy import ClientHandle, StreamingProxy
from repro.proxy.service import serve
from repro.sim.arena import compile_arena
from tests.conftest import make_cei, make_profiles


def make_proxy(**kwargs) -> StreamingProxy:
    defaults = dict(resources=ResourcePool.uniform(4), budget=1.0, policy="MRSF")
    defaults.update(kwargs)
    return StreamingProxy(**defaults)


def _get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestClientsAndChurn:
    def test_register_returns_handle(self):
        proxy = make_proxy()
        handle = proxy.register_client("ana")
        assert isinstance(handle, ClientHandle)
        assert proxy.client_names == ["ana"]

    def test_submit_requires_registration(self):
        with pytest.raises(ExperimentError, match="not registered"):
            make_proxy().submit_ceis("ghost", [make_cei((0, 0, 5))])

    def test_submit_and_satisfy(self):
        proxy = make_proxy()
        proxy.register_client("ana")
        assert proxy.submit_ceis("ana", [make_cei((0, 0, 5))]) == 1
        proxy.tick(8)
        stats = proxy.client_stats("ana")
        assert stats["satisfied_ceis"] == 1
        assert stats["believed_completeness"] == 1.0

    def test_cancel_all_open_of_client(self):
        proxy = make_proxy()
        proxy.register_client("ana")
        proxy.submit_ceis(
            "ana", [make_cei((0, 0, 30), (1, 20, 30)), make_cei((2, 5, 30), (3, 20, 30))]
        )
        proxy.tick(3)
        assert proxy.cancel_ceis("ana") == 2
        stats = proxy.client_stats("ana")
        assert stats["cancelled_ceis"] == 2
        assert stats["open_ceis"] == 0

    def test_cancel_foreign_cei_rejected(self):
        proxy = make_proxy()
        proxy.register_client("ana")
        proxy.register_client("bob")
        cei = make_cei((0, 0, 30), (1, 20, 30))
        proxy.submit_ceis("ana", [cei])
        with pytest.raises(ExperimentError, match="belongs to client 'ana'"):
            proxy.cancel_ceis("bob", [cei])
        with pytest.raises(ExperimentError, match="never submitted"):
            proxy.cancel_ceis("bob", [make_cei((0, 0, 5))])

    def test_cancel_of_satisfied_cei_is_a_noop(self):
        proxy = make_proxy()
        proxy.register_client("ana")
        cei = make_cei((0, 0, 4))
        proxy.submit_ceis("ana", [cei])
        proxy.tick(6)
        assert proxy.cancel_ceis("ana", [cei]) == 0
        assert proxy.client_stats("ana")["satisfied_ceis"] == 1

    def test_pending_ceis_counted(self):
        proxy = make_proxy()
        proxy.register_client("ana")
        proxy.submit_ceis("ana", [make_cei((0, 10, 15))])
        assert proxy.client_stats("ana")["pending_ceis"] == 1
        # Pending needs are excluded from the completeness denominator.
        assert proxy.client_stats("ana")["believed_completeness"] == 1.0


# The churn experiment's script shape, scaled down: a standing compiled
# instance, then every CHURN_PERIOD chronons a batch of new rank-1/2
# needs opening a few chronons ahead and a quarter as many withdrawals
# drawn from the submitted needs not yet withdrawn.
CHURN_RESOURCES = 8
CHURN_PERIOD = 5
CHURN_PERIODS = 8
CHURN_RATE = 8


def _churn_script(seed):
    rng = np.random.default_rng(seed)

    def need(now):
        windows = []
        for _ in range(int(rng.integers(1, 3))):
            start = now + int(rng.integers(1, 8))
            windows.append(
                (int(rng.integers(CHURN_RESOURCES)), start, start + int(rng.integers(2, 10)))
            )
        return tuple(windows)

    standing = [need(0) for _ in range(6)]
    batches, cancels, still_open = [], [], []
    for period in range(CHURN_PERIODS):
        batches.append([need(period * CHURN_PERIOD) for _ in range(CHURN_RATE)])
        still_open.extend(range(period * CHURN_RATE, (period + 1) * CHURN_RATE))
        picks = rng.choice(len(still_open), size=CHURN_RATE // 4, replace=False)
        victims = [still_open[int(i)] for i in picks]
        still_open = [i for i in still_open if i not in victims]
        cancels.append(victims)
    return standing, batches, cancels


def _churn_fingerprint(proxy):
    monitor = proxy.monitor
    pool = monitor.pool
    return (
        list(monitor.schedule.pairs()),
        monitor.probes_used,
        pool.num_satisfied,
        pool.num_failed,
        pool.num_cancelled,
        pool.num_open,
    )


def _run_churn(seed, batched, submit=StreamingProxy.submit_ceis):
    """Drive an arena-backed proxy through one churn script.

    ``batched`` admits each period's needs with one ``submit_ceis``
    call; otherwise one call per need.  ``submit`` stands in for
    ``StreamingProxy.submit_ceis``.
    """
    standing, batches, cancels = _churn_script(seed)
    standing = [make_cei(*spec) for spec in standing]
    batches = [[make_cei(*spec) for spec in batch] for batch in batches]
    flat = [cei for batch in batches for cei in batch]
    proxy = StreamingProxy(
        resources=ResourcePool.uniform(CHURN_RESOURCES),
        budget=1.0,
        policy="MRSF",
        config=MonitorConfig(engine="vectorized"),
        arena=compile_arena(make_profiles(*standing)),
    )
    client = proxy.register_client("churn")
    for period, batch in enumerate(batches):
        for chunk in [batch] if batched else [[cei] for cei in batch]:
            submit(proxy, client, chunk)
        proxy.cancel_ceis(client, [flat[i] for i in cancels[period]])
        proxy.tick(CHURN_PERIOD)
    return proxy


@pytest.fixture
def count_patches(monkeypatch):
    """Count ``apply_patch`` calls made by the streaming monitor."""
    calls = []
    original = streaming_module.apply_patch

    def counting(arena, patch, pools=()):
        calls.append(patch)
        return original(arena, patch, pools)

    monkeypatch.setattr(streaming_module, "apply_patch", counting)
    return calls


class TestBatchedAdmission:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_batch_matches_one_by_one(self, seed):
        proxy = _run_churn(seed, batched=True)
        one_by_one = _run_churn(seed, batched=False)
        assert _churn_fingerprint(proxy) == _churn_fingerprint(one_by_one)
        assert proxy.stats() == one_by_one.stats()
        assert proxy.monitor.probes_used > 0
        assert proxy.monitor.pool.num_open < CHURN_PERIODS * CHURN_RATE

    def test_one_patch_per_submit_call(self, count_patches):
        per_call = []

        def submit(proxy, client, ceis):
            count_patches.clear()
            proxy.submit_ceis(client, ceis)
            per_call.append(len(count_patches))

        _run_churn(1, batched=True, submit=submit)
        assert per_call == [1] * CHURN_PERIODS


def _arena_proxy():
    """An arena-backed proxy with one standing compiled need, plus a
    client that already owns one need."""
    compiled = make_cei((0, 0, 20), (1, 5, 20))
    proxy = make_proxy(
        config=MonitorConfig(engine="vectorized"),
        arena=compile_arena(make_profiles(compiled)),
    )
    owned = make_cei((2, 3, 20))
    proxy.register_client("ana")
    proxy.submit_ceis("ana", [owned])
    return proxy, compiled, owned


def _proxy_state(proxy):
    monitor = proxy.monitor
    arena = monitor.arena
    return (
        proxy.registry.ceis_of("ana"),
        proxy.client_stats("ana"),
        monitor.snapshot(),
        (arena.n_rows, arena.n_ceis, len(arena.row_seq)) if arena else None,
    )


class TestAtomicSubmission:
    """A refused batch raises ModelError and leaves the registry, the owner
    map, the monitor and the arena as they were; the next valid batch
    then schedules exactly like a run that never saw the refused one."""

    @pytest.mark.parametrize("arena", [True, False], ids=["arena", "queue"])
    @pytest.mark.parametrize("case", ["duplicate", "already_owned", "already_compiled"])
    def test_refused_batch_changes_nothing(self, case, arena):
        if arena:
            proxy, compiled, owned = _arena_proxy()
        else:
            # The `compiled` analogue: a need the pool holds but no client
            # owns any more (its owner unregistered after it revealed).
            proxy = make_proxy()
            proxy.register_client("ana")
            owned = make_cei((2, 3, 20))
            proxy.submit_ceis("ana", [owned])
            proxy.register_client("bob")
            compiled = make_cei((0, 0, 20), (1, 5, 20))
            proxy.submit_ceis("bob", [compiled])
            proxy.tick(1)
            proxy.unregister_client("bob")
        proxy.tick(1)
        new = make_cei((3, 4, 12))
        bad = {
            "duplicate": [new, new],
            "already_owned": [new, owned],
            "already_compiled": [new, compiled],
        }[case]
        before = _proxy_state(proxy)
        with pytest.raises(ModelError):
            proxy.submit_ceis("ana", bad)
        assert _proxy_state(proxy) == before
        with pytest.raises(ExperimentError, match="never submitted"):
            proxy.cancel_ceis("ana", [new])

        assert proxy.submit_ceis("ana", [new]) == 1
        proxy.tick(20)
        assert proxy.client_stats("ana")["submitted_ceis"] == 2

    def test_refused_batch_then_valid_schedules_like_clean_run(self):
        runs = []
        for refuse_first in (True, False):
            proxy, compiled, owned = _arena_proxy()
            proxy.tick(2)
            new = make_cei((3, 4, 12), (1, 6, 14))
            if refuse_first:
                with pytest.raises(ModelError):
                    proxy.submit_ceis("ana", [new, compiled])
            proxy.submit_ceis("ana", [new])
            proxy.tick(20)
            runs.append(_churn_fingerprint(proxy))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("case", ["duplicate", "already_compiled"])
    def test_streaming_monitor_submit_is_atomic(self, case):
        def build():
            compiled = make_cei((0, 0, 20), (1, 5, 20))
            monitor = StreamingMonitor(
                "MRSF",
                budget=1.0,
                resources=ResourcePool.uniform(4),
                config=MonitorConfig(engine="vectorized"),
                arena=compile_arena(make_profiles(compiled)),
            )
            monitor.advance(2)
            return monitor, compiled

        monitor, compiled = build()
        new = make_cei((3, 4, 12), (2, 6, 14))
        arena = monitor.arena
        before = (arena.n_rows, arena.n_ceis, monitor.snapshot())
        with pytest.raises(ModelError):
            monitor.submit([new, new] if case == "duplicate" else [new, compiled])
        assert (arena.n_rows, arena.n_ceis, monitor.snapshot()) == before
        assert monitor.arena is arena

        assert monitor.submit([new]) == 1
        monitor.advance(20)
        clean, _ = build()
        clean.submit([make_cei((3, 4, 12), (2, 6, 14))])
        clean.advance(20)
        assert list(monitor.schedule.pairs()) == list(clean.schedule.pairs())
        assert monitor.snapshot() == clean.snapshot()

    def test_queue_monitor_refuses_duplicates_at_submit(self):
        monitor = StreamingMonitor("MRSF", budget=1.0, resources=ResourcePool.uniform(4))
        cei = make_cei((0, 2, 9))
        with pytest.raises(ModelError, match="twice"):
            monitor.submit([cei, cei])
        assert monitor.pending_count == 0
        monitor.submit([cei])
        with pytest.raises(ModelError, match="already submitted"):
            monitor.submit([cei])
        monitor.advance(3)  # revealed: now the pool holds it
        with pytest.raises(ModelError, match="already submitted"):
            monitor.submit([cei])
        monitor.advance(10)
        assert monitor.pool.num_satisfied == 1


class TestPendingCancel:
    """Withdrawing a pending CEI touches only its reveal chronon's bucket."""

    def test_cancel_touches_one_bucket(self):
        monitor = StreamingMonitor("MRSF", budget=1.0, resources=ResourcePool.uniform(4))
        ceis = [make_cei((k % 4, 2 + k // 3, 30)) for k in range(12)]
        monitor.submit(ceis)
        touched = []

        class Bucket(list):
            def __setitem__(self, index, value):
                touched.append(self[0].release)
                super().__setitem__(index, value)

            def __delitem__(self, index):
                touched.append(self[0].release)
                super().__delitem__(index)

        monitor._pending = {t: Bucket(queued) for t, queued in monitor._pending.items()}
        buckets = {t: (queued, list(queued)) for t, queued in monitor._pending.items()}
        assert len(buckets) == 4
        victim = ceis[7]
        fields = (victim.cid, [(e.resource, e.start, e.finish, e.seq) for e in victim.eis])
        assert monitor.cancel([victim]) == [victim]
        assert touched == [victim.release]
        for t, (queued, contents) in buckets.items():
            assert monitor._pending[t] is queued
            if t == victim.release:
                assert queued == [c for c in contents if c is not victim]
            else:
                assert queued == contents
        assert (victim.cid, [(e.resource, e.start, e.finish, e.seq) for e in victim.eis]) == fields
        assert monitor.pending_count == 11
        assert not monitor.is_pending(victim.cid)
        # A second withdrawal of the same need is a no-op.
        assert monitor.cancel([victim]) == []
        monitor.advance(40)
        assert monitor.pool.state_of(victim) is None
        assert monitor.pool.num_registered == 11


class TestClocks:
    def test_manual_tick(self):
        proxy = make_proxy()
        assert proxy.now == 0
        assert proxy.tick(7) == 7

    def test_background_clock(self):
        proxy = make_proxy()
        proxy.start(interval=0.01)
        assert proxy.running
        with pytest.raises(ExperimentError, match="already running"):
            proxy.start(interval=0.01)
        deadline = threading.Event()
        for _ in range(200):
            if proxy.now >= 2:
                break
            deadline.wait(0.01)
        proxy.stop()
        assert not proxy.running
        assert proxy.now >= 2

    def test_async_clock(self):
        import asyncio

        proxy = make_proxy()
        assert asyncio.run(proxy.run_async(5)) == 5
        assert proxy.now == 5


class TestStats:
    def test_global_stats(self):
        proxy = make_proxy()
        proxy.register_client("ana")
        proxy.submit_ceis("ana", [make_cei((0, 0, 5))])
        proxy.tick(3)
        stats = proxy.stats()
        assert stats["clients"] == 1
        assert stats["now"] == 3
        assert stats["submitted_ceis"] == 1

    def test_stats_for_unknown_client_rejected(self):
        with pytest.raises(ExperimentError, match="not registered"):
            make_proxy().client_stats("ghost")


class TestSnapshotRestore:
    def test_roundtrip_through_json(self):
        proxy = make_proxy()
        proxy.register_client("ana")
        proxy.register_client("bob")
        proxy.submit_ceis("ana", [make_cei((0, 0, 5)), make_cei((1, 10, 30))])
        victim = make_cei((2, 0, 30), (3, 25, 30))
        proxy.submit_ceis("bob", [victim])
        proxy.tick(6)
        proxy.cancel_ceis("bob", [victim])

        payload = json.loads(json.dumps(proxy.snapshot()))
        restored = StreamingProxy.restore(
            payload, resources=ResourcePool.uniform(4), budget=1.0
        )
        assert restored.now == proxy.now
        assert restored.client_names == ["ana", "bob"]
        assert restored.client_stats("bob")["cancelled_ceis"] == 1
        # ana's first need was satisfied pre-snapshot; only durable state
        # survives, so after restore it registers dead-on-arrival instead.
        stats = restored.client_stats("ana")
        assert stats["submitted_ceis"] == 2
        assert stats["pending_ceis"] == 2  # nothing reveals until the next tick
        restored.tick(1)
        stats = restored.client_stats("ana")
        assert stats["failed_ceis"] == 1  # the [0, 5] window is behind the clock
        assert stats["pending_ceis"] == 1  # the (1, 10, 30) need, ahead of now

    def test_bad_format_rejected(self):
        with pytest.raises(ExperimentError, match="not a streaming-proxy"):
            StreamingProxy.restore({"format": "something-else"})


class TestHttpService:
    def test_endpoints_end_to_end(self):
        proxy = make_proxy()
        proxy.register_client("ana")
        proxy.submit_ceis("ana", [make_cei((0, 0, 5))])
        proxy.tick(3)
        service = serve(proxy)
        try:
            status, health = _get(f"{service.url}/healthz")
            assert status == 200
            assert health["status"] == "ok"
            assert health["now"] == 3
            assert health["clients"] == 1

            status, stats = _get(f"{service.url}/stats")
            assert status == 200
            assert stats["submitted_ceis"] == 1

            status, client = _get(f"{service.url}/clients/ana/stats")
            assert status == 200
            assert client["client"] == "ana"

            status, error = _get(f"{service.url}/clients/ghost/stats")
            assert status == 404
            assert "not registered" in error["error"]

            status, error = _get(f"{service.url}/no/such/route")
            assert status == 404
        finally:
            service.shutdown()


class TestLiveControls:
    def test_set_budget_takes_effect_next_tick(self):
        proxy = make_proxy(budget=0.0)
        proxy.register_client("ana")
        proxy.submit_ceis("ana", [make_cei((0, 0, 9))])
        proxy.tick(2)
        assert proxy.stats()["probes_used"] == 0
        proxy.set_budget(2.0)
        proxy.tick(2)
        assert proxy.stats()["probes_used"] >= 1

    def test_fast_forward_to_absolute_chronon(self):
        proxy = make_proxy()
        proxy.tick(3)
        assert proxy.fast_forward(7) == 7
        assert proxy.fast_forward(7) == 7  # no-op at the target
        with pytest.raises(Exception, match="backwards"):
            proxy.fast_forward(4)

    def test_unregister_withdraws_and_forgets(self):
        proxy = make_proxy()
        ana = proxy.register_client("ana")
        proxy.register_client("bob")
        proxy.submit_ceis(ana, [make_cei((0, 5, 20)), make_cei((1, 8, 25))])
        proxy.tick(1)
        withdrawn = proxy.unregister_client(ana)
        assert withdrawn == 2
        assert proxy.client_names == ["bob"]
        with pytest.raises(ExperimentError, match="not registered"):
            proxy.client_stats("ana")
        assert proxy.stats()["clients"] == 1
        # The name is reusable after unregistration.
        proxy.register_client("ana")
        assert proxy.client_stats("ana")["submitted_ceis"] == 0

    def test_unregister_unknown_client_is_an_error(self):
        with pytest.raises(ExperimentError, match="not registered"):
            make_proxy().unregister_client("ghost")


class TestHealthzBreakers:
    def test_plain_proxy_healthz_reports_breakers(self):
        proxy = make_proxy()
        service = serve(proxy)
        try:
            status, health = _get(f"{service.url}/healthz")
            assert status == 200
            assert health["status"] == "ok"
            assert health["breakers"] == {
                "opens": 0, "reopens": 0, "closes": 0, "short_circuited": 0,
            }
            # The plain (non-durable) shape has no durability section.
            assert "durability" not in health
            assert "wal_lag" not in health
        finally:
            service.shutdown()
