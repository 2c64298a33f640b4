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

import pytest

from repro.core.errors import ExperimentError
from repro.core.resource import ResourcePool
from repro.online import MonitorConfig
from repro.proxy import ClientHandle, StreamingProxy
from repro.proxy.service import serve
from tests.conftest import make_cei


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
