"""One front door per live proxy.

On :class:`ProxySession`, :class:`StreamingProxy` and
:class:`DurableStreamingProxy`, ``handle.submit(ceis)`` is
``proxy.submit_ceis(handle, ceis)``: checked, journaled on the durable
proxy, and monitored.  (On :class:`MonitoringProxy` it stays a registry
append; ``test_proxy.py::test_handle_submit_and_ceis`` covers that.)
The session, now an epoch bound around a :class:`StreamingProxy`, is
also held to the paper on a seeded script of mid-run submissions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ModelError
from repro.core.resource import ResourcePool
from repro.core.timebase import Epoch
from repro.proxy import DurableStreamingProxy, ProxySession, StreamingProxy
from repro.proxy.durability import decode_frames
from tests.conftest import check_paper_invariants, make_cei

NEED = ((0, 5, 10),)


def _submit_need(live, ana, via_handle: bool):
    """Submit NEED for ``ana`` through its handle or through the live
    facade's ``submit_ceis``; returns the facade."""
    cei = make_cei(*NEED)
    if via_handle:
        assert ana.submit([cei]) == 1
    else:
        assert live.submit_ceis(ana, [cei]) == 1
    return live


def _run_session(via_handle: bool) -> ProxySession:
    session = ProxySession(Epoch(30), ResourcePool.uniform(4), budget=1.0)
    return _submit_need(session, session.registry.register("ana"), via_handle)


def _streaming(via_handle: bool) -> StreamingProxy:
    proxy = StreamingProxy(resources=ResourcePool.uniform(4), budget=1.0)
    ana = proxy.register_client("ana")
    proxy.tick(2)
    return _submit_need(proxy, ana, via_handle)


class TestSessionHandle:
    def test_handle_submit_is_monitored(self):
        result = _run_session(via_handle=True).finish()
        assert result.client("ana").completeness == 1.0
        assert result.probes_used == 1

    def test_handle_submit_matches_submit_ceis(self):
        by_handle = _run_session(via_handle=True)
        by_call = _run_session(via_handle=False)
        assert by_handle.snapshot() == by_call.snapshot()
        assert by_handle.snapshot()["submitted_ceis"] == 1
        a, b = by_handle.finish(), by_call.finish()
        assert list(a.schedule.pairs()) == list(b.schedule.pairs())
        assert a.completeness == b.completeness == 1.0


class TestStreamingHandle:
    def test_client_stats_count_the_need(self):
        proxy = _streaming(via_handle=True)
        stats = proxy.client_stats("ana")
        assert stats["submitted_ceis"] == 1
        listed = proxy.snapshot()["clients"]["ana"]
        assert len(listed) == stats["submitted_ceis"]
        proxy.tick(10)
        assert proxy.client_stats("ana")["satisfied_ceis"] == 1

    def test_handle_submit_matches_submit_ceis(self):
        by_handle = _streaming(via_handle=True)
        by_call = _streaming(via_handle=False)
        assert by_handle.client_stats("ana") == by_call.client_stats("ana")
        assert by_handle.snapshot() == by_call.snapshot()
        assert by_handle.stats() == by_call.stats()
        for proxy in (by_handle, by_call):
            proxy.tick(20)
        assert list(by_handle.monitor.schedule.pairs()) == list(
            by_call.monitor.schedule.pairs()
        )
        assert by_handle.client_stats("ana") == by_call.client_stats("ana")

    def test_refused_handle_submit_changes_nothing(self):
        proxy = _streaming(via_handle=True)
        cei = proxy.registry.ceis_of("ana")[0]
        before = (proxy.snapshot(), proxy.stats(), proxy.client_stats("ana"))
        with pytest.raises(ModelError, match="already submitted"):
            proxy.registry.handle("ana").submit([cei])
        assert (proxy.snapshot(), proxy.stats(), proxy.client_stats("ana")) == before


def _durable(root, via_handle: bool) -> DurableStreamingProxy:
    proxy = DurableStreamingProxy(root, resources=ResourcePool.uniform(4))
    ana = proxy.register_client("ana")  # journaled; registry.register is not
    proxy.tick(2)
    return _submit_need(proxy, ana, via_handle)


def _journal(proxy: DurableStreamingProxy) -> list[dict]:
    records, _, _ = decode_frames(proxy.durability.wal_path.read_bytes())
    return records


class TestDurableHandle:
    def test_handle_submit_survives_reopen(self, tmp_path):
        proxy = _durable(tmp_path, via_handle=True)
        assert proxy.client_stats("ana")["submitted_ceis"] == 1
        proxy.close()
        reopened = DurableStreamingProxy(
            tmp_path, resources=ResourcePool.uniform(4)
        )
        try:
            assert reopened.client_stats("ana")["submitted_ceis"] == 1
            assert len(reopened.snapshot()["clients"]["ana"]) == 1
            reopened.tick(10)
            assert reopened.client_stats("ana")["satisfied_ceis"] == 1
        finally:
            reopened.close()

    def test_handle_submit_matches_submit_ceis(self, tmp_path):
        by_handle = _durable(tmp_path / "handle", via_handle=True)
        by_call = _durable(tmp_path / "call", via_handle=False)
        try:
            assert _journal(by_handle) == _journal(by_call)
            assert any(r["op"] == "submit" for r in _journal(by_handle))
            assert by_handle.snapshot() == by_call.snapshot()
            assert by_handle.client_stats("ana") == by_call.client_stats("ana")
            assert by_handle.stats() == by_call.stats()
        finally:
            by_handle.close()
            by_call.close()


# A seeded session script: every EPOCH_STEP chronons each client submits
# a batch of needs that open a little ahead of the clock, all of whose
# windows lie inside the epoch.
EPOCH = 60
EPOCH_STEP = 6
RESOURCES = 6


def _script(seed: int) -> list[list[tuple[str, tuple]]]:
    rng = np.random.default_rng(seed)
    periods = []
    for now in range(0, EPOCH - 12, EPOCH_STEP):
        batch = []
        for client in ("ana", "bob"):
            for _ in range(int(rng.integers(1, 4))):
                windows = []
                for _ in range(int(rng.integers(1, 3))):
                    start = now + int(rng.integers(0, 5))
                    windows.append(
                        (int(rng.integers(RESOURCES)), start, start + int(rng.integers(0, 6)))
                    )
                batch.append((client, tuple(windows)))
        periods.append(batch)
    return periods


def _drive(live, seed: int, advance) -> None:
    for name in ("ana", "bob"):
        live.registry.register(name)
    for batch in _script(seed):
        for client in ("ana", "bob"):
            live.submit_ceis(
                client, [make_cei(*spec) for owner, spec in batch if owner == client]
            )
        advance(EPOCH_STEP)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_session_holds_to_the_paper(seed):
    session = ProxySession(Epoch(EPOCH), ResourcePool.uniform(RESOURCES), budget=1.0)
    _drive(session, seed, session.advance)
    result = session.finish()
    monitor = session._proxy.monitor.monitor
    profiles = session.build_profiles()
    assert monitor.pool.num_registered == profiles.num_ceis
    check_paper_invariants(monitor, profiles, session.budget, session.epoch)
    assert 0 < result.probes_used <= EPOCH
    assert 0.0 < result.completeness < 1.0

    proxy = StreamingProxy(resources=ResourcePool.uniform(RESOURCES), budget=1.0)
    _drive(proxy, seed, proxy.tick)
    proxy.tick(EPOCH - proxy.now)
    assert list(result.schedule.pairs()) == list(proxy.monitor.schedule.pairs())
    assert result.probes_used == proxy.monitor.probes_used
