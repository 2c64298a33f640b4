"""Tests for interactive proxy sessions (online arrivals mid-run)."""

import pytest

from repro.core.errors import ExperimentError, ModelError
from repro.core.resource import ResourcePool
from repro.core.schedule import BudgetVector
from repro.core.timebase import Epoch
from repro.proxy import MonitoringProxy, ProxySession
from tests.conftest import make_cei


def make_session(num_chronons=50, budget=1.0, **kwargs) -> ProxySession:
    pool = ResourcePool.uniform(5)
    return ProxySession(Epoch(num_chronons), pool, budget=budget, **kwargs)


class TestClock:
    def test_initial_state(self):
        session = make_session()
        assert session.now == 0
        assert not session.finished
        assert session.remaining == 50

    def test_advance_moves_clock(self):
        session = make_session()
        assert session.advance(10) == 10
        assert session.now == 10

    def test_advance_clamps_at_epoch_end(self):
        session = make_session(num_chronons=10)
        session.advance(100)
        assert session.finished
        assert session.remaining == 0

    def test_negative_advance_rejected(self):
        with pytest.raises(ExperimentError):
            make_session().advance(-1)

    def test_run_to_end(self):
        session = make_session(num_chronons=20)
        session.advance(5)
        session.run_to_end()
        assert session.finished


class TestSubmissions:
    def test_submission_before_start(self):
        session = make_session()
        session.registry.register("ana")
        session.submit_ceis("ana", [make_cei((0, 5, 10))])
        result = session.finish()
        assert result.client("ana").completeness == 1.0

    def test_mid_run_submission_is_captured(self):
        session = make_session()
        session.registry.register("ana")
        session.advance(20)
        session.submit_ceis("ana", [make_cei((0, 25, 30))])
        result = session.finish()
        assert result.client("ana").completeness == 1.0

    def test_stale_submission_counts_against_client(self):
        session = make_session()
        session.registry.register("ana")
        session.advance(20)
        # This CEI's window already passed; it can never be satisfied.
        session.submit_ceis("ana", [make_cei((0, 5, 10))])
        result = session.finish()
        assert result.client("ana").completeness == 0.0

    def test_partially_stale_submission(self):
        session = make_session()
        session.registry.register("ana")
        session.advance(8)
        # Window [5, 15] is still open at chronon 8 — catchable.
        session.submit_ceis("ana", [make_cei((0, 5, 15))])
        result = session.finish()
        assert result.client("ana").completeness == 1.0

    def test_submission_past_epoch_never_revealed(self):
        session = make_session(num_chronons=10)
        session.registry.register("ana")
        session.submit_ceis("ana", [make_cei((0, 50, 60))])
        result = session.finish()
        assert result.client("ana").completeness == 0.0

    def test_unregistered_client_rejected(self):
        session = make_session()
        with pytest.raises(ExperimentError):
            session.submit_ceis("ghost", [make_cei((0, 0, 5))])

    def test_duplicate_client_rejected(self):
        session = make_session()
        session.registry.register("ana")
        with pytest.raises(ExperimentError):
            session.registry.register("ana")


class TestEquivalence:
    def test_session_matches_batch_proxy_on_static_workload(self):
        """With everything submitted up front, the stepped session and the
        batch proxy must produce identical schedules."""
        pool = ResourcePool.uniform(5)
        ceis_a = [make_cei((0, 3, 8)), make_cei((1, 3, 8), (2, 10, 14))]
        ceis_b = [make_cei((3, 5, 9))]

        proxy = MonitoringProxy(Epoch(30), pool, budget=1.0, policy="MRSF")
        proxy.registry.register("ana")
        proxy.registry.register("bob")

        # Copies for the session (EIs cannot be shared between CEIs).
        from repro.io import profiles_from_dict, profiles_to_dict
        from repro.core.profile import ProfileSet

        copies = profiles_from_dict(
            profiles_to_dict(ProfileSet.from_ceis(ceis_a + ceis_b))
        )
        copied = list(copies.ceis())

        proxy.submit_ceis("ana", ceis_a)
        proxy.submit_ceis("bob", ceis_b)
        batch = proxy.run()

        session = ProxySession(Epoch(30), pool, budget=1.0, policy="MRSF")
        session.registry.register("ana")
        session.registry.register("bob")
        session.submit_ceis("ana", copied[:2])
        session.submit_ceis("bob", copied[2:])
        stepped = session.finish()

        assert stepped.schedule.probes == batch.schedule.probes
        assert stepped.completeness == batch.completeness

    def test_interleaved_advance_and_submit(self):
        session = make_session(num_chronons=40, budget=1.0)
        session.registry.register("ana")
        for start in (0, 10, 20, 30):
            session.submit_ceis("ana", [make_cei((start % 5, start + 2, start + 6))])
            session.advance(10)
        result = session.finish()
        assert result.client("ana").completeness == 1.0
        assert result.probes_used == 4


class TestSnapshot:
    def test_snapshot_progression(self):
        session = make_session(num_chronons=30)
        session.registry.register("ana")
        session.submit_ceis("ana", [make_cei((0, 2, 4)), make_cei((1, 20, 22))])
        before = session.snapshot()
        assert before["now"] == 0
        assert before["registered_ceis"] == 0  # nothing revealed yet
        session.advance(10)
        mid = session.snapshot()
        assert mid["now"] == 10
        assert mid["registered_ceis"] == 1
        assert mid["satisfied_ceis"] == 1
        session.run_to_end()
        after = session.snapshot()
        assert after["remaining"] == 0
        assert after["satisfied_ceis"] == 2
        assert after["believed_completeness"] == 1.0

    def test_snapshot_counts_failures(self):
        session = make_session(num_chronons=20, budget=1.0)
        session.registry.register("ana")
        session.submit_ceis(
            "ana", [make_cei((0, 5, 5)), make_cei((1, 5, 5))]
        )
        session.run_to_end()
        snap = session.snapshot()
        assert snap["satisfied_ceis"] == 1
        assert snap["failed_ceis"] == 1


class TestAdapterGuards:
    """Input the online loop refuses before it changes anything."""

    def test_short_budget_vector_rejected(self):
        with pytest.raises(ExperimentError):
            ProxySession(
                Epoch(10), ResourcePool.uniform(3),
                budget=BudgetVector.constant(1.0, 4),
            )

    def test_duplicate_cei_rejected_without_side_effects(self):
        session = make_session(num_chronons=20)
        session.registry.register("ana")
        cei = make_cei((0, 5, 10))
        session.submit_ceis("ana", [cei])
        session.advance(3)
        with pytest.raises(ModelError, match="already submitted"):
            session.submit_ceis("ana", [cei])
        assert session.registry.ceis_of("ana") == [cei]
        assert session.now == 3
        result = session.finish()
        assert session.now == 20
        assert result.client("ana").completeness == 1.0
        assert result.probes_used == 1
