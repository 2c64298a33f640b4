"""Unit tests for the proxy facade and delivery accounting."""

import pytest

from repro.core.errors import ExperimentError, ModelError
from repro.core.intervals import ComplexExecutionInterval, Semantics
from repro.online import MonitorConfig
from repro.core.profile import Profile
from repro.core.resource import Resource, ResourcePool
from repro.core.schedule import BudgetVector, Schedule
from repro.core.timebase import Epoch
from repro.proxy import MonitoringProxy
from repro.proxy.delivery import (
    client_report,
    deliveries_for,
    delivery_for,
)
from repro.traces.noise import PredictedEvent
from tests.conftest import make_cei, make_ei


class TestDelivery:
    def test_delivery_at_last_required_capture(self):
        cei = make_cei((0, 0, 5), (1, 8, 12))
        schedule = Schedule.from_pairs([(0, 3), (1, 10)])
        delivery = delivery_for(cei, schedule)
        assert delivery is not None
        assert delivery.delivered_at == 10
        assert delivery.latency == 10  # release chronon is 0

    def test_unsatisfied_cei_has_no_delivery(self):
        cei = make_cei((0, 0, 5), (1, 8, 12))
        schedule = Schedule.from_pairs([(0, 3)])
        assert delivery_for(cei, schedule) is None

    def test_k_of_n_delivers_at_kth_capture(self):
        cei = ComplexExecutionInterval(
            eis=(make_ei(0, 0, 2), make_ei(1, 4, 6), make_ei(2, 8, 10)),
            semantics=Semantics.AT_LEAST,
            required=2,
        )
        schedule = Schedule.from_pairs([(0, 1), (1, 5), (2, 9)])
        delivery = delivery_for(cei, schedule)
        assert delivery is not None
        assert delivery.delivered_at == 5

    def test_deliveries_sorted_by_time(self):
        late = make_cei((0, 10, 12))
        early = make_cei((1, 0, 2))
        schedule = Schedule.from_pairs([(0, 11), (1, 1)])
        deliveries = deliveries_for([late, early], schedule)
        assert [d.delivered_at for d in deliveries] == [1, 11]

    def test_client_report_statistics(self):
        profile = Profile(
            pid=0, ceis=[make_cei((0, 0, 2)), make_cei((1, 4, 6)), make_cei((2, 8, 9))]
        )
        schedule = Schedule.from_pairs([(0, 1), (1, 6)])
        report = client_report("ana", profile, schedule)
        assert report.completeness == pytest.approx(2 / 3)
        assert report.mean_latency == pytest.approx((1 + 2) / 2)

    def test_empty_profile_report(self):
        report = client_report("ana", Profile(pid=0), Schedule())
        assert report.completeness == 1.0
        assert report.mean_latency == 0.0


class TestMonitoringProxy:
    def make_proxy(self, **kwargs) -> MonitoringProxy:
        pool = ResourcePool.from_names(["Blog", "CNN", "Money", "Stock"])
        defaults = dict(epoch=Epoch(100), resources=pool, budget=1.0, policy="MRSF")
        defaults.update(kwargs)
        return MonitoringProxy(**defaults)

    def test_register_and_list_clients(self):
        proxy = self.make_proxy()
        proxy.registry.register("bob")
        proxy.registry.register("ana")
        assert proxy.client_names == ["ana", "bob"]

    def test_duplicate_client_rejected(self):
        proxy = self.make_proxy()
        proxy.registry.register("ana")
        with pytest.raises(ExperimentError):
            proxy.registry.register("ana")

    def test_submit_to_unknown_client_rejected(self):
        proxy = self.make_proxy()
        with pytest.raises(ExperimentError):
            proxy.submit_ceis("ghost", [make_cei((0, 0, 5))])

    def test_submit_ceis_and_run(self):
        proxy = self.make_proxy()
        proxy.registry.register("ana")
        proxy.submit_ceis("ana", [make_cei((0, 5, 10)), make_cei((1, 20, 25))])
        result = proxy.run()
        assert result.completeness == 1.0
        assert result.client("ana").completeness == 1.0
        assert result.probes_used == 2

    def test_submit_query_text(self):
        proxy = self.make_proxy()
        proxy.registry.register("ana")
        count = proxy.submit_queries(
            "ana",
            "SELECT item AS F1; FROM feed(Blog); "
            "WHEN EVERY 20 CHRONONS AS T1; WITHIN T1+2 CHRONONS",
        )
        assert count == 5
        result = proxy.run()
        assert result.client("ana").num_ceis == 5

    def test_query_with_push_trigger(self):
        pool = ResourcePool(
            [
                Resource(rid=0, name="Stock", push_enabled=True),
                Resource(rid=1, name="CNN"),
            ]
        )
        proxy = MonitoringProxy(Epoch(50), pool, budget=1.0)
        proxy.registry.register("ana")
        proxy.submit_queries(
            "ana",
            "SELECT a AS F1; FROM feed(Stock); WHEN ON PUSH AS T1\n\n"
            "SELECT b AS F2; FROM feed(CNN); WITHIN T1+2 CHRONONS",
            predictions={0: [PredictedEvent(10, 10), PredictedEvent(30, 30)]},
        )
        result = proxy.run()
        assert result.completeness == 1.0

    def test_run_with_multiple_clients_reports_each(self):
        proxy = self.make_proxy()
        proxy.registry.register("ana")
        proxy.registry.register("bob")
        proxy.submit_ceis("ana", [make_cei((0, 0, 0))])
        proxy.submit_ceis("bob", [make_cei((1, 0, 0))])
        result = proxy.run()
        # C=1: only one of the two chronon-0 EIs can be probed.
        completenesses = sorted(c.completeness for c in result.clients)
        assert completenesses == [0.0, 1.0]
        assert result.completeness == 0.5

    def test_unknown_client_lookup(self):
        proxy = self.make_proxy()
        proxy.registry.register("ana")
        result = proxy.run()
        with pytest.raises(ExperimentError):
            result.client("ghost")

    def test_scalar_budget_broadcast(self):
        proxy = self.make_proxy(budget=2.0)
        assert proxy.budget.at(0) == 2.0
        assert len(proxy.budget) == 100

    def test_short_budget_vector_rejected(self):
        pool = ResourcePool.from_names(["Blog"])
        with pytest.raises(ExperimentError):
            MonitoringProxy(
                Epoch(100), pool, budget=BudgetVector.constant(1, 10)
            )

    def test_policy_by_instance(self):
        from repro.policies import SEDF

        proxy = self.make_proxy(policy=SEDF())
        proxy.registry.register("ana")
        proxy.submit_ceis("ana", [make_cei((0, 0, 5))])
        assert proxy.run().completeness == 1.0

    def test_engine_forwarded_to_monitor(self):
        # Regression: the facade used to drop the engine choice entirely
        # and always run the reference monitor.  Both engines must yield
        # the same schedule through the facade.
        results = {}
        for engine in ("reference", "vectorized"):
            proxy = self.make_proxy(config=MonitorConfig(engine=engine))
            proxy.registry.register("ana")
            proxy.submit_ceis(
                "ana", [make_cei((0, 0, 5)), make_cei((1, 3, 9), (2, 3, 9))]
            )
            results[engine] = proxy.run()
        assert (
            results["reference"].schedule.probes
            == results["vectorized"].schedule.probes
        )

    def test_engine_override_per_run(self):
        proxy = self.make_proxy()
        assert proxy.config.engine == "reference"
        proxy.registry.register("ana")
        proxy.submit_ceis("ana", [make_cei((0, 0, 5))])
        result = proxy.run(config=proxy.config.replace(engine="vectorized"))
        assert result.completeness == 1.0
        # The override is per-run only.
        assert proxy.config.engine == "reference"

    def test_engine_override_keyword_graduated(self):
        proxy = self.make_proxy()
        proxy.registry.register("ana")
        proxy.submit_ceis("ana", [make_cei((0, 0, 5))])
        with pytest.raises(TypeError, match=r"unexpected keyword argument 'engine'"):
            proxy.run(engine="vectorized")
        assert proxy.run(config=MonitorConfig(engine="vectorized")).completeness == 1.0

    def test_unknown_engine_rejected(self):
        with pytest.raises(ModelError, match="engine"):
            self.make_proxy(config=MonitorConfig(engine="quantum"))

    def test_faults_forwarded_to_monitor(self):
        from repro.online.faults import FailureModel

        proxy = self.make_proxy(config=MonitorConfig(faults=FailureModel(rate=1.0)))
        proxy.registry.register("ana")
        proxy.submit_ceis("ana", [make_cei((0, 0, 5))])
        result = proxy.run()
        assert result.completeness == 0.0
        assert result.probes_failed == result.probes_used > 0


class TestClientRegistry:
    """The shared client table behind every facade (satellite: extraction)."""

    def make_proxy(self, **kwargs) -> MonitoringProxy:
        pool = ResourcePool.from_names(["Blog", "CNN"])
        defaults = dict(epoch=Epoch(30), resources=pool, budget=1.0, policy="MRSF")
        defaults.update(kwargs)
        return MonitoringProxy(**defaults)

    def test_register_returns_typed_handle(self):
        from repro.proxy import ClientHandle

        proxy = self.make_proxy()
        handle = proxy.registry.register("ana")
        assert isinstance(handle, ClientHandle)
        assert isinstance(handle, str)  # old string-keyed callers still work
        assert handle == "ana"
        assert handle.name == "ana"
        assert handle.registry is proxy.registry

    def test_handle_submit_and_ceis(self):
        proxy = self.make_proxy()
        ana = proxy.registry.register("ana")
        ana.submit([make_cei((0, 0, 5))])
        assert len(ana.ceis) == 1
        assert proxy.run().client("ana").completeness == 1.0

    def test_handle_usable_as_plain_string_key(self):
        proxy = self.make_proxy()
        ana = proxy.registry.register("ana")
        proxy.submit_ceis(ana, [make_cei((0, 0, 5))])
        assert proxy.run().client("ana").completeness == 1.0

    def test_registry_protocol(self):
        from repro.proxy import ClientRegistry

        registry = ClientRegistry()
        registry.register("bob")
        registry.register("ana")
        assert "ana" in registry
        assert "ghost" not in registry
        assert len(registry) == 2
        assert registry.names == ["ana", "bob"]
        assert sorted(registry) == ["ana", "bob"]

    def test_registry_errors(self):
        from repro.proxy import ClientRegistry

        registry = ClientRegistry()
        registry.register("ana")
        with pytest.raises(ExperimentError, match="already registered"):
            registry.register("ana")
        with pytest.raises(ExperimentError, match="not registered"):
            registry.require("ghost")

    def test_build_profiles_pid_order_follows_sorted_names(self):
        from repro.proxy import ClientRegistry

        registry = ClientRegistry()
        registry.register("zoe")
        registry.register("ana")
        registry.submit("zoe", [make_cei((0, 0, 5))])
        registry.submit("ana", [make_cei((1, 2, 8))])
        profiles = registry.build_profiles()
        assert [p.pid for p in profiles] == [0, 1]
        assert len(profiles[0].ceis) == 1  # pid 0 == "ana"
