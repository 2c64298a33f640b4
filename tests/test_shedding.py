"""Unit tests for admission control and tiered load shedding.

Engine equivalence under shedding lives in test_fastpath_equivalence.py;
this module covers the pieces: config validation and tier mapping, the
overload detector's hysteresis and sustain count, the release/shed pool
primitives on both engines, the tier treatment semantics, and the stats
surfacing through ``simulate``/``run_suite``/``MonitoringProxy``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ModelError
from repro.core.intervals import ComplexExecutionInterval, Semantics
from repro.core.resource import Resource, ResourcePool
from repro.core.schedule import BudgetVector
from repro.core.timebase import Epoch
from repro.online.arrivals import arrival_map
from repro.online.candidates import CandidatePool
from repro.online.config import MonitorConfig
from repro.online.fastpath import FastCandidatePool
from repro.online.monitor import OnlineMonitor
from repro.online.shedding import (
    TIER_BEST_EFFORT,
    TIER_HARD,
    TIER_SOFT,
    LoadShedder,
    OverloadDetector,
    SheddingConfig,
)
from repro.policies import make_policy
from repro.sim.engine import simulate
from repro.sim.runner import run_suite
from tests.conftest import count_steps, make_cei, make_ei, make_profiles

AGGRESSIVE = SheddingConfig(
    overload_on=1.5, overload_off=1.1, sustain=2, target_ratio=1.0
)


class TestSheddingConfig:
    def test_defaults_validate(self):
        cfg = SheddingConfig()
        assert cfg.alpha == 0.25
        assert cfg.tiers is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"overload_on": 0.0},
            {"overload_off": -1.0},
            {"overload_on": 1.0, "overload_off": 2.0},
            {"sustain": 0},
            {"target_ratio": 0.0},
            {"soft_weight": 5.0, "hard_weight": 2.0},
            {"tiers": {1: "platinum"}},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ModelError):
            SheddingConfig(**kwargs)

    def test_tier_of_weight_thresholds(self):
        cfg = SheddingConfig(soft_weight=4.0, hard_weight=10.0)
        assert cfg.tier_of(make_cei((0, 0, 5), weight=1.0)) == TIER_BEST_EFFORT
        assert cfg.tier_of(make_cei((0, 0, 5), weight=4.0)) == TIER_SOFT
        assert cfg.tier_of(make_cei((0, 0, 5), weight=10.0)) == TIER_HARD

    def test_tier_of_explicit_map_wins(self):
        light = make_cei((0, 0, 5), weight=1.0)
        cfg = SheddingConfig(
            soft_weight=4.0, hard_weight=10.0, tiers={light.cid: TIER_HARD}
        )
        assert cfg.tier_of(light) == TIER_HARD
        assert cfg.tier_of(make_cei((0, 0, 5), weight=1.0)) == TIER_BEST_EFFORT

    def test_default_tiers_are_best_effort(self):
        cfg = SheddingConfig()
        assert cfg.tier_of(make_cei((0, 0, 5), weight=1e9)) == TIER_BEST_EFFORT


class TestOverloadDetector:
    def test_sustain_gates_entry(self):
        detector = OverloadDetector(
            SheddingConfig(alpha=1.0, overload_on=2.0, overload_off=1.0, sustain=3)
        )
        assert not detector.observe(5.0)
        assert not detector.observe(5.0)
        assert detector.observe(5.0)  # third consecutive chronon at >= on

    def test_burst_below_sustain_never_triggers(self):
        detector = OverloadDetector(
            SheddingConfig(alpha=1.0, overload_on=2.0, overload_off=1.0, sustain=3)
        )
        for __ in range(10):
            assert not detector.observe(5.0)
            assert not detector.observe(5.0)
            assert not detector.observe(0.0)  # resets the sustain count

    def test_hysteresis_band_holds_state(self):
        detector = OverloadDetector(
            SheddingConfig(alpha=1.0, overload_on=2.0, overload_off=1.0, sustain=1)
        )
        assert detector.observe(3.0)
        assert detector.observe(1.5)  # inside the band: still overloaded
        assert not detector.observe(0.5)  # below off: recovered
        assert not detector.observe(1.5)  # inside the band: still fine

    def test_ewma_smooths(self):
        detector = OverloadDetector(
            SheddingConfig(alpha=0.25, overload_on=2.0, overload_off=1.0, sustain=1)
        )
        detector.observe(0.0)  # jump-start at 0
        assert not detector.observe(4.0)  # ewma = 1.0 < on
        assert detector.ewma == pytest.approx(1.0)


def _build_pools(ceis, now=0):
    """The same CEIs registered in both pool implementations."""
    ref, fast = CandidatePool(), FastCandidatePool()
    for cei in ceis:
        ref.register(cei, now)
        fast.register(cei, now)
    return ref, fast


class TestReleasePrimitive:
    @pytest.mark.parametrize("kind", ["reference", "fast"])
    def test_release_deactivates_without_events(self, kind):
        spare = ComplexExecutionInterval(
            eis=(make_ei(0, 0, 5), make_ei(1, 0, 5)), semantics=Semantics.ANY
        )
        ref, fast = _build_pools([spare])
        pool = ref if kind == "reference" else fast
        ei = spare.eis[0]
        assert pool.is_active(ei)
        assert pool.release_ei(ei)
        assert not pool.is_active(ei)
        assert pool.is_ei_released(ei)
        assert pool.num_active() == 1
        # Silent at expiry: close_windows never reports it.
        expired = pool.close_windows(6)
        assert ei not in expired
        # The ANY CEI is satisfiable through its other EI all along.
        assert pool.num_failed == 0

    @pytest.mark.parametrize("kind", ["reference", "fast"])
    def test_release_guards(self, kind):
        c = make_cei((0, 0, 5), (1, 0, 5))
        ref, fast = _build_pools([c])
        pool = ref if kind == "reference" else fast
        pool.capture_resource(0, 0)
        assert not pool.release_ei(c.eis[0])  # captured
        assert pool.release_ei(c.eis[1])
        assert not pool.release_ei(c.eis[1])  # already released
        stray = make_ei(0, 0, 5)
        assert not pool.release_ei(stray)  # unknown to the pool

    @pytest.mark.parametrize("kind", ["reference", "fast"])
    def test_released_pending_ei_never_activates(self, kind):
        spare = ComplexExecutionInterval(
            eis=(make_ei(0, 0, 9), make_ei(1, 4, 9)), semantics=Semantics.ANY
        )
        ref, fast = _build_pools([spare])
        pool = ref if kind == "reference" else fast
        pending = spare.eis[1]
        assert pool.release_ei(pending)
        opened = pool.open_windows(4)
        assert pending not in opened
        assert not pool.is_active(pending)

    @pytest.mark.parametrize("kind", ["reference", "fast"])
    def test_shed_cei_fails_it(self, kind):
        c = make_cei((0, 0, 5), (1, 2, 7))
        ref, fast = _build_pools([c])
        pool = ref if kind == "reference" else fast
        assert pool.shed_cei(c)
        assert pool.num_failed == 1
        assert pool.num_active() == 0
        assert not pool.shed_cei(c)  # already closed

    @pytest.mark.parametrize("kind", ["reference", "fast"])
    def test_open_cei_objects_skips_closed(self, kind):
        a, b, c = make_cei((0, 0, 3)), make_cei((1, 0, 3)), make_cei((2, 0, 3))
        ref, fast = _build_pools([a, b, c])
        pool = ref if kind == "reference" else fast
        pool.capture_resource(0, 0)  # satisfies a
        pool.shed_cei(b)
        assert [cei.cid for cei in pool.open_cei_objects()] == [c.cid]


class TestTierTreatment:
    def _overloaded_monitor(self, ceis, shedding, budget=1.0, chronons=20):
        monitor = OnlineMonitor(
            make_policy("M-EDF"),
            BudgetVector.constant(budget, chronons),
            config=MonitorConfig(shedding=shedding),
        )
        monitor.run(Epoch(chronons), arrival_map(ceis))
        return monitor

    def test_hard_tier_never_shed(self):
        ceis = [make_cei((r, 0, 15), weight=9.0) for r in range(12)]
        cfg = SheddingConfig(
            overload_on=1.5, overload_off=1.1, sustain=2,
            target_ratio=1.0, hard_weight=9.0, soft_weight=9.0,
        )
        monitor = self._overloaded_monitor(ceis, cfg)
        stats = monitor.shedding_stats
        assert stats.overload_chronons > 0
        assert stats.shed_ceis == 0
        assert stats.released_eis == 0

    def test_best_effort_sheds_lowest_utility_per_probe_first(self):
        cheap = make_cei((0, 0, 15), weight=1.0)
        pricey = make_cei((1, 0, 15), (2, 0, 15), (3, 0, 15), weight=1.0)
        keeper = make_cei((4, 0, 15), weight=5.0)
        cfg = SheddingConfig(
            overload_on=1.2, overload_off=1.0, sustain=2, target_ratio=2.0
        )
        monitor = self._overloaded_monitor([cheap, pricey, keeper], cfg)
        shedder = monitor._shedder
        # pricey (weight 1 over 3 probes) goes before cheap (1 over 1);
        # keeper's weight 5 ranks it last and the target spares it.
        assert pricey.cid in shedder.shed_cids
        assert keeper.cid not in shedder.shed_cids

    def test_soft_tier_degrades_to_required(self):
        soft = ComplexExecutionInterval(
            eis=(make_ei(0, 0, 15), make_ei(1, 0, 15), make_ei(2, 0, 15)),
            semantics=Semantics.AT_LEAST,
            required=1,
            weight=5.0,
        )
        filler = [make_cei((r, 0, 15), weight=1.0) for r in range(3, 9)]
        cfg = SheddingConfig(
            overload_on=1.5, overload_off=1.1, sustain=2,
            target_ratio=1.0, soft_weight=5.0,
        )
        monitor = self._overloaded_monitor([soft, *filler], cfg)
        stats = monitor.shedding_stats
        assert stats.degraded_ceis == 1
        assert stats.released_eis == 2  # down to required=1
        assert soft.cid not in monitor._shedder.shed_cids

    def test_degrade_soft_disabled(self):
        soft = ComplexExecutionInterval(
            eis=(make_ei(0, 0, 15), make_ei(1, 0, 15), make_ei(2, 0, 15)),
            semantics=Semantics.AT_LEAST,
            required=1,
            weight=5.0,
        )
        filler = [make_cei((r, 0, 15), weight=1.0) for r in range(3, 9)]
        cfg = SheddingConfig(
            overload_on=1.5, overload_off=1.1, sustain=2,
            target_ratio=1.0, soft_weight=5.0, degrade_soft=False,
        )
        monitor = self._overloaded_monitor([soft, *filler], cfg)
        stats = monitor.shedding_stats
        assert stats.degraded_ceis == 0
        assert stats.released_eis == 0

    def test_admission_reject_counted_on_arrival_chronon_shed(self):
        # A wave big enough that the arrival chronon itself sheds.
        wave = [make_cei((r, 5, 18), weight=1.0) for r in range(10)]
        warmup = [make_cei((r + 10, 0, 18), weight=1.0) for r in range(6)]
        cfg = SheddingConfig(
            alpha=1.0, overload_on=1.5, overload_off=1.1, sustain=1,
            target_ratio=1.0,
        )
        monitor = self._overloaded_monitor(warmup + wave, cfg)
        stats = monitor.shedding_stats
        assert stats.admission_rejects > 0
        assert stats.admission_rejects <= stats.shed_ceis


class TestStatsSurfacing:
    def _profiles(self):
        return make_profiles(
            *[make_cei((r % 6, 0, 12), (r % 6, 5, 19), weight=1.0) for r in range(14)]
        )

    def test_simulate_carries_stats(self):
        epoch = Epoch(20)
        result = simulate(
            self._profiles(), epoch, BudgetVector.constant(1.0, 20), "M-EDF",
            config=MonitorConfig(shedding=AGGRESSIVE),
        )
        assert result.shedding is not None
        assert result.shedding.overload_chronons > 0
        plain = simulate(
            self._profiles(), epoch, BudgetVector.constant(1.0, 20), "M-EDF",
        )
        assert plain.shedding is None

    @pytest.mark.parametrize("workers", [None, 2])
    def test_run_suite_aggregates_shed_means(self, workers):
        def factory(rng: np.random.Generator):
            ceis = [
                make_cei(
                    (int(rng.integers(0, 5)), 0, 12),
                    (int(rng.integers(0, 5)), 4, 18),
                )
                for __ in range(14)
            ]
            return make_profiles(*ceis)

        aggregates = run_suite(
            factory,
            Epoch(20),
            BudgetVector.constant(1.0, 20),
            [("M-EDF", True)],
            repetitions=2,
            seed=3,
            config=MonitorConfig(shedding=AGGRESSIVE, workers=workers),
        )
        agg = aggregates["M-EDF(P)"]
        assert agg.shed_ceis_mean > 0
        assert agg.overload_chronons_mean > 0
        assert agg.shed_weight_mean > 0

    def test_proxy_carries_stats(self):
        epoch = Epoch(20)
        resources = ResourcePool(
            [Resource(rid=i, name=f"r{i}") for i in range(6)]
        )
        from repro.proxy.proxy import MonitoringProxy

        proxy = MonitoringProxy(
            epoch, resources, budget=1.0, policy="M-EDF",
            config=MonitorConfig(shedding=AGGRESSIVE),
        )
        proxy.registry.register("c")
        proxy.submit_ceis(
            "c", [make_cei((r % 6, 0, 12), (r % 6, 5, 19)) for r in range(14)]
        )
        result = proxy.run()
        assert result.shedding is not None
        assert result.shedding.overload_chronons > 0

    def test_stats_as_dict_includes_tier_breakdown(self):
        epoch = Epoch(20)
        result = simulate(
            self._profiles(), epoch, BudgetVector.constant(1.0, 20), "M-EDF",
            config=MonitorConfig(shedding=AGGRESSIVE),
        )
        snapshot = result.shedding.as_dict()
        assert snapshot["shed_ceis"] == result.shedding.shed_ceis
        if result.shedding.shed_ceis:
            assert snapshot["shed_best-effort"] == result.shedding.shed_ceis


class TestBatchingGate:
    @staticmethod
    def _stepped_chronons(config):
        """The chronons run() steps individually (the rest are skipped)."""
        ceis = [make_cei((0, 0, 3)), make_cei((1, 14, 18))]
        monitor = OnlineMonitor(
            make_policy("M-EDF"), BudgetVector.constant(1.0, 20), config=config
        )
        stepped = count_steps(monitor)
        monitor.run(Epoch(20), arrival_map(ceis))
        return stepped

    def test_shedding_disables_run_batching(self):
        """The shedder needs per-chronon ticks: run() must not batch."""
        stepped = self._stepped_chronons(
            MonitorConfig(engine="vectorized", shedding=SheddingConfig())
        )
        assert stepped == list(range(20))

    def test_disabled_shedding_keeps_batching(self):
        stepped = self._stepped_chronons(MonitorConfig(engine="vectorized"))
        assert len(stepped) < 20
