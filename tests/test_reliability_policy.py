"""Reliability-aware scheduling: expected-gain policies and fault extensions.

Covers the :class:`ExpectedGainPolicy` wrapper (priority math, model
binding, trivial-model equivalence to the base policy), the per-EI
partial-verdict draws, the time-varying :class:`RateWindow` schedule,
the batched uniform-draw machinery (determinism, prefix stability,
cache eviction), and the injector's outage regression: a probe during a
declared outage window must not consume budget or a retry attempt.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ModelError
from repro.core.schedule import BudgetVector
from repro.core.timebase import Epoch
from repro.online.config import MonitorConfig
from repro.online.faults import (
    FailureModel,
    FaultInjector,
    Outage,
    RateWindow,
    RetryPolicy,
)
from repro.policies import ExpectedGainPolicy, make_policy
from repro.sim.engine import simulate
from tests.conftest import make_cei, make_ei, random_general_instance


class TestExpectedGainPriority:
    def test_no_model_matches_base(self):
        policy = ExpectedGainPolicy("S-EDF")
        ei = make_ei(0, 0, 9)
        assert policy.priority(ei, 0, None) == policy.base.priority(ei, 0, None)
        assert policy.p_success(0, 0) == 1.0

    def test_priority_divided_by_p_success(self):
        faults = FailureModel(per_resource={0: 0.5})
        retry = RetryPolicy(max_retries=1)
        policy = ExpectedGainPolicy("S-EDF", faults=faults, retry=retry)
        # p_success = 1 - 0.5**2 = 0.75 over the two allowed attempts.
        assert policy.p_success(0, 0) == pytest.approx(0.75)
        ei = make_ei(0, 0, 9)
        base = policy.base.priority(ei, 0, None)
        assert policy.priority(ei, 0, None) == base / 0.75

    def test_certain_failure_ranks_last(self):
        policy = ExpectedGainPolicy("S-EDF", faults=FailureModel(per_resource={0: 1.0}))
        assert policy.p_success(0, 0) == 0.0
        assert policy.priority(make_ei(0, 0, 9), 0, None) == math.inf

    def test_p_success_uses_full_attempt_allowance(self):
        # A failed candidate re-enters the ranking with an unchanged key,
        # so the discount must be a constant per (resource, chronon) —
        # computed from the full allowance, never the attempts remaining.
        faults = FailureModel(per_resource={0: 0.9})
        one = ExpectedGainPolicy("S-EDF", faults=faults)
        three = ExpectedGainPolicy(
            "S-EDF", faults=faults, retry=RetryPolicy(max_retries=2)
        )
        assert one.p_success(0, 0) == pytest.approx(1 - 0.9)
        assert three.p_success(0, 0) == pytest.approx(1 - 0.9**3)

    def test_rate_schedule_varies_p_success_over_time(self):
        faults = FailureModel(rate=0.2, rate_schedule=[(10, 20, 3.0)])
        policy = ExpectedGainPolicy("S-EDF", faults=faults)
        assert policy.p_success(0, 0) == pytest.approx(0.8)
        assert policy.p_success(0, 15) == pytest.approx(1 - 0.6)

    def test_p_success_array_matches_scalar(self):
        faults = FailureModel(
            rate=0.3, per_resource={2: 0.9, 5: 0.0}, rate_schedule=[(0, 4, 1.5)]
        )
        policy = ExpectedGainPolicy("MRSF", faults=faults, retry=RetryPolicy(max_retries=1))
        for chronon in (0, 7):
            arr = policy.p_success_array(chronon, 8)
            for rid in range(8):
                assert arr[rid] == policy.p_success(rid, chronon)

    def test_registry_names_and_kernels(self):
        for name in ("EG-S-EDF", "EG-MRSF", "EG-M-EDF",
                     "EG-W-S-EDF", "EG-W-MRSF", "EG-W-M-EDF"):
            policy = make_policy(name)
            assert isinstance(policy, ExpectedGainPolicy)
            assert policy.name == name
            assert policy.make_kernel() is not None

    def test_wrapping_kernel_less_base_yields_no_kernel(self):
        policy = ExpectedGainPolicy("FIFO")
        assert policy.name == "EG-FIFO"
        assert policy.make_kernel() is None


class TestModelBinding:
    def test_adopts_monitor_model(self):
        policy = ExpectedGainPolicy("MRSF")
        faults = FailureModel(rate=0.4)
        retry = RetryPolicy(max_retries=1)
        policy.bind_reliability(faults, retry)
        assert policy.faults is faults and policy.retry is retry
        assert policy.p_success(0, 0) == pytest.approx(1 - 0.4**2)

    def test_explicit_model_not_overridden(self):
        explicit = FailureModel(rate=0.9)
        policy = ExpectedGainPolicy("MRSF", faults=explicit)
        policy.bind_reliability(FailureModel(rate=0.1), RetryPolicy(max_retries=3))
        assert policy.faults is explicit
        assert policy.retry is not None  # retry was not explicit: adopted
        assert policy.p_success(0, 0) == pytest.approx(1 - 0.9**4)

    def test_binding_clears_caches(self):
        policy = ExpectedGainPolicy("MRSF", faults=FailureModel(rate=0.5))
        assert policy.p_success(0, 0) == pytest.approx(0.5)
        policy.bind_reliability(None, RetryPolicy(max_retries=1))
        assert policy.p_success(0, 0) == pytest.approx(1 - 0.5**2)


class TestExpectedGainScheduling:
    def test_prefers_reliable_resource_under_contention(self):
        # Blind S-EDF probes the more urgent EI on the flaky resource;
        # the expected-gain wrapper sees that 90% of that gain evaporates
        # and spends the budget on the reliable resource instead.
        ceis = [make_cei((0, 0, 2)), make_cei((1, 0, 5))]
        faults = FailureModel(per_resource={0: 0.9}, seed=1)

        def first_probe(policy_name):
            from repro.core.profile import ProfileSet
            from repro.online.arrivals import arrivals_from_profiles
            from repro.online.monitor import OnlineMonitor

            monitor = OnlineMonitor(
                make_policy(policy_name),
                BudgetVector.constant(1, 6),
                config=MonitorConfig(faults=faults),
            )
            monitor.run(Epoch(6), arrivals_from_profiles(ProfileSet.from_ceis(ceis)))
            return monitor

        blind = first_probe("S-EDF")
        aware = first_probe("EG-S-EDF")
        # Blind spends chronon 0 on resource 0 (deadline 2 beats 5).
        assert 0 in {r for r, t in blind.schedule.pairs() if t == 0} or (
            blind.probes_failed > 0
        )
        # The aware policy's first *successful* capture is resource 1.
        assert 1 in aware.schedule.probes_at(0)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        base=st.sampled_from(["S-EDF", "MRSF", "M-EDF", "W-MRSF"]),
        engine=st.sampled_from(["reference", "vectorized"]),
    )
    def test_property_trivial_model_matches_base(self, seed, base, engine):
        """With a trivial failure model EG-X schedules exactly like X."""
        rng = np.random.default_rng(seed)
        profiles = random_general_instance(
            rng, num_resources=6, num_chronons=20, num_ceis=20,
            max_rank=3, max_width=4,
        )
        epoch, budget = Epoch(20), BudgetVector.constant(2, 20)
        cfg = MonitorConfig(
            engine=engine, faults=FailureModel(rate=0.0, seed=seed)
        )
        assert cfg.faults.is_trivial
        plain = simulate(profiles, epoch, budget, base, config=cfg)
        wrapped = simulate(profiles, epoch, budget, f"EG-{base}", config=cfg)
        assert wrapped.schedule.probes == plain.schedule.probes
        assert wrapped.completeness == plain.completeness


class TestPartialDrops:
    MODEL = FailureModel(rate=0.0, seed=5, partial_rate=0.5)

    def test_empty_and_degenerate_rates(self):
        assert self.MODEL.partial_drops(0, 0, 0, []) == frozenset()
        none = FailureModel(partial_rate=0.0)
        assert none.partial_drops(0, 0, 0, [1, 2, 3]) == frozenset()
        everything = FailureModel(partial_rate=1.0)
        assert everything.partial_drops(0, 0, 0, [3, 1, 2]) == frozenset({1, 2, 3})

    def test_order_independent_and_deterministic(self):
        seqs = [9, 2, 41, 17, 5, 33, 28]
        first = self.MODEL.partial_drops(3, 7, 0, seqs)
        assert first == self.MODEL.partial_drops(3, 7, 0, list(reversed(seqs)))
        again = FailureModel(rate=0.0, seed=5, partial_rate=0.5)
        assert again.partial_drops(3, 7, 0, seqs) == first

    def test_draws_vary_by_coordinates(self):
        seqs = list(range(40))
        by_coord = {
            (r, t, a): self.MODEL.partial_drops(r, t, a, seqs)
            for r in range(3) for t in range(3) for a in range(2)
        }
        assert len(set(by_coord.values())) > 1

    def test_partial_rate_validated(self):
        with pytest.raises(ModelError, match="partial"):
            FailureModel(partial_rate=1.5)

    def test_partial_rate_untrivializes_model(self):
        assert FailureModel().is_trivial
        assert not FailureModel(partial_rate=0.1).is_trivial


class TestRateSchedule:
    def test_entry_coercion_forms(self):
        model = FailureModel(
            rate=0.1,
            rate_schedule=[
                RateWindow(0, 4, 2.0),
                (5, 9, 3.0),
                ((10, 14), 0.5),
            ],
        )
        assert model.rate_schedule == (
            RateWindow(0, 4, 2.0), RateWindow(5, 9, 3.0), RateWindow(10, 14, 0.5),
        )

    def test_multipliers_compound_and_clamp(self):
        model = FailureModel(
            rate=0.4, rate_schedule=[(0, 10, 2.0), (5, 10, 2.0)]
        )
        assert model.rate_multiplier(3) == 2.0
        assert model.rate_multiplier(7) == 4.0
        assert model.rate_multiplier(11) == 1.0
        assert model.failure_rate_at(0, 3) == pytest.approx(0.8)
        assert model.failure_rate_at(0, 7) == 1.0  # 1.6 clamped
        assert model.failure_rate_at(0, 11) == pytest.approx(0.4)

    def test_zero_multiplier_suspends_random_failures(self):
        model = FailureModel(rate=1.0, rate_schedule=[(5, 6, 0.0)])
        assert model.fails(0, 4, 0) and not model.fails(0, 5, 0)

    def test_schedule_alone_keeps_model_trivial(self):
        assert FailureModel(rate=0.0, rate_schedule=[(0, 9, 5.0)]).is_trivial

    def test_window_validation(self):
        with pytest.raises(ModelError, match="rate window"):
            RateWindow(5, 2, 1.0)
        with pytest.raises(ModelError, match="multiplier"):
            RateWindow(0, 5, -0.5)

    def test_window_finish_boundary_is_inclusive_not_beyond(self):
        # Regression guard: a window ending at chronon t applies AT t
        # (finish is inclusive, matching EI windows) but must not leak
        # into t + 1 — an off-by-one here silently doubles failure rates
        # for one extra chronon per storm window.
        window = RateWindow(2, 7, 3.0)
        assert window.covers(7)
        assert not window.covers(8)
        model = FailureModel(rate=0.2, rate_schedule=[window])
        assert model.rate_multiplier(7) == 3.0
        assert model.rate_multiplier(8) == 1.0
        assert model.failure_rate_at(0, 7) == pytest.approx(0.6)
        assert model.failure_rate_at(0, 8) == pytest.approx(0.2)
        # Start boundary mirrors the rule: applies at start, not before.
        assert model.rate_multiplier(1) == 1.0
        assert model.rate_multiplier(2) == 3.0


class TestBatchedDraws:
    def test_matches_itself_across_instances(self):
        a = FailureModel(rate=0.5, seed=21)
        b = FailureModel(rate=0.5, seed=21)
        coords = [(r, t, k) for r in range(10) for t in range(12) for k in range(3)]
        assert [a.fails(*c) for c in coords] == [b.fails(*c) for c in coords]

    def test_prefix_stable_when_resource_width_grows(self):
        model = FailureModel(rate=0.5, seed=22)
        before = [model.fails(r, 0, 0) for r in range(10)]
        model.fails(1000, 0, 0)  # forces the block to widen past 64
        assert [model.fails(r, 0, 0) for r in range(10)] == before

    def test_stable_across_cache_eviction(self):
        model = FailureModel(rate=0.5, seed=23)
        before = [model.fails(r, 0, 0) for r in range(10)]
        for chronon in range(1, 20):  # evicts chronon 0 (cache keeps 8)
            model.fails(0, chronon, 0)
        assert [model.fails(r, 0, 0) for r in range(10)] == before

    def test_attempts_beyond_cap_fall_back_to_scalar(self):
        model = FailureModel(rate=0.5, seed=24)
        legacy = FailureModel(rate=0.5, seed=24, per_attempt_draws=True)
        # At and beyond the cap both schemes serve the identical scalar draw.
        for attempt in (8, 9, 20):
            for r in range(4):
                assert model.fails(r, 3, attempt) == legacy.fails(r, 3, attempt)

    def test_legacy_scheme_is_a_different_universe(self):
        batched = FailureModel(rate=0.5, seed=25)
        legacy = FailureModel(rate=0.5, seed=25, per_attempt_draws=True)
        coords = [(r, t, 0) for r in range(20) for t in range(20)]
        assert [batched.fails(*c) for c in coords] != [legacy.fails(*c) for c in coords]


class TestOutageInjector:
    def test_outage_does_not_consume_attempts_or_budget(self):
        """Regression: a probe during a declared outage used to burn a
        retry attempt (and its budget) even though the verdict was known
        in advance.  The injector now reports the resource as blocked."""
        model = FailureModel(outages=(Outage(resource=0, start=2, finish=4),))
        injector = FaultInjector(model, RetryPolicy(max_retries=1))
        injector.begin_chronon(2)
        assert injector.blocked(0, 2)
        assert not injector.available(0, 2)
        assert injector.attempts_used(0) == 0
        assert injector.stats.attempts == 0
        # Other resources are unaffected, and the window closes cleanly.
        assert injector.available(1, 2)
        injector.begin_chronon(5)
        assert injector.available(0, 5)
        assert injector.attempt(0, 5)
        assert injector.stats.attempts == 1 and injector.stats.failures == 0

    def test_monitor_skips_outage_without_spending(self):
        from repro.core.profile import ProfileSet
        from repro.online.arrivals import arrivals_from_profiles
        from repro.online.monitor import OnlineMonitor

        faults = FailureModel(outages=(Outage(resource=0, start=0, finish=3),))
        monitor = OnlineMonitor(
            make_policy("S-EDF"),
            BudgetVector.constant(1, 8),
            config=MonitorConfig(faults=faults, retry=RetryPolicy(max_retries=2)),
        )
        monitor.run(
            Epoch(8),
            arrivals_from_profiles(ProfileSet.from_ceis([make_cei((0, 0, 7))])),
        )
        for chronon in range(0, 4):
            assert monitor.budget_consumed_at(chronon) == 0.0
        assert monitor.probes_failed == 0
        assert monitor.schedule.is_probed(0, 4)

    def test_failures_by_resource_counted(self):
        model = FailureModel(script=[(0, 0), (0, 1), (2, 0)])
        injector = FaultInjector(model)
        injector.begin_chronon(0)
        injector.attempt(0, 0)
        injector.attempt(1, 0)
        injector.attempt(2, 0)
        injector.begin_chronon(1)
        injector.attempt(0, 1)
        assert injector.stats.failures_by_resource == {0: 2, 2: 1}
        assert injector.stats.failures == 3


class TestWrapperHooks:
    """The expected-gain wrappers forward every hook to their base, so
    they report the base's hooks and the monitor skips the no-ops."""

    @pytest.mark.parametrize("name", ["EG-MRSF", "LEG-MRSF", "SLO-M-EDF", "EG-W-S-EDF"])
    def test_wrapper_reports_its_base_hooks(self, name):
        assert make_policy(name).overridden_hooks() == frozenset()

    def test_hook_using_base_shows_through(self):
        wrapped = ExpectedGainPolicy("EXPECTED-GAIN")
        assert wrapped.overridden_hooks() == make_policy("EXPECTED-GAIN").overridden_hooks()
        assert {"on_chronon_start", "on_probe", "on_ei_activated"} <= wrapped.overridden_hooks()
        assert "select_resources" in ExpectedGainPolicy("WIC").overridden_hooks()

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        name=st.sampled_from(["EG-MRSF", "LEG-MRSF", "SLO-S-EDF", "EG-M-EDF"]),
        engine=st.sampled_from(["reference", "vectorized"]),
        rate=st.sampled_from([0.0, 0.3]),
    )
    def test_schedules_match_every_hook_forced_on(self, seed, name, engine, rate):
        """Skipping the forwarded no-op hooks changes no schedule."""
        from repro.online.health import HealthConfig
        from repro.policies.base import HOOKS

        rng = np.random.default_rng(seed)
        profiles = random_general_instance(
            rng, num_resources=6, num_chronons=30, num_ceis=24,
            max_rank=3, max_width=4,
        )
        epoch, budget = Epoch(30), BudgetVector.constant(1, 30)
        cfg = MonitorConfig(
            engine=engine,
            faults=FailureModel(rate=rate, seed=seed) if rate else None,
            health=HealthConfig() if name.startswith("L") and rate else None,
        )
        skipped = make_policy(name)
        forced = make_policy(name)
        forced.overridden_hooks = lambda: frozenset(HOOKS)
        runs = [
            simulate(profiles, epoch, budget, policy, config=cfg)
            for policy in (skipped, forced)
        ]
        assert runs[0].schedule.probes == runs[1].schedule.probes
        assert runs[0].completeness == runs[1].completeness
