"""Unit and behavioural tests for the online monitor (Algorithm 1)."""

import pytest

from repro.core.errors import ModelError
from repro.core.metrics import gained_completeness
from repro.core.profile import ProfileSet
from repro.core.resource import Resource, ResourcePool
from repro.core.schedule import BudgetVector
from repro.core.timebase import Epoch
from repro.online.arrivals import arrival_map, arrivals_from_profiles
from repro.online.config import MonitorConfig
from repro.online.fastpath import FastCandidatePool
from repro.online.monitor import OnlineMonitor
from repro.policies import MRSF, SEDF, make_policy
from repro.sim.arena import compile_arena
from repro.sim.engine import simulate
from tests.conftest import count_chronons, make_cei, make_ei


def run_monitor(ceis, num_chronons, c=1.0, policy=None, preemptive=True, **kwargs):
    monitor = OnlineMonitor(
        policy=policy or SEDF(),
        budget=BudgetVector.constant(c, num_chronons),
        preemptive=preemptive,
        **kwargs,
    )
    monitor.run(Epoch(num_chronons), arrival_map(ceis))
    return monitor


class TestStepping:
    def test_chronons_must_increase(self):
        monitor = OnlineMonitor(SEDF(), BudgetVector.constant(1, 10))
        monitor.step(3)
        with pytest.raises(ModelError):
            monitor.step(3)
        with pytest.raises(ModelError):
            monitor.step(2)

    def test_no_probe_without_candidates(self):
        monitor = OnlineMonitor(SEDF(), BudgetVector.constant(1, 10))
        assert monitor.step(0) == frozenset()
        assert monitor.probes_used == 0

    def test_single_cei_captured(self):
        monitor = run_monitor([make_cei((0, 2, 4))], 10)
        assert monitor.pool.num_satisfied == 1
        assert monitor.schedule.captures_ei(
            make_ei(0, 2, 4)
        )  # a probe fell inside [2, 4]

    def test_budget_never_exceeded(self):
        ceis = [make_cei((r, 0, 3)) for r in range(5)]
        monitor = run_monitor(ceis, 10, c=2.0)
        monitor.check_budget_feasible()
        for chronon in range(10):
            assert len(monitor.schedule.probes_at(chronon)) <= 2

    def test_zero_budget_probes_nothing(self):
        monitor = run_monitor([make_cei((0, 0, 5))], 10, c=0.0)
        assert monitor.probes_used == 0

    def test_probe_captures_all_eis_on_resource(self):
        ceis = [make_cei((0, 0, 5)), make_cei((0, 2, 8))]
        monitor = run_monitor(ceis, 10)
        # One probe of resource 0 within [2, 5] can serve both CEIs.
        assert monitor.pool.num_satisfied == 2
        assert monitor.probes_used <= 2

    def test_overlap_ablation_captures_single_ei(self):
        ceis = [make_cei((0, 0, 0)), make_cei((0, 0, 0))]
        monitor = run_monitor(ceis, 1, exploit_overlap=False)
        assert monitor.pool.num_satisfied == 1

    def test_expired_cei_counted_failed(self):
        ceis = [make_cei((0, 0, 0)), make_cei((1, 0, 0))]
        monitor = run_monitor(ceis, 5, c=1.0)
        assert monitor.pool.num_satisfied == 1
        assert monitor.pool.num_failed == 1

    def test_believed_completeness(self):
        ceis = [make_cei((0, 0, 0)), make_cei((1, 0, 0))]
        monitor = run_monitor(ceis, 5)
        assert monitor.believed_completeness == pytest.approx(0.5)

    def test_believed_completeness_empty_run(self):
        monitor = OnlineMonitor(SEDF(), BudgetVector.constant(1, 5))
        assert monitor.believed_completeness == 1.0


class TestPreemption:
    def _competitive_instance(self):
        # An in-progress CEI competes with a fresh one on the same chronon.
        started = make_cei((0, 0, 1), (1, 2, 2))
        fresh = make_cei((2, 2, 2))
        return [started, fresh]

    def test_non_preemptive_prefers_started_cei(self):
        monitor = run_monitor(
            self._competitive_instance(), 5, policy=SEDF(), preemptive=False
        )
        # At chronon 2 both (1,2,2) and (2,2,2) are candidates; the
        # non-preemptive pass must finish the started CEI first.
        assert monitor.schedule.is_probed(1, 2)

    def test_preemptive_follows_policy_order(self):
        policy = SEDF()
        monitor = run_monitor(
            self._competitive_instance(), 5, policy=policy, preemptive=True
        )
        # Both candidates have equal deadline; tie-break by seq favours the
        # started CEI's second EI (created earlier) — still probed, but via
        # the global ranking rather than the cands+ phase.
        assert monitor.schedule.is_probed(1, 2)

    def test_preemption_changes_outcome_under_pressure(self):
        # Non-preemptive S-EDF wastes the chronon-2 probe on the started
        # CEI even though it can never be completed.
        started = make_cei((0, 0, 1), (1, 2, 2), (3, 10, 10))
        # make the started CEI impossible: EI on resource 3 at chronon 10
        # exists, but resource 4's fresh CEI shares chronon 2.
        fresh = make_cei((4, 2, 2))
        hog = make_cei((3, 10, 10))
        ceis = [started, fresh, hog]
        non_preemptive = run_monitor(list(ceis), 12, policy=MRSF(), preemptive=False)
        assert non_preemptive.schedule.is_probed(1, 2)

    def test_mrsf_preemptive_prefers_low_residual(self):
        big = make_cei((0, 0, 0), (1, 0, 5), (2, 0, 5))
        small = make_cei((3, 0, 0))
        monitor = run_monitor([big, small], 6, policy=MRSF(), preemptive=True)
        # At chronon 0 MRSF prefers the rank-1 CEI (residual 1 < 3).
        assert monitor.schedule.is_probed(3, 0)


class TestSiblingRefresh:
    def test_capture_promotes_siblings_same_chronon(self):
        # Budget 2: after capturing one EI of the pair CEI, its sibling's
        # MRSF residual drops to 1 and must win over the fresh rank-2 CEI.
        pair = make_cei((0, 0, 0), (1, 0, 0))
        other = make_cei((2, 0, 0), (3, 0, 5))
        monitor = run_monitor([pair, other], 6, c=2.0, policy=MRSF())
        assert monitor.schedule.is_probed(0, 0)
        assert monitor.schedule.is_probed(1, 0)
        assert monitor.pool.captured_count(pair) == 2


class TestPushAndCosts:
    def test_push_enabled_resource_captured_for_free(self):
        pool = ResourcePool([Resource(rid=0, push_enabled=True), Resource(rid=1)])
        ceis = [make_cei((0, 2, 5)), make_cei((1, 2, 5))]
        monitor = OnlineMonitor(
            SEDF(), BudgetVector.constant(1, 10), resources=pool
        )
        monitor.run(Epoch(10), arrival_map(ceis))
        assert monitor.pool.num_satisfied == 2
        # The push capture consumed no budget.
        assert monitor.budget_consumed_at(2) <= 1.0
        monitor.check_budget_feasible()

    def test_heterogeneous_costs_respected(self):
        pool = ResourcePool(
            [Resource(rid=0, probe_cost=3.0), Resource(rid=1, probe_cost=1.0)]
        )
        ceis = [make_cei((0, 0, 0)), make_cei((1, 0, 0))]
        monitor = OnlineMonitor(
            SEDF(), BudgetVector.constant(1, 3), resources=pool
        )
        monitor.run(Epoch(3), arrival_map(ceis))
        # Resource 0 costs 3 > budget 1; only resource 1 is probed.
        assert monitor.schedule.is_probed(1, 0)
        assert not monitor.schedule.is_probed(0, 0)

    def test_expensive_resource_fits_bigger_budget(self):
        pool = ResourcePool(
            [Resource(rid=0, probe_cost=3.0), Resource(rid=1, probe_cost=1.0)]
        )
        ceis = [make_cei((0, 0, 0)), make_cei((1, 0, 0))]
        monitor = OnlineMonitor(
            SEDF(), BudgetVector.constant(4, 3), resources=pool
        )
        monitor.run(Epoch(3), arrival_map(ceis))
        assert monitor.schedule.is_probed(0, 0)
        assert monitor.schedule.is_probed(1, 0)


class TestArrivals:
    def test_arrival_map_groups_by_release(self):
        a = make_cei((0, 3, 5), (1, 7, 9))
        b = make_cei((2, 3, 4))
        arrivals = arrival_map([a, b])
        assert set(arrivals) == {3}
        assert len(arrivals[3]) == 2

    def test_arrivals_from_profiles(self):
        profiles = ProfileSet.from_ceis([make_cei((0, 2, 4))])
        arrivals = arrivals_from_profiles(profiles)
        assert 2 in arrivals

    def test_run_returns_schedule_consistent_with_metrics(self):
        ceis = [make_cei((0, 0, 3)), make_cei((1, 1, 4))]
        profiles = ProfileSet.from_ceis(ceis)
        monitor = OnlineMonitor(SEDF(), BudgetVector.constant(1, 6))
        schedule = monitor.run(Epoch(6), arrivals_from_profiles(profiles))
        assert gained_completeness(profiles, schedule) == monitor.believed_completeness


class TestResourceLevelPolicies:
    def test_wic_probes_resources_without_active_eis(self):
        # Resource 0 updates at chronon 0 (w=0 EI); WIC keeps its content
        # alive (overwrite life) and may probe it at chronon 1 even though
        # the EI is already dead.
        wic = make_policy("WIC")
        ceis = [make_cei((0, 0, 0)), make_cei((1, 0, 0))]
        monitor = OnlineMonitor(wic, BudgetVector.constant(1, 3))
        monitor.run(Epoch(3), arrival_map(ceis))
        probed_chronon_1 = monitor.schedule.probes_at(1)
        assert probed_chronon_1  # stale content still attracts WIC probes


class TestBoundaries:
    def test_grow_rows_from_zero_capacity_terminates(self):
        # An owned arena starts with zero-capacity mirrors and the pool
        # with zero-capacity records: growth must still cover the rows.
        pool = FastCandidatePool()
        assert pool.npr_seq.size == pool.np_active.size == 0
        pool.register(make_cei(*((r, 0, 4) for r in range(5))), 0)
        assert pool._arena.npr_seq.size >= 5
        assert pool.npr_seq is pool._arena.npr_seq
        assert pool.np_active.size >= 5 and pool.npr_state.size >= 5

    def test_grow_ceis_from_zero_capacity_terminates(self):
        pool = FastCandidatePool()
        assert pool.npc_rank_f.size == pool.npc_captured_f.size == 0
        for r in range(3):
            pool.register(make_cei((r, 0, 4)), 0)
        assert pool._arena.npc_rank_f.size >= 3
        assert pool.npc_rank_f is pool._arena.npc_rank_f
        for name in ("npc_state", "npc_captured_f", "npc_medf_s_f", "npc_medf_open_f"):
            assert getattr(pool, name).size >= 3

    def test_empty_arena_pool_follows_the_arena_capacity(self):
        # The records take the arena's mirror capacity, zero for an empty
        # compile; the mirrors grow to max(needed, 2 * capacity), which
        # cannot stall at zero.
        pool = FastCandidatePool(arena=compile_arena(ProfileSet()))
        assert pool.np_active.size == pool.npr_seq.size == 0
        assert pool.npc_state.size == pool.npc_rank_f.size == 0

    def test_empty_arena_runs(self):
        arena = compile_arena(ProfileSet())
        monitor = OnlineMonitor(
            make_policy("MRSF"),
            BudgetVector.constant(1, 10),
            config=MonitorConfig(engine="vectorized"),
            arena=arena,
        )
        processed = count_chronons(monitor)
        monitor.run(Epoch(10), arena.arrivals)
        assert monitor.probes_used == 0
        assert processed == []  # all ten chronons skipped as idle

    def test_single_row_instance_both_engines(self):
        profiles = ProfileSet.from_ceis([make_cei((0, 2, 6))])
        epoch = Epoch(10)
        budget = BudgetVector.constant(1, 10)
        ref = simulate(profiles, epoch, budget, "S-EDF",
                       config=MonitorConfig(engine="reference"))
        vec = simulate(compile_arena(profiles), epoch, budget, "S-EDF",
                       config=MonitorConfig(engine="vectorized"))
        assert ref.schedule.probes == vec.schedule.probes
        assert vec.probes_used == 1
