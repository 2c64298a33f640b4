"""Differential property tests of the online monitor.

These pin down engine equivalences that must hold regardless of policy
or workload, catching subtle regressions that output-level tests miss.
Every run also goes through the vectorized engine, which must schedule
identically and, like the reference run, satisfy the paper on its own
(:func:`tests.conftest.check_paper_invariants`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import gained_completeness
from repro.core.schedule import BudgetVector
from repro.core.timebase import Epoch
from repro.online.arrivals import arrivals_from_profiles
from repro.online.config import ENGINES, MonitorConfig
from repro.online.monitor import OnlineMonitor
from repro.policies import make_policy
from tests.conftest import (
    check_paper_invariants,
    random_general_instance,
    random_unit_instance,
)


def run_once(profiles, num_chronons, policy_name, c=1.0, preemptive=True):
    """One run per engine; returns the reference engine's monitor.

    Both runs are held to the paper, and the vectorized schedule must
    equal the reference one.
    """
    epoch = Epoch(num_chronons)
    budget = BudgetVector.constant(c, num_chronons)
    runs = {}
    for engine in ENGINES:
        monitor = OnlineMonitor(
            make_policy(policy_name),
            budget,
            preemptive=preemptive,
            config=MonitorConfig(engine=engine),
        )
        monitor.run(epoch, arrivals_from_profiles(profiles))
        check_paper_invariants(monitor, profiles, budget, epoch)
        runs[engine] = monitor
    assert runs["vectorized"].schedule.probes == runs["reference"].schedule.probes
    return runs["reference"]


class TestDeterminism:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_identical_runs_produce_identical_schedules(self, seed):
        profiles = random_general_instance(np.random.default_rng(seed))
        a = run_once(profiles, 25, "MRSF")
        b = run_once(profiles, 25, "MRSF")
        assert a.schedule.probes == b.schedule.probes

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_step_granularity_is_irrelevant(self, seed):
        """Stepping one chronon at a time equals a batched run."""
        profiles = random_general_instance(np.random.default_rng(seed))
        arrivals = arrivals_from_profiles(profiles)
        batched = run_once(profiles, 25, "M-EDF")

        for engine in ENGINES:
            budget = BudgetVector.constant(1, 25)
            stepped = OnlineMonitor(
                make_policy("M-EDF"), budget, config=MonitorConfig(engine=engine)
            )
            for chronon in range(25):
                stepped.step(chronon, arrivals.get(chronon, ()))
            check_paper_invariants(stepped, profiles, budget, Epoch(25))
            assert stepped.schedule.probes == batched.schedule.probes


class TestPreemptionEquivalences:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_modes_agree_when_budget_is_ample(self, seed):
        """With budget >= distinct active resources, the cands+/cands-
        split cannot matter: everything active is probed either way."""
        profiles = random_unit_instance(
            np.random.default_rng(seed), num_resources=3, num_chronons=10,
            num_ceis=5, max_rank=2,
        )
        preemptive = run_once(profiles, 12, "MRSF", c=3.0, preemptive=True)
        non_preemptive = run_once(profiles, 12, "MRSF", c=3.0, preemptive=False)
        assert preemptive.pool.num_satisfied == non_preemptive.pool.num_satisfied
        assert preemptive.schedule.probes == non_preemptive.schedule.probes


class TestAccountingInvariants:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100_000), c=st.integers(1, 3))
    def test_registered_equals_satisfied_plus_failed_after_epoch(self, seed, c):
        profiles = random_general_instance(np.random.default_rng(seed))
        horizon = max(25, profiles.horizon)
        monitor = run_once(profiles, horizon, "S-EDF", c=float(c))
        pool = monitor.pool
        # After the full epoch no CEI can still be open.
        assert pool.num_open == 0
        assert pool.num_registered == profiles.num_ceis

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_probe_count_matches_schedule(self, seed):
        profiles = random_general_instance(np.random.default_rng(seed))
        monitor = run_once(profiles, 25, "HYBRID")
        assert monitor.probes_used == monitor.schedule.num_probes

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_scoring_agrees_across_policies_on_trivial_budget(self, seed):
        """With effectively unlimited budget every policy captures every
        capturable CEI — policy choice cannot matter."""
        profiles = random_general_instance(
            np.random.default_rng(seed), num_resources=4, num_ceis=6
        )
        results = set()
        for name in ("S-EDF", "MRSF", "M-EDF", "FIFO"):
            monitor = run_once(profiles, 25, name, c=10.0)
            results.add(gained_completeness(profiles, monitor.schedule))
        assert len(results) == 1
        # And that unique value is 1.0: budget 10 >= active resources.
        assert results.pop() == pytest.approx(1.0)
