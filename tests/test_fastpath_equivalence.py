"""Engine equivalence: the vectorized fast path must match the reference.

The vectorized engine is only admissible because it is *bit-for-bit*
indistinguishable from the reference Algorithm 1 transcription: same
probe schedules, same capture bookkeeping, same completeness — across
policies, execution modes, overlap ablation, heterogeneous probe costs
and push resources.  These tests enforce that contract on seeded random
instances and on a hypothesis-generated family.

RANDOM is the one documented exclusion: its priority draws depend on
candidate iteration order, so the two engines consume the RNG
differently.  It stays seeded-reproducible *within* an engine, which is
what its test asserts.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profile import ProfileSet
from repro.core.resource import Resource, ResourcePool
from repro.core.schedule import BudgetVector
from repro.core.timebase import Epoch
from repro.online.arrivals import arrival_map, arrivals_from_profiles
from repro.online.config import MonitorConfig
from repro.online import fastpath
from repro.online.faults import FailureModel, Outage, RetryPolicy
from repro.online.health import HealthConfig
from repro.online.monitor import OnlineMonitor
from repro.online.shedding import SheddingConfig
from repro.policies import MRSF, make_policy
from repro.sim.arena import compile_arena
from repro.sim.engine import simulate
from tests.conftest import (
    DENSE_PAPER,
    SPARSE_PAPER,
    count_steps,
    make_cei,
    paper_instance,
    random_general_instance,
)

PAPER_POLICIES = ["S-EDF", "MRSF", "M-EDF"]
WEIGHTED_POLICIES = ["W-S-EDF", "W-MRSF", "W-M-EDF"]
FALLBACK_POLICIES = ["FIFO", "ROUND-ROBIN", "WIC", "EXPECTED-GAIN"]
RELIABILITY_POLICIES = ["EG-S-EDF", "EG-MRSF", "EG-M-EDF", "EG-W-MRSF"]

NUM_CHRONONS = 30


def _instance(seed: int, num_ceis: int = 40):
    rng = np.random.default_rng(seed)
    profiles = random_general_instance(
        rng,
        num_resources=8,
        num_chronons=NUM_CHRONONS,
        num_ceis=num_ceis,
        max_rank=4,
        max_width=5,
    )
    return arrival_map(cei for profile in profiles for cei in profile.ceis)


def _run(
    engine: str,
    policy,
    arrivals,
    budget: float = 2.0,
    faults=None,
    retry=None,
    health=None,
    shedding=None,
    **kwargs,
) -> OnlineMonitor:
    monitor = OnlineMonitor(
        policy=policy,
        budget=BudgetVector.constant(budget, NUM_CHRONONS),
        config=MonitorConfig(
            engine=engine, faults=faults, retry=retry, health=health,
            shedding=shedding,
        ),
        **kwargs,
    )
    monitor.run(Epoch(NUM_CHRONONS), arrivals)
    monitor.check_budget_feasible()
    return monitor


def assert_engines_agree(policy_name: str, arrivals, budget: float = 2.0, **kwargs):
    ref = _run("reference", make_policy(policy_name), arrivals, budget, **kwargs)
    vec = _run("vectorized", make_policy(policy_name), arrivals, budget, **kwargs)
    assert vec.schedule.probes == ref.schedule.probes
    assert vec.probes_used == ref.probes_used
    assert vec.probes_failed == ref.probes_failed
    assert vec.retries_used == ref.retries_used
    assert vec.pool.num_satisfied == ref.pool.num_satisfied
    assert vec.pool.num_failed == ref.pool.num_failed
    assert vec.believed_completeness == ref.believed_completeness
    assert vec.fault_stats == ref.fault_stats
    assert vec.dropped_captures == ref.dropped_captures
    if ref.shedding_stats is not None or vec.shedding_stats is not None:
        assert vec.shedding_stats.as_dict() == ref.shedding_stats.as_dict()
    for chronon in range(NUM_CHRONONS):
        assert vec.budget_consumed_at(chronon) == ref.budget_consumed_at(chronon)
    return ref, vec


class TestKernelPolicies:
    """The batched-kernel policies across every execution mode."""

    @pytest.mark.parametrize("policy_name", PAPER_POLICIES + WEIGHTED_POLICIES)
    @pytest.mark.parametrize("preemptive", [True, False])
    @pytest.mark.parametrize("exploit_overlap", [True, False])
    def test_schedules_identical(self, policy_name, preemptive, exploit_overlap):
        for seed in (1, 2, 3):
            assert_engines_agree(
                policy_name,
                _instance(seed),
                preemptive=preemptive,
                exploit_overlap=exploit_overlap,
            )

    def test_unit_weights_match_unweighted(self):
        """Sanity: with all weights 1 the weighted kernels change nothing."""
        arrivals = _instance(7)
        base = _run("vectorized", make_policy("MRSF"), arrivals)
        weighted = _run("vectorized", make_policy("W-MRSF"), arrivals)
        assert weighted.schedule.probes == base.schedule.probes


class TestFallbackPolicies:
    """Kernel-less policies run the reference loop over the fast pool."""

    @pytest.mark.parametrize("policy_name", FALLBACK_POLICIES)
    def test_schedules_identical(self, policy_name):
        assert_engines_agree(policy_name, _instance(4))

    def test_mrsf_profile_rank_variant_falls_back(self):
        arrivals = _instance(5)
        ref = _run("reference", MRSF(use_profile_rank=True), arrivals)
        vec = _run("vectorized", MRSF(use_profile_rank=True), arrivals)
        assert vec._kernel is None  # the variant reads profile state
        assert vec.schedule.probes == ref.schedule.probes

    def test_random_policy_reproducible_per_engine(self):
        """RANDOM is excluded from cross-engine equality by design."""
        arrivals = _instance(6)
        runs = [
            _run(engine, make_policy("RANDOM", seed=99), arrivals)
            for engine in ("vectorized", "vectorized", "reference", "reference")
        ]
        assert runs[0].schedule.probes == runs[1].schedule.probes
        assert runs[2].schedule.probes == runs[3].schedule.probes


class TestResourceModels:
    """Cost and push extensions must survive vectorization untouched."""

    @staticmethod
    def _pool(push: bool = False) -> ResourcePool:
        return ResourcePool(
            [
                Resource(
                    rid=i,
                    name=f"r{i}",
                    probe_cost=1.0 + (i % 3),
                    push_enabled=push and i % 2 == 0,
                )
                for i in range(8)
            ]
        )

    @pytest.mark.parametrize("policy_name", PAPER_POLICIES)
    @pytest.mark.parametrize("preemptive", [True, False])
    def test_heterogeneous_costs(self, policy_name, preemptive):
        assert_engines_agree(
            policy_name,
            _instance(8),
            budget=3.0,
            resources=self._pool(),
            preemptive=preemptive,
        )

    @pytest.mark.parametrize("policy_name", PAPER_POLICIES)
    def test_push_resources(self, policy_name):
        ref, vec = assert_engines_agree(
            policy_name, _instance(9), budget=2.0, resources=self._pool(push=True)
        )
        # The instance is dense enough that pushes actually fired.
        assert ref.schedule.num_probes > ref.probes_used

    def test_incremental_budget_matches_schedule_rescan(self):
        """budget_consumed_at must equal a from-scratch schedule rescan."""
        resources = self._pool(push=True)
        vec = _run(
            "vectorized", make_policy("MRSF"), _instance(10), 3.0, resources=resources
        )
        for chronon in range(NUM_CHRONONS):
            expected = sum(
                resources.probe_cost(rid)
                for rid in vec.schedule.probes_at(chronon)
                if (rid, chronon) not in vec._push_probes
            )
            assert vec.budget_consumed_at(chronon) == pytest.approx(expected)


class TestFaultEquivalence:
    """Seeded fault scripts must not open daylight between the engines.

    FailureModel verdicts are pure functions of (resource, chronon,
    attempt), so the engines' different internal probe orders see the
    same fault universe; these tests pin that contract, retries and
    backoff included.
    """

    @pytest.mark.parametrize("policy_name", PAPER_POLICIES + FALLBACK_POLICIES)
    @pytest.mark.parametrize("rate", [0.2, 0.5])
    def test_random_failures(self, policy_name, rate):
        ref, vec = assert_engines_agree(
            policy_name,
            _instance(11),
            faults=FailureModel(rate=rate, seed=5),
        )
        assert ref.probes_failed > 0  # the fault path actually exercised

    @pytest.mark.parametrize("policy_name", PAPER_POLICIES)
    @pytest.mark.parametrize("max_retries", [1, 3])
    def test_failures_with_retries(self, policy_name, max_retries):
        ref, vec = assert_engines_agree(
            policy_name,
            _instance(12),
            faults=FailureModel(rate=0.4, seed=6),
            retry=RetryPolicy(max_retries=max_retries),
        )
        assert ref.retries_used > 0

    @pytest.mark.parametrize("policy_name", PAPER_POLICIES)
    def test_backoff(self, policy_name):
        assert_engines_agree(
            policy_name,
            _instance(13),
            faults=FailureModel(rate=0.5, seed=7),
            retry=RetryPolicy(max_retries=1, backoff_base=1.0, backoff_cap=4),
        )

    def test_scripted_faults_and_outages(self):
        script = {(r, t): 1 for r in range(8) for t in range(0, NUM_CHRONONS, 3)}
        faults = FailureModel(
            script=script,
            outages=(Outage(resource=2, start=5, finish=15),),
            seed=8,
        )
        ref, vec = assert_engines_agree("MRSF", _instance(14), faults=faults)
        # Outage chronons never even attempt resource 2.
        for chronon in range(5, 16):
            assert not ref.schedule.is_probed(2, chronon)

    def test_faults_with_heterogeneous_costs_and_push(self):
        pool = ResourcePool(
            [
                Resource(
                    rid=i,
                    name=f"r{i}",
                    probe_cost=1.0 + (i % 3),
                    push_enabled=i % 2 == 0,
                )
                for i in range(8)
            ]
        )
        assert_engines_agree(
            "MRSF",
            _instance(15),
            budget=3.0,
            resources=pool,
            faults=FailureModel(rate=0.3, seed=9),
            retry=RetryPolicy(max_retries=2),
        )


class TestReliabilityEquivalence:
    """The reliability extensions must not open daylight between engines.

    Expected-gain policies score rows resource-dependently (the batched
    kernel divides by a p_success array), partial verdicts drop
    individual EIs from otherwise-successful probes, and rate schedules
    make the effective failure rate chronon-dependent.  All three must
    produce bit-identical schedules, fault statistics and dropped-capture
    sets on both engines.
    """

    HETEROGENEOUS = {1: 0.7, 3: 0.05, 5: 0.4}

    @pytest.mark.parametrize("policy_name", RELIABILITY_POLICIES)
    def test_expected_gain_policies(self, policy_name):
        ref, vec = assert_engines_agree(
            policy_name,
            _instance(16),
            faults=FailureModel(rate=0.25, per_resource=self.HETEROGENEOUS, seed=10),
            retry=RetryPolicy(max_retries=2),
        )
        assert ref.probes_failed > 0

    @pytest.mark.parametrize("policy_name", ["MRSF", "EG-MRSF"])
    @pytest.mark.parametrize("exploit_overlap", [True, False])
    def test_partial_verdicts(self, policy_name, exploit_overlap):
        ref, vec = assert_engines_agree(
            policy_name,
            _instance(17),
            faults=FailureModel(rate=0.2, seed=11, partial_rate=0.4),
            retry=RetryPolicy(max_retries=1),
            exploit_overlap=exploit_overlap,
        )
        if exploit_overlap:
            assert ref.dropped_captures  # partial drops actually exercised

    @pytest.mark.parametrize("policy_name", ["S-EDF", "EG-S-EDF"])
    def test_rate_schedule(self, policy_name):
        faults = FailureModel(
            rate=0.15,
            seed=12,
            rate_schedule=[(5, 12, 3.0), (20, 25, 0.0)],
        )
        ref, vec = assert_engines_agree(
            policy_name, _instance(18), faults=faults,
            retry=RetryPolicy(max_retries=1),
        )
        assert ref.probes_failed > 0

    def test_combined_reliability_model(self):
        """Everything at once: EG policy, partials, schedule, outage, retry."""
        faults = FailureModel(
            rate=0.25,
            per_resource=self.HETEROGENEOUS,
            outages=(Outage(resource=4, start=8, finish=14),),
            seed=13,
            partial_rate=0.3,
            rate_schedule=[(10, 20, 1.5)],
        )
        ref, vec = assert_engines_agree(
            "EG-MRSF",
            _instance(19),
            budget=3.0,
            faults=faults,
            retry=RetryPolicy(max_retries=2, backoff_base=1.0, backoff_cap=4),
        )
        assert ref.probes_failed > 0 and ref.dropped_captures
        # The outage fix: a known-down resource is never even attempted.
        for chronon in range(8, 15):
            assert not ref.schedule.is_probed(4, chronon)

    def test_legacy_per_attempt_draws_agree_across_engines(self):
        """The legacy draw scheme is a different universe, same contract."""
        assert_engines_agree(
            "MRSF",
            _instance(20),
            faults=FailureModel(rate=0.3, seed=14, per_attempt_draws=True),
            retry=RetryPolicy(max_retries=1),
        )


@contextlib.contextmanager
def topk_knobs(enabled=True, overflow=None, growth=None):
    """Temporarily override the top-k module knobs, restoring on exit."""
    saved = (fastpath.TOPK_ENABLED, fastpath.TOPK_OVERFLOW, fastpath.TOPK_GROWTH)
    try:
        fastpath.TOPK_ENABLED = enabled
        if overflow is not None:
            fastpath.TOPK_OVERFLOW = overflow
        if growth is not None:
            fastpath.TOPK_GROWTH = growth
        yield
    finally:
        fastpath.TOPK_ENABLED, fastpath.TOPK_OVERFLOW, fastpath.TOPK_GROWTH = saved


class TestTopKSelection:
    """Top-k phase selection only reorders *when* keys materialize.

    The phase walk must see the identical candidate sequence whether the
    bag is fully lexsorted up front or materialized in argpartition
    slices.  Shrinking ``TOPK_OVERFLOW`` to zero and growth to 2 forces
    the widening path — bound violations from the overlay heap, stream
    exhaustion mid-phase, tie absorption at the cut — on instances small
    enough that the default knobs would never widen.
    """

    @pytest.mark.parametrize("policy_name", PAPER_POLICIES + WEIGHTED_POLICIES)
    @pytest.mark.parametrize("preemptive", [True, False])
    def test_tiny_cuts_force_widening(self, policy_name, preemptive):
        with topk_knobs(overflow=0, growth=2):
            for seed in (31, 32):
                assert_engines_agree(
                    policy_name,
                    _instance(seed),
                    budget=1.0,  # cut of ~1 row per phase: maximal widening
                    preemptive=preemptive,
                )

    @pytest.mark.parametrize("policy_name", PAPER_POLICIES)
    def test_disabled_equals_enabled(self, policy_name):
        arrivals = _instance(33)
        with topk_knobs(enabled=True):
            topk = _run("vectorized", make_policy(policy_name), arrivals)
        with topk_knobs(enabled=False):
            full = _run("vectorized", make_policy(policy_name), arrivals)
        assert topk.schedule.probes == full.schedule.probes
        assert topk.believed_completeness == full.believed_completeness

    @pytest.mark.parametrize("policy_name", ["MRSF", "EG-MRSF", "LEG-MRSF"])
    def test_tiny_cuts_under_faults(self, policy_name):
        """Widening interleaved with fault skips and overlay re-ranks."""
        health = HealthConfig() if policy_name.startswith("LEG") else None
        with topk_knobs(overflow=0, growth=2):
            ref, vec = assert_engines_agree(
                policy_name,
                _instance(34),
                budget=1.0,
                faults=FailureModel(rate=0.4, seed=21, partial_rate=0.3),
                retry=RetryPolicy(max_retries=2),
                health=health,
            )
        assert ref.probes_failed > 0

    def test_tiny_cuts_with_heterogeneous_costs(self):
        """Non-unit probe costs shrink the budget-derived initial cut."""
        pool = ResourcePool(
            [Resource(rid=i, name=f"r{i}", probe_cost=1.0 + (i % 3)) for i in range(8)]
        )
        with topk_knobs(overflow=0, growth=2):
            assert_engines_agree("MRSF", _instance(35), budget=3.0, resources=pool)

    def test_mirror_reallocs_grow_logarithmically(self):
        """Counter sanity: syncing after every register stays O(log n)."""
        from repro.online.fastpath import FastCandidatePool

        rng = np.random.default_rng(40)
        profiles = random_general_instance(
            rng,
            num_resources=8,
            num_chronons=NUM_CHRONONS,
            num_ceis=120,
            max_rank=4,
            max_width=5,
        )
        pool = FastCandidatePool()
        for profile in profiles:
            for cei in profile.ceis:
                pool.register(cei, cei.release)
                pool.sync_mirrors()
        rows = len(pool.row_seq)
        assert rows > 100
        assert pool.mirror_reallocs <= 2 * (int(np.ceil(np.log2(rows))) + 2)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    policy_name=st.sampled_from(PAPER_POLICIES),
    overflow=st.sampled_from([0, 1, 4]),
    budget=st.sampled_from([1.0, 2.0]),
    preemptive=st.booleans(),
)
def test_property_topk_widening_agrees(
    seed, policy_name, overflow, budget, preemptive
):
    """Property form: any cut size, the widening walk stays bit-identical."""
    with topk_knobs(overflow=overflow, growth=2):
        assert_engines_agree(
            policy_name,
            _instance(seed, num_ceis=25),
            budget=budget,
            preemptive=preemptive,
        )


LEARNED_POLICIES = ["LEG-S-EDF", "LEG-MRSF", "LEG-M-EDF"]
SLO_POLICIES = ["SLO-MRSF", "LSLO-S-EDF", "LSLO-MRSF", "LSLO-M-EDF"]


class TestLearnedHealthEquivalence:
    """Learned estimates, breakers and SLO discounts stay bit-identical.

    The learned policies rank by health estimates that shift every
    chronon, the breaker masks resources in and out of the candidate
    set, and the SLO kernel exponentiates p_success by per-client
    weights — each a fresh opportunity for the scalar and batched paths
    to disagree.  Health stats are asserted equal too: both engines
    must feed the estimator the same observation stream.
    """

    def _agree(self, policy_name, arrivals, health, **kwargs):
        ref, vec = assert_engines_agree(
            policy_name, arrivals, health=health, **kwargs
        )
        if health is not None:
            assert ref.health_stats.as_dict() == vec.health_stats.as_dict()
        return ref, vec

    @pytest.mark.parametrize("policy_name", LEARNED_POLICIES)
    def test_learned_expected_gain(self, policy_name):
        ref, vec = self._agree(
            policy_name,
            _instance(21),
            HealthConfig(),
            faults=FailureModel(rate=0.3, per_resource={2: 0.8}, seed=15),
            retry=RetryPolicy(max_retries=2),
        )
        assert ref.probes_failed > 0
        assert ref.health_stats.observations == ref.probes_used

    @pytest.mark.parametrize(
        "health",
        [
            HealthConfig(estimator="ewma", ewma_alpha=0.3),
            HealthConfig(decay=0.9),
            HealthConfig(estimator="ewma", ewma_alpha=0.5, decay=0.8),
        ],
        ids=["ewma", "beta-decay", "ewma-decay"],
    )
    def test_estimator_variants(self, health):
        self._agree(
            "LEG-MRSF",
            _instance(22),
            health,
            faults=FailureModel(rate=0.35, seed=16),
            retry=RetryPolicy(max_retries=1),
        )

    def test_circuit_breaker_masks_identically(self):
        health = HealthConfig(
            breaker=True, breaker_failures=2, cooldown=3, cooldown_factor=2.0
        )
        ref, vec = self._agree(
            "LEG-MRSF",
            _instance(23),
            health,
            faults=FailureModel(rate=0.2, per_resource={0: 1.0, 4: 0.9}, seed=17),
            retry=RetryPolicy(max_retries=1),
        )
        assert ref.health_stats.opens >= 1
        assert ref.health_stats.short_circuited > 0

    @pytest.mark.parametrize("policy_name", SLO_POLICIES)
    def test_slo_weighted_discounts(self, policy_name):
        # random_general_instance draws non-unit CEI weights, so the
        # utility exponent in the SLO kernel is genuinely exercised.
        health = HealthConfig() if policy_name.startswith("LSLO") else None
        ref, vec = self._agree(
            policy_name,
            _instance(24),
            health,
            faults=FailureModel(rate=0.3, per_resource={1: 0.7}, seed=18),
            retry=RetryPolicy(max_retries=2),
        )
        assert ref.probes_failed > 0

    @pytest.mark.parametrize("policy_name", ["MRSF", "LEG-MRSF"])
    def test_partial_retry_reprobes(self, policy_name):
        health = HealthConfig() if policy_name.startswith("LEG") else None
        ref, vec = self._agree(
            policy_name,
            _instance(25),
            health,
            budget=3.0,
            faults=FailureModel(
                rate=0.1, partial_rate=0.5, per_attempt_draws=True, seed=19
            ),
            retry=RetryPolicy(max_retries=2, retry_partials=True),
        )
        assert ref.retries_used > 0
        assert ref.dropped_captures

    def test_combined_learned_stack(self):
        """Everything at once: learned SLO, breaker, partials, schedule."""
        faults = FailureModel(
            rate=0.25,
            per_resource={1: 0.8, 6: 0.6},
            outages=(Outage(resource=3, start=5, finish=9),),
            seed=20,
            partial_rate=0.3,
            per_attempt_draws=True,
            rate_schedule=[(12, 18, 2.0)],
        )
        health = HealthConfig(
            estimator="ewma",
            ewma_alpha=0.4,
            decay=0.95,
            breaker=True,
            breaker_failures=3,
            cooldown=4,
        )
        ref, vec = self._agree(
            "LSLO-MRSF",
            _instance(26),
            health,
            budget=3.0,
            faults=faults,
            retry=RetryPolicy(
                max_retries=2, backoff_base=1.0, backoff_cap=4, retry_partials=True
            ),
        )
        assert ref.probes_failed > 0 and ref.dropped_captures


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    policy_name=st.sampled_from(LEARNED_POLICIES + ["LSLO-MRSF"]),
    rate=st.sampled_from([0.2, 0.5]),
    breaker=st.booleans(),
    retry_partials=st.booleans(),
)
def test_property_engines_agree_with_learned_health(
    seed, policy_name, rate, breaker, retry_partials
):
    """Property form: learned health never opens daylight between engines."""
    health = HealthConfig(breaker=breaker, breaker_failures=2, cooldown=3)
    assert_engines_agree(
        policy_name,
        _instance(seed, num_ceis=25),
        faults=FailureModel(rate=rate, partial_rate=0.2, seed=seed + 1),
        retry=RetryPolicy(max_retries=1, retry_partials=retry_partials),
        health=health,
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    policy_name=st.sampled_from(PAPER_POLICIES + WEIGHTED_POLICIES),
    preemptive=st.booleans(),
    exploit_overlap=st.booleans(),
    budget=st.sampled_from([1.0, 2.0]),
)
def test_property_engines_agree(seed, policy_name, preemptive, exploit_overlap, budget):
    """Property form: any seeded instance, any mode, identical schedules."""
    assert_engines_agree(
        policy_name,
        _instance(seed, num_ceis=25),
        budget=budget,
        preemptive=preemptive,
        exploit_overlap=exploit_overlap,
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    policy_name=st.sampled_from(PAPER_POLICIES + RELIABILITY_POLICIES),
    rate=st.sampled_from([0.1, 0.3, 0.6]),
    max_retries=st.integers(0, 2),
    partial_rate=st.sampled_from([0.0, 0.5]),
)
def test_property_engines_agree_under_faults(
    seed, policy_name, rate, max_retries, partial_rate
):
    """Property form with nonzero failure rates and retry policies."""
    assert_engines_agree(
        policy_name,
        _instance(seed, num_ceis=25),
        faults=FailureModel(rate=rate, seed=seed + 1, partial_rate=partial_rate),
        retry=RetryPolicy(max_retries=max_retries) if max_retries else None,
    )


class TestSheddingEquivalence:
    """Tiered load shedding must not open daylight between engines.

    The shedder's victim choice is a pure function of per-CEI state both
    engines agree on at every chronon, so enabling it must keep the
    schedules bit-identical.
    """

    #: Aggressive thresholds: a budget-1 run over these instances enters
    #: overload within a few chronons and sheds repeatedly.
    SHED = SheddingConfig(
        overload_on=1.5,
        overload_off=1.1,
        sustain=2,
        target_ratio=1.0,
        soft_weight=3.0,
        hard_weight=6.0,
    )

    @staticmethod
    def _tiered_arrivals(seed: int, num_ceis: int = 40):
        """A seeded instance with cycling utility classes (1, 3, 8)."""
        rng = np.random.default_rng(seed)
        profiles = random_general_instance(
            rng,
            num_resources=8,
            num_chronons=NUM_CHRONONS,
            num_ceis=num_ceis,
            max_rank=4,
            max_width=5,
        )
        weights = (1.0, 1.0, 3.0, 1.0, 8.0)
        for index, cei in enumerate(
            cei for profile in profiles for cei in profile.ceis
        ):
            cei.weight = weights[index % len(weights)]
        return arrival_map(cei for profile in profiles for cei in profile.ceis)

    @pytest.mark.parametrize("policy_name", PAPER_POLICIES + WEIGHTED_POLICIES)
    @pytest.mark.parametrize("preemptive", [True, False])
    def test_shed_schedules_identical(self, policy_name, preemptive):
        for seed in (31, 32):
            ref, vec = assert_engines_agree(
                policy_name,
                self._tiered_arrivals(seed),
                budget=1.0,
                preemptive=preemptive,
                shedding=self.SHED,
            )
            assert ref.shedding_stats.shed_ceis > 0

    def test_shedding_actually_fires(self):
        ref, __ = assert_engines_agree(
            "M-EDF", self._tiered_arrivals(33), budget=1.0, shedding=self.SHED
        )
        stats = ref.shedding_stats
        assert stats.overload_chronons > 0
        assert stats.episodes >= 1
        assert stats.shed_ceis > 0
        assert "hard" not in stats.shed_by_tier

    def test_never_triggered_config_matches_disabled(self):
        """An armed-but-idle shedder is bit-identical to shedding=None."""
        inert = SheddingConfig(overload_on=1e9, overload_off=1e9 - 1)
        arrivals = self._tiered_arrivals(34)
        for engine in ("reference", "vectorized"):
            plain = _run(engine, make_policy("M-EDF"), arrivals, budget=1.0)
            armed = _run(
                engine, make_policy("M-EDF"), arrivals,
                budget=1.0, shedding=inert,
            )
            assert armed.schedule.probes == plain.schedule.probes
            assert armed.shedding_stats.shed_ceis == 0
            assert armed.shedding_stats.released_eis == 0
            assert plain.shedding_stats is None


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    policy_name=st.sampled_from(PAPER_POLICIES),
    preemptive=st.booleans(),
)
def test_property_engines_agree_with_shedding(seed, policy_name, preemptive):
    """Property form: shedding never opens daylight between engines."""
    assert_engines_agree(
        policy_name,
        TestSheddingEquivalence._tiered_arrivals(seed, num_ceis=30),
        budget=1.0,
        preemptive=preemptive,
        shedding=TestSheddingEquivalence.SHED,
    )


class TestBatchedRun:
    """run() batching/skipping is invisible in every observable."""

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    @pytest.mark.parametrize("policy_name", PAPER_POLICIES)
    def test_run_equals_step_loop(self, engine, policy_name):
        epoch, profiles = paper_instance(*SPARSE_PAPER)
        budget = BudgetVector.constant(2, len(epoch))
        arrivals = arrivals_from_profiles(profiles)

        stepped = OnlineMonitor(
            make_policy(policy_name), budget, config=MonitorConfig(engine=engine)
        )
        for chronon in epoch:
            stepped.step(chronon, arrivals.get(chronon, ()))

        batched = OnlineMonitor(
            make_policy(policy_name), budget, config=MonitorConfig(engine=engine)
        )
        batched.run(epoch, arrivals)

        assert batched.schedule.probes == stepped.schedule.probes
        assert batched.probes_used == stepped.probes_used
        assert batched.believed_completeness == stepped.believed_completeness

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_idle_chronons_are_skipped(self, engine):
        # A gap between two windows: the run loop must hop over it.
        profiles = ProfileSet.from_ceis(
            [make_cei((0, 0, 2)), make_cei((1, 40, 44))]
        )
        monitor = OnlineMonitor(
            make_policy("S-EDF"),
            BudgetVector.constant(1, 50),
            config=MonitorConfig(engine=engine),
        )
        stepped = count_steps(monitor)
        monitor.run(Epoch(50), arrivals_from_profiles(profiles))
        assert not any(3 <= t < 40 for t in stepped)
        assert monitor.probes_used == 2

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_custom_chronon_hooks_disable_batching(self, engine):
        # A policy overriding on_chronon_start must see every chronon.
        seen = []

        class Spy(type(make_policy("S-EDF"))):
            def on_chronon_start(self, chronon):
                seen.append(chronon)

        monitor = OnlineMonitor(
            Spy(), BudgetVector.constant(1, 12),
            config=MonitorConfig(engine=engine),
        )
        monitor.run(Epoch(12), {})
        assert seen == list(range(12))


class TestPaperInstances:
    """Paper-style sparse and dense instances through ``simulate``."""

    @pytest.mark.parametrize("policy_name", PAPER_POLICIES)
    @pytest.mark.parametrize("preemptive", [True, False])
    @pytest.mark.parametrize("regime", [SPARSE_PAPER, DENSE_PAPER])
    def test_arena_matches_reference(self, policy_name, preemptive, regime):
        epoch, profiles = paper_instance(*regime)
        budget = BudgetVector.constant(2, len(epoch))
        ref = simulate(
            profiles, epoch, budget, policy_name, preemptive=preemptive,
            config=MonitorConfig(engine="reference"),
        )
        vec = simulate(
            compile_arena(profiles), epoch, budget, policy_name,
            preemptive=preemptive, config=MonitorConfig(engine="vectorized"),
        )
        assert vec.schedule.probes == ref.schedule.probes
        assert vec.completeness == ref.completeness

    @pytest.mark.parametrize("policy_name", PAPER_POLICIES)
    def test_matches_without_arena(self, policy_name):
        epoch, profiles = paper_instance(*DENSE_PAPER)
        budget = BudgetVector.constant(1, len(epoch))
        ref = simulate(profiles, epoch, budget, policy_name,
                       config=MonitorConfig(engine="reference"))
        vec = simulate(profiles, epoch, budget, policy_name,
                       config=MonitorConfig(engine="vectorized"))
        assert vec.schedule.probes == ref.schedule.probes

    def test_with_faults_matches_reference(self):
        epoch, profiles = paper_instance(*SPARSE_PAPER)
        budget = BudgetVector.constant(2, len(epoch))
        outcomes = {
            engine: simulate(
                profiles, epoch, budget, "MRSF",
                config=MonitorConfig(
                    engine=engine,
                    faults=FailureModel(rate=0.3, seed=11),
                    retry=RetryPolicy(max_retries=1),
                ),
            )
            for engine in ("reference", "vectorized")
        }
        ref, vec = outcomes["reference"], outcomes["vectorized"]
        assert vec.schedule.probes == ref.schedule.probes
        assert vec.probes_failed == ref.probes_failed


# ---------------------------------------------------------------------------
# Sharded engine equivalence
# ---------------------------------------------------------------------------


SHARD_COUNTS = [1, 2, 4, 7]


def _profiles(seed: int, num_ceis: int = 40, num_resources: int = 8,
              max_width: int = 5):
    rng = np.random.default_rng(seed)
    return random_general_instance(
        rng,
        num_resources=num_resources,
        num_chronons=NUM_CHRONONS,
        num_ceis=num_ceis,
        max_rank=4,
        max_width=max_width,
    )


def _run_arena(
    policy_name: str,
    profiles,
    budget: float = 2.0,
    shards=None,
    faults=None,
    retry=None,
    health=None,
    shedding=None,
    **kwargs,
) -> OnlineMonitor:
    """One vectorized run over a freshly compiled arena of ``profiles``."""
    arena = compile_arena(profiles)
    monitor = OnlineMonitor(
        policy=make_policy(policy_name),
        budget=BudgetVector.constant(budget, NUM_CHRONONS),
        config=MonitorConfig(
            engine="vectorized", shards=shards, faults=faults, retry=retry,
            health=health, shedding=shedding,
        ),
        arena=arena,
        **kwargs,
    )
    try:
        monitor.run(Epoch(NUM_CHRONONS), arena.arrivals)
    finally:
        monitor.close()
    monitor.check_budget_feasible()
    return monitor


def assert_sharded_agrees(
    policy_name: str, profiles, shards: int, budget: float = 2.0, **kwargs
):
    """A sharded run must be bit-identical to the single-engine run —
    and must have actually stayed sharded for its whole lifetime."""
    base = _run_arena(policy_name, profiles, budget, shards=None, **kwargs)
    cut = _run_arena(policy_name, profiles, budget, shards=shards, **kwargs)
    stats = cut.sharding_stats
    assert stats is not None and stats.shards == shards
    assert stats.demotions == 0, stats.demote_reason
    assert stats.phases > 0
    assert cut.schedule.probes == base.schedule.probes
    assert cut.probes_used == base.probes_used
    assert cut.probes_failed == base.probes_failed
    assert cut.retries_used == base.retries_used
    assert cut.pool.num_satisfied == base.pool.num_satisfied
    assert cut.pool.num_failed == base.pool.num_failed
    assert cut.believed_completeness == base.believed_completeness
    assert cut.fault_stats == base.fault_stats
    assert cut.dropped_captures == base.dropped_captures
    if base.shedding_stats is not None or cut.shedding_stats is not None:
        assert cut.shedding_stats.as_dict() == base.shedding_stats.as_dict()
    for chronon in range(NUM_CHRONONS):
        assert cut.budget_consumed_at(chronon) == base.budget_consumed_at(chronon)
    return base, cut


class TestShardedEquivalence:
    """The shared-memory sharded engine must be bit-identical.

    Per-shard budget-aware top-k streams merge in the coordinator; the
    merge-release rule (release a pending key only once it is below
    every live shard bound) must reproduce the single-engine selection
    order exactly — across policies, execution modes, M-EDF aggregate
    updates, faults, shedding, heterogeneous costs and forced widening.
    Shard count 1 pins the degenerate partition; 7 does not divide the
    resource count, so shards see unequal loads.
    """

    @pytest.mark.parametrize("policy_name", PAPER_POLICIES + WEIGHTED_POLICIES)
    @pytest.mark.parametrize("preemptive", [True, False])
    def test_schedules_identical(self, policy_name, preemptive):
        for shards in SHARD_COUNTS:
            assert_sharded_agrees(
                policy_name, _profiles(41), shards, preemptive=preemptive
            )

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_faults_and_retries(self, shards):
        base, _ = assert_sharded_agrees(
            "M-EDF",
            _profiles(42),
            shards,
            faults=FailureModel(rate=0.4, seed=23, partial_rate=0.3),
            retry=RetryPolicy(max_retries=2),
        )
        assert base.probes_failed > 0 and base.retries_used > 0

    @pytest.mark.parametrize("shards", [2, 4])
    def test_shedding(self, shards):
        base, _ = assert_sharded_agrees(
            "MRSF",
            _profiles(43, num_ceis=80),
            shards,
            budget=1.0,
            shedding=SheddingConfig(
                overload_on=1.2, overload_off=1.0, sustain=2, target_ratio=1.0
            ),
        )
        assert base.shedding_stats.shed_ceis > 0

    @pytest.mark.parametrize("shards", [2, 7])
    def test_heterogeneous_costs(self, shards):
        pool = ResourcePool(
            [Resource(rid=i, name=f"r{i}", probe_cost=1.0 + (i % 3))
             for i in range(8)]
        )
        assert_sharded_agrees(
            "S-EDF", _profiles(44), shards, budget=3.0, resources=pool
        )

    def test_tiny_cuts_force_widening(self):
        """A capture-heavy bag drains the merged stream mid-phase.

        Higher shard counts need fewer widenings (each shard's cut
        covers more of its smaller bag), so the exercised-path assertion
        is on the total across shard counts, not per count.
        """
        profiles = _profiles(45, num_ceis=200, num_resources=6, max_width=6)
        widenings = 0
        with topk_knobs(overflow=0, growth=2):
            for shards in (2, 4):
                _, cut = assert_sharded_agrees(
                    "MRSF", profiles, shards, budget=4.0
                )
                widenings += cut.sharding_stats.widenings
        assert widenings > 0

    def test_topk_disabled_equals_enabled(self):
        profiles = _profiles(46)
        with topk_knobs(enabled=True):
            topk = _run_arena("M-EDF", profiles, shards=4)
        with topk_knobs(enabled=False):
            full = _run_arena("M-EDF", profiles, shards=4)
        assert topk.schedule.probes == full.schedule.probes


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    policy_name=st.sampled_from(PAPER_POLICIES),
    shards=st.sampled_from([2, 3, 5]),
    preemptive=st.booleans(),
)
def test_property_sharded_agrees(seed, policy_name, shards, preemptive):
    """Property form: any partition, the merged walk stays bit-identical."""
    assert_sharded_agrees(
        policy_name,
        _profiles(seed, num_ceis=25),
        shards,
        budget=1.5,
        preemptive=preemptive,
    )
