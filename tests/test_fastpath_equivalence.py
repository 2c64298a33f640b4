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

from repro.core.errors import ModelError
from repro.core.intervals import ComplexExecutionInterval, Semantics
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
from repro.sim.arena import ArenaPatch, apply_patch, compile_arena
from repro.sim.engine import simulate
from tests.conftest import (
    CUTOVERS,
    DENSE_PAPER,
    SPARSE_PAPER,
    batch_cutover,
    check_candidate_bag,
    check_paper_invariants,
    count_chronons,
    count_steps,
    make_cei,
    make_ei,
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


@pytest.fixture
def arena_patch_calls(monkeypatch):
    """The calls made to ``apply_patch`` or to the mirror concatenation of
    a new arena generation while the test runs."""
    from repro.sim import arena as arena_module

    calls = []
    for name in ("apply_patch", "_next_generation"):
        original = getattr(arena_module, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(arena_module, name, spy)
    return calls


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

    def test_mirror_reallocs_grow_logarithmically(self, arena_patch_calls):
        """Counter sanity: syncing after every register stays O(log n).

        The pool compiles each CEI into its own arena in place: the arena
        is never replaced and no patch is applied, so registration stays
        O(new EIs), off the per-patch mirror concatenation."""
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
        owned = pool._arena
        for profile in profiles:
            for cei in profile.ceis:
                pool.register(cei, cei.release)
                pool.sync_mirrors()
        rows = len(pool.row_seq)
        assert rows > 100
        assert pool.mirror_reallocs <= 2 * (int(np.ceil(np.log2(rows))) + 2)
        assert pool._arena is owned and len(owned.row_seq) == rows
        assert arena_patch_calls == []

    def test_mirror_reallocs_grow_logarithmically_under_patches(self):
        """N registering arena patches cost O(log N) mirror reallocations,
        each arrival batch registered as it comes due."""
        from repro.online.fastpath import FastCandidatePool

        arena = compile_arena(_profiles(40, num_ceis=4))
        pool = FastCandidatePool(arena=arena)
        rng = np.random.default_rng(40)
        patches = 128
        with batch_cutover(1):
            for k in range(patches):
                now = k // 8
                cei = make_cei((int(rng.integers(8)), now, now + 3))
                patch = ArenaPatch.registrations([cei], at=now)
                arena = apply_patch(arena, patch, [pool])
                pool.register_arrivals([cei], now, collect=False)
                pool.sync_mirrors()
        assert pool.num_registered == patches
        assert pool.mirror_reallocs <= 2 * (int(np.ceil(np.log2(patches))) + 2)


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
        processed = count_chronons(monitor)
        monitor.run(Epoch(50), arrivals_from_profiles(profiles))
        assert processed == [0, 40]  # each window is probed as it opens
        assert monitor.probes_used == 2

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_run_after_step_raises_like_the_step_loop(self, engine):
        # The leading chronons are idle: hopping them must not hide that
        # the epoch starts at or before the clock.
        arrivals = arrivals_from_profiles(ProfileSet.from_ceis([make_cei((0, 6, 8))]))
        monitor = OnlineMonitor(
            make_policy("MRSF"),
            BudgetVector.constant(1, 10),
            config=MonitorConfig(engine=engine),
        )
        monitor.step(3)
        with pytest.raises(ModelError, match="chronons must increase"):
            monitor.run(Epoch(10), arrivals)
        assert monitor.probes_used == 0

    @pytest.mark.parametrize("with_arena", [True, False], ids=["arena", "no-arena"])
    @pytest.mark.parametrize(
        "policy_name, case",
        [
            ("S-EDF", "dense"),
            ("MRSF", "dense"),
            ("S-EDF", "budget-vector"),
            ("MRSF", "budget-vector"),
            ("W-MRSF", "weighted"),
            ("S-EDF", "huge-finish"),
            ("MRSF", "huge-finish"),
            ("M-EDF", "dense"),
            ("M-EDF", "budget-vector"),
            ("M-EDF", "huge-finish"),
            ("M-EDF", "weighted"),
        ],
    )
    def test_whole_run_walker(self, policy_name, case, with_arena):
        """The whole-run walker equals the step loop and the reference engine.

        ``budget-vector`` has chronons with no budget and with three
        probes; ``weighted`` ranks by float keys (W-MRSF) or weights
        k-of-n CEIs; ``huge-finish`` has windows ending past 2^20 and
        2^21, which packed keys cannot hold, and an idle stretch the run
        hops.  M-EDF re-keys the bag every chronon; the others keep their
        keys for the whole run.
        """
        epoch, profiles, budget = _WALKER_CASES[case]()
        arrivals = arrivals_from_profiles(profiles)

        def monitor(engine):
            arena = compile_arena(profiles) if with_arena and engine != "reference" else None
            return OnlineMonitor(
                make_policy(policy_name), budget,
                config=MonitorConfig(engine=engine), arena=arena,
            )

        walked = monitor("vectorized")
        not_stepped = count_steps(walked)
        processed = count_chronons(walked)
        walked.run(epoch, arrivals)
        assert not_stepped == []  # the walker ran every chronon
        stepped = monitor("vectorized")
        for chronon in epoch:
            stepped.step(chronon, arrivals.get(chronon, ()))
        reference = monitor("reference")
        reference.run(epoch, arrivals)
        for other in (stepped, reference):
            assert walked.schedule.probes == other.schedule.probes
            assert walked.probes_used == other.probes_used
            assert walked.believed_completeness == other.believed_completeness
        for run in (walked, stepped, reference):
            check_paper_invariants(run, profiles, budget, epoch)
        if case == "huge-finish":
            assert len(processed) < len(epoch)  # the idle stretch was hopped

    def test_rekeyed_walker_widens_its_cut(self, monkeypatch):
        """M-EDF under tiny cuts: the walker widens and still agrees.

        With budget 3 and no overflow the seeded cut holds four keys, so
        captures and sibling re-ranks past the bound make the walker widen
        on some chronons (a budget-1 chronon never widens: its one pick is
        the top of the seeded cut).
        """
        epoch, profiles = paper_instance(*DENSE_PAPER)
        budget = BudgetVector.constant(3, len(epoch))
        arrivals = arrivals_from_profiles(profiles)
        seeded = set()  # each chronon's cut, once its seed slice is pushed
        widened = []
        widen = fastpath._KeyCut.widen

        def counting(self, heap):
            if self in seeded:
                widened.append(self.count)
            seeded.add(self)
            return widen(self, heap)

        monkeypatch.setattr(fastpath._KeyCut, "widen", counting)

        def monitor(engine):
            return OnlineMonitor(
                make_policy("M-EDF"), budget, config=MonitorConfig(engine=engine)
            )

        with topk_knobs(overflow=0, growth=2):
            walked = monitor("vectorized")
            not_stepped = count_steps(walked)
            walked.run(epoch, arrivals)
            stepped = monitor("vectorized")
            for chronon in epoch:
                stepped.step(chronon, arrivals.get(chronon, ()))
        reference = monitor("reference")
        reference.run(epoch, arrivals)
        assert not_stepped == []
        assert widened  # the widening path ran
        for other in (stepped, reference):
            assert walked.schedule.probes == other.schedule.probes
            assert walked.probes_used == other.probes_used
            assert walked.believed_completeness == other.believed_completeness
        check_paper_invariants(walked, profiles, budget, epoch)

    @pytest.mark.parametrize(
        "policy_name, faults",
        [
            ("W-S-EDF", None),
            ("W-M-EDF", None),
            ("EG-M-EDF", FailureModel(rate=0.2, seed=19)),
        ],
    )
    def test_float_and_reliability_kernels_keep_stepping(self, policy_name, faults):
        """Float-keyed and reliability kernels stay off the walker.

        Their ``run()`` steps the per-chronon phases and schedules what
        the step loop schedules.
        """
        epoch, profiles, budget = _weighted_case()
        arrivals = arrivals_from_profiles(profiles)

        def monitor():
            return OnlineMonitor(
                make_policy(policy_name), budget,
                config=MonitorConfig(engine="vectorized", faults=faults),
            )

        batched = monitor()
        stepped_chronons = count_steps(batched)
        batched.run(epoch, arrivals)
        assert stepped_chronons  # run() went through step
        stepped = monitor()
        for chronon in epoch:
            stepped.step(chronon, arrivals.get(chronon, ()))
        assert batched.schedule.probes == stepped.schedule.probes
        assert batched.probes_used == stepped.probes_used
        assert batched.believed_completeness == stepped.believed_completeness

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


def _dense_case():
    epoch, profiles = paper_instance(*DENSE_PAPER)
    return epoch, profiles, BudgetVector.constant(1, len(epoch))


def _budget_vector_case():
    epoch, profiles = paper_instance(*DENSE_PAPER)
    cycle = (0, 3, 1, 1.5, 0, 2)
    budget = BudgetVector.from_sequence([cycle[t % len(cycle)] for t in epoch])
    return epoch, profiles, budget


def _weighted_case():
    budget = BudgetVector.constant(1, NUM_CHRONONS)
    return Epoch(NUM_CHRONONS), _crowded(4, k_of_n_weight=2.5), budget


def _huge_finish_case():
    far, farther = (1 << 20) + 5, (1 << 21) + 3
    profiles = ProfileSet.from_ceis(
        [
            make_cei((0, 0, 12), (1, 2, 8)),
            make_cei((1, 0, 5)),
            make_cei((2, 1, 9), (0, 4, 10), (3, 3, 3)),
            # Arrive once packed keys are in the heap.
            make_cei((3, 6, farther), (2, 7, 11)),
            make_cei((1, 6, far), (0, 6, 9)),
            make_cei((0, 8, 9)),
            # After an idle stretch.
            make_cei((1, 30, 33), (2, 31, farther)),
            make_cei((3, 32, 35), (2, 32, 33)),
        ]
    )
    return Epoch(40), profiles, BudgetVector.constant(1, 40)


_WALKER_CASES = {
    "dense": _dense_case,
    "budget-vector": _budget_vector_case,
    "weighted": _weighted_case,
    "huge-finish": _huge_finish_case,
}


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


# ---------------------------------------------------------------------------
# Batched bookkeeping: column operations leave the scalar loops' state
# ---------------------------------------------------------------------------


def _outcome(monitor) -> tuple:
    """What the two engines, and the two bookkeeping paths, must agree on."""
    pool = monitor.pool
    return (
        list(monitor.schedule.pairs()),
        monitor.probes_used,
        pool.num_satisfied,
        pool.num_failed,
        pool.num_cancelled,
        pool.num_open,
    )


def assert_batched_agrees(
    policy_name: str,
    profiles,
    budget: float = 2.0,
    shards=None,
    eq1: bool = True,
    **kwargs,
):
    """An arena-backed vectorized run under the cut-over in force matches
    the reference engine, and both hold the paper's invariants; stepped
    in lockstep, the two engines' candidate bags agree after every
    chronon.

    ``eq1=False`` skips the Eq. 1 recount for runs whose schedule alone
    cannot tell what the proxy captured: under load shedding the proxy
    gives up CEIs and EIs whose windows later probes may still cover.
    """
    budget_vector = BudgetVector.constant(budget, NUM_CHRONONS)
    ref = _run(
        "reference", make_policy(policy_name), arrivals_from_profiles(profiles),
        budget, **kwargs,
    )
    vec = _run_arena(policy_name, profiles, budget, shards=shards, **kwargs)
    assert _outcome(vec) == _outcome(ref)
    assert vec.believed_completeness == ref.believed_completeness
    epoch = Epoch(NUM_CHRONONS)
    for monitor in (ref, vec):
        if eq1:
            check_paper_invariants(monitor, profiles, budget_vector, epoch)
        else:
            monitor.schedule.check_feasible(
                budget_vector, pool=monitor.resources, epoch=epoch
            )
    _check_bag_every_chronon(policy_name, profiles, budget, shards, **kwargs)
    return ref, vec


def _check_bag_every_chronon(
    policy_name: str,
    profiles,
    budget: float,
    shards=None,
    faults=None,
    retry=None,
    health=None,
    shedding=None,
    **kwargs,
) -> None:
    """Step an arena-backed vectorized monitor and a reference one over
    ``profiles`` in lockstep; check the vectorized bag after each chronon."""
    arena = compile_arena(profiles)
    ref, vec = (
        OnlineMonitor(
            policy=make_policy(policy_name),
            budget=BudgetVector.constant(budget, NUM_CHRONONS),
            config=MonitorConfig(
                engine=engine, shards=shards if engine == "vectorized" else None,
                faults=faults, retry=retry, health=health, shedding=shedding,
            ),
            arena=arena if engine == "vectorized" else None,
            **kwargs,
        )
        for engine in ("reference", "vectorized")
    )
    try:
        for chronon in range(NUM_CHRONONS):
            arriving = arena.arrivals.get(chronon, ())
            ref.step(chronon, arriving)
            vec.step(chronon, arriving)
            check_candidate_bag(vec.pool, ref.pool, chronon)
    finally:
        vec.close()
    assert _outcome(vec) == _outcome(ref)


def _crowded(seed: int, k_of_n_weight: float = 1.0):
    """Many CEIs on few resources: window events and captures of dozens
    of rows, so the default cut-over batches some of them too.

    Every third CEI of rank 2 or more needs one EI fewer than it has
    (k-of-n), weighted ``k_of_n_weight``: expiry verdicts then count
    surplus siblings, and a soft shedding tier can release EIs.
    """
    ceis = []
    for k, cei in enumerate(
        _profiles(seed, num_ceis=300, num_resources=4, max_width=8).ceis()
    ):
        if k % 3 == 0 and len(cei.eis) > 1:
            cei = ComplexExecutionInterval(
                eis=tuple(make_ei(ei.resource, ei.start, ei.finish) for ei in cei.eis),
                semantics=Semantics.AT_LEAST,
                required=len(cei.eis) - 1,
                weight=k_of_n_weight,
            )
        ceis.append(cei)
    return ProfileSet.from_ceis(ceis)


class TestBatchedBookkeeping:
    """Batched window events, arrivals, captures and syncs are invisible.

    ``BATCH_CUTOVER`` forced to 1 sends every event of an arena-backed
    pool down the column-operation path; forced huge, none.  Either way
    the run must match the reference engine (Algorithm 1 as written) and
    satisfy the paper on its own.
    """

    @pytest.mark.parametrize("cutover", CUTOVERS)
    @pytest.mark.parametrize("policy_name", PAPER_POLICIES + ["W-MRSF", "W-M-EDF"])
    @pytest.mark.parametrize("preemptive", [True, False])
    def test_matches_reference(self, cutover, policy_name, preemptive):
        with batch_cutover(cutover):
            for profiles in (_profiles(51), _crowded(52)):
                assert_batched_agrees(
                    policy_name, profiles, budget=1.0, preemptive=preemptive
                )

    @pytest.mark.parametrize("cutover", CUTOVERS)
    def test_shedding_keeps_released_rows_scalar(self, cutover):
        shedding = SheddingConfig(
            overload_on=1.2,
            overload_off=1.0,
            sustain=2,
            target_ratio=1.0,
            soft_weight=3.0,
        )
        with batch_cutover(cutover):
            ref, _ = assert_batched_agrees(
                "MRSF",
                _crowded(54, k_of_n_weight=3.0),
                budget=1.0,
                shedding=shedding,
                eq1=False,
            )
        assert ref.shedding_stats.released_eis > 0
        assert ref.shedding_stats.shed_ceis > 0

    @pytest.mark.parametrize("cutover", CUTOVERS)
    def test_partial_fault_skips(self, cutover):
        with batch_cutover(cutover):
            ref, _ = assert_batched_agrees(
                "M-EDF",
                _crowded(55),
                budget=2.0,
                faults=FailureModel(rate=0.2, seed=7, partial_rate=0.5),
                retry=RetryPolicy(max_retries=1),
            )
        assert ref.dropped_captures

    @pytest.mark.parametrize("cutover", CUTOVERS)
    def test_sharded(self, cutover):
        with batch_cutover(cutover):
            _, cut = assert_batched_agrees("MRSF", _crowded(56), shards=2)
        assert cut.sharding_stats.demotions == 0

    @staticmethod
    def _churn_script(seed: int) -> list:
        """Per 3-chronon period, 40 new needs as ``(resource, start,
        finish)`` specs, opening 1-5 chronons ahead."""
        rng = np.random.default_rng(seed)
        script = []
        for now in range(0, NUM_CHRONONS, 3):
            batch = []
            for _ in range(40):
                start = now + int(rng.integers(1, 6))
                batch.append([
                    (int(rng.integers(4)), start, start + int(rng.integers(2, 9)))
                    for _ in range(int(rng.integers(1, 3)))
                ])
            script.append(batch)
        return script

    @pytest.mark.parametrize("cutover", CUTOVERS)
    def test_churn_with_registering_patches(self, cutover):
        """Arena patches grow the pool mid-run: batched events must read
        the patched rows exactly as the scalar loop does."""
        from repro.online.streaming import StreamingMonitor

        script = self._churn_script(57)

        def replay(engine):
            # Fresh CEI objects in the same creation order each replay:
            # ties break on seq, so relative order must match.
            standing = _crowded(58)
            arena = compile_arena(standing) if engine == "vectorized" else None
            monitor = StreamingMonitor(
                "MRSF",
                budget=1.0,
                resources=ResourcePool.uniform(4),
                config=MonitorConfig(engine=engine),
                arena=arena,
            )
            if arena is None:
                monitor.submit(list(standing.ceis()))
            previous = []
            for batch in script:
                fresh = [make_cei(*eis) for eis in batch]
                monitor.submit(fresh)
                monitor.cancel(previous[-5:])
                previous = fresh
                monitor.advance(3)
            return monitor

        with batch_cutover(cutover):
            patched = replay("vectorized")
        reference = replay("reference")
        assert _outcome(patched) == _outcome(reference)
        assert patched.pool.num_cancelled > 0
        patched.monitor.check_budget_feasible()

    @pytest.mark.parametrize("cutover", CUTOVERS)
    def test_churn_bag_every_chronon(self, cutover):
        """The same churn, both engines stepped in lockstep over shared
        CEI objects: the patched pool's bag agrees after every chronon."""
        from repro.online.streaming import StreamingMonitor

        standing = _crowded(58)
        ref, vec = (
            StreamingMonitor(
                "MRSF",
                budget=1.0,
                resources=ResourcePool.uniform(4),
                config=MonitorConfig(engine=engine),
                arena=arena,
            )
            for engine, arena in (
                ("reference", None),
                ("vectorized", compile_arena(standing)),
            )
        )
        ref.submit(list(standing.ceis()))
        previous = []
        with batch_cutover(cutover):
            for batch in self._churn_script(57):
                fresh = [make_cei(*eis) for eis in batch]
                for monitor in (ref, vec):
                    monitor.submit(fresh)
                    monitor.cancel(previous[-5:])
                previous = fresh
                for _ in range(3):
                    ref.advance(1)
                    now = vec.advance(1) - 1
                    check_candidate_bag(vec.pool, ref.pool, now)
        assert _outcome(vec) == _outcome(ref)


class TestBatchedRegistration:
    """One chronon's arrivals, registered as a batch on an arena pool."""

    @staticmethod
    def _arena():
        """Arrivals pushed late, so some CEIs are dead on arrival."""
        profiles = _profiles(61, num_ceis=80)
        arrivals = {}
        for cei in profiles.ceis():
            arrivals.setdefault(max(cei.release, 6), []).append(cei)
        return compile_arena(profiles, arrivals=arrivals)

    @staticmethod
    def _state(pool) -> tuple:
        """Everything registration writes."""
        return (
            bytes(pool._registered),
            bytes(pool.cei_failed),
            pool.num_registered,
            pool.num_failed,
            pool.num_active(),
            pool.np_active[: len(pool.row_seq)].tolist(),
        )

    def test_batch_equals_one_by_one(self):
        arena = self._arena()
        scalar = fastpath.FastCandidatePool(arena=arena)
        batched = fastpath.FastCandidatePool(arena=arena)
        for now in sorted(arena.arrivals):
            for cei in arena.arrivals[now]:
                scalar.register(cei, now, collect=False)
            with batch_cutover(1):
                assert batched.register_arrivals(arena.arrivals[now], now, False) == []
            assert self._state(batched) == self._state(scalar)
        assert scalar.num_failed > 0  # dead-on-arrival CEIs were covered

    @pytest.mark.parametrize("case", ["unknown", "repeated", "late", "again"])
    def test_invalid_batch_registers_nothing(self, case):
        arena = self._arena()
        now = max(arena.arrivals, key=lambda t: len(arena.arrivals[t]))
        due = list(arena.arrivals[now])
        assert len(due) >= 3
        earlier = []
        if case == "unknown":
            batch = due[:2] + [make_cei((0, now, now + 2))] + due[2:]
        elif case == "repeated":
            batch = due + [due[1]]
        elif case == "late":
            other = next(t for t in sorted(arena.arrivals) if t != now)
            batch = due + arena.arrivals[other][:1]
        else:
            earlier, batch = due[:1], due
        pools = []
        for _ in range(2):
            pool = fastpath.FastCandidatePool(arena=arena)
            for cei in earlier:
                pool.register(cei, now, collect=False)
            pools.append(pool)
        scalar, batched = pools
        with pytest.raises(ModelError) as one_by_one:
            for cei in batch:
                scalar.register(cei, now, collect=False)
        before = self._state(batched)
        with batch_cutover(1), pytest.raises(ModelError) as at_once:
            batched.register_arrivals(batch, now, collect=False)
        assert str(at_once.value) == str(one_by_one.value)
        assert self._state(batched) == before
        # The refused batch holds no view of the registered mask, so the
        # pool can still grow under a registering patch.
        patch = ArenaPatch.registrations([make_cei((0, now, now + 2))], at=now)
        apply_patch(arena, patch, [batched])
