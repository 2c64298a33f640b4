"""Compiled instance arenas must be a pure cache, never a semantic change.

``compile_arena`` freezes one registration walk of a problem instance;
``FastCandidatePool(arena=...)`` replays it.  Everything observable —
schedules, probe counts, captured/satisfied bookkeeping, believed
completeness — must be bit-identical to an incremental pool registering
the same CEIs, which in turn matches the reference engine
(tests/test_fastpath_equivalence.py).  Arenas are also shared across
runs, so two monitors built from one arena must never see each other's
per-run state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ModelError
from repro.core.profile import ProfileSet
from repro.core.schedule import BudgetVector
from repro.core.timebase import Epoch
from repro.online.candidates import CandidatePool
from repro.online.config import MonitorConfig
from repro.online.fastpath import FastCandidatePool
from repro.online.monitor import OnlineMonitor
from repro.policies import make_policy
from repro.sim.arena import compile_arena
from repro.sim.engine import simulate
from tests.conftest import make_cei, random_general_instance

NUM_CHRONONS = 30
POLICIES = ["S-EDF", "MRSF", "M-EDF"]


def _profiles(seed: int, num_ceis: int = 40):
    rng = np.random.default_rng(seed)
    return random_general_instance(
        rng,
        num_resources=8,
        num_chronons=NUM_CHRONONS,
        num_ceis=num_ceis,
        max_rank=4,
        max_width=5,
    )


def _run(policy_name: str, arrivals, engine="vectorized", arena=None, **kwargs):
    monitor = OnlineMonitor(
        policy=make_policy(policy_name),
        budget=BudgetVector.constant(2.0, NUM_CHRONONS),
        config=MonitorConfig(engine=engine),
        arena=arena,
        **kwargs,
    )
    monitor.run(Epoch(NUM_CHRONONS), arrivals)
    return monitor


class TestCompile:
    def test_rows_follow_registration_order(self):
        profiles = _profiles(1)
        arena = compile_arena(profiles)
        assert arena.n_rows == len(arena.row_seq) == arena.npr_seq.size
        assert arena.n_ceis == len(arena.cei_obj)
        # CEIs appear sorted by release; each CEI's rows are contiguous.
        releases = [arena.cei_release[c] for c in range(arena.n_ceis)]
        assert releases == sorted(releases)
        for cidx in range(arena.n_ceis):
            begin, end = arena.cei_row_begin[cidx], arena.cei_row_end[cidx]
            assert all(arena.row_cidx[r] == cidx for r in range(begin, end))
        assert arena.cidx_of_cid.keys() == {c.cid for c in arena.cei_obj}

    def test_mirrors_match_incremental_pool(self):
        profiles = _profiles(2)
        arena = compile_arena(profiles)
        pool = FastCandidatePool()
        for cidx, cei in enumerate(arena.cei_obj):
            pool.register(cei, arena.cei_release[cidx])
        pool.sync_mirrors()
        assert pool.row_seq == arena.row_seq
        assert pool.row_finish == arena.row_finish
        assert pool.row_resource == arena.row_resource
        assert pool.cei_rank == arena.cei_rank
        # Incremental mirrors are capacity-doubled; compare the live prefix.
        n = len(pool.row_seq)
        np.testing.assert_array_equal(pool.npr_seq[:n], arena.npr_seq)
        np.testing.assert_array_equal(pool.npr_static[:n], arena.npr_static)
        assert arena.packable == pool._arena.packable

    def test_immediate_vs_deferred_split(self):
        profiles = _profiles(3)
        arena = compile_arena(profiles)
        for cidx in range(arena.n_ceis):
            release = arena.cei_release[cidx]
            begin, end = arena.cei_row_begin[cidx], arena.cei_row_end[cidx]
            immediate = set(arena.immediate_rows[cidx])
            for row in range(begin, end):
                ei = arena.row_ei[row]
                if ei.start <= release:
                    assert row in immediate
                else:
                    assert row not in immediate
                    assert row in arena.activate_at[ei.start]
                assert row in arena.expire_at[ei.finish]


class TestRunEquivalence:
    @pytest.mark.parametrize("policy_name", POLICIES)
    @pytest.mark.parametrize("preemptive", [True, False])
    def test_arena_matches_incremental_and_reference(self, policy_name, preemptive):
        for seed in (4, 5):
            arena = compile_arena(_profiles(seed))
            plain = _run(policy_name, arena.arrivals, preemptive=preemptive)
            backed = _run(
                policy_name, arena.arrivals, arena=arena, preemptive=preemptive
            )
            ref = _run(
                policy_name,
                arena.arrivals,
                engine="reference",
                preemptive=preemptive,
            )
            assert backed.schedule.probes == plain.schedule.probes
            assert backed.schedule.probes == ref.schedule.probes
            assert backed.probes_used == ref.probes_used
            assert backed.pool.num_satisfied == ref.pool.num_satisfied
            assert backed.pool.num_failed == ref.pool.num_failed
            assert backed.believed_completeness == ref.believed_completeness

    def test_reuse_across_runs_is_isolated(self):
        arena = compile_arena(_profiles(6))
        first = _run("MRSF", arena.arrivals, arena=arena)
        _run("M-EDF", arena.arrivals, arena=arena)  # mutates its own state only
        again = _run("MRSF", arena.arrivals, arena=arena)
        assert again.schedule.probes == first.schedule.probes
        assert again.believed_completeness == first.believed_completeness

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_simulate_accepts_arena(self, engine):
        profiles = _profiles(7)
        arena = compile_arena(profiles)
        epoch = Epoch(NUM_CHRONONS)
        budget = BudgetVector.constant(2.0, NUM_CHRONONS)
        cfg = MonitorConfig(engine=engine)
        plain = simulate(profiles, epoch, budget, "MRSF", config=cfg)
        backed = simulate(arena, epoch, budget, "MRSF", config=cfg)
        assert backed.schedule.probes == plain.schedule.probes
        assert backed.completeness == plain.completeness
        assert backed.probes_used == plain.probes_used


class TestRejections:
    def test_foreign_cei(self):
        arena = compile_arena(_profiles(8))
        pool = FastCandidatePool(arena=arena)
        with pytest.raises(ModelError, match="not part of this pool's compiled arena"):
            pool.register(make_cei((0, 1, 2)), 0)

    def test_wrong_arrival_chronon(self):
        arena = compile_arena(_profiles(9))
        pool = FastCandidatePool(arena=arena)
        cei = arena.cei_obj[0]
        with pytest.raises(ModelError, match="arrival chronon"):
            pool.register(cei, arena.cei_release[0] + 1)

    def test_double_registration(self):
        arena = compile_arena(_profiles(10))
        pool = FastCandidatePool(arena=arena)
        cei = arena.cei_obj[0]
        pool.register(cei, arena.cei_release[0])
        with pytest.raises(ModelError, match="registered twice"):
            pool.register(cei, arena.cei_release[0])

    def test_state_of_waits_for_arrival(self):
        """A compiled CEI has no state until it registers, as in the
        reference pool, which only learns of it then."""
        early, late = make_cei((0, 0, 6)), make_cei((0, 4, 9), (1, 5, 9))
        arena = compile_arena(ProfileSet.from_ceis([early, late]))
        pools = [FastCandidatePool(arena=arena), CandidatePool()]
        for pool in pools:
            pool.register(early, 0)
            assert pool.state_of(late) is None
            pool.register(late, 4)
            pool.capture_resource(0, 4)
        views = [pool.state_of(late) for pool in pools]
        assert all(view is not None for view in views)
        assert len({
            (v.captured_count, v.residual, v.satisfied, v.failed, v.cancelled, v.closed)
            for v in views
        }) == 1
        assert views[0].captured_count == 1

    def test_reference_engine_rejects_arena(self):
        arena = compile_arena(_profiles(11))
        with pytest.raises(ModelError, match="require the vectorized engine"):
            OnlineMonitor(
                policy=make_policy("MRSF"),
                budget=BudgetVector.constant(2.0, NUM_CHRONONS),
                config=MonitorConfig(engine="reference"),
                arena=arena,
            )


class TestPatchDeltas:
    """Unit-level guards of the ArenaPatch/apply_patch/adopt_arena layer.

    End-to-end equivalence of churned runs lives in
    tests/test_churn_equivalence.py; these pin the rejection paths.
    """

    def test_register_patch_grows_arena(self):
        from repro.sim.arena import ArenaPatch, apply_patch

        arena = compile_arena(_profiles(20, num_ceis=10))
        old_rows, old_ceis = arena.n_rows, arena.n_ceis
        extra = make_cei((0, 5, 12), (1, 7, 15))
        patched = apply_patch(arena, ArenaPatch.registrations([extra], at=3))
        assert patched.n_ceis == old_ceis + 1
        assert patched.n_rows == old_rows + 2
        assert extra in patched.arrivals[5]  # clamped to release, not 3

    def test_duplicate_cid_rejected(self):
        from repro.sim.arena import ArenaPatch, apply_patch

        arena = compile_arena(_profiles(21, num_ceis=6))
        compiled = arena.cei_obj[0]
        with pytest.raises(ModelError, match="already compiled"):
            apply_patch(arena, ArenaPatch.registrations([compiled], at=0))

    def test_unknown_cancel_rejected(self):
        from repro.sim.arena import ArenaPatch, apply_patch

        arena = compile_arena(_profiles(22, num_ceis=6))
        with pytest.raises(ModelError, match="not in this arena"):
            apply_patch(arena, ArenaPatch(cancel=(10**9,)))

    def test_patched_arena_takes_further_patches(self):
        from repro.sim.arena import ArenaPatch, apply_patch

        arena = compile_arena(_profiles(23, num_ceis=6))
        old_ceis = arena.n_ceis
        first = apply_patch(arena, ArenaPatch.registrations([make_cei((0, 2, 8))], at=0))
        # A patch edits the arena in place: there is one arena object,
        # and it takes the next patch.
        assert first is arena
        assert apply_patch(
            arena, ArenaPatch.registrations([make_cei((1, 2, 8))], at=0)
        ) is arena
        assert arena.n_ceis == old_ceis + 2
        n = arena.n_rows
        np.testing.assert_array_equal(arena.npr_seq[:n], arena.row_seq)
        np.testing.assert_array_equal(arena.npc_rank_f[: arena.n_ceis], arena.cei_rank)

    @pytest.mark.parametrize("with_pool", [False, True])
    def test_owned_arena_refused(self, with_pool):
        from repro.sim.arena import ArenaPatch, apply_patch

        pool = FastCandidatePool()
        pool.register(make_cei((0, 0, 6), (1, 2, 8)), 0)
        owned = pool._arena
        before = (list(owned.row_seq), list(owned.cei_obj), dict(owned.arrivals))
        patch = ArenaPatch(
            register=((make_cei((2, 3, 9)), 3),), cancel=(owned.cei_obj[0].cid,)
        )
        with pytest.raises(ModelError, match="owned by a pool"):
            apply_patch(owned, patch, [pool] if with_pool else ())
        assert (list(owned.row_seq), list(owned.cei_obj), dict(owned.arrivals)) == before
        assert pool.num_open == 1 and pool.num_cancelled == 0

    def test_foreign_pool_rejected(self):
        from repro.sim.arena import ArenaPatch, apply_patch

        arena = compile_arena(_profiles(24, num_ceis=6))
        other = compile_arena(_profiles(25, num_ceis=6))
        pool = FastCandidatePool(arena=other)
        with pytest.raises(ModelError, match="live pools"):
            apply_patch(
                arena,
                ArenaPatch.registrations([make_cei((0, 2, 8))], at=0),
                pools=(pool,),
            )

    def test_adopt_requires_own_arena_generation(self):
        arena = compile_arena(_profiles(26, num_ceis=6))
        other = compile_arena(_profiles(27, num_ceis=6))
        pool = FastCandidatePool(arena=arena)
        with pytest.raises(ModelError, match="own"):
            pool.adopt_arena(other)
        incremental = FastCandidatePool()
        with pytest.raises(ModelError, match="arena-backed"):
            incremental.adopt_arena(arena)

    def test_expire_before_prunes_timelines(self):
        from repro.sim.arena import ArenaPatch, apply_patch

        arena = compile_arena(_profiles(28, num_ceis=12))
        cutoff = NUM_CHRONONS // 2
        patched = apply_patch(arena, ArenaPatch(expire_before=cutoff))
        assert all(t >= cutoff for t in patched.activate_at)
        assert all(t >= cutoff for t in patched.expire_at)


def _arena_state(arena, pool):
    """Everything a refused patch must leave untouched."""
    return (
        arena.n_rows,
        arena.n_ceis,
        len(arena.row_seq),
        len(arena.cei_rank),
        dict(arena.cidx_of_cid),
        {t: list(ceis) for t, ceis in arena.arrivals.items()},
        {t: list(rows) for t, rows in arena.activate_at.items()},
        set(arena.cancelled_cids),
        len(pool.row_state),
        len(pool.cei_captured),
        pool.num_cancelled,
        pool._arena is arena,
    )


class TestAtomicPatches:
    """A refused multi-CEI patch changes nothing and the arena stays
    patchable: validation runs before the first in-place edit."""

    def _live(self, seed):
        """An arena and a live pool that registered its first arrivals."""
        arena = compile_arena(_profiles(seed, num_ceis=8))
        pool = FastCandidatePool(arena=arena)
        first = min(arena.arrivals)
        for cei in arena.arrivals[first]:
            pool.register(cei, first)
        return arena, pool

    @pytest.mark.parametrize(
        "case", ["duplicate", "already_compiled", "negative_arrival", "unknown_cancel"]
    )
    def test_refused_patch_changes_nothing(self, case):
        from repro.sim.arena import ArenaPatch, apply_patch

        arena, pool = self._live(40)
        new = make_cei((0, 5, 12), (1, 7, 15))
        compiled = arena.cei_obj[0]
        patch = {
            "duplicate": ArenaPatch(register=((new, 3), (new, 3))),
            "already_compiled": ArenaPatch(register=((new, 3), (compiled, 3))),
            "negative_arrival": ArenaPatch(
                register=((new, 3), (make_cei((2, 5, 9)), -1))
            ),
            "unknown_cancel": ArenaPatch(
                register=((new, 3),), cancel=(compiled.cid, 10**9)
            ),
        }[case]
        before = _arena_state(arena, pool)
        with pytest.raises(ModelError):
            apply_patch(arena, patch, pools=(pool,))
        assert _arena_state(arena, pool) == before

        # The arena still takes the batch.
        old_ceis = arena.n_ceis
        patched = apply_patch(
            arena, ArenaPatch.registrations([new], at=3), pools=(pool,)
        )
        assert patched is arena and arena.n_ceis == old_ceis + 1
        assert pool._arena is arena

    def test_cancel_of_a_cei_registered_by_the_same_patch(self):
        from repro.sim.arena import ArenaPatch, apply_patch

        arena, pool = self._live(41)
        new = make_cei((0, 20, 25))
        patched = apply_patch(
            arena, ArenaPatch(register=((new, 20),), cancel=(new.cid,)), pools=(pool,)
        )
        assert new.cid in patched.cancelled_cids
        assert new not in patched.arrivals.get(20, [])

    def test_patches_that_register_nothing_keep_the_generation(self):
        from repro.sim.arena import ArenaPatch, apply_patch

        arena, pool = self._live(42)
        mirrors = pool.npr_seq
        victim = next(
            cei for cei in arena.cei_obj if pool.cei_state[arena.cidx_of_cid[cei.cid]]
        )
        assert apply_patch(arena, ArenaPatch(cancel=(victim.cid,)), pools=(pool,)) is arena
        assert apply_patch(arena, ArenaPatch(expire_before=5), pools=(pool,)) is arena
        assert pool.state_of(victim).cancelled
        assert pool._arena is arena and pool.npr_seq is mirrors


class TestPoolsBuiltAfterPatches:
    """A pool built on an arena that took registering patches sees the
    mirrors a from-scratch compile of the same arrivals builds, and runs
    like the reference engine."""

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_fresh_pool_matches_scratch_compile_and_reference(self, policy_name):
        from repro.sim.arena import ArenaPatch, apply_patch

        profiles = _profiles(50)
        scratch = compile_arena(profiles)
        chronons = sorted(scratch.arrivals)
        head = chronons[: len(chronons) // 4]
        arena = compile_arena(
            profiles, arrivals={t: list(scratch.arrivals[t]) for t in head}
        )
        patches = 0
        for t in chronons[len(head):]:
            # One registering patch per arrival chronon, in arrival order,
            # so rows land in the from-scratch compile's order.
            apply_patch(arena, ArenaPatch(register=tuple(
                (cei, t) for cei in scratch.arrivals[t]
            )))
            patches += 1
        assert patches >= 8 and arena.mirror_reallocs > 1

        pool = FastCandidatePool(arena=arena)
        n, m = scratch.n_rows, scratch.n_ceis
        assert (arena.n_rows, arena.n_ceis) == (n, m)
        assert arena.packable == scratch.packable
        for name in ("npr_seq", "npr_finish", "npr_finish_f", "npr_resource",
                     "npr_cidx", "npr_static"):
            assert getattr(pool, name) is getattr(arena, name)
            np.testing.assert_array_equal(getattr(arena, name)[:n], getattr(scratch, name))
        for name in ("npc_rank_f", "npc_weight", "npc_required"):
            assert getattr(pool, name) is getattr(arena, name)
            np.testing.assert_array_equal(getattr(arena, name)[:m], getattr(scratch, name))

        backed = _run(policy_name, arena.arrivals, arena=arena)
        ref = _run(policy_name, arena.arrivals, engine="reference")
        assert backed.schedule.probes == ref.schedule.probes
        assert backed.probes_used == ref.probes_used
        assert backed.pool.num_satisfied == ref.pool.num_satisfied
        assert backed.pool.num_failed == ref.pool.num_failed
        assert backed.believed_completeness == ref.believed_completeness


class TestArrivalEpochValidation:
    def test_out_of_epoch_release_rejected(self):
        from repro.online.arrivals import arrival_map

        cei = make_cei((0, 50, 60))
        with pytest.raises(ModelError, match="outside the epoch"):
            arrival_map([cei], epoch=Epoch(10))

    def test_without_epoch_stays_permissive(self):
        from repro.online.arrivals import arrival_map

        cei = make_cei((0, 50, 60))
        assert arrival_map([cei]) == {50: [cei]}

    def test_simulate_rejects_never_revealed_ceis(self):
        from tests.conftest import make_profiles

        profiles = make_profiles(make_cei((0, 50, 60)))
        with pytest.raises(ModelError, match="never be revealed"):
            simulate(profiles, Epoch(10), budget=1.0, policy="MRSF")
