"""Unit tests for the rolling-horizon driver and the unbounded budget.

Equivalence of churned runs with from-scratch compiles is covered by
tests/test_churn_equivalence.py; these tests pin the driver's local
contract: the clock, the reveal queue, cancellation semantics, budget
extension, and the snapshot surface.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ModelError
from repro.core.profile import Profile, ProfileSet
from repro.core.resource import ResourcePool
from repro.core.schedule import BudgetVector
from repro.core.timebase import Epoch
from repro.online import MonitorConfig, OnlineMonitor, StreamingBudget, StreamingMonitor
from repro.online.arrivals import arrival_map
from repro.policies import make_policy
from repro.sim.arena import compile_arena
from tests.conftest import make_cei


def make_monitor(**kwargs) -> StreamingMonitor:
    defaults = dict(budget=1.0, resources=ResourcePool.uniform(4))
    defaults.update(kwargs)
    return StreamingMonitor("MRSF", **defaults)


class TestStreamingBudget:
    def test_constant_holds_forever(self):
        budget = StreamingBudget.constant(2.5)
        assert budget.at(0) == 2.5
        assert budget.at(10**9) == 2.5

    def test_vector_holds_last_value(self):
        budget = StreamingBudget.from_vector(BudgetVector.from_sequence([3, 1, 2]))
        assert [budget.at(j) for j in range(5)] == [3, 1, 2, 2, 2]

    def test_vector_cycles(self):
        budget = StreamingBudget.from_vector(
            BudgetVector.from_sequence([3, 1, 2]), cycle=True
        )
        assert [budget.at(j) for j in range(7)] == [3, 1, 2, 3, 1, 2, 3]

    def test_rejections(self):
        with pytest.raises(ModelError, match="at least one value"):
            StreamingBudget(values=())
        with pytest.raises(ModelError, match=">= 0"):
            StreamingBudget(values=(1.0, -1.0))
        with pytest.raises(ModelError, match=">= 0"):
            StreamingBudget.constant(1.0).at(-1)


class TestClockAndQueue:
    def test_initial_state(self):
        monitor = make_monitor()
        assert monitor.now == 0
        assert monitor.pending_count == 0

    def test_advance_moves_clock_without_epoch_bound(self):
        monitor = make_monitor()
        assert monitor.advance(100) == 100
        assert monitor.advance(50) == 150  # no epoch: the clock never ends

    def test_negative_advance_rejected(self):
        with pytest.raises(ModelError, match="cannot advance"):
            make_monitor().advance(-1)

    def test_submission_reveals_at_release(self):
        monitor = make_monitor()
        cei = make_cei((0, 5, 9))
        monitor.submit([cei])
        assert monitor.is_pending(cei.cid)
        monitor.advance(5)
        assert monitor.is_pending(cei.cid)  # reveals when chronon 5 executes
        monitor.advance(1)
        assert not monitor.is_pending(cei.cid)
        monitor.advance(5)
        assert monitor.pool.num_satisfied == 1

    def test_late_submission_clamps_to_now(self):
        monitor = make_monitor()
        monitor.advance(20)
        # Window long gone: registers dead-on-arrival instead of never.
        monitor.submit([make_cei((0, 2, 6))])
        monitor.advance(1)
        assert monitor.pool.num_failed == 1

    def test_believed_completeness_excludes_cancelled(self):
        monitor = make_monitor()
        # ``drop`` needs a second capture in a window that only opens at
        # chronon 20, so it is still open when the cancel lands.
        keep, drop = make_cei((0, 0, 4)), make_cei((1, 0, 30), (2, 20, 30))
        monitor.submit([keep, drop])
        monitor.advance(3)
        monitor.cancel([drop])
        monitor.advance(3)
        assert monitor.pool.num_satisfied == 1
        assert monitor.believed_completeness == 1.0


class TestCancellation:
    def test_pending_cancel_never_registers(self):
        monitor = make_monitor()
        cei = make_cei((0, 10, 15))
        monitor.submit([cei])
        withdrawn = monitor.cancel([cei])
        assert withdrawn == [cei]
        monitor.advance(20)
        assert monitor.pool.num_registered == 0

    def test_live_cancel_closes_without_failing(self):
        monitor = make_monitor(resources=ResourcePool.uniform(1), budget=0.0)
        cei = make_cei((0, 0, 10))
        monitor.submit([cei])
        monitor.advance(2)
        assert monitor.cancel([cei]) == [cei]
        assert monitor.pool.num_cancelled == 1
        assert monitor.pool.num_failed == 0
        assert monitor.pool.num_open == 0

    def test_closed_and_unknown_ceis_skipped(self):
        monitor = make_monitor()
        done = make_cei((0, 0, 3))
        monitor.submit([done])
        monitor.advance(5)
        assert monitor.pool.num_satisfied == 1
        assert monitor.cancel([done]) == []  # already satisfied
        assert monitor.cancel([make_cei((1, 0, 3))]) == []  # never submitted

    def test_double_cancel_is_idempotent(self):
        monitor = make_monitor(budget=0.0)
        cei = make_cei((0, 0, 10))
        monitor.submit([cei])
        monitor.advance(1)
        assert monitor.cancel([cei]) == [cei]
        assert monitor.cancel([cei]) == []
        assert monitor.pool.num_cancelled == 1


class TestArenaBackedDriver:
    def _arena_monitor(self, ceis, **kwargs):
        arena = compile_arena(ProfileSet([Profile(pid=0, ceis=list(ceis))]))
        return make_monitor(
            config=MonitorConfig(engine="vectorized"), arena=arena, **kwargs
        )

    def test_compiled_ceis_auto_queue(self):
        ceis = [make_cei((0, 0, 5)), make_cei((1, 3, 9))]
        monitor = self._arena_monitor(ceis)
        assert monitor.pending_count == 2
        monitor.advance(10)
        assert monitor.pool.num_satisfied == 2

    def test_submit_patches_arena_in_place(self):
        monitor = self._arena_monitor([make_cei((0, 0, 5))])
        before = monitor.arena
        monitor.advance(2)
        monitor.submit([make_cei((1, 4, 9))])
        assert monitor.arena is before  # one arena, patched in place
        assert monitor.arena.n_ceis == 2
        monitor.advance(10)
        assert monitor.pool.num_satisfied == 2

    def test_compact_prunes_behind_clock(self):
        monitor = self._arena_monitor(
            [make_cei((0, 0, 5)), make_cei((1, 10, 15))], compact_every=4
        )
        monitor.advance(8)
        assert monitor.arena is not None
        assert all(t >= 8 for t in monitor.arena.activate_at)

    def test_compact_every_rejects_negative(self):
        with pytest.raises(ModelError, match="compact_every"):
            self._arena_monitor([make_cei((0, 0, 5))], compact_every=-1)

    def test_reference_engine_rejects_arena(self):
        arena = compile_arena(
            ProfileSet([Profile(pid=0, ceis=[make_cei((0, 0, 5))])])
        )
        with pytest.raises(ModelError, match="require the vectorized engine"):
            make_monitor(config=MonitorConfig(engine="reference"), arena=arena)


class TestOwnedArenaCompaction:
    """A vectorized stream without a supplied arena compiles into the
    pool's own arena, whose timelines are read and never popped."""

    CHRONONS = 600
    LONGEST_WINDOW = 8  # latest finish, in chronons after submission

    def _needs(self):
        # Three single-EI needs per chronon, each opening within two
        # chronons of its submission and closing within six of opening.
        return [
            [
                make_cei((k % 4, t + k, t + k + 2 * k + 2))
                for k in range(3)
            ]
            for t in range(self.CHRONONS)
        ]

    def _run(self, needs, compact_every):
        monitor = make_monitor(
            config=MonitorConfig(engine="vectorized"),
            compact_every=compact_every,
        )
        timeline_sizes = []
        for batch in needs:
            monitor.submit(batch)
            monitor.advance(1)
            arena = monitor.pool._arena
            timeline_sizes.append(
                (len(arena.activate_at), len(arena.expire_at))
            )
        return monitor, timeline_sizes

    def test_timelines_stay_bounded_and_schedule_unchanged(self):
        needs = self._needs()
        compact_every = 50
        compacted, sizes = self._run(needs, compact_every)
        plain, plain_sizes = self._run(needs, 0)
        bound = self.LONGEST_WINDOW + compact_every
        assert max(max(pair) for pair in sizes) <= bound
        # Without compaction the same stream keeps every past chronon.
        assert plain_sizes[-1][1] > bound
        assert sorted(compacted.schedule.pairs()) == sorted(
            plain.schedule.pairs()
        )
        assert compacted.pool.num_satisfied == plain.pool.num_satisfied

    def test_supplied_arena_is_not_pruned_by_the_pool(self):
        arena = compile_arena(
            ProfileSet([Profile(pid=0, ceis=[make_cei((0, 0, 5))])])
        )
        monitor = make_monitor(config=MonitorConfig(engine="vectorized"), arena=arena)
        with pytest.raises(ModelError, match="expire_before"):
            monitor.pool.prune_timelines(3)


class TestBatchEquivalence:
    def test_stepped_run_matches_batch_monitor(self):
        """Everything known up front: the streaming driver must replay
        OnlineMonitor.run bit-identically over the same horizon."""
        specs = [((0, 0, 6),), ((1, 2, 9), (2, 4, 12)), ((3, 5, 11),)]
        horizon = 20

        batch_ceis = [make_cei(*s) for s in specs]
        batch = OnlineMonitor(
            policy=make_policy("MRSF"),
            budget=BudgetVector.constant(1.0, horizon),
            resources=ResourcePool.uniform(4),
        )
        batch.run(Epoch(horizon), arrival_map(batch_ceis))

        streaming = make_monitor()
        streaming.submit([make_cei(*s) for s in specs])
        streaming.advance(horizon)

        assert sorted(streaming.schedule.pairs()) == sorted(batch.schedule.pairs())
        assert streaming.probes_used == batch.probes_used
        assert streaming.believed_completeness == batch.believed_completeness


class TestSnapshot:
    def test_snapshot_keys_and_counters(self):
        monitor = make_monitor()
        monitor.submit([make_cei((0, 0, 4)), make_cei((1, 10, 14))])
        monitor.advance(6)
        snap = monitor.snapshot()
        assert snap["now"] == 6
        assert snap["submitted_ceis"] == 2
        assert snap["pending_ceis"] == 1
        assert snap["satisfied_ceis"] == 1
        assert snap["probes_used"] >= 1


class TestLiveBudgetAndFastForward:
    def test_set_budget_swaps_mid_run(self):
        monitor = make_monitor(budget=0.0)
        monitor.submit([make_cei((0, 0, 9))])
        monitor.advance(3)
        assert monitor.probes_used == 0
        monitor.set_budget(1.0)
        monitor.advance(3)
        assert monitor.probes_used >= 1

    def test_set_budget_accepts_streaming_budget(self):
        monitor = make_monitor()
        monitor.set_budget(StreamingBudget(values=(2.0, 0.0), cycle=True))
        assert monitor.budget.cycle is True
        assert monitor.monitor.budget is monitor.budget

    def test_fast_forward_never_backwards(self):
        monitor = make_monitor()
        assert monitor.fast_forward(5) == 5
        with pytest.raises(ModelError, match="backwards"):
            monitor.fast_forward(2)

    def test_coerce_budget_spellings(self):
        from repro.core.schedule import BudgetVector
        from repro.online.streaming import coerce_budget

        assert coerce_budget(2).values == (2.0,)
        vector = BudgetVector.constant(1.5, 4)
        assert coerce_budget(vector).values == vector.values
        budget = StreamingBudget.constant(3.0)
        assert coerce_budget(budget) is budget
