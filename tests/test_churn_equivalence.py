"""Churn equivalence: incremental deltas == compile from scratch.

The contract of the delta layer (``repro.sim.arena.ArenaPatch``) and the
rolling-horizon driver (``repro.online.streaming.StreamingMonitor``) is
that a run that *grows* — CEIs registered and withdrawn while the clock
is moving — is bit-identical to a run whose final timeline was known in
advance and compiled from scratch.  These tests script register/cancel
timelines and replay them three ways:

* queue-only incremental (no arena), on every engine;
* arena-backed incremental, churn applied as :class:`ArenaPatch` deltas
  (vectorized and auto — the reference engine rejects arenas);
* from-scratch: the complete arrival map compiled into one arena.

All replays must agree on the schedule and on every counter, including
shedding and health statistics when those subsystems are enabled.  A
hypothesis property extends the scripted cases to random churn.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profile import Profile, ProfileSet
from repro.core.resource import ResourcePool
from repro.online import MonitorConfig
from repro.online.faults import FailureModel
from repro.online.health import HealthConfig
from repro.online.shedding import SheddingConfig
from repro.online.streaming import StreamingMonitor
from repro.sim.arena import compile_arena
from tests.conftest import CUTOVERS, batch_cutover, check_candidate_bag, make_cei

ENGINES = ["reference", "vectorized"]
ARENA_ENGINES = ["vectorized"]

HORIZON = 30
NUM_RESOURCES = 6

# A churn script is declarative so each replay can instantiate its own
# CEI objects in the same creation order (tie-breaking uses ``seq``, so
# relative order must match across replays; object identity must not).
#
#   initial: CEI specs submitted before the clock starts
#   events:  (chronon, "submit", [specs...]) or (chronon, "cancel", [idx...])
#            where idx indexes the global creation order (initial first,
#            then each submit batch in event order).
SCRIPT_BASIC = {
    "initial": [((0, 0, 6),), ((1, 2, 9), (2, 4, 12)), ((3, 5, 11),)],
    "events": [
        (3, "submit", [((4, 3, 10),), ((5, 6, 14), (0, 8, 16))]),
        (7, "cancel", [1]),
        (10, "submit", [((2, 12, 20),), ((1, 15, 22),)]),
        (14, "cancel", [4, 5]),
        (18, "submit", [((3, 18, 26), (4, 20, 27)), ((0, 40, 50),)]),
        (22, "cancel", [7]),
    ],
}

SCRIPT_OVERLOAD = {
    # Enough simultaneous demand to trip an aggressive shedder.
    "initial": [((r % NUM_RESOURCES, 0, 12), (r % NUM_RESOURCES, 5, 19))
                for r in range(10)],
    "events": [
        (4, "submit", [((r % NUM_RESOURCES, 4, 16),) for r in range(6)]),
        (8, "cancel", [0, 1, 2]),
        (12, "submit", [((2, 12, 24), (3, 14, 26))]),
    ],
}


def _instantiate(script):
    """Fresh CEI objects for one replay, in deterministic creation order."""
    index = [make_cei(*spec) for spec in script["initial"]]
    initial = list(index)
    events = []
    for chronon, kind, payload in script["events"]:
        if kind == "submit":
            batch = [make_cei(*spec) for spec in payload]
            index.extend(batch)
            events.append((chronon, "submit", batch))
        else:
            events.append((chronon, "cancel", list(payload)))
    return initial, events, index


def _drive(monitor, events, index, reference=None):
    """Replay ``events`` one chronon at a time.

    ``reference`` is an optional ``(monitor, events)`` pair advanced in
    lockstep over the same CEI objects; ``monitor``'s candidate bag is
    then checked against the reference pool after every chronon.
    """
    runs = [(monitor, events)] + ([reference] if reference else [])
    for t in range(HORIZON):
        for run, run_events in runs:
            for chronon, kind, payload in run_events:
                if chronon != t:
                    continue
                if kind == "submit":
                    run.submit(payload)
                else:
                    run.cancel([index[i] for i in payload])
            run.advance(1)
        if reference:
            check_candidate_bag(monitor.pool, reference[0].pool, t)
    return monitor


def _config(engine, extra=None):
    return MonitorConfig(engine=engine, **(extra or {}))


def _queue_replay(objects, engine, extra=None):
    """Incremental replay with no arena: churn rides the reveal queue."""
    initial, events, _ = objects
    monitor = StreamingMonitor(
        "MRSF",
        budget=1.0,
        resources=ResourcePool.uniform(NUM_RESOURCES),
        config=_config(engine, extra),
    )
    monitor.submit(initial)
    return monitor, events


def _arena_replay(objects, engine, extra=None, compact_every=0):
    """Arena-backed replay: churn becomes ArenaPatch deltas."""
    initial, events, _ = objects
    arena = compile_arena(ProfileSet([Profile(pid=0, ceis=list(initial))]))
    monitor = StreamingMonitor(
        "MRSF",
        budget=1.0,
        resources=ResourcePool.uniform(NUM_RESOURCES),
        config=_config(engine, extra),
        arena=arena,
        compact_every=compact_every,
    )
    return monitor, events


def _scratch_replay(objects, engine, extra=None):
    """The final timeline compiled up front: the equivalence baseline."""
    initial, events, index = objects
    arrivals = {}
    for cei in initial:
        arrivals.setdefault(cei.release, []).append(cei)
    for chronon, kind, payload in events:
        if kind == "submit":
            for cei in payload:
                arrivals.setdefault(max(chronon, cei.release), []).append(cei)
    arena = compile_arena(
        ProfileSet([Profile(pid=0, ceis=list(index))]), arrivals=arrivals
    )
    monitor = StreamingMonitor(
        "MRSF",
        budget=1.0,
        resources=ResourcePool.uniform(NUM_RESOURCES),
        config=_config(engine, extra),
        arena=arena,
    )
    # Only the cancels replay; every registration is already compiled in.
    return monitor, [e for e in events if e[1] == "cancel"]


def _run_queue(script, engine, extra=None):
    objects = _instantiate(script)
    return _drive(*_queue_replay(objects, engine, extra), objects[2])


def _run_arena_incremental(script, engine, extra=None, compact_every=0):
    objects = _instantiate(script)
    return _drive(
        *_arena_replay(objects, engine, extra, compact_every), objects[2]
    )


def _run_from_scratch(script, engine, extra=None):
    objects = _instantiate(script)
    return _drive(*_scratch_replay(objects, engine, extra), objects[2])


REPLAYS = {"queue": _queue_replay, "arena": _arena_replay, "scratch": _scratch_replay}


def _check_bag_every_chronon(script, replay, cutover, extra=None):
    """One vectorized replay, stepped in lockstep with the reference queue
    replay over the same CEI objects, under a forced batching cut-over:
    the two candidate bags agree after every chronon."""
    objects = _instantiate(script)
    with batch_cutover(cutover):
        _drive(
            *REPLAYS[replay](objects, "vectorized", extra),
            objects[2],
            reference=_queue_replay(objects, "reference", extra),
        )


def _fingerprint(monitor):
    pool = monitor.pool
    return {
        "schedule": sorted(monitor.schedule.pairs()),
        "probes_used": monitor.probes_used,
        "probes_failed": monitor.probes_failed,
        "satisfied": pool.num_satisfied,
        "failed": pool.num_failed,
        "cancelled": pool.num_cancelled,
        "open": pool.num_open,
        "believed": monitor.believed_completeness,
    }


class TestScriptedChurn:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_queue_incremental_matches_from_scratch(self, engine):
        baseline = _fingerprint(_run_from_scratch(SCRIPT_BASIC, "vectorized"))
        assert _fingerprint(_run_queue(SCRIPT_BASIC, engine)) == baseline

    @pytest.mark.parametrize("engine", ARENA_ENGINES)
    def test_arena_incremental_matches_from_scratch(self, engine):
        baseline = _fingerprint(_run_from_scratch(SCRIPT_BASIC, engine))
        assert (
            _fingerprint(_run_arena_incremental(SCRIPT_BASIC, engine))
            == baseline
        )

    @pytest.mark.parametrize("compact_every", [1, 5, 13])
    def test_compaction_never_changes_results(self, compact_every):
        baseline = _fingerprint(_run_from_scratch(SCRIPT_BASIC, "vectorized"))
        run = _run_arena_incremental(
            SCRIPT_BASIC, "vectorized", compact_every=compact_every
        )
        assert _fingerprint(run) == baseline

    def test_incremental_arena_converges_to_from_scratch_arena(self):
        """After the replay the patched arena records the same timeline
        membership as the arena compiled from the final state."""
        run = _run_arena_incremental(SCRIPT_BASIC, "vectorized")
        scratch = _run_from_scratch(SCRIPT_BASIC, "vectorized")
        assert run.arena is not None and scratch.arena is not None
        assert run.arena.n_ceis == scratch.arena.n_ceis
        assert run.arena.n_rows == scratch.arena.n_rows
        assert len(run.arena.cancelled_cids) == len(scratch.arena.cancelled_cids)


class TestChurnUnderSubsystems:
    SHED = {
        "shedding": SheddingConfig(
            overload_on=1.2, overload_off=1.0, sustain=2, target_ratio=1.0
        )
    }
    FAULTY = {
        "faults": FailureModel(rate=0.25, seed=11),
        "health": HealthConfig(),
    }

    @pytest.mark.parametrize("engine", ARENA_ENGINES)
    def test_shedding_stats_identical_under_churn(self, engine):
        baseline = _run_from_scratch(SCRIPT_OVERLOAD, engine, self.SHED)
        run = _run_arena_incremental(SCRIPT_OVERLOAD, engine, self.SHED)
        assert _fingerprint(run) == _fingerprint(baseline)
        assert baseline.shedding_stats is not None
        assert baseline.shedding_stats.overload_chronons > 0
        assert run.shedding_stats == baseline.shedding_stats

    @pytest.mark.parametrize("engine", ARENA_ENGINES)
    def test_health_stats_identical_under_churn(self, engine):
        baseline = _run_from_scratch(SCRIPT_BASIC, engine, self.FAULTY)
        run = _run_arena_incremental(SCRIPT_BASIC, engine, self.FAULTY)
        assert _fingerprint(run) == _fingerprint(baseline)
        assert baseline.probes_failed > 0
        assert run.health_stats == baseline.health_stats


@st.composite
def churn_scripts(draw):
    def window():
        resource = draw(st.integers(0, NUM_RESOURCES - 1))
        start = draw(st.integers(0, HORIZON - 2))
        length = draw(st.integers(1, 8))
        return (resource, start, start + length)

    def spec():
        return tuple(window() for _ in range(draw(st.integers(1, 2))))

    initial = [spec() for _ in range(draw(st.integers(1, 4)))]
    total = len(initial)
    events = []
    for chronon in sorted(draw(st.sets(st.integers(1, HORIZON - 2),
                                       min_size=1, max_size=5))):
        if draw(st.booleans()) or total == 0:
            batch = [spec() for _ in range(draw(st.integers(1, 3)))]
            events.append((chronon, "submit", batch))
            total += len(batch)
        else:
            victims = draw(st.sets(st.integers(0, total - 1),
                                   min_size=1, max_size=2))
            events.append((chronon, "cancel", sorted(victims)))
    return {"initial": initial, "events": events}


class TestChurnProperty:
    @settings(max_examples=25, deadline=None)
    @given(script=churn_scripts())
    def test_random_churn_is_replay_invariant(self, script):
        baseline = _fingerprint(_run_from_scratch(script, "vectorized"))
        assert _fingerprint(_run_queue(script, "reference")) == baseline
        assert (
            _fingerprint(_run_arena_incremental(script, "vectorized"))
            == baseline
        )


class TestBagEveryChronon:
    """Each vectorized replay's candidate bag, checked after every chronon
    against the reference queue replay, with the batching cut-over forced
    to 1 and to 10**9."""

    @pytest.mark.parametrize("cutover", CUTOVERS)
    @pytest.mark.parametrize("replay", sorted(REPLAYS))
    def test_scripted(self, replay, cutover):
        for script, extra in (
            (SCRIPT_BASIC, None),
            (SCRIPT_OVERLOAD, TestChurnUnderSubsystems.SHED),
            (SCRIPT_BASIC, TestChurnUnderSubsystems.FAULTY),
        ):
            _check_bag_every_chronon(script, replay, cutover, extra)

    @pytest.mark.parametrize("cutover", CUTOVERS)
    @settings(max_examples=15, deadline=None)
    @given(script=churn_scripts())
    def test_random_churn(self, cutover, script):
        for replay in REPLAYS:
            _check_bag_every_chronon(script, replay, cutover)
