"""Round-trip tests for JSON serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import ComplexExecutionInterval, Semantics
from repro.core.schedule import Schedule
from repro.core.timebase import Epoch
from repro.experiments.common import ExperimentResult
from repro.io import (
    SerializationError,
    cei_from_record,
    cei_to_record,
    load_json,
    profiles_from_dict,
    profiles_to_dict,
    result_from_dict,
    result_to_dict,
    save_json,
    schedule_from_dict,
    schedule_to_dict,
    trace_from_dict,
    trace_to_dict,
)
from repro.traces.poisson import poisson_trace
from tests.conftest import make_cei, make_ei, random_general_instance


class TestTraceRoundTrip:
    def test_roundtrip(self):
        trace = poisson_trace(10, Epoch(100), 5.0, np.random.default_rng(1))
        rebuilt = trace_from_dict(trace_to_dict(trace))
        assert rebuilt.resources == trace.resources
        for rid in trace.resources:
            assert rebuilt.stream(rid).chronons == trace.stream(rid).chronons

    def test_bad_format_rejected(self):
        with pytest.raises(SerializationError, match="format"):
            trace_from_dict({"format": "other", "streams": {}})

    def test_malformed_rejected(self):
        with pytest.raises(SerializationError):
            trace_from_dict({"format": "repro/trace-bundle@1", "streams": {"x": "y"}})


class TestProfileRoundTrip:
    def test_simple_roundtrip(self):
        from repro.core.profile import ProfileSet

        original = ProfileSet.from_ceis(
            [make_cei((0, 0, 5), (1, 2, 8)), make_cei((2, 3, 3))]
        )
        rebuilt = profiles_from_dict(profiles_to_dict(original))
        assert rebuilt.num_ceis == original.num_ceis
        assert rebuilt.num_eis == original.num_eis
        assert rebuilt.rank == original.rank

    def test_true_windows_preserved(self):
        from repro.core.profile import ProfileSet

        ei = make_ei(0, 0, 4, true_start=7, true_finish=11)
        original = ProfileSet.from_ceis([ComplexExecutionInterval(eis=(ei,))])
        rebuilt = profiles_from_dict(profiles_to_dict(original))
        copy = next(rebuilt.eis())
        assert (copy.true_start, copy.true_finish) == (7, 11)

    def test_semantics_and_weights_preserved(self):
        from repro.core.profile import ProfileSet

        cei = ComplexExecutionInterval(
            eis=(make_ei(0, 0, 1), make_ei(1, 0, 1), make_ei(2, 0, 1)),
            semantics=Semantics.AT_LEAST,
            required=2,
            weight=2.5,
        )
        rebuilt = profiles_from_dict(profiles_to_dict(ProfileSet.from_ceis([cei])))
        copy = next(rebuilt.ceis())
        assert copy.semantics is Semantics.AT_LEAST
        assert copy.required == 2
        assert copy.weight == 2.5

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_random_instances_roundtrip(self, seed):
        profiles = random_general_instance(np.random.default_rng(seed))
        rebuilt = profiles_from_dict(profiles_to_dict(profiles))
        original_shape = sorted(
            (ei.resource, ei.start, ei.finish) for ei in profiles.eis()
        )
        rebuilt_shape = sorted(
            (ei.resource, ei.start, ei.finish) for ei in rebuilt.eis()
        )
        assert rebuilt_shape == original_shape

    def test_malformed_rejected(self):
        with pytest.raises(SerializationError):
            profiles_from_dict({"format": "repro/profile-set@1", "profiles": [{}]})


def _cei_fields(cei: ComplexExecutionInterval) -> tuple:
    return (
        cei.semantics,
        cei.required,
        cei.weight,
        [(e.resource, e.start, e.finish, e.true_start, e.true_finish) for e in cei.eis],
    )


@st.composite
def any_cei(draw):
    """A CEI of rank 1..6 with any semantics, weight and true windows."""
    eis = []
    for _ in range(draw(st.integers(1, 6))):
        start = draw(st.integers(0, 500))
        finish = start + draw(st.integers(0, 60))
        true_start, true_finish = start, finish
        if draw(st.booleans()):
            true_start = draw(st.integers(0, 500))
            true_finish = true_start + draw(st.integers(0, 60))
        eis.append(
            make_ei(draw(st.integers(0, 200)), start, finish, true_start, true_finish)
        )
    semantics = draw(st.sampled_from(list(Semantics)))
    required = draw(st.integers(1, len(eis))) if semantics is Semantics.AT_LEAST else 0
    weight = draw(st.one_of(st.just(1.0), st.floats(0.01, 100.0)))
    return ComplexExecutionInterval(
        eis=tuple(eis), semantics=semantics, required=required, weight=weight
    )


class TestCeiRecord:
    """The journal and snapshot form of one CEI: triples when plain."""

    @settings(max_examples=200, deadline=None)
    @given(cei=any_cei())
    def test_roundtrip_every_field(self, cei):
        record = json.loads(json.dumps(cei_to_record(cei)))
        assert _cei_fields(cei_from_record(record)) == _cei_fields(cei)
        plain = (
            cei.semantics is Semantics.ALL
            and cei.weight == 1.0
            and all(
                (e.true_start, e.true_finish) == (e.start, e.finish) for e in cei.eis
            )
        )
        assert isinstance(record, list) == plain

    def test_plain_cei_is_triples(self):
        cei = make_cei((3, 0, 5), (1, 2, 8))
        assert cei_to_record(cei) == [[3, 0, 5], [1, 2, 8]]

    @pytest.mark.parametrize(
        "cei",
        [
            make_cei((3, 0, 5), weight=2.0),
            ComplexExecutionInterval(eis=(make_ei(0, 0, 4, 1, 6),)),
            ComplexExecutionInterval(eis=(make_ei(0, 0, 4),), semantics=Semantics.ANY),
        ],
        ids=["weight", "true-window", "any"],
    )
    def test_other_ceis_keep_the_dict_form(self, cei):
        from repro.io.serialization import _cei_to_dict

        assert cei_to_record(cei) == _cei_to_dict(cei)

    def test_dict_form_still_decodes(self):
        from repro.io.serialization import _cei_to_dict

        cei = make_cei((3, 0, 5), (1, 2, 8))
        assert _cei_fields(cei_from_record(_cei_to_dict(cei))) == _cei_fields(cei)


class TestScheduleRoundTrip:
    def test_roundtrip(self):
        schedule = Schedule.from_pairs([(0, 1), (3, 7), (2, 7)])
        rebuilt = schedule_from_dict(schedule_to_dict(schedule))
        assert rebuilt.probes == schedule.probes

    def test_empty_schedule(self):
        rebuilt = schedule_from_dict(schedule_to_dict(Schedule()))
        assert rebuilt.num_probes == 0


class TestResultRoundTrip:
    def test_roundtrip(self):
        result = ExperimentResult(
            experiment="demo",
            headers=["x", "y"],
            rows=[[1, 0.5], [2, 0.7]],
            notes=["note"],
        )
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.experiment == "demo"
        assert rebuilt.series("y") == [0.5, 0.7]
        assert rebuilt.notes == ["note"]


class TestFileIO:
    def test_save_and_load(self, tmp_path):
        trace = poisson_trace(3, Epoch(50), 4.0, np.random.default_rng(2))
        path = save_json(trace_to_dict(trace), tmp_path / "trace.json")
        rebuilt = trace_from_dict(load_json(path))
        assert rebuilt.total_events == trace.total_events

    def test_load_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SerializationError):
            load_json(bad)

    def test_load_non_object(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        with pytest.raises(SerializationError):
            load_json(bad)

    def test_end_to_end_schedule_replay(self, tmp_path):
        """Save a run's schedule, reload it, and replay it faithfully."""
        from repro.core.metrics import gained_completeness
        from repro.core.profile import ProfileSet
        from repro.core.schedule import BudgetVector
        from repro.online.arrivals import arrivals_from_profiles
        from repro.online.monitor import OnlineMonitor
        from repro.policies import FollowSchedule, make_policy

        profiles = ProfileSet.from_ceis([make_cei((0, 0, 4)), make_cei((1, 2, 6))])
        epoch = Epoch(8)
        budget = BudgetVector.constant(1, 8)
        monitor = OnlineMonitor(make_policy("MRSF"), budget)
        schedule = monitor.run(epoch, arrivals_from_profiles(profiles))

        path = save_json(schedule_to_dict(schedule), tmp_path / "plan.json")
        replayed_plan = schedule_from_dict(load_json(path))
        replayer = OnlineMonitor(FollowSchedule(replayed_plan), budget)
        replayed = replayer.run(epoch, arrivals_from_profiles(
            profiles_from_dict(profiles_to_dict(profiles))
        ))
        assert gained_completeness(profiles, replayed) == gained_completeness(
            profiles, schedule
        )
