"""JSON serialization of the core model objects.

Traces, profiles, schedules and experiment results need to cross process
boundaries: a trace collected once should feed many runs, a schedule
computed by a slow offline solver should be reusable, an experiment's
rows should land in whatever plotting stack the user has.  This module
provides stable, versioned dict/JSON forms with full round-tripping:

* traces (:class:`~repro.traces.events.TraceBundle`),
* profile sets — including true windows, semantics and weights,
* schedules,
* experiment results (:class:`~repro.experiments.common.ExperimentResult`).

Single CEIs also have a compact record form (:func:`cei_to_record`),
which the durable proxy's journal and snapshots use.

All ``*_to_dict`` functions emit plain JSON-compatible dicts with a
``"format"`` tag; ``*_from_dict`` validate the tag and rebuild the
object.  ``save_json`` / ``load_json`` wrap file IO.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.errors import ReproError
from repro.core.intervals import ComplexExecutionInterval, ExecutionInterval, Semantics
from repro.core.profile import Profile, ProfileSet
from repro.core.schedule import Schedule
from repro.experiments.common import ExperimentResult
from repro.traces.events import TraceBundle

FORMAT_TRACE = "repro/trace-bundle@1"
FORMAT_PROFILES = "repro/profile-set@1"
FORMAT_SCHEDULE = "repro/schedule@1"
FORMAT_RESULT = "repro/experiment-result@1"


class SerializationError(ReproError):
    """The payload is not a valid serialized object of the expected kind."""


def _require_format(payload: dict, expected: str) -> None:
    found = payload.get("format")
    if found != expected:
        raise SerializationError(
            f"expected payload format {expected!r}, found {found!r}"
        )


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


def trace_to_dict(bundle: TraceBundle) -> dict:
    """Serialize a trace bundle."""
    return {
        "format": FORMAT_TRACE,
        "streams": {
            str(rid): list(bundle.stream(rid).chronons) for rid in bundle.resources
        },
    }


def trace_from_dict(payload: dict) -> TraceBundle:
    """Rebuild a trace bundle."""
    _require_format(payload, FORMAT_TRACE)
    try:
        streams = {
            int(rid): [int(c) for c in chronons]
            for rid, chronons in payload["streams"].items()
        }
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(f"malformed trace payload: {error}") from error
    return TraceBundle.from_mapping(streams)


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


def _ei_to_dict(ei: ExecutionInterval) -> dict:
    out: dict[str, Any] = {
        "resource": ei.resource,
        "start": ei.start,
        "finish": ei.finish,
    }
    if ei.true_start != ei.start or ei.true_finish != ei.finish:
        out["true_start"] = ei.true_start
        out["true_finish"] = ei.true_finish
    return out


def _ei_from_dict(payload: dict) -> ExecutionInterval:
    return ExecutionInterval(
        resource=int(payload["resource"]),
        start=int(payload["start"]),
        finish=int(payload["finish"]),
        true_start=(
            int(payload["true_start"]) if "true_start" in payload else None
        ),
        true_finish=(
            int(payload["true_finish"]) if "true_finish" in payload else None
        ),
    )


def _cei_to_dict(cei: ComplexExecutionInterval) -> dict:
    out: dict[str, Any] = {"eis": [_ei_to_dict(ei) for ei in cei.eis]}
    if cei.semantics is not Semantics.ALL:
        out["semantics"] = cei.semantics.value
        out["required"] = cei.required
    if cei.weight != 1.0:
        out["weight"] = cei.weight
    return out


def _cei_from_dict(payload: dict) -> ComplexExecutionInterval:
    semantics = Semantics(payload.get("semantics", "all"))
    return ComplexExecutionInterval(
        eis=tuple(_ei_from_dict(ei) for ei in payload["eis"]),
        semantics=semantics,
        required=int(payload.get("required", 0)),
        weight=float(payload.get("weight", 1.0)),
    )


def cei_to_record(cei: ComplexExecutionInterval) -> list | dict:
    """One CEI in the journal and snapshot form.

    A *plain* CEI (AND semantics, weight 1, every EI's true window equal
    to its window) is a list of ``[resource, start, finish]`` triples:
    no dict per CEI or EI to build, sort and parse.  Any other CEI keeps
    the full dict form of the profile files.  :func:`cei_from_record`
    reads both.
    """
    if cei.semantics is Semantics.ALL and cei.weight == 1.0:
        triples = []
        for ei in cei.eis:
            start, finish = ei.start, ei.finish
            if ei.true_start != start or ei.true_finish != finish:
                return _cei_to_dict(cei)
            triples.append([ei.resource, start, finish])
        return triples
    return _cei_to_dict(cei)


def cei_from_record(payload: list | dict) -> ComplexExecutionInterval:
    """Rebuild a CEI from either form :func:`cei_to_record` writes."""
    if isinstance(payload, dict):
        return _cei_from_dict(payload)
    return ComplexExecutionInterval(
        eis=tuple(
            ExecutionInterval(resource=int(r), start=int(s), finish=int(f))
            for r, s, f in payload
        )
    )


def profiles_to_dict(profiles: ProfileSet) -> dict:
    """Serialize a profile set (windows, semantics, weights preserved)."""
    return {
        "format": FORMAT_PROFILES,
        "profiles": [
            {"pid": profile.pid, "ceis": [_cei_to_dict(cei) for cei in profile]}
            for profile in profiles
        ],
    }


def profiles_from_dict(payload: dict) -> ProfileSet:
    """Rebuild a profile set."""
    _require_format(payload, FORMAT_PROFILES)
    try:
        profiles = ProfileSet(
            [
                Profile(
                    pid=int(entry["pid"]),
                    ceis=[_cei_from_dict(cei) for cei in entry["ceis"]],
                )
                for entry in payload["profiles"]
            ]
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(f"malformed profile payload: {error}") from error
    return profiles


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def schedule_to_dict(schedule: Schedule) -> dict:
    """Serialize a schedule as (resource, chronon) pairs."""
    return {
        "format": FORMAT_SCHEDULE,
        "probes": [[resource, chronon] for resource, chronon in schedule.pairs()],
    }


def schedule_from_dict(payload: dict) -> Schedule:
    """Rebuild a schedule."""
    _require_format(payload, FORMAT_SCHEDULE)
    try:
        return Schedule.from_pairs(
            (int(resource), int(chronon))
            for resource, chronon in payload["probes"]
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(f"malformed schedule payload: {error}") from error


# ---------------------------------------------------------------------------
# Experiment results
# ---------------------------------------------------------------------------


def result_to_dict(result: ExperimentResult) -> dict:
    """Serialize an experiment result (rows stay JSON-native)."""
    return {
        "format": FORMAT_RESULT,
        "experiment": result.experiment,
        "headers": list(result.headers),
        "rows": [list(row) for row in result.rows],
        "notes": list(result.notes),
    }


def result_from_dict(payload: dict) -> ExperimentResult:
    """Rebuild an experiment result."""
    _require_format(payload, FORMAT_RESULT)
    try:
        return ExperimentResult(
            experiment=str(payload["experiment"]),
            headers=[str(h) for h in payload["headers"]],
            rows=[list(row) for row in payload["rows"]],
            notes=[str(n) for n in payload.get("notes", [])],
        )
    except (KeyError, TypeError) as error:
        raise SerializationError(f"malformed result payload: {error}") from error


# ---------------------------------------------------------------------------
# File IO
# ---------------------------------------------------------------------------


def save_json(payload: dict, path: str | Path) -> Path:
    """Write a serialized payload to ``path`` (pretty-printed)."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_json(path: str | Path) -> dict:
    """Read a serialized payload from ``path``."""
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise SerializationError(f"{path} is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise SerializationError(f"{path} does not contain a JSON object")
    return payload
