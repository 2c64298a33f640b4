"""Arrival streams: when does the proxy learn about each CEI?

In the online setting the proxy has no a-priori knowledge of future CEIs
(paper Section IV): "At every chronon T_j, the proxy may receive a set of
new CEIs."  The default revelation rule — used throughout the paper's
experiments — reveals a CEI at the start chronon of its earliest EI, i.e.
exactly when it first overlaps the present.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.errors import ModelError
from repro.core.intervals import ComplexExecutionInterval
from repro.core.profile import ProfileSet
from repro.core.timebase import Chronon, Epoch


def arrival_map(
    ceis: Iterable[ComplexExecutionInterval],
    *,
    epoch: Optional[Epoch] = None,
) -> dict[Chronon, list[ComplexExecutionInterval]]:
    """Group CEIs by their revelation chronon (earliest EI start).

    With ``epoch`` given, a CEI whose release chronon falls outside the
    epoch raises :class:`ModelError` — the monitor's step loop would
    otherwise silently never reveal it (release past the epoch) and the
    streaming path depends on every arrival chronon being steppable.
    Callers that intentionally accept needs released past the epoch
    (e.g. :meth:`repro.proxy.proxy.MonitoringProxy.run`, where such a
    need simply stays unsatisfied) omit the epoch and keep the
    permissive behaviour.
    """
    arrivals: dict[Chronon, list[ComplexExecutionInterval]] = {}
    for cei in ceis:
        release = cei.release
        if epoch is not None and release not in epoch:
            raise ModelError(
                f"CEI {cei.cid} releases at chronon {release}, outside "
                f"the epoch [0, {len(epoch)}); it would never be revealed"
            )
        arrivals.setdefault(release, []).append(cei)
    return arrivals


def arrivals_from_profiles(
    profiles: ProfileSet,
    *,
    epoch: Optional[Epoch] = None,
) -> dict[Chronon, list[ComplexExecutionInterval]]:
    """Arrival map over every CEI of a profile set (see :func:`arrival_map`)."""
    return arrival_map(profiles.ceis(), epoch=epoch)
