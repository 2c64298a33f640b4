"""Unified monitor configuration: one frozen object instead of kwarg sprawl.

The engine/fault/retry/worker knobs used to travel as loose keywords
through separate entry points (``OnlineMonitor``, ``simulate``,
``MonitoringProxy``, ``run_suite``, ``sweep``), each validating the
engine string on its own.  :class:`MonitorConfig` collapses them into a
single frozen dataclass that every entry point accepts as ``config=``;
:class:`Engine` promotes the engine string to a str-enum whose
:meth:`Engine.coerce` is the one place an engine value is validated.

The loose keywords are gone from every signature, so Python itself
rejects them with a :class:`TypeError`.  The retired ``"auto"`` engine
value is an unknown engine like any other.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.online.faults import FailureModel, RetryPolicy
    from repro.online.health import HealthConfig
    from repro.online.shedding import SheddingConfig


class Engine(str, enum.Enum):
    """The interchangeable monitor implementations.

    A str-enum: ``Engine.VECTORIZED == "vectorized"`` holds, so existing
    string comparisons keep working wherever an ``Engine`` flows.
    """

    REFERENCE = "reference"
    VECTORIZED = "vectorized"

    @classmethod
    def coerce(cls, value: "Engine | str") -> "Engine":
        """The single validation point for engine values.

        Anything but a member or a member's value (the retired
        ``"auto"`` included) raises :class:`ModelError`.
        """
        if isinstance(value, Engine):
            return value
        try:
            return cls(value)
        except ValueError:
            options = tuple(engine.value for engine in cls)
            raise ModelError(
                f"unknown engine {value!r}; expected one of {options}"
            ) from None


#: Backwards-compatible tuple of valid engine names.
ENGINES = tuple(engine.value for engine in Engine)


@dataclass(frozen=True, slots=True)
class MonitorConfig:
    """How a monitoring run executes, independent of *what* it monitors.

    Parameters
    ----------
    engine:
        Monitor implementation — :attr:`Engine.REFERENCE` (the Algorithm 1
        transcription) or :attr:`Engine.VECTORIZED` (the structure-of-arrays
        fast path, bit-identical to it).  A plain string is coerced and
        validated on construction.
    faults:
        Optional :class:`repro.online.faults.FailureModel` injecting probe
        failures into every run using this config.
    retry:
        Optional :class:`repro.online.faults.RetryPolicy`.  A config may
        carry a retry policy without a failure model (e.g. as a ``sweep``
        template whose per-point models arrive later); the monitor rejects
        that combination at run construction.
    workers:
        Process-pool size for ``run_suite``/``sweep`` (None or 1 = serial).
        Ignored by the single-run entry points.
    health:
        Optional :class:`repro.online.health.HealthConfig` enabling
        per-resource online failure estimation (and, optionally, circuit
        breaking) learned from the run's own probe outcomes.  Requires a
        failure model to observe; the monitor rejects a health config
        without one at run construction.
    shedding:
        Optional :class:`repro.online.shedding.SheddingConfig` enabling
        admission control / tiered load shedding under sustained overload:
        an EWMA demand-to-budget detector with hysteresis, and a
        utility-per-probe victim selector that degrades ``soft`` CEIs and
        sheds ``best-effort`` ones (``hard`` CEIs are never touched).
        Engine-neutral: both engines produce bit-identical schedules under
        the same shedding config.
    shards:
        Optional shard-worker count for the shared-memory sharded
        scheduling engine (:mod:`repro.online.sharded`): the instance's
        resources are partitioned across this many persistent forked
        workers that score and top-k-select in parallel against shared
        arena columns, merged by the coordinator into the exact
        single-engine selection order (schedules stay bit-identical for
        any count).  Requires ``engine="vectorized"`` and an
        arena-backed monitor; policies without a shardable kernel (and
        platforms without ``fork``) fall back to the single-engine path,
        recorded in ``monitor.sharding_stats``.  ``shards=1`` is valid
        (one worker, useful for testing the machinery).

    The object is frozen: derive variants with :meth:`replace`.
    """

    engine: Engine = Engine.REFERENCE
    faults: "Optional[FailureModel]" = None
    retry: "Optional[RetryPolicy]" = None
    workers: Optional[int] = None
    health: "Optional[HealthConfig]" = None
    shedding: "Optional[SheddingConfig]" = None
    shards: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine", Engine.coerce(self.engine))
        if self.workers is not None and self.workers < 1:
            raise ModelError(f"workers must be >= 1, got {self.workers}")
        if self.shards is not None and self.shards < 1:
            raise ModelError(f"shards must be >= 1, got {self.shards}")

    def replace(self, **changes) -> "MonitorConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **changes)


def resolve_config(
    config: Optional[MonitorConfig], *, owner: str = "OnlineMonitor"
) -> MonitorConfig:
    """``config`` as a :class:`MonitorConfig`: ``None`` is the default one.

    Anything else that is not a :class:`MonitorConfig` raises
    :class:`ModelError` naming ``owner``.
    """
    if config is None:
        return MonitorConfig()
    if not isinstance(config, MonitorConfig):
        raise ModelError(
            f"{owner}: config must be a MonitorConfig, got {type(config).__name__}"
        )
    return config
