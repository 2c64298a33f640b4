"""Policy interface and registry.

A *policy* Φ is the pluggable heart of the online monitor: at chronon
``T_j`` it looks at the candidate execution intervals and returns up to
``C_j`` EIs to probe (paper Section IV-A).  We express a policy as a
*priority function*: lower priority values are probed first.  This covers
all three of the paper's policy levels —

* **individual EI level** (S-EDF): only local properties of one EI;
* **rank level** (MRSF): adds the parent CEI's residual;
* **multi-EIs level** (M-EDF): uses all sibling EIs of the parent CEI —

as well as WIC and the naive baselines.  Policies that need run state
(WIC's accumulated utility, round-robin's last-probe table) get lifecycle
hooks, all of which default to no-ops.

Ties are broken deterministically by ``(priority, finish, seq)`` so that
runs are exactly reproducible.
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING, Callable, Optional, Protocol

from repro.core.errors import ModelError
from repro.core.intervals import ComplexExecutionInterval, ExecutionInterval
from repro.core.resource import ResourceId
from repro.core.timebase import Chronon

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.policies.kernels import ScoreKernel


class MonitorView(Protocol):
    """What a policy may observe about the run while ranking candidates."""

    def is_ei_captured(self, ei: ExecutionInterval) -> bool:
        """Has this EI been captured (proxy's belief) so far?"""

    def captured_count(self, cei: ComplexExecutionInterval) -> int:
        """How many EIs of this CEI have been captured so far?"""

    def active_uncaptured_on(self, resource: ResourceId) -> int:
        """How many active, uncaptured candidate EIs sit on ``resource``?"""


#: A priority is any totally-ordered value; lower means "probe first".
Priority = float


def probe_allowance(limit: float) -> int:
    """Largest probe count a (possibly fractional) budget hint can fund.

    Resource-level policies receive the chronon's *remaining budget* as a
    float (the monitor no longer truncates 1.5 units down to 1 before the
    policy sees them).  Policies that need a whole pick count round *up*:
    with heterogeneous probe costs a fractional remainder may still fund a
    cheap probe, and the monitor's cost accounting — not the hint —
    enforces what actually fits.
    """
    return max(0, math.ceil(float(limit) - 1e-9))


#: The optional per-chronon hooks the monitor only calls for a policy
#: that overrides them (:meth:`Policy.overridden_hooks`).
HOOKS = (
    "on_chronon_start",
    "select_resources",
    "on_probe",
    "on_ei_activated",
    "on_ei_expired",
)


class Policy(abc.ABC):
    """Base class for probing policies."""

    #: Registry name, e.g. ``"S-EDF"``.  Set by subclasses.
    name: str = ""

    @abc.abstractmethod
    def priority(
        self, ei: ExecutionInterval, chronon: Chronon, view: MonitorView
    ) -> Priority:
        """Rank a candidate EI at ``chronon``; lower values probe first."""

    # -- lifecycle hooks (all optional) --------------------------------

    def on_run_start(self, num_resources: int) -> None:
        """Called once before the first chronon of a run."""

    def on_chronon_start(self, chronon: Chronon) -> None:
        """Called at the beginning of every chronon."""

    def on_probe(self, resource: ResourceId, chronon: Chronon) -> None:
        """Called after the monitor probes ``resource`` at ``chronon``."""

    def on_ei_activated(self, ei: ExecutionInterval, chronon: Chronon) -> None:
        """Called when an EI's scheduling window opens."""

    def on_ei_expired(self, ei: ExecutionInterval, chronon: Chronon) -> None:
        """Called when an EI's window closes without capture."""

    def bind_reliability(self, faults, retry) -> None:
        """Called once by the monitor with its failure model and retry policy.

        Most policies are reliability-blind and ignore the call (the
        default).  Reliability-aware policies (the expected-gain wrappers)
        adopt the run's :class:`~repro.online.faults.FailureModel` /
        :class:`~repro.online.faults.RetryPolicy` here unless they were
        constructed with an explicit model of their own.
        """

    def bind_health(self, health) -> None:
        """Called once by the monitor with its learned health tracker.

        Only issued when the run carries a
        :class:`~repro.online.health.HealthConfig`.  Policies that
        consume *learned* reliability (the ``LEG-*`` / ``LSLO-*``
        expected-gain wrappers) adopt the run's
        :class:`~repro.online.health.HealthTracker` here and read its
        per-chronon frozen ``p_failure`` snapshots instead of the bound
        oracle model; everyone else ignores the call (the default).
        """

    def overridden_hooks(self) -> frozenset[str]:
        """The optional hooks this policy acts on, out of :data:`HOOKS`.

        The monitor skips the rest: it builds no EI lists for them, calls
        no no-op hook, and may walk a whole run from one heap.  The
        default compares the policy's class with :class:`Policy`; a
        wrapper that only forwards hooks reports its base's instead.
        """
        cls = type(self)
        return frozenset(
            name for name in HOOKS if getattr(cls, name) is not getattr(Policy, name)
        )

    def sibling_sensitive(self) -> bool:
        """Does this policy's priority depend on sibling capture state?

        The monitor uses this to know whether a capture event can change
        the priorities of other pending candidates within the same chronon
        (true for MRSF and M-EDF, false for S-EDF and WIC).
        """
        return False

    def select_resources(
        self, chronon: Chronon, limit: float, view: MonitorView
    ) -> list[ResourceId] | None:
        """Resource-level selection hook (None = use EI-level ranking).

        A *resource-level* policy (WIC) allocates probes over resources by
        its own utility, without consulting the candidate EIs; the monitor
        then opportunistically captures whatever active EIs sit on the
        probed resources.  ``limit`` is the chronon's remaining budget in
        cost units — a float, possibly fractional under heterogeneous
        probe costs; use :func:`probe_allowance` to turn it into a whole
        pick count.  Return the picked resource ids (the monitor enforces
        actual probe costs against the budget), or None to use the default
        EI-priority machinery.
        """
        return None

    def sort_key(
        self, ei: ExecutionInterval, chronon: Chronon, view: MonitorView
    ) -> tuple[Priority, Chronon, int]:
        """Full deterministic ordering key for a candidate EI."""
        return (self.priority(ei, chronon, view), ei.finish, ei.seq)

    def make_kernel(self) -> "Optional[ScoreKernel]":
        """Batched scoring kernel for the vectorized engine, if any.

        Return a :class:`repro.policies.kernels.ScoreKernel` whose scores
        are bit-identical to :meth:`priority`, or None (the default) to
        run the vectorized engine through the generic per-EI ranking
        loop.  Policies whose priority depends on per-call state the
        kernel cannot see (randomness, configuration overriding the
        columns) must return None.
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


_REGISTRY: dict[str, Callable[[], Policy]] = {}


def register_policy(name: str) -> Callable[[type], type]:
    """Class decorator registering a zero-argument-constructible policy."""

    def decorate(cls: type) -> type:
        cls.name = name
        _REGISTRY[name.upper()] = cls
        return cls

    return decorate


def make_policy(name: str, **kwargs) -> Policy:
    """Instantiate a registered policy by name (case-insensitive)."""
    try:
        factory = _REGISTRY[name.upper()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ModelError(f"unknown policy {name!r}; known policies: {known}") from None
    return factory(**kwargs)


def available_policies() -> list[str]:
    """Names of all registered policies, sorted."""
    return sorted(_REGISTRY)
