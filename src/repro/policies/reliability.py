"""Reliability-aware policies: expected-gain discounting of any base policy.

The paper's policies rank candidates as if every probe succeeds.  Under a
:class:`~repro.online.faults.FailureModel` that is wrong twice over: a
probe of a flaky resource (a) may pay its cost for nothing and (b) even
with retries only captures with probability ``p_success < 1``.  The
expected gained completeness of probing candidate ``I`` on resource ``r``
is therefore its nominal gain *times* ``p_success(r)`` — so the wrapper
here divides the base policy's priority (lower probes first) by
``p_success``, pushing unreliable resources later in the ranking exactly
in proportion to how much of their gain evaporates in expectation.  The
shape follows the utility-discounted scheduling of the load-shedding and
adaptive-probing literature (He et al.; Mahmoody et al.).

``p_success`` compounds the per-attempt failure probability over the
retry budget: with effective failure rate ``f`` and ``A`` attempts
allowed per (resource, chronon), ``p_success = 1 - f**A``.  ``A`` is the
*full* attempt allowance, not the attempts remaining — a failed candidate
re-enters the ranking of both engines with an unchanged key, so the
discount must be a constant per (resource, chronon).  Time-varying
:class:`~repro.online.faults.RateWindow` multipliers flow through
``FailureModel.rate_with_multiplier``; :class:`~repro.online.faults.Outage`
windows do *not* discount (the injector already skips outaged resources
before any budget is spent, so their candidates are simply unprobeable,
not mispriced).

The wrapper assumes the base policy's priorities are non-negative, which
holds for every policy in this package (deadline distances, residuals and
remaining-mass sums are all >= 0 for active candidates); a negative
priority would have its urgency *amplified* by the division instead of
discounted.

Two discount *sources* exist.  ``source="oracle"`` (default, the ``EG-*``
registrations) reads the injected failure model's true rates — the upper
bound a real proxy cannot reach.  ``source="learned"`` (the ``LEG-*``
registrations) reads the run's
:class:`~repro.online.health.HealthTracker` instead: per-resource failure
probabilities estimated online from the monitor's own probe outcomes,
frozen once per chronon so both engines rank against identical values.
A learned wrapper starts from the estimator's prior (no information: it
ranks almost like its base) and converges toward the oracle wrapper as
observations accumulate — the convergence the learned-reliability sweep
measures.

:class:`SLOExpectedGainPolicy` (``SLO-*`` / learned ``LSLO-*``) weights
the discount *exponent* by the parent CEI's client utility:
``priority = base / p_success**weight``.  For ``weight > 1`` the penalty
for unreliable resources is amplified — a per-client reliability SLO:
high-value clients' candidates on flaky mirrors are shed first, which
concentrates their probes on reliable replicas, while ``weight == 1``
degenerates to the plain expected-gain discount.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.errors import ModelError
from repro.core.intervals import ExecutionInterval
from repro.core.resource import ResourceId
from repro.core.timebase import Chronon
from repro.policies.base import MonitorView, Policy, Priority, make_policy, register_policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.online.faults import FailureModel, RetryPolicy
    from repro.online.health import HealthTracker
    from repro.policies.kernels import ScoreKernel


class ExpectedGainPolicy(Policy):
    """Discount a base policy's priority by probe success probability.

    Parameters
    ----------
    base:
        The wrapped policy (an instance, or a registry name).
    faults, retry:
        Optional explicit :class:`FailureModel` / :class:`RetryPolicy`.
        When omitted (the usual case) the policy adopts the monitor's own
        model and retry policy through :meth:`bind_reliability`, so
        ``make_policy("EG-MRSF")`` needs no wiring — it discounts by
        whatever fault universe the run actually injects.  With no model
        at all (or a trivial one) the wrapper ranks identically to its
        base: every ``p_success`` is 1.
    source:
        ``"oracle"`` (default) discounts by the failure model's true
        rates; ``"learned"`` discounts by the run's
        :class:`~repro.online.health.HealthTracker` estimates adopted via
        :meth:`bind_health`.  A learned wrapper with no tracker bound
        (run without a health config) ranks identically to its base.
    """

    def __init__(
        self,
        base: Policy | str,
        faults: "Optional[FailureModel]" = None,
        retry: "Optional[RetryPolicy]" = None,
        source: str = "oracle",
    ) -> None:
        if source not in ("oracle", "learned"):
            raise ModelError(
                f"source must be 'oracle' or 'learned', got {source!r}"
            )
        self.base = make_policy(base) if isinstance(base, str) else base
        self.faults = faults
        self.retry = retry
        self.source = source
        self.health: "Optional[HealthTracker]" = None
        self._explicit_faults = faults is not None
        self._explicit_retry = retry is not None
        # Oracle caches keyed by the active rate multiplier: {mult: {rid: p}}
        # for scalar lookups and {mult: ndarray} for the kernel.  Cleared
        # when bind_reliability swaps the model in.
        self._p_cache: dict[float, dict[ResourceId, float]] = {}
        self._array_cache: dict[float, np.ndarray] = {}
        # Learned caches keyed by the tracker's snapshot version (which
        # bumps once per chronon, when the frozen estimates change).
        self._learned_version = -1
        self._learned_p: dict[ResourceId, float] = {}
        self._learned_arr: Optional[np.ndarray] = None
        if not type(self).name:
            prefix = "LEG-" if source == "learned" else "EG-"
            self.name = prefix + self.base.name

    # -- reliability plumbing ------------------------------------------

    def bind_reliability(self, faults, retry) -> None:
        """Adopt the monitor's fault universe unless explicitly configured."""
        changed = False
        if not self._explicit_faults and faults is not None and faults is not self.faults:
            self.faults = faults
            changed = True
        if not self._explicit_retry and retry is not None and retry is not self.retry:
            self.retry = retry
            changed = True
        if changed:
            self._p_cache.clear()
            self._array_cache.clear()

    def bind_health(self, health) -> None:
        """Adopt the monitor's learned health tracker (learned source only)."""
        if health is not self.health:
            self.health = health
            self._learned_version = -1
            self._learned_p = {}
            self._learned_arr = None

    def _sync_learned(self, health: "HealthTracker") -> None:
        """Refresh learned caches when the tracker froze a new snapshot.

        Across consecutive versions only the tracker's ``frozen_dirty``
        resources moved, so the caches are patched in place; a version
        jump (no access for a whole chronon) or a dirty resource beyond
        the array's width drops them for a lazy full rebuild.
        """
        if health.version == self._learned_version:
            return
        if self._learned_arr is not None and health.version == self._learned_version + 1:
            arr = self._learned_arr
            for rid in health.frozen_dirty:
                self._learned_p.pop(rid, None)
                if rid < arr.size:
                    arr[rid] = self._p_success_learned(rid)
                else:
                    # A first observation beyond the array's width: too
                    # narrow to patch, rebuild lazily at the next demand.
                    self._learned_arr = None
        else:
            self._learned_p = {}
            self._learned_arr = None
        self._learned_version = health.version

    def _multiplier(self, chronon: Chronon) -> float:
        model = self.faults
        if model is None or not model.rate_schedule:
            return 1.0
        return model.rate_multiplier(chronon)

    def _p_success_static(self, resource: ResourceId, multiplier: float) -> float:
        """``p_success`` from plain Python scalar arithmetic.

        The kernel's per-resource array is built entry-by-entry from this
        same function, so the vectorized engine divides by bit-identical
        float64 values.
        """
        model = self.faults
        if model is None:
            return 1.0
        f = model.rate_with_multiplier(resource, multiplier)
        if f <= 0.0:
            return 1.0
        attempts = self.retry.max_attempts if self.retry is not None else 1
        return 1.0 - f**attempts

    def _p_success_learned(self, resource: ResourceId) -> float:
        """``p_success`` from the tracker's frozen per-chronon estimate.

        Same scalar arithmetic as :meth:`_p_success_static`, fed by the
        learned failure probability; the kernel array is built
        entry-by-entry from this function, so both engines divide by
        bit-identical float64 values.
        """
        f = self.health.p_failure(resource)
        if f <= 0.0:
            return 1.0
        attempts = self.retry.max_attempts if self.retry is not None else 1
        return 1.0 - f**attempts

    def p_success(self, resource: ResourceId, chronon: Chronon) -> float:
        """Probability that probing ``resource`` at ``chronon`` captures."""
        if self.source == "learned":
            health = self.health
            if health is None:
                return 1.0
            self._sync_learned(health)
            p = self._learned_p.get(resource)
            if p is None:
                p = self._p_success_learned(resource)
                self._learned_p[resource] = p
            return p
        if self.faults is None:
            return 1.0
        multiplier = self._multiplier(chronon)
        per_resource = self._p_cache.setdefault(multiplier, {})
        p = per_resource.get(resource)
        if p is None:
            p = self._p_success_static(resource, multiplier)
            per_resource[resource] = p
        return p

    def p_success_array(self, chronon: Chronon, size: int) -> np.ndarray:
        """Resource-indexed ``p_success`` values for the batched kernel."""
        if self.source == "learned":
            health = self.health
            if health is not None:
                self._sync_learned(health)
            arr = self._learned_arr
            if arr is None or arr.size < size:
                width = max(size, 64, 0 if arr is None else 2 * arr.size)
                if health is None:
                    arr = np.ones(width)
                else:
                    arr = np.array(
                        [self._p_success_learned(rid) for rid in range(width)]
                    )
                self._learned_arr = arr
            return arr
        multiplier = self._multiplier(chronon)
        arr = self._array_cache.get(multiplier)
        if arr is None or arr.size < size:
            width = max(size, 64, 0 if arr is None else 2 * arr.size)
            arr = np.array(
                [self._p_success_static(rid, multiplier) for rid in range(width)]
            )
            self._array_cache[multiplier] = arr
        return arr

    # -- Policy interface ----------------------------------------------

    def priority(
        self, ei: ExecutionInterval, chronon: Chronon, view: MonitorView
    ) -> Priority:
        base = self.base.priority(ei, chronon, view)
        p = self.p_success(ei.resource, chronon)
        if p <= 0.0:
            return math.inf
        return base / p

    def sibling_sensitive(self) -> bool:
        return self.base.sibling_sensitive()

    def overridden_hooks(self) -> frozenset[str]:
        # Every hook below only forwards, so the base decides.
        return self.base.overridden_hooks()

    def select_resources(self, chronon, limit, view):
        return self.base.select_resources(chronon, limit, view)

    def on_run_start(self, num_resources: int) -> None:
        self.base.on_run_start(num_resources)

    def on_chronon_start(self, chronon: Chronon) -> None:
        self.base.on_chronon_start(chronon)

    def on_probe(self, resource: ResourceId, chronon: Chronon) -> None:
        self.base.on_probe(resource, chronon)

    def on_ei_activated(self, ei: ExecutionInterval, chronon: Chronon) -> None:
        self.base.on_ei_activated(ei, chronon)

    def on_ei_expired(self, ei: ExecutionInterval, chronon: Chronon) -> None:
        self.base.on_ei_expired(ei, chronon)

    def make_kernel(self) -> "Optional[ScoreKernel]":
        from repro.policies.kernels import ExpectedGainKernel

        base_kernel = self.base.make_kernel()
        if base_kernel is None:
            return None
        return ExpectedGainKernel(base_kernel, self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(base={self.base!r})"


class SLOExpectedGainPolicy(ExpectedGainPolicy):
    """Expected gain with the discount exponent weighted by client utility.

    ``priority = base / p_success ** weight`` where ``weight`` is the
    parent CEI's utility.  The natural pairing is a weighted base (the
    ``W-*`` family), so utility enters twice: linearly through the base
    (more gain per probe) and exponentially through the discount (more
    risk aversion) — a high-utility client's candidates shed flaky
    resources first, concentrating that client's probes on reliable
    replicas.  With all weights 1 this is exactly
    :class:`ExpectedGainPolicy`.

    Both the scalar path and the batched kernel evaluate the discount as
    a float64 ``np.power``, so the engines stay bit-identical.
    """

    def __init__(
        self,
        base: Policy | str,
        faults: "Optional[FailureModel]" = None,
        retry: "Optional[RetryPolicy]" = None,
        source: str = "oracle",
    ) -> None:
        super().__init__(base, faults, retry, source=source)
        self._discount_cache: dict[tuple[float, float], float] = {}
        if not type(self).name:
            prefix = "LSLO-" if source == "learned" else "SLO-"
            self.name = prefix + self.base.name

    def _discount(self, p: float, weight: float) -> float:
        """``p ** weight`` via the same float64 power the kernel applies."""
        key = (p, weight)
        d = self._discount_cache.get(key)
        if d is None:
            d = float(np.float64(p) ** np.float64(weight))
            self._discount_cache[key] = d
        return d

    def priority(
        self, ei: ExecutionInterval, chronon: Chronon, view: MonitorView
    ) -> Priority:
        base = self.base.priority(ei, chronon, view)
        p = self.p_success(ei.resource, chronon)
        if p <= 0.0:
            return math.inf
        cei = ei.parent
        weight = cei.weight if cei is not None else 1.0
        return base / self._discount(p, weight)

    def make_kernel(self) -> "Optional[ScoreKernel]":
        from repro.policies.kernels import SLOExpectedGainKernel

        base_kernel = self.base.make_kernel()
        if base_kernel is None:
            return None
        return SLOExpectedGainKernel(base_kernel, self)


@register_policy("EG-S-EDF")
class ExpectedGainSEDF(ExpectedGainPolicy):
    """Expected-gain discounted S-EDF."""

    def __init__(self) -> None:
        super().__init__("S-EDF")


@register_policy("EG-MRSF")
class ExpectedGainMRSF(ExpectedGainPolicy):
    """Expected-gain discounted MRSF."""

    def __init__(self) -> None:
        super().__init__("MRSF")


@register_policy("EG-M-EDF")
class ExpectedGainMEDF(ExpectedGainPolicy):
    """Expected-gain discounted M-EDF."""

    def __init__(self) -> None:
        super().__init__("M-EDF")


@register_policy("EG-W-S-EDF")
class ExpectedGainWeightedSEDF(ExpectedGainPolicy):
    """Expected-gain discounted weighted S-EDF."""

    def __init__(self) -> None:
        super().__init__("W-S-EDF")


@register_policy("EG-W-MRSF")
class ExpectedGainWeightedMRSF(ExpectedGainPolicy):
    """Expected-gain discounted weighted MRSF."""

    def __init__(self) -> None:
        super().__init__("W-MRSF")


@register_policy("EG-W-M-EDF")
class ExpectedGainWeightedMEDF(ExpectedGainPolicy):
    """Expected-gain discounted weighted M-EDF."""

    def __init__(self) -> None:
        super().__init__("W-M-EDF")


@register_policy("LEG-S-EDF")
class LearnedExpectedGainSEDF(ExpectedGainPolicy):
    """Learned-reliability expected-gain S-EDF."""

    def __init__(self) -> None:
        super().__init__("S-EDF", source="learned")


@register_policy("LEG-MRSF")
class LearnedExpectedGainMRSF(ExpectedGainPolicy):
    """Learned-reliability expected-gain MRSF."""

    def __init__(self) -> None:
        super().__init__("MRSF", source="learned")


@register_policy("LEG-M-EDF")
class LearnedExpectedGainMEDF(ExpectedGainPolicy):
    """Learned-reliability expected-gain M-EDF."""

    def __init__(self) -> None:
        super().__init__("M-EDF", source="learned")


@register_policy("SLO-S-EDF")
class SLOSEDF(SLOExpectedGainPolicy):
    """Utility-exponent (SLO) expected gain over weighted S-EDF."""

    def __init__(self) -> None:
        super().__init__("W-S-EDF")


@register_policy("SLO-MRSF")
class SLOMRSF(SLOExpectedGainPolicy):
    """Utility-exponent (SLO) expected gain over weighted MRSF."""

    def __init__(self) -> None:
        super().__init__("W-MRSF")


@register_policy("SLO-M-EDF")
class SLOMEDF(SLOExpectedGainPolicy):
    """Utility-exponent (SLO) expected gain over weighted M-EDF."""

    def __init__(self) -> None:
        super().__init__("W-M-EDF")


@register_policy("LSLO-S-EDF")
class LearnedSLOSEDF(SLOExpectedGainPolicy):
    """Learned-reliability SLO expected gain over weighted S-EDF."""

    def __init__(self) -> None:
        super().__init__("W-S-EDF", source="learned")


@register_policy("LSLO-MRSF")
class LearnedSLOMRSF(SLOExpectedGainPolicy):
    """Learned-reliability SLO expected gain over weighted MRSF."""

    def __init__(self) -> None:
        super().__init__("W-MRSF", source="learned")


@register_policy("LSLO-M-EDF")
class LearnedSLOMEDF(SLOExpectedGainPolicy):
    """Learned-reliability SLO expected gain over weighted M-EDF."""

    def __init__(self) -> None:
        super().__init__("W-M-EDF", source="learned")
