"""Admission control and tiered load shedding under sustained overload.

The paper's Problem 1 maximizes gained completeness under a hard
per-chronon budget but never says *which* CEIs to sacrifice when
aggregate candidate demand exceeds that budget for sustained stretches —
the monitor just lets whatever the policy ranked last expire silently.
Load-shedding work in complex event processing (He et al.) and the
partial-jobs scheduling literature (Chakaravarthy et al.) both show that
*choosing* the partial set explicitly beats letting the scheduler's
local ranking decide.  This module supplies that choice:

* :class:`SheddingConfig` — frozen knobs hung off
  ``MonitorConfig.shedding``.  Disabled (``None``, the default) the
  monitor is bit-identical to a shedding-free build.
* :class:`OverloadDetector` — an EWMA of the candidate-demand-to-budget
  ratio with hysteresis: overload is entered only after the smoothed ratio holds at or above ``overload_on`` for
  ``sustain`` consecutive chronons, and left once it falls below
  ``overload_off`` — transient bursts never trigger shedding.
* :class:`LoadShedder` — the per-run tracker the monitor ticks once per
  stepped chronon, between window opening and probing.  Under sustained
  overload it applies the tier treatment classes:

  - ``hard`` CEIs are never shed and never degraded;
  - ``soft`` CEIs *degrade*: they release surplus EIs (keeping the
    ``residual`` latest-expiring usable ones, exactly enough to stay
    satisfiable) so the bag sheds their slack without giving up their
    utility;
  - ``best-effort`` CEIs are sheddable whole.  Victims are chosen
    greedily by ascending utility-per-probe (``weight / residual``, the
    partial-jobs rule): the CEIs whose satisfaction costs the most
    probes per unit of utility are admitted last and shed first, until
    demand falls to ``target_ratio`` times the budget.  A best-effort
    CEI shed in its arrival chronon is an admission rejection.

Engine neutrality: the shedder only touches the pools through their
shared public surface (``num_active``/``is_active``/``state_of``/
``open_cei_objects``/``release_ei``/``shed_cei``), and its victim choice
is a pure function of per-CEI state that both engines agree on at every
chronon — so reference and vectorized runs stay bit-identical with
shedding enabled, migrations included (each pool's record of released
EIs migrates with it).  A *released* EI is deactivated but keeps its full
M-EDF score contribution (both engines count uncaptured siblings the
same way whether or not they are probe-able), which is what keeps the
scoring kernels untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Union

from repro.core.errors import ModelError
from repro.core.intervals import ComplexExecutionInterval
from repro.core.timebase import Chronon

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.online.candidates import CandidatePool
    from repro.online.fastpath import FastCandidatePool

_EPS = 1e-9

#: The three treatment classes, strictest first.
TIER_HARD = "hard"
TIER_SOFT = "soft"
TIER_BEST_EFFORT = "best-effort"
TIERS = (TIER_HARD, TIER_SOFT, TIER_BEST_EFFORT)


@dataclass(frozen=True, slots=True)
class SheddingConfig:
    """Frozen knobs for overload detection and tiered load shedding.

    Parameters
    ----------
    alpha:
        Smoothing factor of the demand-to-budget EWMA, in (0, 1].
    overload_on:
        Smoothed ratio at or above which a chronon counts toward entering
        overload.  Must be >= ``overload_off``.
    overload_off:
        Smoothed ratio strictly below which overload ends (hysteresis:
        the band between the two thresholds changes nothing).
    sustain:
        Consecutive chronons the smoothed ratio must hold at or above
        ``overload_on`` before overload is declared — the "sustained"
        in sustained overload.
    target_ratio:
        Once overloaded, shed until active demand <= ``target_ratio``
        times the chronon budget.  1.0 sheds down to what the budget can
        actually probe.
    hard_weight, soft_weight:
        Weight thresholds mapping CEIs to tiers when no explicit
        ``tiers`` map is given: ``weight >= hard_weight`` is hard,
        ``weight >= soft_weight`` is soft, the rest best-effort.  The
        ``inf`` defaults make every CEI best-effort.  Requires
        ``soft_weight <= hard_weight``.
    tiers:
        Optional explicit ``cid -> tier`` map overriding the weight
        thresholds for the listed CEIs.  A plain dict (kept picklable
        for the forked suite workers); treat it as immutable.
    degrade_soft:
        Degrade soft-tier CEIs (release surplus EIs) under overload.
        When False the soft tier is only protected, never slimmed.
    """

    alpha: float = 0.25
    overload_on: float = 1.5
    overload_off: float = 1.1
    sustain: int = 3
    target_ratio: float = 1.0
    hard_weight: float = float("inf")
    soft_weight: float = float("inf")
    tiers: Optional[Mapping[int, str]] = None
    degrade_soft: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ModelError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.overload_off <= 0.0 or self.overload_on <= 0.0:
            raise ModelError(
                f"overload thresholds must be positive, got "
                f"on={self.overload_on}, off={self.overload_off}"
            )
        if self.overload_off > self.overload_on:
            raise ModelError(
                f"hysteresis requires overload_off <= overload_on, got "
                f"off={self.overload_off} > on={self.overload_on}"
            )
        if self.sustain < 1:
            raise ModelError(f"sustain must be >= 1, got {self.sustain}")
        if self.target_ratio <= 0.0:
            raise ModelError(
                f"target_ratio must be positive, got {self.target_ratio}"
            )
        if self.soft_weight > self.hard_weight:
            raise ModelError(
                f"tier thresholds must nest: soft_weight <= hard_weight, got "
                f"soft={self.soft_weight} > hard={self.hard_weight}"
            )
        if self.tiers is not None:
            for cid, tier in self.tiers.items():
                if tier not in TIERS:
                    raise ModelError(
                        f"unknown tier {tier!r} for CEI {cid}; "
                        f"expected one of {TIERS}"
                    )

    def tier_of(self, cei: ComplexExecutionInterval) -> str:
        """The treatment class of one CEI under this config."""
        if self.tiers is not None:
            explicit = self.tiers.get(cei.cid)
            if explicit is not None:
                return explicit
        if cei.weight >= self.hard_weight:
            return TIER_HARD
        if cei.weight >= self.soft_weight:
            return TIER_SOFT
        return TIER_BEST_EFFORT


@dataclass
class SheddingStats:
    """Counters of one run's shedding machinery.

    ``released_eis`` counts EIs released by soft-tier *degrades* only;
    a whole-CEI shed is accounted as one ``shed_ceis`` (its member EIs
    are implied, not re-counted).  ``admission_rejects`` counts shed
    CEIs whose arrival chronon was the shedding chronon itself — demand
    the overloaded monitor turned away at the door rather than evicted.
    """

    overload_chronons: int = 0
    episodes: int = 0
    shed_ceis: int = 0
    shed_weight: float = 0.0
    degraded_ceis: int = 0
    released_eis: int = 0
    admission_rejects: int = 0
    peak_ratio: float = 0.0
    shed_by_tier: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, float]:
        return {
            "overload_chronons": self.overload_chronons,
            "episodes": self.episodes,
            "shed_ceis": self.shed_ceis,
            "shed_weight": self.shed_weight,
            "degraded_ceis": self.degraded_ceis,
            "released_eis": self.released_eis,
            "admission_rejects": self.admission_rejects,
            "peak_ratio": self.peak_ratio,
            **{f"shed_{tier}": n for tier, n in sorted(self.shed_by_tier.items())},
        }


class OverloadDetector:
    """EWMA-with-hysteresis over the demand-to-budget ratio.

    A jump-started EWMA with two thresholds — state only flips when the
    smoothed signal crosses the *far* threshold — plus a sustain count: overload
    is entered only after ``sustain`` consecutive at-or-above-``on``
    observations, so one bursty chronon cannot trigger shedding.
    """

    def __init__(self, config: SheddingConfig) -> None:
        self._config = config
        self.ewma: Optional[float] = None
        self.overloaded = False
        self._above = 0

    def observe(self, ratio: float) -> bool:
        """Fold one demand/budget observation; return the overload state."""
        cfg = self._config
        if self.ewma is None:
            self.ewma = float(ratio)
        else:
            self.ewma += cfg.alpha * (ratio - self.ewma)
        if self.overloaded:
            if self.ewma < cfg.overload_off:
                self.overloaded = False
                self._above = 0
        elif self.ewma >= cfg.overload_on:
            self._above += 1
            if self._above >= cfg.sustain:
                self.overloaded = True
        else:
            self._above = 0
        return self.overloaded


class LoadShedder:
    """Per-run shedding tracker: detector state, tier cache, victim log.

    The monitor ticks it once per stepped chronon, after window opening
    and push captures and before the probe phase — so the demand it
    observes is exactly the bag the policy is about to rank, and the
    victims it removes never reach the ranking.
    """

    def __init__(self, config: SheddingConfig) -> None:
        self.config = config
        self.detector = OverloadDetector(config)
        self.stats = SheddingStats()
        #: cids of soft CEIs already degraded (degrade at most once each).
        self._degraded: set[int] = set()
        #: cids this run shed (distinguishes shedding from organic expiry).
        self.shed_cids: set[int] = set()

    def tick(
        self,
        chronon: Chronon,
        pool: "Union[CandidatePool, FastCandidatePool]",
        budget_value: float,
    ) -> None:
        """One chronon's overload observation and (maybe) shedding pass."""
        demand = pool.num_active()
        if budget_value > _EPS:
            ratio = demand / budget_value
        else:
            # A zero-budget chronon with demand is overloaded by any
            # measure; the raw count keeps the EWMA finite.
            ratio = float(demand)
        stats = self.stats
        if ratio > stats.peak_ratio:
            stats.peak_ratio = ratio
        was_overloaded = self.detector.overloaded
        if not self.detector.observe(ratio):
            return
        stats.overload_chronons += 1
        if not was_overloaded:
            stats.episodes += 1
        target = self.config.target_ratio * budget_value
        if demand <= target:
            return
        demand -= self._degrade_soft(chronon, pool)
        if demand > target:
            self._shed_best_effort(chronon, pool, demand, target)

    # ------------------------------------------------------------------
    # Victim selection
    # ------------------------------------------------------------------

    def _usable_eis(self, cei, pool, chronon):
        """Uncaptured, unreleased EIs that can still be captured."""
        return [
            ei
            for ei in cei.eis
            if not pool.is_ei_captured(ei)
            and not pool.is_ei_released(ei)
            and (pool.is_active(ei) or ei.start > chronon)
        ]

    def _degrade_soft(
        self, chronon: Chronon, pool: "Union[CandidatePool, FastCandidatePool]"
    ) -> int:
        """Release surplus EIs of every not-yet-degraded open soft CEI.

        Every open soft CEI degrades (once) when overload turns to
        shedding — deliberately not demand-gated, so the outcome is
        independent of CEI enumeration order and identical across
        engines and migrations.  Returns the active-demand relief.
        """
        cfg = self.config
        if not cfg.degrade_soft:
            return 0
        stats = self.stats
        relief = 0
        for cei in pool.open_cei_objects():
            if cei.cid in self._degraded or cfg.tier_of(cei) != TIER_SOFT:
                continue
            state = pool.state_of(cei)
            if state is None or state.closed:
                continue
            residual = state.residual
            usable = self._usable_eis(cei, pool, chronon)
            if len(usable) <= residual:
                continue
            # Keep the residual latest-expiring usable EIs: exactly
            # enough to satisfy, with the longest capture horizon.
            usable.sort(key=lambda e: (-e.finish, e.seq))
            released = 0
            for ei in usable[residual:]:
                was_active = pool.is_active(ei)
                if pool.release_ei(ei):
                    stats.released_eis += 1
                    if was_active:
                        released += 1
            self._degraded.add(cei.cid)
            stats.degraded_ceis += 1
            relief += released
        return relief

    def _shed_best_effort(
        self,
        chronon: Chronon,
        pool: "Union[CandidatePool, FastCandidatePool]",
        demand: int,
        target: float,
    ) -> None:
        """Shed whole best-effort CEIs, greedy by utility-per-probe."""
        cfg = self.config
        stats = self.stats
        victims: list[tuple[float, int, int, ComplexExecutionInterval]] = []
        for cei in pool.open_cei_objects():
            if cfg.tier_of(cei) != TIER_BEST_EFFORT:
                continue
            state = pool.state_of(cei)
            if state is None or state.closed:
                continue
            active = sum(1 for ei in cei.eis if pool.is_active(ei))
            if active == 0:
                continue  # sheds no demand; leave it to expiry
            # Expected probes to satisfy ~ residual captures still
            # needed: shed the lowest utility-per-probe first.
            upp = cei.weight / max(1, state.residual)
            victims.append((upp, cei.cid, active, cei))
        victims.sort(key=lambda v: (v[0], v[1]))
        for _, cid, active, cei in victims:
            if demand <= target:
                break
            if not pool.shed_cei(cei):
                continue
            self.shed_cids.add(cid)
            stats.shed_ceis += 1
            stats.shed_weight += cei.weight
            tier = cfg.tier_of(cei)
            stats.shed_by_tier[tier] = stats.shed_by_tier.get(tier, 0) + 1
            if cei.release == chronon:
                stats.admission_rejects += 1
            demand -= active
