"""The online complex-monitoring algorithm (paper Algorithm 1).

:class:`OnlineMonitor` drives one proxy run: at every chronon it receives
the newly-revealed CEIs, ranks the candidate EIs with the configured
policy, probes up to the budget, exploits intra-resource overlap (one
probe captures all active EIs on the probed resource — the ``R_ids`` set
of Algorithm 1), and expires candidates that can no longer be satisfied.

Execution modes (paper Section IV-A):

* **preemptive** — the policy ranks the entire candidate bag;
* **non-preemptive** — budget goes first to EIs of CEIs that already had
  at least one EI captured *before* this chronon (``cands+``), and only
  leftover budget reaches new CEIs (``cands-``).

The probe loop re-ranks candidates as captures land: probing a resource
can change the MRSF/M-EDF priority of sibling EIs within the same chronon,
exactly as the paper's ``probeEIs`` procedure re-invokes Φ per pick.  The
implementation uses a heap with stale-entry invalidation so one chronon
costs ``O(A log A)`` for ``A`` active candidates (Appendix B).

Two interchangeable engines implement that loop:

* ``engine="reference"`` (default) — the direct Algorithm 1 transcription
  above, one ``Policy.sort_key`` call per candidate EI;
* ``engine="vectorized"`` — the structure-of-arrays fast path of
  :mod:`repro.online.fastpath`, which batch-scores whole candidate bags
  with :mod:`repro.policies.kernels` and produces bit-identical schedules
  for every deterministic policy.  Policies without a batched kernel
  (or with per-call randomness) transparently fall back to the reference
  probe loop running over the fast pool.
"""

from __future__ import annotations

import heapq
import multiprocessing
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional, Sequence, Union

from repro.core.errors import ModelError
from repro.core.intervals import ComplexExecutionInterval, ExecutionInterval
from repro.core.resource import ResourceId, ResourcePool
from repro.core.schedule import BudgetVector, Schedule
from repro.core.timebase import Chronon, Epoch
from repro.online.candidates import CandidatePool
from repro.online.config import ENGINES, MonitorConfig, resolve_config
from repro.online.faults import FaultInjector, FaultStats
from repro.online.fastpath import FastCandidatePool, run_fast_phases, run_fast_span
from repro.online.health import HealthStats, HealthTracker
from repro.online.sharded import (
    ShardedEngine,
    ShardingStats,
    run_sharded_phases,
    shardable_reason,
)
from repro.online.shedding import LoadShedder, SheddingStats
from repro.policies.base import Policy
from repro.policies.kernels import resolve_kernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.arena import InstanceArena

_EPS = 1e-9

__all__ = ["ENGINES", "OnlineMonitor"]


class OnlineMonitor:
    """Stateful online scheduler for complex execution intervals.

    Parameters
    ----------
    policy:
        The probing policy Φ.
    budget:
        Per-chronon probing budget ``C``.
    preemptive:
        Execution mode; see module docstring.
    resources:
        Optional pool supplying per-resource probe costs and push flags.
        Without it every probe costs one unit and nothing is pushed,
        which is exactly the paper's Problem 1.
    exploit_overlap:
        When True (default, the paper's behaviour) a probe captures every
        active EI on the probed resource; when False it captures only the
        EI the policy selected.  Disabling this is the A1 ablation.
    config:
        A :class:`repro.online.config.MonitorConfig` bundling the
        execution knobs: the engine (``Engine.REFERENCE`` runs the per-EI
        Algorithm 1 loop, ``Engine.VECTORIZED`` the NumPy
        structure-of-arrays fast path — both produce identical schedules
        for deterministic policies), an optional
        :class:`repro.online.faults.FailureModel` (a probe attempt may
        fail: full probe cost, nothing captured, no schedule entry; with
        ``partial_rate`` a *successful* probe may still drop individual
        EIs) and an optional :class:`repro.online.faults.RetryPolicy`
        (immediate re-ranked retries within the chronon, exponential
        backoff across chronons — only meaningful together with a
        failure model).  Fault verdicts are pure functions of
        ``(resource, chronon, attempt)``, so both engines stay
        bit-identical under the same model.
    arena:
        Optional pre-compiled :class:`repro.sim.arena.InstanceArena` of
        the problem instance this run will monitor.  The vectorized pool
        then shares the arena's columns and mirrors, which only the
        arena's compile walk extends, instead of rebuilding them per
        run — bit-identical results, with the per-EI registration walk
        amortized across every policy run of the same instance.
        Requires ``Engine.VECTORIZED``.
    """

    def __init__(
        self,
        policy: Policy,
        budget: BudgetVector,
        preemptive: bool = True,
        resources: Optional[ResourcePool] = None,
        exploit_overlap: bool = True,
        config: Optional[MonitorConfig] = None,
        *,
        arena: Optional["InstanceArena"] = None,
    ) -> None:
        cfg = resolve_config(config)
        if cfg.retry is not None and cfg.faults is None:
            raise ModelError("a retry policy needs a failure model to retry against")
        if cfg.health is not None and cfg.faults is None:
            raise ModelError("a health config needs a failure model to observe")
        self.policy = policy
        self.budget = budget
        self.preemptive = preemptive
        self.resources = resources
        # Resources are frozen and nothing edits a pool's list, so whether
        # any of them pushes is fixed for the run (ResourcePool.uniform
        # builds none that do).
        self._any_push = resources is not None and any(
            r.push_enabled for r in resources
        )
        self.exploit_overlap = exploit_overlap
        self.config = cfg
        self.engine = cfg.engine.value
        self._health: Optional[HealthTracker] = (
            HealthTracker(cfg.health, cfg.faults) if cfg.health is not None else None
        )
        # Load shedding acts on pool state alone (per-CEI weights, tiers,
        # residual demand), so the same tick is engine-neutral: both pools
        # expose the release/shed primitives it drives.
        self._shedder: Optional[LoadShedder] = (
            LoadShedder(cfg.shedding) if cfg.shedding is not None else None
        )
        # Reliability-aware policies adopt the run's fault universe (and
        # learned health tracker) before the kernel is resolved, so the
        # kernel sees the bound model too.
        policy.bind_reliability(cfg.faults, cfg.retry)
        if self._health is not None:
            policy.bind_health(self._health)
        self.pool: Union[CandidatePool, FastCandidatePool]
        #: Is the pool the structure-of-arrays one (the vectorized engine)?
        self._pool_fast = self.engine == "vectorized"
        if self._pool_fast:
            self.pool = FastCandidatePool(arena=arena)
            self._kernel = resolve_kernel(policy)
        else:
            if arena is not None:
                raise ModelError(
                    "instance arenas require the vectorized engine; "
                    "pass the arena's profiles to a reference monitor instead"
                )
            self.pool = CandidatePool()
            self._kernel = None
        self.schedule = Schedule()
        self._faults: Optional[FaultInjector] = (
            FaultInjector(cfg.faults, cfg.retry, health=self._health)
            if cfg.faults is not None
            else None
        )
        self._partial = cfg.faults is not None and cfg.faults.partial_rate > 0.0
        self._retry_partials = (
            self._partial and cfg.retry is not None and cfg.retry.retry_partials
        )
        # Resources whose last successful probe this chronon dropped EIs
        # and may be re-probed (partial-failure-aware retry): the usual
        # "already probed" skip is waived for them.
        self._partial_retry_ok: set[ResourceId] = set()
        self._dropped: set[tuple[ResourceId, Chronon, int]] = set()
        self._push_probes: set[tuple[ResourceId, Chronon]] = set()
        self._consumed: dict[Chronon, float] = {}
        self._clock: Chronon = -1
        self._probes_used = 0
        # Hook-override flags let the fast path skip building object lists
        # (and calling no-op hooks) when the policy never looks at them.
        cls = type(policy)
        self._wants_activation_hook = cls.on_ei_activated is not Policy.on_ei_activated
        self._wants_expiry_hook = cls.on_ei_expired is not Policy.on_ei_expired
        self._wants_probe_hook = cls.on_probe is not Policy.on_probe
        self._sibling_sensitive = policy.sibling_sensitive()
        # Without costs, faults, a probe hook or the overlap ablation, a
        # probe captures every live row on its resource, so the vectorized
        # walk checks nothing else on a pick (fastpath._phase_walk).
        self._guarded_picks = (
            self._faults is not None
            or resources is not None
            or self._wants_probe_hook
            or not exploit_overlap
        )
        # Cheapest possible probe: bounds how many picks one chronon's
        # budget can make (the fast path's top-k cut is sized from it).
        if resources is None:
            self._min_probe_cost = 1.0
        else:
            self._min_probe_cost = min(
                (res.probe_cost for res in resources), default=1.0
            )
        # Sharded scheduling: partition the arena's resources across
        # persistent forked workers (repro.online.sharded).  Requires the
        # vectorized engine and an arena; an unshardable kernel or a
        # fork-less platform falls back to the single-engine path with
        # the reason recorded rather than failing the run.
        self._sharded: Optional[ShardedEngine] = None
        self._sharding_stats: Optional[ShardingStats] = None
        if cfg.shards is not None:
            if self.engine != "vectorized":
                raise ModelError(
                    "sharded scheduling requires engine='vectorized', "
                    f"got {self.engine!r}"
                )
            if arena is None:
                raise ModelError(
                    "sharded scheduling requires a compiled instance arena "
                    "(pass arena=compile_arena(...))"
                )
            self._sharding_stats = ShardingStats(shards=cfg.shards)
            reason = shardable_reason(self._kernel)
            if reason is None and "fork" not in multiprocessing.get_all_start_methods():
                reason = "fork start method unavailable"  # pragma: no cover
            if reason is not None:
                self._sharding_stats.demotions += 1
                self._sharding_stats.demote_reason = reason
            else:
                self._sharded = ShardedEngine(
                    self.pool, cfg.shards, self._kernel, self._sharding_stats
                )
        num_resources = len(resources) if resources is not None else 0
        policy.on_run_start(num_resources)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def step(
        self,
        chronon: Chronon,
        new_ceis: Iterable[ComplexExecutionInterval] = (),
    ) -> frozenset[ResourceId]:
        """Advance one chronon; returns the set of resources probed.

        Chronons must be visited in strictly increasing order.
        """
        self._check_increasing(chronon)
        if self._sharded is not None and not self._sharded.attached(self.pool):
            # Growth churn added rows the shared segment does not hold
            # (a registering patch): demote cleanly and finish the run
            # single-engine.  Cancel-only churn mutates the shared
            # columns in place and stays sharded.
            self._sharded.demote(self.pool)
            self._sharded = None
            if self._sharding_stats is not None:
                self._sharding_stats.demotions += 1
                if self._sharding_stats.demote_reason is None:
                    self._sharding_stats.demote_reason = (
                        "arena churn outgrew the shared segment"
                    )
        self._clock = chronon
        self.policy.on_chronon_start(chronon)
        if self._faults is not None:
            self._faults.begin_chronon(chronon)
        self._partial_retry_ok.clear()

        if self._pool_fast:
            # The fast pool can skip materializing EI object lists when no
            # activation hook will consume them.
            collect = self._wants_activation_hook
            opened = (
                self.pool.register_arrivals(new_ceis, chronon, collect)
                if new_ceis
                else []
            )
            opened.extend(self.pool.open_windows(chronon, collect))
        else:
            opened = []
            for cei in new_ceis:
                opened.extend(self.pool.register(cei, chronon))
            opened.extend(self.pool.open_windows(chronon))
        for ei in opened:
            self.policy.on_ei_activated(ei, chronon)

        self._apply_push_captures(chronon)

        remaining = self.budget.at(chronon)
        if self._shedder is not None:
            # Shed *before* probing: victims released this chronon never
            # compete for this chronon's budget (in either engine).
            self._shedder.tick(chronon, self.pool, remaining)
        probed: set[ResourceId] = set()
        if remaining > _EPS:
            # The full float budget reaches resource-level policies; a
            # fractional remainder (1.5 units under heterogeneous costs)
            # must not be truncated before the policy sees it —
            # _probe_resources enforces actual per-probe costs.
            selected = self.policy.select_resources(chronon, remaining, self.pool)
            if selected is not None:
                # Resource-level policy (WIC): probe its picks verbatim,
                # opportunistically capturing whatever EIs sit there.
                self._probe_resources(selected, chronon, remaining, probed)
            elif self.pool.num_active() > 0:
                if self._kernel is not None:
                    if self._sharded is not None:
                        run_sharded_phases(self, chronon, remaining, probed)
                    else:
                        run_fast_phases(self, chronon, remaining, probed)
                elif self.preemptive:
                    self._probe_phase(
                        self.pool.active_eis(), chronon, remaining, probed
                    )
                else:
                    plus, minus = self.pool.split_by_prior_capture(
                        self.pool.active_eis()
                    )
                    remaining = self._probe_phase(plus, chronon, remaining, probed)
                    if remaining > _EPS:
                        self._probe_phase(minus, chronon, remaining, probed)

        if self._pool_fast:
            expired = self.pool.close_windows(chronon, self._wants_expiry_hook)
        else:
            expired = self.pool.close_windows(chronon)
        for ei in expired:
            self.policy.on_ei_expired(ei, chronon)
        return frozenset(probed)

    def run(
        self,
        epoch: Epoch,
        arrivals: Mapping[Chronon, Sequence[ComplexExecutionInterval]],
    ) -> Schedule:
        """Run the monitor over a whole epoch given an arrival map.

        Equivalent to stepping every chronon in order, but when the
        policy keeps the default per-chronon hooks (``on_chronon_start``,
        ``select_resources``) and no failure model or shedder is
        configured, the loop consults the pool's activation timeline to
        skip idle chronons (empty bag, no arrivals, no activations)
        outright.  On the vectorized engine under a shift-invariant or
        integer-valued kernel (S-EDF, MRSF, W-MRSF, M-EDF), with no
        probe, activation or expiry hook, the whole run is then walked by
        :func:`repro.online.fastpath.run_fast_span` from one priority heap
        instead of stepping the per-chronon phases: under a
        shift-invariant kernel the heap holds one key per open CEI for
        the whole run, M-EDF's rows are re-keyed once per chronon.
        Other float-keyed and the reliability kernels keep stepping.
        Schedules, budgets, counters and errors are bit-identical to the
        step loop either way.
        """
        cls = type(self.policy)
        if not (
            self._faults is None
            and self._shedder is None
            and cls.on_chronon_start is Policy.on_chronon_start
            and cls.select_resources is Policy.select_resources
        ):
            for chronon in epoch:
                self.step(chronon, arrivals.get(chronon, ()))
            return self.schedule
        # The step loop raises at its first chronon; hopping must not hide it.
        self._check_increasing(epoch.first)
        kernel = self._kernel
        if (
            self.preemptive
            and self.exploit_overlap
            and self.resources is None
            and kernel is not None
            and (kernel.shift_invariant or kernel.integer_valued)
            and not self._wants_probe_hook
            and not self._wants_activation_hook
            and not self._wants_expiry_hook
            # Sharded runs step chronon by chronon through the shard merge.
            and self._sharded is None
        ):
            run_fast_span(self, epoch, arrivals)
        else:
            for t in self._busy_chronons(epoch, arrivals):
                self.step(t, arrivals.get(t, ()))
        return self.schedule

    def _check_increasing(self, chronon: Chronon) -> None:
        if chronon <= self._clock:
            raise ModelError(
                f"chronons must increase: step({chronon}) after step({self._clock})"
            )

    def _activation_timeline(self) -> Mapping[Chronon, list]:
        """The pool's window openings, keyed by chronon.

        The reference pool pops each entry as its windows open.  A
        vectorized pool reads its arena's timeline, whose keys may
        belong to never-registered CEIs — treated as events anyway
        (conservative: the run just steps those chronons normally) — and
        which is never popped: entries at already-passed chronons linger,
        harmless because the clock only advances.  Either way, keys are
        only ever added at the end, which :meth:`_busy_chronons` relies on.
        """
        return self.pool.activate_at

    def _busy_chronons(
        self,
        epoch: Epoch,
        arrivals: Mapping[Chronon, Sequence[ComplexExecutionInterval]],
    ) -> Iterator[Chronon]:
        """The chronons of ``epoch`` a run must step, hopping idle stretches.

        Lazy: each chronon is judged after the previous one was stepped.
        """
        last = epoch.last
        horizon = last + 1
        act = self._activation_timeline()
        # The activation chronons read so far, sorted.  A timeline gains
        # keys only at its end (dicts keep insertion order; registration
        # adds future chronons, a reference pool pops past ones), so a hop
        # reads the keys added since the last hop from the end, back to
        # the first it knows, and bisects for the next activation.
        act_keys: list[Chronon] = []
        # Sorted non-empty arrival chronons; `ai` only ever advances.
        arr_keys = sorted(k for k, v in arrivals.items() if v)
        ai = 0
        t = epoch.first
        while t <= last:
            while ai < len(arr_keys) and arr_keys[ai] < t:
                ai += 1
            next_arr = arr_keys[ai] if ai < len(arr_keys) else horizon
            if next_arr != t and t not in act and self.pool.num_active() == 0:
                # Idle run: with an empty bag and no openings, nothing can
                # happen until the next arrival or activation (expiries in
                # the window are pure pop-skips — an expiring row that
                # mattered would have had to be active).  Skip to it.
                fresh = []
                for k in reversed(act):
                    i = bisect_left(act_keys, k)
                    if i < len(act_keys) and act_keys[i] == k:
                        break
                    fresh.append(k)
                if fresh:
                    act_keys.extend(fresh)
                    act_keys.sort()
                i = bisect_right(act_keys, t)
                next_act = act_keys[i] if i < len(act_keys) else horizon
                u = min(next_arr, next_act, horizon)
                num_budgeted = len(self.budget.values)
                if u > num_budgeted:
                    # The step loop reads budget.at every chronon, idle or
                    # not; a budget shorter than the epoch must still raise
                    # at the same boundary chronon.
                    self.budget.at(max(t, num_budgeted))
                self._clock = u - 1
                t = u
                continue
            yield t
            t += 1

    # ------------------------------------------------------------------
    # Probe selection (the paper's probeEIs procedure)
    # ------------------------------------------------------------------

    def _probe_resources(
        self,
        selected: Sequence[ResourceId],
        chronon: Chronon,
        budget_left: float,
        probed: set[ResourceId],
    ) -> float:
        """Probe explicitly-selected resources (resource-level policies)."""
        faults = self._faults
        for resource in selected:
            if budget_left <= _EPS:
                break
            if resource in probed:
                continue
            if faults is not None and not faults.available(resource, chronon):
                continue
            cost = self._probe_cost(resource)
            while cost <= budget_left + _EPS:
                budget_left -= cost
                self._probes_used += 1
                self._charge(resource, chronon, cost)
                if faults is None or faults.attempt(resource, chronon):
                    self.schedule.add_probe(resource, chronon)
                    probed.add(resource)
                    self.policy.on_probe(resource, chronon)
                    skip = self._partial_drops(resource, chronon)
                    self.pool.capture_resource(resource, chronon, skip)
                    if (
                        self._retry_partials
                        and skip
                        and faults is not None
                        and faults.can_retry(resource)
                    ):
                        # Partial-failure-aware retry: the pick was
                        # explicit, so re-attempt the dropped EIs in
                        # place (fresh per-EI verdicts per attempt).
                        continue
                    break
                # Failed probe: budget spent, nothing captured.  The pick
                # was explicit, so a permitted retry re-attempts in place.
                if not faults.can_retry(resource):
                    break
        return budget_left

    def _probe_phase(
        self,
        candidates: Iterable[ExecutionInterval],
        chronon: Chronon,
        budget_left: float,
        probed: set[ResourceId],
    ) -> float:
        """Spend budget on one candidate partition; returns leftover budget."""
        view = self.pool
        policy = self.policy
        heap: list[tuple[float, int, int, ExecutionInterval]] = []
        current_key: dict[int, tuple[float, int, int]] = {}
        for ei in candidates:
            if not self.pool.is_active(ei):
                continue  # captured by an earlier phase this chronon
            key = policy.sort_key(ei, chronon, view)
            heap.append((*key, ei))
            current_key[ei.seq] = key
        heapq.heapify(heap)

        sibling_sensitive = policy.sibling_sensitive()
        faults = self._faults
        reprobe_ok = self._partial_retry_ok
        while heap and budget_left > _EPS:
            priority, tiebreak, seq, ei = heapq.heappop(heap)
            if not self.pool.is_active(ei):
                continue  # captured or expired since queued
            if current_key.get(ei.seq) != (priority, tiebreak, seq):
                continue  # stale entry; a fresher one is in the heap
            if ei.resource in probed and ei.resource not in reprobe_ok:
                continue  # already captured by this chronon's probe of r
            if faults is not None and not faults.available(ei.resource, chronon):
                continue  # backed off, opened, or attempts exhausted
            cost = self._probe_cost(ei.resource)
            if cost > budget_left + _EPS:
                # With uniform unit costs this means the budget is spent;
                # with heterogeneous costs cheaper candidates may still fit.
                if self.resources is None:
                    break
                continue
            budget_left -= cost
            self._probes_used += 1
            self._charge(ei.resource, chronon, cost)
            if faults is not None and not faults.attempt(ei.resource, chronon):
                # Failed probe: budget spent, nothing captured, no schedule
                # entry.  A permitted retry re-enters the ranking with its
                # unchanged key, so it is re-attempted immediately exactly
                # when it is still the best use of the remaining budget.
                if faults.can_retry(ei.resource):
                    heapq.heappush(heap, (priority, tiebreak, seq, ei))
                continue
            self.schedule.add_probe(ei.resource, chronon)
            probed.add(ei.resource)
            policy.on_probe(ei.resource, chronon)
            skip = self._partial_drops(ei.resource, chronon)
            captured, touched = self._capture(ei, chronon, skip)
            retry_partial = (
                self._retry_partials
                and skip
                and faults is not None
                and faults.can_retry(ei.resource)
            )
            if retry_partial:
                reprobe_ok.add(ei.resource)
            else:
                reprobe_ok.discard(ei.resource)
            if sibling_sensitive and touched:
                self._refresh_siblings(touched, chronon, heap, current_key, probed)
            if (
                retry_partial
                and self.pool.is_active(ei)
                and current_key.get(ei.seq) == (priority, tiebreak, seq)
            ):
                # The chosen EI itself was dropped and its key is
                # unchanged: re-arm its consumed heap entry so it
                # competes for a re-probe (a sibling refresh that
                # changed the key already pushed a fresh entry).
                heapq.heappush(heap, (priority, tiebreak, seq, ei))
        return budget_left

    def _partial_drops(
        self, resource: ResourceId, chronon: Chronon
    ) -> frozenset[int]:
        """Per-EI drop verdicts for the successful probe just issued.

        Draws the :meth:`FailureModel.partial_drops` verdict over the
        resource's currently-active candidate seqs (both engines agree on
        that set at every probe, so the verdicts match bit-for-bit) and
        records the drop coordinates for :attr:`dropped_captures`.
        Returns the seqs to *skip* during capture.
        """
        if not self._partial:
            return frozenset()
        injector = self._faults
        assert injector is not None  # _partial implies a model
        attempt = injector.attempts_used(resource) - 1
        seqs = self.pool.active_seqs_on(resource)
        drops = injector.model.partial_drops(resource, chronon, attempt, seqs)
        for seq in drops:
            self._dropped.add((resource, chronon, seq))
        injector.record_partial(resource, chronon, len(drops), len(seqs))
        return drops

    def _capture(
        self,
        chosen: ExecutionInterval,
        chronon: Chronon,
        skip: frozenset[int] = frozenset(),
    ) -> tuple[list[ExecutionInterval], list[ComplexExecutionInterval]]:
        """Apply a probe's captures, honouring the overlap ablation flag."""
        if self.exploit_overlap:
            return self.pool.capture_resource(chosen.resource, chronon, skip)
        # Ablation: the probe yields only the selected EI (unless the
        # per-EI verdict dropped exactly that one).
        if chosen.seq in skip:
            return [], []
        return self.pool.capture_single(chosen)

    def _refresh_siblings(
        self,
        touched: Sequence[ComplexExecutionInterval],
        chronon: Chronon,
        heap: list[tuple[float, int, int, ExecutionInterval]],
        current_key: dict[int, tuple[float, int, int]],
        probed: set[ResourceId],
    ) -> None:
        """Re-rank still-active siblings of CEIs whose state just changed."""
        view = self.pool
        policy = self.policy
        reprobe_ok = self._partial_retry_ok
        for cei in touched:
            for sibling in cei.eis:
                if sibling.seq not in current_key:
                    continue  # not part of this phase's candidate set
                if not self.pool.is_active(sibling):
                    continue
                if sibling.resource in probed and sibling.resource not in reprobe_ok:
                    continue
                key = policy.sort_key(sibling, chronon, view)
                if current_key[sibling.seq] != key:
                    current_key[sibling.seq] = key
                    heapq.heappush(heap, (*key, sibling))

    # ------------------------------------------------------------------
    # Push support and cost accounting
    # ------------------------------------------------------------------

    def _apply_push_captures(self, chronon: Chronon) -> None:
        """Auto-capture EIs on push-enabled resources at window opening.

        Pushed updates reach the proxy without a pull probe (Example 3 of
        the paper); the capture is recorded in the schedule (so metrics
        see it) but consumes no budget.
        """
        if not self._any_push:
            return
        for rid in self.pool.pushable_resources(self.resources):
            self.schedule.add_probe(rid, chronon)
            self._push_probes.add((rid, chronon))
            self.pool.capture_resource(rid, chronon)

    def _probe_cost(self, resource: ResourceId) -> float:
        if self.resources is None:
            return 1.0
        return self.resources.probe_cost(resource)

    def _charge(self, resource: ResourceId, chronon: Chronon, cost: float) -> None:
        """Account one pull probe against the chronon's consumed budget.

        A probe of a resource that already pushed this chronon still
        spends the caller's budget, but — like the push itself — charges
        nothing here, matching the schedule-derived accounting.
        """
        if (resource, chronon) in self._push_probes:
            return
        self._consumed[chronon] = self._consumed.get(chronon, 0.0) + cost

    def budget_consumed_at(self, chronon: Chronon) -> float:
        """Budget units actually charged at ``chronon`` (excludes pushes)."""
        return self._consumed.get(chronon, 0.0)

    def check_budget_feasible(self) -> None:
        """Assert the run never exceeded its budget (pushes are free).

        O(chronons-with-probes): consumption is accumulated during the
        run, not recomputed by rescanning the schedule.
        """
        for chronon, consumed in self._consumed.items():
            if consumed > self.budget.at(chronon) + _EPS:
                raise ModelError(
                    f"budget violated at chronon {chronon}: "
                    f"{consumed} > {self.budget.at(chronon)}"
                )

    # ------------------------------------------------------------------
    # Run statistics (the proxy's belief; metrics validate vs. truth)
    # ------------------------------------------------------------------

    @property
    def probes_used(self) -> int:
        """Budgeted probe attempts issued so far (failed attempts included)."""
        return self._probes_used

    @property
    def probes_failed(self) -> int:
        """Probe attempts that failed (always 0 without a failure model)."""
        return self._faults.stats.failures if self._faults is not None else 0

    @property
    def probes_succeeded(self) -> int:
        """Probe attempts that retrieved data."""
        return self._probes_used - self.probes_failed

    @property
    def retries_used(self) -> int:
        """Attempts beyond the first per (resource, chronon)."""
        return self._faults.stats.retries if self._faults is not None else 0

    @property
    def fault_stats(self) -> FaultStats:
        """Attempt/failure/retry/backoff counters for this run."""
        return self._faults.stats if self._faults is not None else FaultStats()

    @property
    def shedding_stats(self) -> Optional[SheddingStats]:
        """Overload/shedding counters (None unless ``config.shedding`` set)."""
        return self._shedder.stats if self._shedder is not None else None

    @property
    def sharding_stats(self) -> Optional[ShardingStats]:
        """Sharded-engine counters (None unless ``config.shards`` set)."""
        return self._sharding_stats

    def close(self) -> None:
        """Release run-scoped OS resources (idempotent, safe mid-run).

        Stops the sharded engine's workers and unlinks its shared-memory
        segment, privatizing the pool's mirror columns so the monitor
        keeps working (single-engine) if stepped further.  A no-op for
        unsharded monitors; ``simulate`` calls this after every run.
        """
        if self._sharded is not None:
            self._sharded.demote(self.pool)
            self._sharded = None

    @property
    def health(self) -> Optional[HealthTracker]:
        """The run's learned health tracker (None without a health config)."""
        return self._health

    @property
    def health_stats(self) -> Optional[HealthStats]:
        """Estimator/breaker counters for this run (None without health)."""
        return self._health.stats if self._health is not None else None

    @property
    def dropped_captures(self) -> frozenset[tuple[ResourceId, Chronon, int]]:
        """Per-EI partial-failure drops: ``(resource, chronon, seq)`` triples.

        Each triple names an EI that was active on a successfully-probed
        resource but whose data the probe failed to retrieve.  The probe
        itself *is* in the schedule, so metrics must exclude these
        coordinates (``evaluate_schedule(..., dropped=...)``) or the
        dropped EIs would be silently over-credited.
        """
        return frozenset(self._dropped)

    @property
    def push_probes(self) -> frozenset[tuple[ResourceId, Chronon]]:
        """The free push captures recorded in the schedule.

        Useful to reconcile the schedule against budget accounting:
        ``Schedule.check_feasible(..., push_probes=monitor.push_probes)``
        excludes exactly the probes :meth:`budget_consumed_at` never
        charged.
        """
        return frozenset(self._push_probes)

    @property
    def believed_completeness(self) -> float:
        """Fraction of revealed CEIs the proxy believes it captured.

        Cancelled CEIs leave the denominator: a client withdrawing a
        profile mid-flight is neither a success nor a failure of the
        monitor, so churn does not dilute the completeness signal.
        """
        denom = self.pool.num_registered - self.pool.num_cancelled
        if denom == 0:
            return 1.0
        return self.pool.num_satisfied / denom
