"""Extension — profile churn: incremental deltas vs recompilation.

The paper's proxy is always on: clients "register their complex needs"
and withdraw them while monitoring runs (Section I).  The batch
reproduction compiles a fixed workload into an
:class:`repro.sim.arena.InstanceArena` up front; under churn that choice
turns every registration into a full recompile.  This experiment drives
:class:`repro.online.streaming.StreamingMonitor` with sustained
register/cancel churn and measures, per churn rate:

* the cumulative cost of admitting each batch as an
  :class:`repro.sim.arena.ArenaPatch` delta (what the streaming proxy
  does), against
* the cumulative cost a recompile-per-batch design would pay
  (``compile_arena`` over the full accumulated timeline at every churn
  event), and
* the believed completeness the monitor reaches — churn must shift cost,
  never results (tests/test_churn_equivalence.py pins the equivalence).

``repro-experiments run churn`` prints one row per churn rate.  Its
heaviest rate is the ``churn`` workload of ``perfbench/run.py``, which
times one registering and one cancelling patch per operation.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.intervals import ComplexExecutionInterval, ExecutionInterval
from repro.core.profile import Profile, ProfileSet
from repro.core.timebase import Epoch
from repro.experiments.common import ExperimentResult, poisson_instance, scaled
from repro.online.config import MonitorConfig
from repro.online.streaming import StreamingMonitor
from repro.sim.arena import compile_arena
from repro.workloads.generator import GeneratorSpec
from repro.workloads.templates import LengthRule

NUM_RESOURCES = 60
NUM_CHRONONS = 240
MEAN_UPDATES = 12.0
NUM_PROFILES = 40
RANK_MAX = 3
WINDOW = 20
CHURN_PERIOD = 5  # chronons between churn batches
CANCEL_FRACTION = 0.25  # of each batch's size, withdrawn from open needs
RATES = [0, 2, 8, 32]  # registrations per churn batch


def _random_cei(
    rng: np.random.Generator, now: int, num_resources: int
) -> ComplexExecutionInterval:
    """A fresh need whose windows open ahead of the clock."""
    rank = int(rng.integers(1, 3))
    eis = []
    for _ in range(rank):
        start = now + int(rng.integers(1, 12))
        length = int(rng.integers(3, 18))
        eis.append(
            ExecutionInterval(
                resource=int(rng.integers(num_resources)),
                start=start,
                finish=start + length,
            )
        )
    return ComplexExecutionInterval(eis=tuple(eis))


def run(scale: float = 1.0, seed: int = 0, engine: str = "vectorized") -> ExperimentResult:
    """Sweep churn rates; report patch vs recompile cost and completeness."""
    horizon = scaled(NUM_CHRONONS, scale, 40)
    num_resources = scaled(NUM_RESOURCES, scale, 8)
    num_profiles = scaled(NUM_PROFILES, scale, 5)
    epoch = Epoch(horizon)
    spec = GeneratorSpec(num_profiles=num_profiles, rank_max=RANK_MAX)
    rule = LengthRule.window(max(4, scaled(WINDOW, scale, 4)))

    result = ExperimentResult(
        experiment="Extension — churn: ArenaPatch deltas vs recompilation",
        headers=[
            "churn/batch",
            "ceis_total",
            "cancelled",
            "patch_ms",
            "recompile_ms",
            "speedup",
            "believed_completeness",
        ],
    )

    for rate in RATES:
        rng = np.random.default_rng([seed, rate])
        base = poisson_instance(
            rng, epoch, num_resources, MEAN_UPDATES, spec, rule
        )
        arena = compile_arena(base)
        monitor = StreamingMonitor(
            "MRSF",
            budget=1.0,
            config=MonitorConfig(engine=engine),
            arena=arena,
        )
        # The recompile baseline's view of the full accumulated timeline.
        all_ceis = [cei for profile in base for cei in profile.ceis]
        arrivals = {
            at: list(batch) for at, batch in arena.arrivals.items()
        }

        patch_seconds = 0.0
        recompile_seconds = 0.0
        cancelled = 0
        open_candidates: list[ComplexExecutionInterval] = []

        for t in range(horizon):
            if rate and t % CHURN_PERIOD == 0:
                batch = [
                    _random_cei(rng, t, num_resources) for _ in range(rate)
                ]
                started = time.perf_counter()
                monitor.submit(batch)
                patch_seconds += time.perf_counter() - started
                all_ceis.extend(batch)
                open_candidates.extend(batch)
                for cei in batch:
                    arrivals.setdefault(max(t, cei.release), []).append(cei)

                # What a compile-from-scratch design pays for the same batch.
                started = time.perf_counter()
                compile_arena(
                    ProfileSet([Profile(pid=0, ceis=list(all_ceis))]),
                    arrivals={
                        at: list(batch) for at, batch in arrivals.items()
                    },
                )
                recompile_seconds += time.perf_counter() - started

                num_cancels = int(rate * CANCEL_FRACTION)
                if num_cancels and open_candidates:
                    picks = rng.choice(
                        len(open_candidates),
                        size=min(num_cancels, len(open_candidates)),
                        replace=False,
                    )
                    victims = [open_candidates[int(j)] for j in picks]
                    withdrawn = monitor.cancel(victims)
                    cancelled += len(withdrawn)
                    gone = {cei.cid for cei in victims}
                    open_candidates = [
                        cei for cei in open_candidates if cei.cid not in gone
                    ]
            monitor.advance(1)

        speedup = (
            recompile_seconds / patch_seconds if patch_seconds > 0 else float("nan")
        )
        result.rows.append(
            [
                rate,
                len(all_ceis),
                cancelled,
                round(patch_seconds * 1e3, 2),
                round(recompile_seconds * 1e3, 2),
                round(speedup, 1) if speedup == speedup else float("nan"),
                round(monitor.believed_completeness, 4),
            ]
        )

    result.notes.append(
        f"churn every {CHURN_PERIOD} chronons over {horizon}; cancels = "
        f"{CANCEL_FRACTION:.0%} of each batch, drawn from still-open needs"
    )
    result.notes.append(
        "patch_ms admits batches as ArenaPatch deltas (live pools adopt in "
        "place); recompile_ms compiles the full accumulated timeline per batch"
    )
    return result
