"""Section V-D's runtime comparison (offline vs online, msec per EI).

The paper, for 500 profiles / rank 5 / λ = 20 (1743 CEIs, 8715 EIs):

    Offline = 8.6 msec/EI;  S-EDF = 0.06;  MRSF = 0.07;  M-EDF = 0.22

i.e. the offline approximation is orders of magnitude slower per EI than
the online policies, and M-EDF is the most expensive online policy (its
value costs O(rank) per evaluation, Appendix B).  We sweep the profile
count like the paper (100..500) and report msec/EI for each solver.  The
experiment uses w = 0 so the offline solver works on the unit fast path;
with wider EIs the Proposition 5 transformation blows the instance up
exponentially before the solver even starts (see Figure 11's note).  The
offline run uses the published algorithm's all-pairs conflict scan
(``indexed_conflicts=False``) — our inverted-index optimization computes
the same schedules much faster and would hide the very scaling wall this
experiment demonstrates.
"""

from __future__ import annotations

import numpy as np

from repro.core.timebase import Epoch
from repro.experiments.common import (
    ExperimentResult,
    constant_budget,
    poisson_instance,
    repeat_mean,
    scaled,
)
from repro.online.config import MonitorConfig
from repro.sim.engine import simulate, simulate_offline
from repro.workloads.generator import GeneratorSpec
from repro.workloads.templates import LengthRule

NUM_RESOURCES = 1000
NUM_CHRONONS = 1000
MEAN_UPDATES = 20.0
PROFILE_COUNTS = (100, 200, 300, 400, 500)
RANK = 5
ONLINE = ["S-EDF", "MRSF", "M-EDF"]
#: The table times the Algorithm 1 transcription, so it names the
#: reference engine rather than riding the default engine.
REFERENCE = MonitorConfig(engine="reference")


def run(scale: float = 1.0, seed: int = 0, repetitions: int = 3) -> ExperimentResult:
    """Reproduce the Section V-D runtime table (msec per EI)."""
    epoch = Epoch(scaled(NUM_CHRONONS, scale, 100))
    num_resources = scaled(NUM_RESOURCES, scale, 50)
    budget = constant_budget(1.0, epoch)
    rule = LengthRule.window(0)

    result = ExperimentResult(
        experiment="Section V-D — runtime normalized per EI "
        f"(synthetic Poisson λ={MEAN_UPDATES:g}, rank={RANK}, w=0, C=1)",
        headers=[
            "profiles",
            "EIs",
            "offline ms/EI",
            "S-EDF ms/EI",
            "MRSF ms/EI",
            "M-EDF ms/EI",
            "offline/online x",
        ],
    )

    for count in PROFILE_COUNTS:
        num_profiles = scaled(count, scale, 5)
        spec = GeneratorSpec(
            num_profiles=num_profiles,
            rank_max=RANK,
            fixed_rank=RANK,
            alpha=0.3,
            max_ceis_per_profile=5,
        )

        def one_repetition(rng: np.random.Generator) -> list[float]:
            profiles = poisson_instance(
                rng, epoch, num_resources, MEAN_UPDATES, spec, rule
            )
            offline = simulate_offline(
                profiles, epoch, budget, mode="paper", indexed_conflicts=False
            )
            values = [float(profiles.num_eis), offline.runtime.msec_per_ei]
            for name in ONLINE:
                sim = simulate(
                    profiles, epoch, budget, name, preemptive=True, config=REFERENCE
                )
                values.append(sim.runtime.msec_per_ei)
            return values

        means = repeat_mean(one_repetition, repetitions, seed + count)
        eis, offline_ms, *online_ms = means
        fastest = min(online_ms)
        ratio = offline_ms / fastest if fastest > 0 else float("inf")
        result.rows.append([num_profiles, int(eis), offline_ms, *online_ms, ratio])

    result.notes.append(
        "paper values at 500 profiles: offline 8.6, S-EDF 0.06, MRSF 0.07, "
        "M-EDF 0.22 msec/EI (Java 1.4 on a 2006 laptop) — compare shapes, "
        "not absolutes"
    )
    return result


def main() -> None:
    print(run().to_text(precision=4))


if __name__ == "__main__":
    main()
