"""Figure 11 — runtime scalability of the online policies (Section V-D).

Setting: synthetic trace with 2.5x the baseline update intensity
(λ = 50), profile count growing to 2500, K = 1000 chronons, aggregated
runtime normalized per EI.  The paper observes a linear trend in total
runtime (flat-ish msec/EI), concluding the online policies scale; the
offline approximation is omitted "since it is very high".
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
from repro.sim.engine import simulate
from repro.workloads.generator import GeneratorSpec
from repro.workloads.templates import LengthRule

NUM_RESOURCES = 1000
NUM_CHRONONS = 1000
MEAN_UPDATES = 50.0  # 2.5x the Table I baseline of 20
PROFILE_COUNTS = (500, 1000, 1500, 2000, 2500)
RANK_MAX = 5
WINDOW = 10
ONLINE = ["S-EDF", "MRSF", "M-EDF"]
#: The figure times the Algorithm 1 transcription, so it names the
#: reference engine rather than riding the default: on the vectorized
#: engine M-EDF's O(rank) value is cheap and the M-EDF/S-EDF shape inverts.
REFERENCE = MonitorConfig(engine="reference")


def run(scale: float = 1.0, seed: int = 0, repetitions: int = 3) -> ExperimentResult:
    """Reproduce the Figure 11 scalability sweep (msec per EI)."""
    epoch = Epoch(scaled(NUM_CHRONONS, scale, 100))
    num_resources = scaled(NUM_RESOURCES, scale, 50)
    budget = constant_budget(1.0, epoch)
    rule = LengthRule.window(WINDOW)

    result = ExperimentResult(
        experiment="Figure 11 — online runtime scalability "
        f"(synthetic Poisson λ={MEAN_UPDATES:g}, w={WINDOW}, C=1)",
        headers=[
            "profiles",
            "EIs",
            "S-EDF ms/EI",
            "MRSF ms/EI",
            "M-EDF ms/EI",
            "S-EDF total s",
            "MRSF total s",
            "M-EDF total s",
        ],
    )

    for count in PROFILE_COUNTS:
        num_profiles = scaled(count, scale, 5)
        spec = GeneratorSpec(
            num_profiles=num_profiles,
            rank_max=RANK_MAX,
            alpha=0.3,
            beta=0.0,
            max_ceis_per_profile=5,
        )

        def one_repetition(rng: np.random.Generator) -> list[float]:
            profiles = poisson_instance(
                rng, epoch, num_resources, MEAN_UPDATES, spec, rule
            )
            values = [float(profiles.num_eis)]
            per_ei: list[float] = []
            totals: list[float] = []
            for name in ONLINE:
                sim = simulate(
                    profiles, epoch, budget, name, preemptive=True, config=REFERENCE
                )
                per_ei.append(sim.runtime.msec_per_ei)
                totals.append(sim.runtime.total_seconds)
            return values + per_ei + totals

        means = repeat_mean(one_repetition, repetitions, seed + count)
        result.rows.append([num_profiles, int(means[0]), *means[1:]])

    result.notes.append(
        "paper shape: total runtime grows ~linearly in total EIs "
        "(msec/EI roughly flat); offline omitted — it does not scale"
    )
    return result


def main() -> None:
    print(run().to_text(precision=4))


if __name__ == "__main__":
    main()
