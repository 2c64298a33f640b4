"""Experiment configuration: the controlled parameters of Table I.

Every experiment in the paper's Section V is a point (or sweep) in this
parameter space.  :class:`ExperimentConfig` carries the baseline values
from Table I; :data:`TABLE_I` reproduces the table itself for the
``table1`` experiment (``tests/test_experiments.py::TestTable1`` checks
its rows against these defaults).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.errors import ExperimentError


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Controlled parameters (paper Table I) with their baseline values."""

    max_ei_length: int = 10  # w: maximum EI length, range [0, 20]
    num_resources: int = 1000  # n, range [100, 2000]
    num_profiles: int = 100  # m, range [100, 2000]
    num_chronons: int = 1000  # K (10000 in the table's range column)
    budget: float = 1.0  # C, the per-chronon probe budget
    update_intensity: float = 20.0  # λ: avg updates per resource, range [10, 50]
    rank_max: int = 5  # rank(P): maximum profile rank, range [1, 5]
    alpha: float = 0.3  # inter-user preference skew, range [0, 1]
    beta: float = 0.0  # intra-user rank-variance skew, range [0, 2]
    fixed_rank: Optional[int] = None  # force all CEIs to one rank (Fig. 10)
    repetitions: int = 10  # the paper averages 10 executions

    def __post_init__(self) -> None:
        if self.max_ei_length < 0:
            raise ExperimentError(f"w must be >= 0, got {self.max_ei_length}")
        if self.num_resources <= 0 or self.num_profiles <= 0:
            raise ExperimentError("n and m must be positive")
        if self.num_chronons <= 0:
            raise ExperimentError(f"K must be positive, got {self.num_chronons}")
        if self.budget <= 0:
            raise ExperimentError(f"C must be positive, got {self.budget}")
        if self.update_intensity < 0:
            raise ExperimentError(f"λ must be >= 0, got {self.update_intensity}")
        if self.rank_max <= 0:
            raise ExperimentError(f"rank(P) must be positive, got {self.rank_max}")
        if self.alpha < 0 or self.beta < 0:
            raise ExperimentError("Zipf exponents must be >= 0")
        if self.repetitions <= 0:
            raise ExperimentError(f"repetitions must be positive, got {self.repetitions}")

    def scaled(self, factor: float) -> "ExperimentConfig":
        """A proportionally smaller configuration for quick benchmarks.

        Scales the instance-size parameters (n, m, K) by ``factor`` while
        keeping the shape parameters (w, C, λ, ranks, skews) fixed, so
        result *shapes* are preserved at reduced cost.
        """
        if not 0 < factor <= 1:
            raise ExperimentError(f"scale factor must be in (0, 1], got {factor}")
        return replace(
            self,
            num_resources=max(10, int(self.num_resources * factor)),
            num_profiles=max(5, int(self.num_profiles * factor)),
            num_chronons=max(50, int(self.num_chronons * factor)),
        )


#: Table I verbatim: (symbol, name, range, baseline) — the bench prints it.
TABLE_I: list[tuple[str, str, str, str]] = [
    ("w (chronons)", "Max. EI length", "[0, 20]", "10"),
    ("n", "Number of Resources", "[100, 2000]", "1000"),
    ("m", "Number of Profiles", "[100, 2000]", "100"),
    ("K", "Number of Chronons", "10000", "1000"),
    ("C", "Budget limitation", "[1, 5]", "1"),
    ("lambda", "Avg. updates intensity", "[10, 50]", "20"),
    ("rank(P)", "Max. profile rank", "[1, 5]", "upto 5"),
    ("alpha", "Inter preferences", "[0, 1]", "0.3"),
    ("beta", "Intra preferences", "[0, 2]", "0"),
    ("Phi", "Policy", "All", "All"),
]

#: The policy lineup of the paper's figures: (registry name, preemptive).
PAPER_POLICIES: list[tuple[str, bool]] = [
    ("S-EDF", False),
    ("S-EDF", True),
    ("MRSF", True),
    ("M-EDF", True),
    ("WIC", True),
]
