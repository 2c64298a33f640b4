"""Regression gate: top-k phase selection beats the full lexsort by 1.3x.

Runs the dense full-monitor benchmark workload (see ``bench_micro``) on
the vectorized engine twice — once with ``fastpath.TOPK_ENABLED`` (the
default: budget-sized ``argpartition`` slices, widened on demand) and
once forced back to the legacy full-bag lexsort — and compares
best-of-N wall-clock times.  The policy is MRSF with a no-op
``on_chronon_start`` (``SteppedMRSF``, as in
``check_shedding_overhead.py``): a plain MRSF ``run()`` takes the
carried walk (``fastpath.run_fast_span``), which keeps one heap entry
per open CEI and never cuts a bag, so both sides would time the same
code; the hook makes ``run()`` step every chronon through the phase
walk, whose top-k cut this gate times.  The two
runs are interleaved and the best round is taken per side, which
suppresses most scheduler noise on shared CI runners.  Both sides must
probe identically: top-k is a pure reordering of when sort keys are
materialized, so any probe-count divergence means the selection
invariant broke and the timing is meaningless.

Exit status 0 when ``full_sort / topk >= THRESHOLD``, 1 otherwise.

Usage::

    PYTHONPATH=src python benchmarks/check_phase_speedup.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_micro import _instance  # noqa: E402

from repro.core.schedule import BudgetVector  # noqa: E402
from repro.core.timebase import Chronon  # noqa: E402
from repro.online import fastpath  # noqa: E402
from repro.online.config import MonitorConfig  # noqa: E402
from repro.online.monitor import OnlineMonitor  # noqa: E402
from repro.policies.mrsf import MRSF  # noqa: E402

THRESHOLD = 1.3
ROUNDS = 9
POLICY = "MRSF"


class SteppedMRSF(MRSF):
    """MRSF with run batching defeated: every chronon runs its phases."""

    def on_chronon_start(self, chronon: Chronon) -> None:
        pass


def timed_run(topk: bool) -> tuple[float, int]:
    epoch, arrivals, budget = _instance("dense")
    monitor = OnlineMonitor(
        SteppedMRSF(),
        BudgetVector.constant(budget, len(epoch)),
        config=MonitorConfig(engine="vectorized"),
    )
    fastpath.TOPK_ENABLED = topk
    try:
        started = time.perf_counter()
        monitor.run(epoch, arrivals)
        elapsed = time.perf_counter() - started
    finally:
        fastpath.TOPK_ENABLED = True
    return elapsed, monitor.probes_used


def main() -> int:
    _instance("dense")  # build the workload outside the timed region

    topk_times: list[float] = []
    full_times: list[float] = []
    topk_probes = full_probes = None
    for _ in range(ROUNDS):
        seconds, topk_probes = timed_run(topk=True)
        topk_times.append(seconds)
        seconds, full_probes = timed_run(topk=False)
        full_times.append(seconds)

    if topk_probes != full_probes:
        raise SystemExit(
            f"top-k diverged from the full sort: {topk_probes} vs "
            f"{full_probes} probes — selection invariant broken"
        )

    topk = min(topk_times)
    full = min(full_times)
    speedup = full / topk
    print(
        f"dense vectorized stepped {POLICY} full run, best of {ROUNDS}: "
        f"full lexsort {full:.3f}s, top-k {topk:.3f}s, "
        f"speedup {speedup:.2f}x (threshold {THRESHOLD}x)"
    )
    if speedup < THRESHOLD:
        print(
            f"FAIL: top-k phase selection below {THRESHOLD}x over the "
            "full lexsort"
        )
        return 1
    print("OK: top-k phase selection holds its speedup")
    return 0


if __name__ == "__main__":
    sys.exit(main())
