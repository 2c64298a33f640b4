"""Regression gate: ArenaPatch deltas beat recompilation by 10x.

Builds an arena with 10^4 registered CEIs and admits one churn batch of
``BATCH`` CEIs both ways: as one :class:`repro.sim.arena.ArenaPatch`
applied to the live arena, with a live pool adopting the patched
generation, and as a ``compile_arena`` of the full accumulated timeline
(what a compile-from-scratch design pays per churn event).  The patch
side is what ``StreamingMonitor.submit`` does with one batch, and so
what one ``StreamingProxy.submit_ceis`` call costs on an arena-backed
proxy; a service that submitted the same needs one call at a time
would pay ``BATCH`` patches.  The patch path must win by ``THRESHOLD``x
— its Python work is proportional to the batch, though each patch still
copies the O(total rows) NumPy mirrors — and both paths must agree on
the resulting arena's row/CEI counts, or the timing is meaningless.

Exit status 0 when ``recompile / patch >= THRESHOLD``, 1 otherwise.

Usage::

    PYTHONPATH=src python benchmarks/check_churn_speedup.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.core.intervals import ComplexExecutionInterval, ExecutionInterval
from repro.core.profile import Profile, ProfileSet
from repro.online.fastpath import FastCandidatePool
from repro.sim.arena import ArenaPatch, apply_patch, compile_arena

THRESHOLD = 10.0
ROUNDS = 5
NUM_CEIS = 10_000
NUM_RESOURCES = 100
HORIZON = 500
BATCH = 64


def _cei(rng: np.random.Generator) -> ComplexExecutionInterval:
    rank = int(rng.integers(1, 4))
    eis = []
    for _ in range(rank):
        start = int(rng.integers(0, HORIZON - 30))
        eis.append(
            ExecutionInterval(
                resource=int(rng.integers(NUM_RESOURCES)),
                start=start,
                finish=start + int(rng.integers(3, 30)),
            )
        )
    return ComplexExecutionInterval(eis=tuple(eis))


def main() -> int:
    rng = np.random.default_rng(42)
    base = [_cei(rng) for _ in range(NUM_CEIS)]
    batches = [[_cei(rng) for _ in range(BATCH)] for _ in range(ROUNDS)]

    patch_times: list[float] = []
    recompile_times: list[float] = []
    patched_shape = recompiled_shape = None
    for batch in batches:
        # Fresh arena + live pool per round: apply_patch mutates shared
        # containers, so each round must start from its own compile.
        arena = compile_arena(
            ProfileSet([Profile(pid=0, ceis=list(base))])
        )
        pool = FastCandidatePool(arena=arena)
        started = time.perf_counter()
        patched = apply_patch(
            arena, ArenaPatch.registrations(batch, at=0), pools=(pool,)
        )
        patch_times.append(time.perf_counter() - started)
        patched_shape = (patched.n_ceis, patched.n_rows)

        started = time.perf_counter()
        recompiled = compile_arena(
            ProfileSet([Profile(pid=0, ceis=list(base) + list(batch))])
        )
        recompile_times.append(time.perf_counter() - started)
        recompiled_shape = (recompiled.n_ceis, recompiled.n_rows)

    if patched_shape != recompiled_shape:
        raise SystemExit(
            f"patched arena diverged from recompile: {patched_shape} vs "
            f"{recompiled_shape} (ceis, rows) — delta layer broken"
        )

    patch = min(patch_times)
    recompile = min(recompile_times)
    speedup = recompile / patch
    print(
        f"churn batch of {BATCH} onto {NUM_CEIS} CEIs, best of {ROUNDS}: "
        f"recompile {recompile * 1e3:.1f}ms, patch {patch * 1e3:.1f}ms, "
        f"speedup {speedup:.1f}x (threshold {THRESHOLD}x)"
    )
    if speedup < THRESHOLD:
        print(f"FAIL: ArenaPatch below {THRESHOLD}x over recompilation")
        return 1
    print("OK: incremental deltas hold their speedup")
    return 0


if __name__ == "__main__":
    sys.exit(main())
