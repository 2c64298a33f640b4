"""Engine speedup report: appends to the committed ``BENCH_<date>.json``.

Runs the full-monitor benchmark grid (paper policies x densities x
engines), the kernel-vs-Python-loop scoring microbenchmark and a small
parallel-suite scaling check, then appends one *run record* — keyed by
the git SHA it was measured at — to the JSON document next to this
script.  The file is a performance trajectory::

    {"format": "bench-trajectory-v1",
     "runs": [{"git_sha": ..., "date": ..., "full_monitor": [...], ...},
              ...]}

so future changes can diff engine performance against any committed
point without re-deriving the harness:

    PYTHONPATH=src python benchmarks/bench_report.py [--reps 3] [--out PATH]

A pre-trajectory baseline (a bare record at the top level) is wrapped
as ``runs[0]`` on first append.  Timings are min-of-``reps`` wall
clock; every speedup cell also records the probe count of both engines,
which must match exactly (the report aborts otherwise — a perf baseline
measured on diverging engines would be meaningless).  The record header
notes the worker-pool size.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

from repro.core.schedule import BudgetVector
from repro.core.timebase import Epoch
from repro.online.arrivals import arrivals_from_profiles
from repro.online.config import MonitorConfig
from repro.online.faults import FailureModel, RetryPolicy
from repro.online.monitor import OnlineMonitor
from repro.policies import make_policy
from repro.sim.runner import run_suite
from repro.traces.noise import perfect_predictions
from repro.traces.poisson import poisson_trace
from repro.workloads.generator import GeneratorSpec, generate_profiles
from repro.workloads.templates import LengthRule

POLICIES = ["S-EDF", "MRSF", "M-EDF"]

#: Both densities pin the seed workload's 100 profiles x 400 chronons x
#: 200 resources; ``dense`` widens windows/rates to ~1000-EI bags.
DENSITIES = {
    "sparse": {"window": 10, "rate": 8.0, "rank_max": 5, "budget": 2},
    "dense": {"window": 100, "rate": 40.0, "rank_max": 12, "budget": 1},
}


def build_instance(window: int, rate: float, rank_max: int, seed: int = 3):
    epoch = Epoch(400)
    rng = np.random.default_rng(seed)
    trace = poisson_trace(200, epoch, rate, rng)
    profiles = generate_profiles(
        perfect_predictions(trace),
        epoch,
        GeneratorSpec(num_profiles=100, rank_max=rank_max),
        LengthRule.window(window),
        rng,
    )
    return epoch, arrivals_from_profiles(profiles)


def time_monitor_once(epoch, arrivals, policy_name, budget, engine):
    monitor = OnlineMonitor(
        make_policy(policy_name),
        BudgetVector.constant(budget, len(epoch)),
        config=MonitorConfig(engine=engine),
    )
    started = time.perf_counter()
    monitor.run(epoch, arrivals)
    elapsed = time.perf_counter() - started
    return elapsed, monitor.probes_used


ENGINES = ("reference", "vectorized")


def full_monitor_cells(reps: int) -> list[dict]:
    cells = []
    for density, params in DENSITIES.items():
        epoch, arrivals = build_instance(
            params["window"], params["rate"], params["rank_max"]
        )
        for policy_name in POLICIES:
            row = {"density": density, "policy": policy_name, **params}
            # Rounds are interleaved across engines so slow machine drift
            # hits every column alike; the best round is taken per engine.
            best = {engine: float("inf") for engine in ENGINES}
            for _ in range(reps):
                for engine in ENGINES:
                    seconds, probes = time_monitor_once(
                        epoch, arrivals, policy_name, params["budget"], engine
                    )
                    best[engine] = min(best[engine], seconds)
                    row[f"{engine}_probes"] = probes
            for engine in ENGINES:
                row[f"{engine}_seconds"] = round(best[engine], 6)
            if row["reference_probes"] != row["vectorized_probes"]:
                raise SystemExit(
                    f"engine divergence on {policy_name}/{density}: "
                    f"{row['reference_probes']} vs {row['vectorized_probes']} "
                    f"probes (ref/vec)"
                )
            row["speedup"] = round(
                row["reference_seconds"] / row["vectorized_seconds"], 2
            )
            cells.append(row)
            print(
                f"{density:7s} {policy_name:6s} "
                f"ref={row['reference_seconds'] * 1e3:8.2f}ms "
                f"vec={row['vectorized_seconds'] * 1e3:8.2f}ms "
                f"speedup={row['speedup']:5.2f}x"
            )
    return cells


def kernel_scoring_cells(reps: int) -> list[dict]:
    from repro.online.fastpath import FastCandidatePool

    params = DENSITIES["dense"]
    epoch, _ = build_instance(params["window"], params["rate"], params["rank_max"])
    rng = np.random.default_rng(3)
    trace = poisson_trace(200, epoch, params["rate"], rng)
    profiles = generate_profiles(
        perfect_predictions(trace),
        epoch,
        GeneratorSpec(num_profiles=100, rank_max=params["rank_max"]),
        LengthRule.window(params["window"]),
        rng,
    )
    cells = []
    for bag_size in (100, 1000, 4000):
        policy = make_policy("M-EDF")
        kernel = policy.make_kernel()
        pool = FastCandidatePool()
        for cei in (c for p in profiles for c in p.ceis):
            pool.register(cei, 0)
            if len(pool.row_seq) >= bag_size:
                break
        pool.sync_mirrors()
        # Scoring doesn't require window-open rows; any registered row works.
        rows = np.arange(min(bag_size, len(pool.row_seq)))
        eis = [pool._row_ei[row] for row in rows.tolist()]

        loop_best = batch_best = float("inf")
        for _ in range(max(reps, 5)):
            started = time.perf_counter()
            for ei in eis:
                policy.sort_key(ei, 0, pool)
            loop_best = min(loop_best, time.perf_counter() - started)
            cidx = pool.npr_cidx[rows]
            started = time.perf_counter()
            kernel.score_rows(pool, rows, cidx, 0)
            batch_best = min(batch_best, time.perf_counter() - started)
        cell = {
            "bag_size": int(rows.size),
            "python_loop_seconds": round(loop_best, 8),
            "kernel_seconds": round(batch_best, 8),
            "speedup": round(loop_best / batch_best, 1),
        }
        cells.append(cell)
        print(
            f"scoring bag={cell['bag_size']:5d} "
            f"loop={cell['python_loop_seconds'] * 1e6:9.1f}us "
            f"kernel={cell['kernel_seconds'] * 1e6:7.1f}us "
            f"speedup={cell['speedup']:7.1f}x"
        )
    return cells


#: Rates for the failure-sweep runtime section; 0.0 measures the pure
#: overhead of threading a (trivial) fault model through the hot loop.
FAILURE_RATES = (0.0, 0.25, 0.5)


def failure_sweep_cells(reps: int) -> list[dict]:
    params = DENSITIES["sparse"]
    epoch, arrivals = build_instance(
        params["window"], params["rate"], params["rank_max"]
    )
    cells = []
    for rate in FAILURE_RATES:
        row = {"policy": "MRSF", "rate": rate, "max_retries": 1}
        for engine in ("reference", "vectorized"):
            best = float("inf")
            probes = failed = backoffs = None
            worst_resources = None
            for _ in range(reps):
                monitor = OnlineMonitor(
                    make_policy("MRSF"),
                    BudgetVector.constant(params["budget"], len(epoch)),
                    config=MonitorConfig(
                        engine=engine,
                        faults=FailureModel(rate=rate, seed=11),
                        retry=RetryPolicy(
                            max_retries=1, backoff_base=1.0, backoff_cap=4
                        ),
                    ),
                )
                started = time.perf_counter()
                for chronon in epoch:
                    monitor.step(chronon, arrivals.get(chronon, ()))
                best = min(best, time.perf_counter() - started)
                probes = monitor.probes_used
                failed = monitor.probes_failed
                stats = monitor.fault_stats
                backoffs = stats.backoffs
                worst_resources = sorted(
                    stats.failures_by_resource.items(),
                    key=lambda item: (-item[1], item[0]),
                )[:3]
            row[f"{engine}_seconds"] = round(best, 6)
            row[f"{engine}_probes"] = probes
            row[f"{engine}_failed"] = failed
            row[f"{engine}_backoffs"] = backoffs
        row["worst_resources"] = [
            {"resource": rid, "failures": count} for rid, count in worst_resources
        ]
        if (
            row["reference_probes"],
            row["reference_failed"],
            row["reference_backoffs"],
        ) != (
            row["vectorized_probes"],
            row["vectorized_failed"],
            row["vectorized_backoffs"],
        ):
            raise SystemExit(
                f"engine divergence under faults at rate {rate}: "
                f"ref {row['reference_probes']}/{row['reference_failed']} vs "
                f"vec {row['vectorized_probes']}/{row['vectorized_failed']} "
                "(probes/failed)"
            )
        row["speedup"] = round(
            row["reference_seconds"] / row["vectorized_seconds"], 2
        )
        cells.append(row)
        print(
            f"faults  rate={rate:4.2f} failed={row['reference_failed']:5d} "
            f"backoffs={row['reference_backoffs']:4d} "
            f"ref={row['reference_seconds'] * 1e3:8.2f}ms "
            f"vec={row['vectorized_seconds'] * 1e3:8.2f}ms "
            f"speedup={row['speedup']:5.2f}x"
        )
    return cells


def fault_draw_cells(reps: int) -> list[dict]:
    """Verdict-oracle throughput: batched per-chronon blocks vs legacy.

    Drains one failing-heavy run's worth of coordinates (50 chronons x
    200 resources x 2 attempts) through ``FailureModel.fails`` under both
    draw schemes, with a fresh model per repetition so the block cache
    starts cold.  The batched scheme must be no slower than the legacy
    per-attempt SeedSequence construction — that ratio is the number the
    vectorized fault path is accepted on.
    """
    coords = [
        (resource, chronon, attempt)
        for chronon in range(50)
        for resource in range(200)
        for attempt in range(2)
    ]
    cells = []
    timings = {}
    for scheme in ("batched", "per_attempt"):
        best = float("inf")
        failures = None
        for _ in range(max(reps, 3)):
            model = FailureModel(
                rate=0.5, seed=9, per_attempt_draws=(scheme == "per_attempt")
            )
            started = time.perf_counter()
            failures = sum(model.fails(*coord) for coord in coords)
            best = min(best, time.perf_counter() - started)
        timings[scheme] = best
        cells.append(
            {
                "scheme": scheme,
                "draws": len(coords),
                "seconds": round(best, 6),
                "failures": failures,
            }
        )
        print(
            f"draws   {scheme:12s} {len(coords)} verdicts in "
            f"{best * 1e3:8.2f}ms"
        )
    speedup = round(timings["per_attempt"] / timings["batched"], 2)
    if speedup < 1.0:
        raise SystemExit(
            f"batched fault draws slower than per-attempt ({speedup}x)"
        )
    cells.append({"scheme": "speedup", "batched_over_per_attempt": speedup})
    print(f"draws   batched speedup {speedup:5.2f}x")
    return cells


def health_path_cells(reps: int) -> list[dict]:
    """The learned-reliability path vs the oracle on the dense workload.

    Times the dense vectorized full run three ways: ``EG-MRSF`` (oracle
    discount, the baseline), ``LEG-MRSF`` with a plain
    :class:`~repro.online.health.HealthConfig` (estimator only), and
    ``LEG-MRSF`` with the circuit breaker armed.  The estimator ratio is
    the number ``check_health_overhead.py`` gates at 1.05 in CI; rounds
    are interleaved so machine noise hits all variants alike.
    """
    from repro.online.health import HealthConfig

    params = DENSITIES["dense"]
    epoch, arrivals = build_instance(
        params["window"], params["rate"], params["rank_max"]
    )
    faults = FailureModel(rate=0.2, seed=7)
    retry = RetryPolicy(max_retries=1)
    variants = {
        "oracle": ("EG-MRSF", None),
        "learned": ("LEG-MRSF", HealthConfig()),
        "learned+breaker": ("LEG-MRSF", HealthConfig(breaker=True)),
    }
    best = {name: float("inf") for name in variants}
    probes = {}
    for _ in range(max(reps, 5)):
        for name, (policy_name, health) in variants.items():
            monitor = OnlineMonitor(
                make_policy(policy_name),
                BudgetVector.constant(params["budget"], len(epoch)),
                config=MonitorConfig(
                    engine="vectorized", faults=faults, retry=retry, health=health
                ),
            )
            started = time.perf_counter()
            for chronon in epoch:
                monitor.step(chronon, arrivals.get(chronon, ()))
            best[name] = min(best[name], time.perf_counter() - started)
            probes[name] = monitor.probes_used
    cells = []
    for name, (policy_name, __) in variants.items():
        ratio = round(best[name] / best["oracle"], 3)
        cells.append(
            {
                "variant": name,
                "policy": policy_name,
                "seconds": round(best[name], 6),
                "probes": probes[name],
                "ratio_vs_oracle": ratio,
            }
        )
        print(
            f"health  {name:16s} {policy_name:9s} "
            f"{best[name] * 1e3:8.2f}ms ratio={ratio:5.3f}"
        )
    return cells


def shedding_path_cells(reps: int) -> list[dict]:
    """The shedding tick and an actively shedding run on the dense workload.

    Times the dense vectorized stepped run three ways: shedding disabled
    (the baseline every existing workload runs under), a shedder that is
    *armed but untriggerable* (entry threshold 1e9 — pure per-chronon
    mechanism cost, the path ``check_shedding_overhead.py`` gates in
    CI), and an aggressive shedder that actually degrades and releases
    under the dense workload's sustained overload.  Rounds are
    interleaved so machine noise hits all variants alike; the active
    variant also records its victim counters.
    """
    from repro.online.shedding import SheddingConfig

    params = DENSITIES["dense"]
    epoch, arrivals = build_instance(
        params["window"], params["rate"], params["rank_max"]
    )
    variants = {
        "disabled": None,
        "armed-idle": SheddingConfig(overload_on=1e9, overload_off=1e9 - 1.0),
        "active": SheddingConfig(
            overload_on=1.5, overload_off=1.1, sustain=2, target_ratio=1.0
        ),
    }
    best = {name: float("inf") for name in variants}
    counters = {}
    for _ in range(max(reps, 5)):
        for name, shedding in variants.items():
            monitor = OnlineMonitor(
                make_policy("MRSF"),
                BudgetVector.constant(params["budget"], len(epoch)),
                config=MonitorConfig(engine="vectorized", shedding=shedding),
            )
            started = time.perf_counter()
            for chronon in epoch:
                monitor.step(chronon, arrivals.get(chronon, ()))
            best[name] = min(best[name], time.perf_counter() - started)
            stats = monitor.shedding_stats
            counters[name] = stats.as_dict() if stats is not None else {}
    cells = []
    for name in variants:
        ratio = round(best[name] / best["disabled"], 3)
        cell = {
            "variant": name,
            "seconds": round(best[name], 6),
            "ratio_vs_disabled": ratio,
        }
        stats = counters[name]
        if stats:
            cell["shed_ceis"] = stats["shed_ceis"]
            cell["degraded_ceis"] = stats["degraded_ceis"]
            cell["released_eis"] = stats["released_eis"]
            cell["overload_chronons"] = stats["overload_chronons"]
        cells.append(cell)
        extra = (
            f" shed={stats['shed_ceis']} degraded={stats['degraded_ceis']}"
            if stats
            else ""
        )
        print(
            f"shed    {name:12s} {best[name] * 1e3:8.2f}ms "
            f"ratio={ratio:5.3f}{extra}"
        )
    return cells


def suite_workers() -> int:
    """Worker-pool size used by the parallel sections (also recorded
    top-level in the run record).  At least two so the baseline always
    exercises the process pool — on a single-core box the speedup then
    honestly reports ~1x."""
    return max(2, min(4, os.cpu_count() or 1))


def parallel_suite_cell() -> dict:
    # Simulation-heavy cells (wide windows, M-EDF in the lineup) so the
    # measurement reflects scheduling work, not the per-cell instance
    # regeneration the fan-out design trades for determinism.  Expect
    # ~workers-fold scaling on real multi-core hosts and ~1x on a
    # single-core container (the ``cpu_count`` field says which this was).
    epoch = Epoch(300)

    def make_instance(rng):
        trace = poisson_trace(150, epoch, 16.0, rng)
        return generate_profiles(
            perfect_predictions(trace),
            epoch,
            GeneratorSpec(num_profiles=100, rank_max=5),
            LengthRule.window(60),
            rng,
        )

    budget = BudgetVector.constant(1, len(epoch))
    policies = [(name, True) for name in POLICIES]
    workers = suite_workers()

    started = time.perf_counter()
    serial = run_suite(make_instance, epoch, budget, policies, repetitions=4, seed=7)
    serial_seconds = time.perf_counter() - started
    started = time.perf_counter()
    parallel = run_suite(
        make_instance, epoch, budget, policies, repetitions=4, seed=7,
        config=MonitorConfig(workers=workers),
    )
    parallel_seconds = time.perf_counter() - started
    for label in serial:
        if serial[label].completeness_mean != parallel[label].completeness_mean:
            raise SystemExit(f"parallel suite diverged from serial on {label}")
    cell = {
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(serial_seconds / parallel_seconds, 2),
    }
    print(
        f"suite   workers={workers} serial={serial_seconds:6.2f}s "
        f"parallel={parallel_seconds:6.2f}s speedup={cell['speedup']:5.2f}x"
    )
    return cell


def git_sha() -> str:
    """The HEAD commit the record was measured at, or "unknown".

    A ``-dirty`` suffix marks measurements taken on a modified working
    tree — their code is HEAD plus uncommitted changes, typically the
    very change the record is about to be committed with.
    """
    cwd = Path(__file__).parent
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"{sha}-dirty" if status else sha


def load_trajectory(out: Path) -> list[dict]:
    """Existing run records at ``out``, wrapping a pre-trajectory baseline."""
    if not out.exists():
        return []
    document = json.loads(out.read_text())
    if document.get("format") == "bench-trajectory-v1":
        return document["runs"]
    # A pre-trajectory report: one bare record, measured before records
    # carried a git SHA.  Keep it as the trajectory's first point.
    document.setdefault("git_sha", "unknown")
    return [document]


def main(argv=None) -> Path:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=3, help="min-of-N repetitions")
    parser.add_argument("--out", type=Path, default=None, help="output JSON path")
    parser.add_argument(
        "--only",
        choices=[
            "full_monitor",
            "kernel_scoring",
            "parallel_suite",
            "failure_sweep",
            "fault_draw",
            "health_path",
            "shedding_path",
        ],
        default=None,
        help="run a single section (the appended record then has just that)",
    )
    args = parser.parse_args(argv)

    date = datetime.date.today().isoformat()
    out = args.out or Path(__file__).parent / f"BENCH_{date}.json"
    sections = {
        "full_monitor": lambda: full_monitor_cells(args.reps),
        "kernel_scoring": lambda: kernel_scoring_cells(args.reps),
        "parallel_suite": parallel_suite_cell,
        "failure_sweep": lambda: failure_sweep_cells(args.reps),
        "fault_draw": lambda: fault_draw_cells(args.reps),
        "health_path": lambda: health_path_cells(args.reps),
        "shedding_path": lambda: shedding_path_cells(args.reps),
    }
    if args.only:
        sections = {args.only: sections[args.only]}
    record = {
        "git_sha": git_sha(),
        "date": date,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "workers": suite_workers(),
        "reps": args.reps,
        "workload": "100 profiles x 400 chronons x 200 resources (seed 3)",
        **{name: build() for name, build in sections.items()},
    }
    runs = load_trajectory(out)
    runs.append(record)
    document = {"format": "bench-trajectory-v1", "runs": runs}
    out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {out} ({len(runs)} run records)")
    return out


if __name__ == "__main__":
    main()
