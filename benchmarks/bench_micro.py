"""Micro-benchmarks of the scheduling hot paths.

These time the primitives the complexity analysis of Appendix B speaks
about: policy value evaluation (Θ(1) for S-EDF/MRSF, O(rank) for M-EDF)
and one full monitor chronon over a loaded candidate pool — the latter
on both engines and at two candidate densities.  The ``sparse`` workload
is the historical seed configuration (mean bag around 7 EIs, far below
the vectorization break-even); ``dense`` keeps the same 100 profiles and
400 chronons but widens windows and event rates until the bag averages
about a thousand EIs, which is where the batched kernels shine (the
paper's scalability axis, Figure 11).  The full-run benchmarks carry a
``density`` marker: ``--density sparse|dense|both`` (see
``benchmarks/conftest.py``) restricts a session to one regime.
"""

import pytest

import numpy as np

from repro.core.schedule import BudgetVector
from repro.core.timebase import Epoch
from repro.online.arrivals import arrivals_from_profiles
from repro.online.config import MonitorConfig
from repro.online.faults import FailureModel, RetryPolicy
from repro.online.monitor import OnlineMonitor
from repro.policies import MEDF, MRSF, SEDF, m_edf_value, make_policy, s_edf_value
from repro.traces.noise import perfect_predictions
from repro.traces.poisson import poisson_trace
from repro.workloads.generator import GeneratorSpec, generate_profiles
from repro.workloads.templates import LengthRule

#: (window, events/resource, rank_max, budget) per density; both keep the
#: seed workload's 100 profiles x 400 chronons x 200 resources.
DENSITIES = {
    "sparse": (10, 8.0, 5, 2),
    "dense": (100, 40.0, 12, 1),
}


def _workload(seed=3, num_profiles=100, rank_max=5, window=10, rate=8.0):
    epoch = Epoch(400)
    rng = np.random.default_rng(seed)
    trace = poisson_trace(200, epoch, rate, rng)
    profiles = generate_profiles(
        perfect_predictions(trace), epoch,
        GeneratorSpec(num_profiles=num_profiles, rank_max=rank_max),
        LengthRule.window(window), rng,
    )
    return epoch, profiles


def test_sedf_value_evaluation(benchmark):
    __, profiles = _workload()
    eis = list(profiles.eis())[:500]
    result = benchmark(lambda: sum(s_edf_value(ei, 50) for ei in eis))
    assert result > 0


def test_medf_value_evaluation(benchmark):
    __, profiles = _workload()
    eis = list(profiles.eis())[:500]

    class View:
        def is_ei_captured(self, ei):
            return False

        def captured_count(self, cei):
            return 0

        def active_uncaptured_on(self, resource):
            return 0

    view = View()
    result = benchmark(lambda: sum(m_edf_value(ei, 50, view) for ei in eis))
    assert result > 0


_INSTANCE_CACHE = {}
_ARENA_CACHE = {}


def _instance(density):
    """Problem instance per density, built once so only the run is timed."""
    if density not in _INSTANCE_CACHE:
        window, rate, rank_max, budget = DENSITIES[density]
        epoch, profiles = _workload(rank_max=rank_max, window=window, rate=rate)
        _INSTANCE_CACHE[density] = (
            epoch,
            arrivals_from_profiles(profiles),
            budget,
            profiles,
        )
    epoch, arrivals, budget, _ = _INSTANCE_CACHE[density]
    return epoch, arrivals, budget


def _arena_instance(density):
    """Same instance, compiled once into an arena (the run_suite pattern)."""
    from repro.sim.arena import compile_arena

    if density not in _ARENA_CACHE:
        _instance(density)
        _ARENA_CACHE[density] = compile_arena(_INSTANCE_CACHE[density][3])
    epoch, _, budget, _ = _INSTANCE_CACHE[density]
    return epoch, _ARENA_CACHE[density], budget


def _run_full_monitor(policy_factory, engine="reference", density="sparse", config=None):
    epoch, arrivals, budget = _instance(density)
    monitor = OnlineMonitor(
        policy_factory(),
        BudgetVector.constant(budget, len(epoch)),
        config=config or MonitorConfig(engine=engine),
    )
    monitor.run(epoch, arrivals)
    return monitor.probes_used


@pytest.mark.density("sparse")
@pytest.mark.parametrize("engine", ["reference", "vectorized"])
def test_monitor_full_run_sedf(benchmark, engine):
    probes = benchmark(_run_full_monitor, SEDF, engine)
    assert probes > 0


@pytest.mark.density("sparse")
@pytest.mark.parametrize("engine", ["reference", "vectorized"])
def test_monitor_full_run_mrsf(benchmark, engine):
    probes = benchmark(_run_full_monitor, MRSF, engine)
    assert probes > 0


@pytest.mark.density("sparse")
@pytest.mark.parametrize("engine", ["reference", "vectorized"])
def test_monitor_full_run_medf(benchmark, engine):
    probes = benchmark(_run_full_monitor, MEDF, engine)
    assert probes > 0


@pytest.mark.density("dense")
@pytest.mark.parametrize("engine", ["reference", "vectorized"])
@pytest.mark.parametrize("policy_name", ["S-EDF", "MRSF", "M-EDF"])
def test_monitor_full_run_dense(benchmark, policy_name, engine):
    """The vectorization target: ~1000-EI bags, where kernels dominate."""
    probes = benchmark.pedantic(
        _run_full_monitor,
        args=(lambda: make_policy(policy_name), engine, "dense"),
        rounds=3,
        iterations=1,
    )
    assert probes > 0


@pytest.mark.density("dense")
@pytest.mark.parametrize("policy_name", ["S-EDF", "MRSF", "M-EDF"])
def test_monitor_full_run_dense_arena(benchmark, policy_name):
    """The dense vectorized run against a pre-compiled instance arena.

    The delta to the vectorized rows of ``test_monitor_full_run_dense``
    is the per-run registration walk the arena amortizes away — the
    setup cost every additional policy of a ``run_suite`` repetition
    skips entirely.
    """

    def run():
        epoch, arena, budget = _arena_instance("dense")
        monitor = OnlineMonitor(
            make_policy(policy_name),
            BudgetVector.constant(budget, len(epoch)),
            config=MonitorConfig(engine="vectorized"),
            arena=arena,
        )
        monitor.run(epoch, arena.arrivals)
        return monitor.probes_used

    probes = benchmark.pedantic(run, rounds=3, iterations=1)
    assert probes > 0


def test_mirror_growth_amortized(benchmark):
    """Regression guard: mirror growth stays geometric, not per-batch.

    Registers a dense instance's CEIs one at a time with a sync after
    every registration — the worst-case append pattern — and asserts the
    pool reallocated its NumPy mirrors only O(log rows) times.  If the
    capacity-doubled arrays ever regress to per-batch reallocation this
    count explodes (one per sync) and the timing collapses.
    """
    from repro.online.fastpath import FastCandidatePool

    __, profiles = _workload(window=100, rate=40.0, rank_max=12)
    ceis = [c for p in profiles for c in p.ceis]

    def register_all():
        pool = FastCandidatePool()
        for cei in ceis:
            pool.register(cei, 0)
            pool.sync_mirrors()
        return pool

    pool = benchmark(register_all)
    rows = len(pool.row_seq)
    assert rows > 4000
    # Row + CEI mirrors each double from their initial capacity.
    bound = 2 * (int(np.ceil(np.log2(rows))) + 2)
    assert pool.mirror_reallocs <= bound
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["mirror_reallocs"] = pool.mirror_reallocs


@pytest.mark.parametrize("scheme", ["batched", "per_attempt"])
def test_fault_draw_throughput(benchmark, scheme):
    """The verdict oracle alone, over one failing-heavy run's coordinates.

    ``batched`` serves each chronon's draws from one uniform block keyed
    by (resource, attempt); ``per_attempt`` is the legacy one-SeedSequence
    -per-attempt scheme.  A fresh model per round keeps the block cache
    cold, as at the start of a real run.
    """
    coords = [
        (resource, chronon, attempt)
        for chronon in range(50)
        for resource in range(200)
        for attempt in range(2)
    ]

    def drain():
        model = FailureModel(
            rate=0.5, seed=9, per_attempt_draws=(scheme == "per_attempt")
        )
        return sum(model.fails(*coord) for coord in coords)

    failures = benchmark(drain)
    assert 0 < failures < len(coords)


@pytest.mark.parametrize("scheme", ["batched", "per_attempt"])
def test_monitor_failing_heavy_run(benchmark, scheme):
    """A full monitor run where half the probes fail and retry.

    The end-to-end cost of the fault path: rate 0.5 with two retries
    makes draw construction a first-order cost, which is what the
    batched per-chronon blocks are for.
    """
    config = MonitorConfig(
        engine="reference",
        faults=FailureModel(
            rate=0.5, seed=11, per_attempt_draws=(scheme == "per_attempt")
        ),
        retry=RetryPolicy(max_retries=2),
    )
    probes = benchmark(_run_full_monitor, MRSF, "reference", "sparse", config)
    assert probes > 0


@pytest.mark.density("dense")
@pytest.mark.parametrize("source", ["oracle", "learned"])
def test_monitor_full_run_dense_health(benchmark, source):
    """The health path's end-to-end cost on the dense vectorized run.

    ``oracle`` is the baseline: EG-MRSF discounting by the true rates,
    no health machinery.  ``learned`` runs LEG-MRSF with a HealthConfig:
    every probe feeds the estimator, every chronon freezes a snapshot
    and the kernel divides by learned estimates.  The delta between the
    two is the whole per-run overhead of online health estimation, which
    ``check_health_overhead.py`` gates at 5%.
    """
    from repro.online.health import HealthConfig

    faults = FailureModel(rate=0.2, seed=7)
    retry = RetryPolicy(max_retries=1)
    if source == "learned":
        config = MonitorConfig(
            engine="vectorized", faults=faults, retry=retry, health=HealthConfig()
        )
        policy = "LEG-MRSF"
    else:
        config = MonitorConfig(engine="vectorized", faults=faults, retry=retry)
        policy = "EG-MRSF"
    probes = benchmark.pedantic(
        _run_full_monitor,
        args=(lambda: make_policy(policy), "vectorized", "dense", config),
        rounds=3,
        iterations=1,
    )
    assert probes > 0


def test_health_estimator_observe_throughput(benchmark):
    """The estimator alone: one decayed observe+estimate per probe outcome."""
    from repro.online.health import HealthConfig, HealthEstimator

    coords = [
        (resource, chronon, (resource + chronon) % 3 == 0)
        for chronon in range(200)
        for resource in range(200)
    ]

    def drain():
        estimator = HealthEstimator(HealthConfig(decay=0.99))
        for resource, chronon, failed in coords:
            estimator.observe(resource, chronon, 1.0 if failed else 0.0)
        return sum(estimator.estimate(rid, 200) for rid in range(200))

    total = benchmark(drain)
    assert 0.0 < total < 200.0


@pytest.mark.parametrize("bag_size", [100, 1000, 4000])
def test_kernel_batch_scoring_vs_python_loop(benchmark, bag_size):
    """One phase's worth of scoring: batched kernel vs per-EI sort_key.

    Reports the kernel time; the equivalent Python loop time is attached
    as ``extra_info`` so the JSON export carries the ratio.
    """
    import time

    from repro.online.fastpath import FastCandidatePool

    epoch, profiles = _workload(window=80, rate=32.0, rank_max=8)
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
    chronon = 0

    started = time.perf_counter()
    loop_scores = [policy.sort_key(ei, chronon, pool) for ei in eis]
    loop_seconds = time.perf_counter() - started

    def batch():
        cidx = pool.npr_cidx[rows]
        return kernel.score_rows(pool, rows, cidx, chronon)

    scores = benchmark(batch)
    assert [float(s) for s in scores[: len(eis)]] == [
        float(key[0]) for key in loop_scores
    ]
    benchmark.extra_info["python_loop_seconds"] = loop_seconds
    benchmark.extra_info["bag_size"] = int(rows.size)
