"""Shared fixtures and instance builders for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core.intervals import ComplexExecutionInterval, ExecutionInterval
from repro.core.metrics import evaluate_schedule
from repro.core.profile import Profile, ProfileSet
from repro.core.schedule import BudgetVector
from repro.core.timebase import Epoch
from repro.online import fastpath
from repro.traces.noise import perfect_predictions
from repro.traces.poisson import poisson_trace
from repro.workloads.generator import GeneratorSpec, generate_profiles
from repro.workloads.templates import LengthRule


@pytest.fixture
def epoch() -> Epoch:
    """A small default epoch."""
    return Epoch(50)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator."""
    return np.random.default_rng(1234)


def make_ei(
    resource: int,
    start: int,
    finish: int,
    true_start: int | None = None,
    true_finish: int | None = None,
) -> ExecutionInterval:
    """Shorthand EI constructor for tests."""
    return ExecutionInterval(
        resource=resource,
        start=start,
        finish=finish,
        true_start=true_start,
        true_finish=true_finish,
    )


def make_cei(*windows: tuple[int, int, int], weight: float = 1.0) -> ComplexExecutionInterval:
    """Shorthand CEI constructor: ``make_cei((r, s, f), ...)``."""
    eis = tuple(make_ei(r, s, f) for r, s, f in windows)
    return ComplexExecutionInterval(eis=eis, weight=weight)


def make_profiles(*ceis: ComplexExecutionInterval) -> ProfileSet:
    """Wrap CEIs into a single-profile set."""
    return ProfileSet([Profile(pid=0, ceis=list(ceis))])


def unit_budget(epoch: Epoch, c: float = 1.0) -> BudgetVector:
    """A constant budget over the epoch."""
    return BudgetVector.constant(c, len(epoch))


def random_unit_instance(
    rng: np.random.Generator,
    num_resources: int = 6,
    num_chronons: int = 12,
    num_ceis: int = 5,
    max_rank: int = 3,
    no_overlap: bool = False,
    fixed_rank: int | None = None,
    distinct_chronons: bool = False,
) -> ProfileSet:
    """A random P^[1] instance for property-based tests.

    With ``no_overlap`` every (resource, chronon) slot is used at most
    once across the whole instance (no intra-resource overlap).  With
    ``fixed_rank`` every CEI gets exactly that rank (the Figure 10
    uniform-rank family).  With ``distinct_chronons`` a CEI never has
    two EIs at the same chronon, so every CEI is individually feasible
    at C=1 (the implicit setting of the paper's Proposition 2 — see
    tests/test_propositions.py for the counterexample without it).
    """
    used: set[tuple[int, int]] = set()
    ceis = []
    for __ in range(num_ceis):
        if fixed_rank is not None:
            rank = fixed_rank
        else:
            rank = int(rng.integers(1, max_rank + 1))
        eis = []
        chronons_taken: set[int] = set()
        attempts = 0
        while len(eis) < rank and attempts < 200:
            attempts += 1
            resource = int(rng.integers(0, num_resources))
            chronon = int(rng.integers(0, num_chronons))
            if no_overlap and (resource, chronon) in used:
                continue
            if distinct_chronons and chronon in chronons_taken:
                continue
            if any(e.resource == resource and e.start == chronon for e in eis):
                continue
            used.add((resource, chronon))
            chronons_taken.add(chronon)
            eis.append(make_ei(resource, chronon, chronon))
        if eis and len(eis) == rank:
            ceis.append(ComplexExecutionInterval(eis=tuple(eis)))
    return ProfileSet.from_ceis(ceis)


def random_general_instance(
    rng: np.random.Generator,
    num_resources: int = 5,
    num_chronons: int = 20,
    num_ceis: int = 6,
    max_rank: int = 3,
    max_width: int = 4,
) -> ProfileSet:
    """A random instance with EIs of width up to ``max_width``."""
    ceis = []
    for __ in range(num_ceis):
        rank = int(rng.integers(1, max_rank + 1))
        eis = []
        for __r in range(rank):
            resource = int(rng.integers(0, num_resources))
            start = int(rng.integers(0, num_chronons - 1))
            width = int(rng.integers(1, max_width + 1))
            finish = min(num_chronons - 1, start + width - 1)
            eis.append(make_ei(resource, start, finish))
        ceis.append(ComplexExecutionInterval(eis=tuple(eis)))
    return ProfileSet.from_ceis(ceis)


#: (window, update rate, max rank) of a sparse and a dense paper instance.
SPARSE_PAPER = (8, 6.0, 4)
DENSE_PAPER = (60, 30.0, 8)


def paper_instance(
    window: int, rate: float, rank_max: int, chronons: int = 120, seed: int = 3
) -> tuple[Epoch, ProfileSet]:
    """A paper-style instance: Poisson updates on 60 resources, 25 profiles."""
    epoch = Epoch(chronons)
    rng = np.random.default_rng(seed)
    trace = poisson_trace(60, epoch, rate, rng)
    profiles = generate_profiles(
        perfect_predictions(trace),
        epoch,
        GeneratorSpec(num_profiles=25, rank_max=rank_max),
        LengthRule.window(window),
        rng,
    )
    return epoch, profiles


def count_steps(monitor) -> list[int]:
    """Record the chronons ``monitor.run`` hands to ``step`` one by one.

    ``run`` skips idle chronons and, where the whole-run walker applies,
    steps none at all; the returned list (filled as the monitor runs)
    shows which it stepped.
    """
    stepped: list[int] = []
    step = monitor.step

    def counting(chronon, new_ceis=()):
        stepped.append(chronon)
        return step(chronon, new_ceis)

    monitor.step = counting
    return stepped


def count_chronons(monitor) -> list[int]:
    """Record the chronons ``monitor.run`` processes, however it steps them.

    Every processed chronon ends with the pool closing its windows, on
    both engines, in the step loop and in the whole-run walker alike; a
    chronon missing from the returned list was hopped as idle.
    """
    closed: list[int] = []
    close = monitor.pool.close_windows

    def counting(now, *args, **kwargs):
        closed.append(now)
        return close(now, *args, **kwargs)

    monitor.pool.close_windows = counting
    return closed


def check_paper_invariants(
    monitor, profiles: ProfileSet, budget: BudgetVector, epoch: Epoch
) -> None:
    """Hold one finished monitor run to the paper, not to another engine.

    The schedule fits the per-chronon budget (Problem 1), counted both
    by the monitor's own ledger and from the schedule alone; and Eq. 1
    recomputed from the schedule by :func:`evaluate_schedule` counts
    exactly the CEIs the monitor believes it captured, out of the CEIs
    it registered.  The same checks as ``perfbench/scenarios.py``'s
    ``check_run``, so a bug two engines share cannot pass on their
    agreement alone.  Beyond them, every EI the pool believes captured
    has a probe of its resource inside its window (one that did not
    drop the EI).
    """
    monitor.check_budget_feasible()
    monitor.schedule.check_feasible(
        budget, pool=monitor.resources, epoch=epoch, push_probes=monitor.push_probes
    )
    report = evaluate_schedule(
        profiles, monitor.schedule, dropped=monitor.dropped_captures
    )
    pool = monitor.pool
    assert (report.captured_ceis, report.num_ceis) == (
        pool.num_satisfied,
        pool.num_registered,
    ), "Eq. 1 recomputed from the schedule disagrees with the monitor"
    for ei in profiles.eis():
        if pool.is_ei_captured(ei):
            assert monitor.schedule.captures_ei(
                ei, use_true_window=False, dropped=monitor.dropped_captures
            ), f"EI {ei.seq} believed captured without a probe in its window"


@contextlib.contextmanager
def batch_cutover(value: int):
    """Temporarily override the batched-bookkeeping cut-over, restoring on exit."""
    saved = fastpath.BATCH_CUTOVER
    try:
        fastpath.BATCH_CUTOVER = value
        yield
    finally:
        fastpath.BATCH_CUTOVER = saved


#: Batched-bookkeeping cut-overs that send every event group-wide, and none.
CUTOVERS = [1, 10**9]


def check_candidate_bag(pool, reference, now) -> None:
    """Hold a vectorized pool's candidate bag to the paper after chronon ``now``.

    The ``np_active`` mask is the pool's only record of the bag.  Its
    exact count must match the mask, and every row it holds must be a
    free (uncaptured, unshed) EI of an open CEI whose window still
    contains the clock (the step's expiry has removed the rows ending at
    ``now``).  The fate columns must agree with the counters: each
    ``num_*`` counter tallies its ``cei_state``, and a CEI's captured
    count tallies its ``_CAPTURED`` rows, so a shed or released EI never
    counts as captured.  Rows lie CEI by CEI, in the ranges the arena
    records, and every NumPy mirror the pool reads is the arena's, equal
    to its Python column over every compiled row and CEI.  Each per-run
    column is one NumPy record, and the scalar view the row-by-row paths
    write is a view of it, so the kernels read every write without a
    sync.  The per-resource questions the pool answers from the mask
    must get the answers of ``reference``, the reference
    :class:`~repro.online.candidates.CandidatePool` stepped alongside it.
    """
    for view, record in (
        (pool.cei_state, pool.npc_state),
        (pool.row_state, pool.npr_state),
        (pool.cei_captured, pool.npc_captured_f),
        (pool.cei_medf_s, pool.npc_medf_s_f),
        (pool.cei_medf_open, pool.npc_medf_open_f),
    ):
        assert view.obj is record, "a scalar view of a stale or second record"
    n_rows, n_ceis = len(pool.row_seq), len(pool.cei_rank)
    mask = pool.np_active[:n_rows]
    assert pool.num_active() == np.count_nonzero(mask)
    cei_state = list(pool.cei_state[:n_ceis])
    row_state = list(pool.row_state[:n_rows])
    assert pool.num_registered == n_ceis - cei_state.count(fastpath._UNSEEN)
    assert pool.num_satisfied == cei_state.count(fastpath._SATISFIED)
    assert pool.num_failed == cei_state.count(fastpath._FAILED)
    assert pool.num_cancelled == cei_state.count(fastpath._CANCELLED)
    for row in np.flatnonzero(mask).tolist():
        cidx = pool.row_cidx[row]
        ei = pool._row_ei[row]
        assert row_state[row] == fastpath._FREE, f"captured or released row {row} in the bag"
        assert cei_state[cidx] == fastpath._OPEN, f"row {row} of a CEI that is not open"
        assert ei.start <= now < ei.finish, f"row {row} outside its window at {now}"
    # Rows lie CEI by CEI, each CEI's on [cei_row_begin, cei_row_end):
    # the batched drop finds a CEI's rows by searching the npr_cidx mirror.
    row_cidx = np.asarray(pool.row_cidx[:n_rows], np.intp)
    begin = np.asarray(pool.cei_row_begin[:n_ceis], np.intp)
    end = np.asarray(pool.cei_row_end[:n_ceis], np.intp)
    assert np.array_equal(row_cidx, np.repeat(np.arange(n_ceis), end - begin)), "rows out of CEI order"
    # Every mirror is current over every compiled row and CEI, and the
    # pool reads the arena's own.
    arena = pool._arena
    for name, column in (
        ("npr_seq", pool.row_seq),
        ("npr_finish", pool.row_finish),
        ("npr_finish_f", pool.row_finish),
        ("npr_resource", pool.row_resource),
        ("npr_cidx", pool.row_cidx),
        ("npc_rank_f", pool.cei_rank),
        ("npc_weight", pool.cei_weight),
        ("npc_required", pool.cei_required),
    ):
        mirror = getattr(pool, name)
        assert mirror is getattr(arena, name), f"a stale {name} mirror"
        assert np.array_equal(mirror[: len(column)], column), f"a stale {name} mirror"
    static = np.asarray(pool.row_finish, np.int64) * (1 << 21) + np.asarray(pool.row_seq, np.int64)
    assert np.array_equal(pool.npr_static[:n_rows], static), "a stale npr_static mirror"
    captured = np.bincount(
        row_cidx[np.asarray(row_state) == fastpath._CAPTURED],
        minlength=n_ceis,
    )
    assert np.array_equal(captured, pool.npc_captured_f[:n_ceis]), "a capture without its row"
    resources = set(pool.row_resource) | {ei.resource for ei in reference.active_eis()}
    for rid in resources:
        assert pool.active_uncaptured_on(rid) == reference.active_uncaptured_on(rid)
        assert pool.active_seqs_on(rid) == reference.active_seqs_on(rid)
