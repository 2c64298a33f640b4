"""Batched scoring kernels for the vectorized monitor engine.

The reference monitor ranks candidates by calling ``Policy.sort_key`` once
per execution interval per chronon — a pure-Python loop that dominates the
``O(A log A)`` chronon bound of Appendix B.  The kernels in this module
score an *entire candidate bag* with a handful of NumPy operations against
the structure-of-arrays candidate table kept by
:class:`repro.online.fastpath.FastCandidatePool`.

A kernel has two duties:

* :meth:`ScoreKernel.score_rows` — batch-score every candidate row of one
  probe phase (the vectorized replacement for the per-EI ``sort_key``
  heap build);
* :meth:`ScoreKernel.score_cei` — O(1) scalar re-score of one CEI after a
  capture lands (the vectorized replacement for the sibling-refresh loop;
  only consulted when the policy is sibling-sensitive).

Both must produce *bit-identical* values to the policy's ``priority``
method: the engine-equivalence guarantee (same schedules from both
engines) rests on the scores, the ``(priority, finish, seq)`` tie-break
and the probe loop all agreeing exactly.  The three paper policies have
integer-valued priorities, so exactness only needs the int64→float64
conversion to be lossless (values stay far below 2**53); the weighted
variants divide the same integers by the CEI weight, which IEEE-754
evaluates identically in Python and NumPy.

The M-EDF kernel is the interesting one.  The paper's value

    M-EDF(I, T) = sum over uncaptured siblings I' of S-EDF(I', max(T, I'.start))

is a *per-CEI* quantity.  Splitting the sum into open siblings (window
start <= T, each contributing ``finish - T + 1``) and future siblings
(each contributing its full width) gives

    M-EDF(η, T) = S(η) - n_open(η) * T

where ``S = sum_open (finish + 1) + sum_future |I'|`` and ``n_open``
counts the open, uncaptured siblings.  Both aggregates change only on
capture and window-opening events, so the pool maintains them
incrementally and the kernel evaluates the whole bag with two gathers and
one fused multiply-subtract.  MRSF's residual is likewise per-CEI
(``rank - captured``), and S-EDF is a single subtraction over the finish
column.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.online.fastpath import FastCandidatePool
    from repro.policies.base import Policy
    from repro.policies.reliability import ExpectedGainPolicy


def sedf_scores(finish_f: np.ndarray, chronon: int) -> np.ndarray:
    """S-EDF batch: ``finish - (T - 1)`` over the gathered finish column."""
    return finish_f - (chronon - 1)


def mrsf_scores(rank_f: np.ndarray, captured_f: np.ndarray) -> np.ndarray:
    """MRSF batch: the per-CEI residual ``rank - captured``."""
    return rank_f - captured_f


def medf_scores(
    medf_s_f: np.ndarray, medf_open_f: np.ndarray, chronon: int
) -> np.ndarray:
    """M-EDF batch: ``S - n_open * T`` from the incremental aggregates."""
    return medf_s_f - medf_open_f * chronon


def pack_keys(prio: np.ndarray, static: np.ndarray) -> np.ndarray:
    """Pack integer priorities with the static key: ``p * 2^42 + static``."""
    return prio.astype(np.int64) * (1 << 42) + static


class ScoreKernel:
    """Batched priority evaluation against a :class:`FastCandidatePool`."""

    #: True when every priority this kernel produces is an exact integer
    #: (stored in float64).  The probe loop then packs priority, finish and
    #: seq into one int64 sort key and orders a phase with a single
    #: ``argsort`` instead of a three-key ``lexsort``; and ``monitor.run``
    #: may take :func:`repro.online.fastpath.run_fast_span` even without
    #: :attr:`shift_invariant`, re-keying the live bag into its heap once
    #: per chronon from the same top-k cut the phases use.  Float-keyed
    #: kernels without that licence keep stepping the phases.
    integer_valued = False

    #: True when two candidate rows of the *same* CEI can score differently
    #: (e.g. they sit on resources with different failure rates).  The
    #: sibling-refresh step then re-scores per row via :meth:`score_row`
    #: instead of once per CEI via :meth:`score_cei`.
    row_dependent = False

    #: True when a row's score, taken once in the frame of one fixed
    #: chronon, ranks it correctly at every later chronon of the run, and
    #: a CEI's live rows rank among themselves by ``(finish, seq)`` — the
    #: licence for :func:`repro.online.fastpath.run_fast_span` to keep
    #: keys *across* chronons, one per open CEI: its best live row, keyed
    #: by :meth:`score_row` in the frame of the epoch's first chronon.
    #: Precisely: either the scores are chronon-free and per-CEI (MRSF's
    #: residual, weighted or not — so a CEI re-keyed at a later chronon
    #: compares exactly against keys pushed earlier), or the policy is not
    #: sibling-sensitive and a chronon step shifts every score by the
    #: same constant, which grows with ``finish`` (S-EDF), preserving the
    #: order of the stored keys.  M-EDF fails both (per-CEI slopes differ
    #: via ``n_open``), so the walker re-keys its bag every chronon
    #: instead (it is :attr:`integer_valued`); the weighted deadline
    #: kernels (per-CEI shift ``1/weight``) and the reliability kernels
    #: (health state moves, rows of one CEI score apart) fail both and
    #: are float-valued, so their runs step the phases.
    shift_invariant = False

    def score_rows(
        self,
        pool: "FastCandidatePool",
        rows: np.ndarray,
        cidx: np.ndarray,
        chronon: int,
    ) -> np.ndarray:
        """Float64 priorities for candidate ``rows`` (lower probes first).

        ``cidx`` is the pre-gathered ``pool.row_cidx[rows]`` — phases need
        it anyway, so the engine computes it once and shares it.
        """
        raise NotImplementedError

    def score_cei(self, pool: "FastCandidatePool", cidx: int, chronon: int) -> float:
        """Scalar priority of any candidate EI of one CEI.

        Only meaningful for policies whose priority is a function of the
        parent CEI (MRSF, M-EDF and their weighted variants); used by the
        sibling-refresh step of the vectorized probe loop.
        """
        raise NotImplementedError

    def score_row(
        self, pool: "FastCandidatePool", row: int, cidx: int, chronon: int
    ) -> float:
        """Scalar priority of one candidate row.

        Consulted by the sibling-refresh step when the kernel is
        :attr:`row_dependent`, and by the whole-run walker to key a CEI
        at its best row when the kernel is :attr:`shift_invariant`; the
        default delegates to the per-CEI score.
        """
        return self.score_cei(pool, cidx, chronon)


class SEDFKernel(ScoreKernel):
    """S-EDF(I, T) = finish - T + 1 over the finish column."""

    integer_valued = True
    shift_invariant = True  # uniform shift per chronon, never re-ranked

    def score_rows(
        self,
        pool: "FastCandidatePool",
        rows: np.ndarray,
        cidx: np.ndarray,
        chronon: int,
    ) -> np.ndarray:
        return sedf_scores(pool.npr_finish_f[rows], chronon)

    def score_row(
        self, pool: "FastCandidatePool", row: int, cidx: int, chronon: int
    ) -> float:
        return float(pool.row_finish[row] - (chronon - 1))


class MRSFKernel(ScoreKernel):
    """MRSF(I) = rank - captured of the parent CEI (the residual)."""

    integer_valued = True
    shift_invariant = True  # scores are chronon-free

    def score_rows(
        self,
        pool: "FastCandidatePool",
        rows: np.ndarray,
        cidx: np.ndarray,
        chronon: int,
    ) -> np.ndarray:
        return mrsf_scores(pool.npc_rank_f[cidx], pool.npc_captured_f[cidx])

    def score_cei(self, pool: "FastCandidatePool", cidx: int, chronon: int) -> float:
        return float(pool.cei_rank[cidx] - pool.cei_captured[cidx])


class MEDFKernel(ScoreKernel):
    """M-EDF(η, T) = S(η) - n_open(η) * T from the incremental aggregates."""

    integer_valued = True

    def score_rows(
        self,
        pool: "FastCandidatePool",
        rows: np.ndarray,
        cidx: np.ndarray,
        chronon: int,
    ) -> np.ndarray:
        return medf_scores(
            pool.npc_medf_s_f[cidx], pool.npc_medf_open_f[cidx], chronon
        )

    def score_cei(self, pool: "FastCandidatePool", cidx: int, chronon: int) -> float:
        return float(pool.cei_medf_s[cidx] - pool.cei_medf_open[cidx] * chronon)


class WeightedSEDFKernel(SEDFKernel):
    """S-EDF divided by the parent CEI's client utility."""

    integer_valued = False
    shift_invariant = False  # per-CEI shift slope 1/weight breaks the order

    def score_rows(self, pool, rows, cidx, chronon):
        return super().score_rows(pool, rows, cidx, chronon) / pool.npc_weight[cidx]

    def score_row(self, pool, row, cidx, chronon):
        return super().score_row(pool, row, cidx, chronon) / pool.cei_weight[cidx]


class WeightedMRSFKernel(MRSFKernel):
    """MRSF residual divided by the parent CEI's client utility."""

    integer_valued = False

    def score_rows(self, pool, rows, cidx, chronon):
        return super().score_rows(pool, rows, cidx, chronon) / pool.npc_weight[cidx]

    def score_cei(self, pool, cidx, chronon):
        return super().score_cei(pool, cidx, chronon) / pool.cei_weight[cidx]


class WeightedMEDFKernel(MEDFKernel):
    """M-EDF remaining-chronon mass divided by the CEI's client utility."""

    integer_valued = False

    def score_rows(self, pool, rows, cidx, chronon):
        return super().score_rows(pool, rows, cidx, chronon) / pool.npc_weight[cidx]

    def score_cei(self, pool, cidx, chronon):
        return super().score_cei(pool, cidx, chronon) / pool.cei_weight[cidx]


class ExpectedGainKernel(ScoreKernel):
    """A base kernel's scores divided by per-resource success probability.

    The batched mirror of
    :class:`repro.policies.reliability.ExpectedGainPolicy`: the policy
    supplies a float64 array mapping resource id → ``p_success`` at the
    current chronon, *built element-by-element from the same Python scalar
    arithmetic the reference engine uses*, so dividing by a gathered array
    entry and dividing by the scalar produce the identical IEEE-754
    result.  Resources that cannot succeed (``p_success == 0``) score
    ``inf`` — ranked last, exactly like the reference path.
    """

    integer_valued = False
    row_dependent = True

    def __init__(self, base: ScoreKernel, policy: "ExpectedGainPolicy") -> None:
        self.base = base
        self.policy = policy

    def score_rows(self, pool, rows, cidx, chronon):
        scores = self.base.score_rows(pool, rows, cidx, chronon)
        ps = self.policy.p_success_array(chronon, pool.npr_resource.max(initial=0) + 1)
        divisors = ps[pool.npr_resource[rows]]
        out = np.full(len(scores), np.inf)
        np.divide(scores, divisors, out=out, where=divisors > 0.0)
        return out

    def score_row(self, pool, row, cidx, chronon):
        p = self.policy.p_success(pool.row_resource[row], chronon)
        if p <= 0.0:
            return float("inf")
        return self.base.score_cei(pool, cidx, chronon) / p


class SLOExpectedGainKernel(ExpectedGainKernel):
    """Expected gain with the success probability raised to the CEI weight.

    Batched mirror of
    :class:`repro.policies.reliability.SLOExpectedGainPolicy`: the divisor
    is ``p_success ** weight`` evaluated as a float64 ``np.power``, the
    same operation the policy's scalar ``_discount`` applies, so both
    engines divide by bit-identical values.  ``p_success == 0`` rows score
    ``inf`` (``0 ** w == 0`` for the positive weights the CEI validator
    enforces, so the zero-divisor gate still catches them).
    """

    def score_rows(self, pool, rows, cidx, chronon):
        scores = self.base.score_rows(pool, rows, cidx, chronon)
        ps = self.policy.p_success_array(chronon, pool.npr_resource.max(initial=0) + 1)
        divisors = np.power(ps[pool.npr_resource[rows]], pool.npc_weight[cidx])
        out = np.full(len(scores), np.inf)
        np.divide(scores, divisors, out=out, where=divisors > 0.0)
        return out

    def score_row(self, pool, row, cidx, chronon):
        p = self.policy.p_success(pool.row_resource[row], chronon)
        if p <= 0.0:
            return float("inf")
        d = self.policy._discount(p, float(pool.cei_weight[cidx]))
        return self.base.score_cei(pool, cidx, chronon) / d


def resolve_kernel(policy: "Policy") -> Optional[ScoreKernel]:
    """The batched kernel for ``policy``, or None to use the generic path.

    Policies opt in by overriding :meth:`repro.policies.base.Policy.make_kernel`;
    a None return (the default) makes the vectorized engine fall back to
    the reference per-EI ranking loop, which works for every policy.
    """
    return policy.make_kernel()
