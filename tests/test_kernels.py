"""The batched score/pack expressions the vectorized kernels build on.

``repro.policies.kernels`` scores whole candidate bags with four NumPy
expressions; these tests pin each against the scalar paper formula it
batches, the packed sort key against the three-key lexsort it replaces,
and each kernel's scalar row score against its batched one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.profile import ProfileSet
from repro.core.schedule import BudgetVector
from repro.online.arrivals import arrivals_from_profiles
from repro.online.config import MonitorConfig
from repro.online.monitor import OnlineMonitor
from repro.policies import kernels, make_policy
from tests.conftest import make_cei, random_general_instance


def _random_columns(seed=7, n=257):
    rng = np.random.default_rng(seed)
    finish_f = rng.integers(0, 400, n).astype(np.float64)
    rank_f = rng.integers(1, 12, n).astype(np.float64)
    captured_f = rng.integers(0, 11, n).astype(np.float64)
    medf_open_f = rng.integers(0, 12, n).astype(np.float64)
    medf_s_f = (medf_open_f * rng.integers(1, 400, n)).astype(np.float64)
    prio = rng.integers(-(1 << 19), 1 << 19, n)
    static = rng.integers(0, 1 << 41, n)
    return finish_f, rank_f, captured_f, medf_s_f, medf_open_f, prio, static


class TestNumpyFormulas:
    """The batched expressions compute exactly the scalar paper formulas."""

    def test_sedf_matches_scalar(self):
        finish_f, *_ = _random_columns()
        scores = kernels.sedf_scores(finish_f, 50)
        for finish, score in zip(finish_f, scores):
            assert score == finish - 50 + 1  # s_edf_value at T=50

    def test_mrsf_matches_scalar(self):
        _, rank_f, captured_f, *_ = _random_columns()
        scores = kernels.mrsf_scores(rank_f, captured_f)
        np.testing.assert_array_equal(scores, rank_f - captured_f)

    def test_medf_matches_aggregates(self):
        _, _, _, medf_s_f, medf_open_f, _, _ = _random_columns()
        scores = kernels.medf_scores(medf_s_f, medf_open_f, 37)
        np.testing.assert_array_equal(scores, medf_s_f - medf_open_f * 37)

    def test_pack_keys_orders_like_lexsort(self):
        *_, prio, static = _random_columns()
        packed = kernels.pack_keys(prio, static)
        np.testing.assert_array_equal(
            np.argsort(packed, kind="stable"),
            np.lexsort((static, prio)),
        )


class TestScalarScores:
    """``score_row`` is the batched ``score_rows`` of one row, bit for bit.

    The whole-run walker keys every CEI entry with ``score_row``, the
    phases score bags with ``score_rows``; a kernel whose two disagree
    would schedule differently on the two paths.
    """

    @pytest.mark.parametrize(
        "policy_name", ["S-EDF", "MRSF", "M-EDF", "W-S-EDF", "W-MRSF", "W-M-EDF"]
    )
    def test_score_row_matches_score_rows(self, policy_name):
        rng = np.random.default_rng(11)
        profiles = ProfileSet.from_ceis(
            [
                make_cei(
                    *[(e.resource, e.start, e.finish) for e in cei.eis],
                    weight=float(rng.integers(1, 5)),
                )
                for cei in random_general_instance(rng, num_ceis=30, max_width=6).ceis()
            ]
        )
        arrivals = arrivals_from_profiles(profiles)
        monitor = OnlineMonitor(
            make_policy(policy_name), BudgetVector.constant(1, 20),
            config=MonitorConfig(engine="vectorized"),
        )
        kernel = monitor._kernel
        pool = monitor.pool
        checked = 0
        for t in range(12):
            monitor.step(t, arrivals.get(t, ()))
            pool.sync_mirrors()
            rows = np.flatnonzero(pool.np_active[: len(pool.row_seq)])
            batch = kernel.score_rows(pool, rows, pool.npr_cidx[rows], t)
            for row, score in zip(rows.tolist(), batch.tolist()):
                assert kernel.score_row(pool, row, pool.row_cidx[row], t) == score
                checked += 1
        assert checked and any(pool.cei_captured)
