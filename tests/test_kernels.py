"""The batched score/pack expressions the vectorized kernels build on.

``repro.policies.kernels`` scores whole candidate bags with four NumPy
expressions; these tests pin each against the scalar paper formula it
batches, and the packed sort key against the three-key lexsort it
replaces.
"""

from __future__ import annotations

import numpy as np

from repro.policies import kernels


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
