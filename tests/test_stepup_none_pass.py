"""Step-up runs in which no value reaches the largest threshold.

The scan returns k* = 0 and no rejection right after its sort; the
results must be those of the full scan: an empty ``rejected``, a zero
threshold, and the compared values unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from synthbh import StepUpConfig, bh, synth_bh, weighted_synth_bh
from synthbh.stepup import stepup_guarded, stepup_rows


def guarded(p, q, alpha, eps, w=1.0):
    """The fast mode's compared values, as the package computes them."""
    return np.minimum(p, np.maximum(q, alpha / (alpha + w * eps) * p))


def assert_none_rejected(result, modified):
    assert result.k_star == 0 and result.num_rejected == 0
    assert result.rejected.shape == (0,)
    assert result.threshold_used == 0
    assert np.asarray(result.modified_pvalues).tobytes() == np.asarray(modified).tobytes()
    assert not result.rejection_mask().any()


@pytest.mark.parametrize("m", [1, 7, 200_000])
def test_bh_with_every_value_above_alpha(m):
    rng = np.random.default_rng(m)
    p = 0.1 + 0.9 * rng.random(m)
    p[0] = 0.9
    assert_none_rejected(bh(p, 0.1), p)
    assert_none_rejected(bh(np.full(m, 0.9), 0.05), np.full(m, 0.9))


@pytest.mark.parametrize("mode", ["fast", "naive"])
def test_synth_bh_and_weighted_with_nothing_passing(mode):
    rng = np.random.default_rng(3)
    m = 500
    p = 0.5 + 0.5 * rng.random(m)
    q = 0.3 + 0.7 * rng.random(m)
    pairs = np.column_stack((p, q))
    config = StepUpConfig(alpha=0.2, epsilon=0.1, mode=mode)
    want = guarded(p, q, 0.2, 0.1) if mode == "fast" else p
    assert_none_rejected(synth_bh(pairs, config), want)
    w = rng.random(m) + 0.5
    w *= m / w.sum()
    config = StepUpConfig(alpha=0.2, epsilon=0.1, weights=w, normalize_weights=True, mode=mode)
    weights = np.asarray(config.weights)
    want = guarded(p, q, 0.2, 0.1, weights) if mode == "fast" else p
    assert_none_rejected(weighted_synth_bh(pairs, config), want)


def test_stacked_rows_with_nothing_passing():
    rng = np.random.default_rng(4)
    p = 0.4 + 0.6 * rng.random((6, 300))
    q = 0.4 + 0.6 * rng.random((6, 300))
    k_star, rejected, v = stepup_guarded(p, q, StepUpConfig(alpha=0.1, epsilon=0.2))
    assert k_star.tolist() == [0] * 6
    assert rejected.shape == (6, 300) and rejected.dtype == bool and not rejected.any()
    assert v.tobytes() == guarded(p, q, 0.1, 0.2).tobytes()
    # One row that passes keeps the full scan for all of them.
    p[2, :5] = 0.0
    k_star, rejected, _ = stepup_guarded(p, q, StepUpConfig(alpha=0.1, epsilon=0.2))
    assert k_star.tolist() == [0, 0, 5, 0, 0, 0]
    assert rejected.sum(axis=1).tolist() == [0, 0, 5, 0, 0, 0]


@pytest.mark.parametrize("dtype", [np.float64, np.int64, object])
def test_scan_returns_at_once_on_any_row_type(dtype):
    values = np.array([[7, 9, 8], [10, 12, 11]], dtype=dtype)
    k_star, rejected = stepup_rows(values, np.array([2, 4, 6], dtype=dtype))
    assert k_star.tolist() == [0, 0]
    assert rejected.shape == (2, 3) and not rejected.any()
