"""The conformal counts and the trimming rule against direct references.

``outlier_pvalues`` counts ``#{s >= t}`` over sorted queries and puts the
p-values back in query order; ``trim_by_score`` selects instead of
sorting.  Both must agree bit for bit with a count straight from the
definition and with a full ``lexsort`` of the scores.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from synthbh import JitterSpec, ScoreBundle, apply_jitter, trim_by_score
from synthbh.conformal import outlier_pvalues


def brute_force_pvalues(bundle: ScoreBundle):
    """Both p-value families from an (m, n) comparison of every pair."""
    test = bundle.test_scores[:, None]
    real = np.count_nonzero(bundle.real_scores[None, :] >= test, axis=1)
    synth = np.count_nonzero(bundle.synth_scores[None, :] >= test, axis=1)
    return ((real + 1) / (bundle.n_real + 1),
            (real + synth + 1) / (bundle.n_real + bundle.n_synth + 1))


def lexsort_trim(scores: np.ndarray, rho: float) -> np.ndarray:
    """Drop the ceil(rho * N) largest, the later index first among ties, by one full sort."""
    n_trim = max(0, math.ceil(rho * scores.size - 1e-9))
    by_score_desc = np.lexsort((-np.arange(scores.size), -scores))
    keep = np.ones(scores.size, dtype=bool)
    keep[by_score_desc[:n_trim]] = False
    return scores[keep]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n, big_n, m, levels", [
    (1, 0, 1, 3),
    (40, 0, 300, 5),
    (500, 0, 2000, 30),
    (500, 1500, 2000, 30),
    (1000, 2000, 3000, 7),
    (300, 3000, 1000, 2000),
])
def test_outlier_pvalues_match_a_direct_count(n, big_n, m, levels):
    rng = np.random.default_rng([n, big_n, m])
    # Few distinct integer scores, so most counts are decided at a tie.
    draw = lambda size: rng.integers(-levels, levels, size).astype(np.float64)  # noqa: E731
    bundle = ScoreBundle(draw(n), draw(big_n), draw(m))
    got = outlier_pvalues(bundle)
    want = brute_force_pvalues(bundle)
    assert all(same_bits(g, w) for g, w in zip(got, want))


def test_outlier_pvalues_with_jitter_count_the_jittered_scores():
    rng = np.random.default_rng(5)
    bundle = ScoreBundle(rng.integers(0, 9, 400).astype(float),
                         rng.integers(0, 9, 900).astype(float),
                         rng.integers(0, 9, 1200).astype(float))
    jitter = JitterSpec(seed=11, relative_scale=1e-3)
    got = outlier_pvalues(bundle, jitter)
    want = brute_force_pvalues(apply_jitter(bundle, jitter))
    assert all(same_bits(g, w) for g, w in zip(got, want))


def test_outlier_pvalues_keep_the_order_of_the_test_scores():
    rng = np.random.default_rng(8)
    bundle = ScoreBundle(rng.normal(size=200), rng.normal(size=300), rng.normal(size=500))
    order = rng.permutation(500)
    shuffled = ScoreBundle(bundle.real_scores, bundle.synth_scores, bundle.test_scores[order])
    for a, b in zip(outlier_pvalues(bundle), outlier_pvalues(shuffled)):
        assert same_bits(a[order], b)


@pytest.mark.parametrize("size", [1, 2, 777, 100_000])
def test_trim_by_score_matches_lexsort_on_tied_scores(size):
    rng = np.random.default_rng(size)
    rhos = {0.0, 0.3, 0.5, 0.999}
    for k in {1, size // 3, size // 2, size - 1}:
        if 0 < k < size:
            exact = k / size
            rhos |= {exact, np.nextafter(exact, 0.0), np.nextafter(exact, 1.0),
                     exact + 0.5e-9 / size, exact - 2e-9 / size}
    for levels in (1, 3, 40):
        # Integer scores from a few levels: many ties at every boundary.
        scores = rng.integers(0, levels, size).astype(np.float64)
        for rho in sorted(r for r in rhos if 0 <= r < 1):
            assert same_bits(trim_by_score(scores, rho), lexsort_trim(scores, rho)), rho


def test_trim_by_score_keeps_signed_zeros_as_ties():
    scores = np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0])
    for rho in (0.2, 0.4, 0.6, 0.8):
        assert same_bits(trim_by_score(scores, rho), lexsort_trim(scores, rho))
