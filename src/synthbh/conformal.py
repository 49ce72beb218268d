"""Conformal p-values from reference scores, with auxiliary-set pooling.

Given a clean reference set of scores and a test score (higher means more
outlier-like), ``conformal_pvalue`` returns the rank-based p-value
``(#{reference >= test} + 1) / (n + 1)``.  ``merged_conformal_pvalue``
pools an auxiliary score set into the reference set, lowering the floor
from ``1/(n+1)`` to ``1/(n+N+1)``.  ``trim_by_score`` drops the most
outlier-like fraction of an auxiliary set before pooling.
``outlier_pvalues``, the one p-value stage, jitters a score bundle when
asked and returns both p-value families from one sort of each score set;
``detect_outliers`` feeds them to :func:`synthbh.stepup.synth_bh`.

All indicator comparisons are weak (``>=``).  Every output of
``conformal_pvalue`` is exactly ``k / (n + 1)`` for an integer k, and
every merged value is exactly ``k / (n + N + 1)``.  Scores must be finite;
NaN is rejected.  Tied scores are legal but make the p-values coarser;
``JitterSpec`` optionally breaks ties with seeded noise that is negligible
relative to the observed score range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stepup import RejectionResult, StepUpConfig, synth_bh


def _as_score_vector(values, name: str, allow_empty: bool = False) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size == 0 and not allow_empty:
        raise ValueError(f"{name} must be nonempty")
    if arr.size and not np.all(np.isfinite(arr)):
        bad = int(np.nonzero(~np.isfinite(arr))[0][0])
        raise ValueError(f"{name}[{bad}]={arr[bad]!r} is not finite")
    return arr


@dataclass(frozen=True, eq=False)
class ScoreBundle:
    """Scores for one outlier-detection run.

    ``real_scores`` (length n >= 1) come from a clean reference sample,
    ``synth_scores`` (length N >= 0) from an auxiliary source, and
    ``test_scores`` (length m >= 1) are the points under test.  Higher
    score means more outlier-like.  All scores must be finite.
    """

    real_scores: np.ndarray
    synth_scores: np.ndarray
    test_scores: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "real_scores", _as_score_vector(self.real_scores, "real_scores")
        )
        object.__setattr__(
            self,
            "synth_scores",
            _as_score_vector(self.synth_scores, "synth_scores", allow_empty=True),
        )
        object.__setattr__(
            self, "test_scores", _as_score_vector(self.test_scores, "test_scores")
        )

    @property
    def n_real(self) -> int:
        return int(self.real_scores.size)

    @property
    def n_synth(self) -> int:
        return int(self.synth_scores.size)

    @property
    def n_test(self) -> int:
        return int(self.test_scores.size)


@dataclass(frozen=True)
class JitterSpec:
    """Seeded tie-breaking noise for score sets.

    Each score receives an additive uniform draw in
    ``[0, relative_scale * (max_score - min_score))``, generated once per
    element position from ``seed``.  When every score is identical the
    range is zero and jitter is a no-op.
    """

    seed: int
    relative_scale: float = 1e-9

    def __post_init__(self) -> None:
        if not math.isfinite(self.relative_scale) or self.relative_scale < 0:
            raise ValueError(
                f"relative_scale must be finite and >= 0, got {self.relative_scale!r}"
            )


def apply_jitter(bundle: ScoreBundle, spec: JitterSpec) -> ScoreBundle:
    """Return a copy of ``bundle`` with tie-breaking noise added to every score."""
    pooled = np.concatenate(
        [bundle.real_scores, bundle.synth_scores, bundle.test_scores]
    )
    scale = spec.relative_scale * float(pooled.max() - pooled.min())
    noise = np.random.default_rng(spec.seed).random(pooled.size) * scale
    jittered = pooled + noise
    n, big_n = bundle.n_real, bundle.n_synth
    return ScoreBundle(
        real_scores=jittered[:n],
        synth_scores=jittered[n : n + big_n],
        test_scores=jittered[n + big_n :],
    )


def _count_at_least(scores: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``#{scores >= t}`` for each t of the ascending ``queries``.

    ``scores`` is sorted once and the sorted queries are looked up in it,
    so successive lookups touch neighbouring entries of the sorted scores
    instead of jumping across them as unsorted queries do.
    """
    return scores.size - np.searchsorted(np.sort(scores), queries, side="left")


def outlier_pvalues(bundle: ScoreBundle,
                    jitter: JitterSpec | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(p_real, p_merged)`` for every test score, after optional jitter.

    The test scores are sorted once, both counts are taken in that order
    (a count does not depend on the order of the queries), and the
    p-values are put back in the order of the test scores.  One count over
    the reference scores serves both p-values.  Trimming the auxiliary set
    is left to the caller (:func:`trim_by_score`).
    """
    if jitter is not None:
        bundle = apply_jitter(bundle, jitter)
    return _outlier_pvalues(bundle.real_scores, bundle.synth_scores, bundle.test_scores)


def _outlier_pvalues(real: np.ndarray, synth: np.ndarray,
                     test: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`outlier_pvalues` on three score vectors that hold the
    checks of :class:`ScoreBundle`, which this does not repeat."""
    order = np.argsort(test)
    queries = test[order]
    count_real = _count_at_least(real, queries)
    count_all = count_real + _count_at_least(synth, queries)
    p_real = np.empty(test.size)
    p_merged = np.empty(test.size)
    p_real[order] = (count_real + 1) / (real.size + 1)
    p_merged[order] = (count_all + 1) / (real.size + synth.size + 1)
    return p_real, p_merged


def conformal_pvalues(real_scores, test_scores) -> np.ndarray:
    """Rank-based p-values ``(#{real >= test} + 1) / (n + 1)``, vectorized.

    The smallest attainable value is ``1/(n+1)`` (test score above every
    reference score); a test score at or below the reference minimum
    yields exactly 1.
    """
    return outlier_pvalues(ScoreBundle(real_scores, np.empty(0), test_scores))[0]


def conformal_pvalue(real_scores, test_score: float) -> float:
    """Scalar form of :func:`conformal_pvalues` for a single test score."""
    return float(conformal_pvalues(real_scores, [test_score])[0])


def merged_conformal_pvalues(real_scores, synth_scores, test_scores) -> np.ndarray:
    """P-values from the reference set pooled with an auxiliary set.

    Returns ``(#{real >= test} + #{synth >= test} + 1) / (n + N + 1)``.
    With ``N == 0`` this coincides with :func:`conformal_pvalues` exactly.
    """
    return outlier_pvalues(ScoreBundle(real_scores, synth_scores, test_scores))[1]


def merged_conformal_pvalue(real_scores, synth_scores, test_score: float) -> float:
    """Scalar form of :func:`merged_conformal_pvalues` for a single test score."""
    return float(merged_conformal_pvalues(real_scores, synth_scores, [test_score])[0])


def trim_by_score(synth_scores, rho: float) -> np.ndarray:
    """Drop the ``ceil(rho * N)`` largest scores; keep the rest in input order.

    Among exactly tied scores at the removal boundary the later index is
    dropped first.  The ceiling is evaluated with a small backoff so that
    a product like ``0.02 * 100`` that lands one ULP above an integer
    still trims exactly that integer count.

    No sort is made: the smallest dropped score t is found by selection
    (``np.partition``), every score below t is kept, and of the scores
    equal to t the earliest are kept, as many as the kept count needs.
    """
    if isinstance(rho, float) and not math.isfinite(rho):
        raise ValueError(f"rho must be finite, got {rho!r}")
    if not (0 <= rho < 1):
        raise ValueError(f"rho must be in [0, 1), got {rho!r}")
    scores = _as_score_vector(synth_scores, "synth_scores", allow_empty=True)
    n_trim = max(0, math.ceil(rho * scores.size - 1e-9))
    if n_trim == 0:
        return scores.copy()
    n_keep = scores.size - n_trim
    boundary = np.partition(scores, n_keep)[n_keep]
    keep = scores < boundary
    tied = scores == boundary
    keep |= tied & (np.cumsum(tied) <= n_keep - np.count_nonzero(keep))
    return scores[keep]


def detect_outliers(
    bundle: ScoreBundle,
    config: StepUpConfig,
    jitter: JitterSpec | None = None,
) -> RejectionResult:
    """Guarded step-up outlier detection over a score bundle.

    Feeds the p-value pairs of :func:`outlier_pvalues` (after optional
    jitter) to :func:`synthbh.stepup.synth_bh`.  Rejected indices refer to
    positions in ``bundle.test_scores``.  With an empty auxiliary set the
    pooled values equal the reference-only ones and the run degenerates to
    the plain step-up rule on them.
    """
    if config.weights is not None:
        raise ValueError("detect_outliers requires a config without weights")
    return synth_bh(np.column_stack(outlier_pvalues(bundle, jitter)), config)
