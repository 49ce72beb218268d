"""Step-up multiple-testing procedures over real and pooled p-values.

``bh`` is the classical step-up rule.  ``synth_bh`` augments it with pooled
real+auxiliary p-values under a rank-adaptive guard: at candidate rejection
count k, each p-value may be lowered by at most ``k * epsilon / m``.
``weighted_synth_bh`` scales that admission budget per hypothesis.

Two execution modes are provided:

* ``"fast"`` (default) rewrites the rank-adaptive rule as one plain step-up
  run on static modified values ``v_j = min(p_j, max(q_j, c_j * p_j))``
  with ``c_j = alpha / (alpha + w_j * epsilon)``.  One sort, O(m log m)
  time, O(m) memory.
* ``"naive"`` tests the literal rank-adaptive rule at every rank k: are at
  least k guarded values ``min(p_j, max(q_j, p_j - k * w_j * epsilon / m))``
  at most ``alpha * k / m``?  Ranks are tested a block at a time, so the
  work is Theta(m^2) and the memory bounded: about ``_NAIVE_BLOCK``
  values, or one row of m when m is larger.  It is retained as a test
  oracle; the two modes select identical k* and rejection sets.

In float arithmetic the naive guard ``p - k*eps/m`` and the fast guard
``c * p`` can land on opposite sides of a threshold by one ULP, and the
fast answer is then authoritative.  Passing ``fractions.Fraction`` values
(for the p-values and for ``alpha``/``epsilon``/``weights``) switches both
modes to exact rational arithmetic, under which they agree bit for bit.
Internally every exact run (``bh`` included) rescales its inputs to
integers over one common denominator and runs the same scans as the float
path, on int64 arrays when the magnitudes allow and on Python ints
(object arrays) otherwise; no ``Fraction`` fallback remains.  The result
still carries ``Fraction`` values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, NamedTuple, Sequence, Union

import numpy as np

Scalar = Union[float, Fraction]

WEIGHT_SUM_ATOL = 1e-9

# Largest magnitude allowed on int64 in the exact path; beyond this the
# same scans run on Python ints.
_INT64_SAFE = 2**62

# Guarded values held at once by the naive scan's rank blocks.  Smaller
# blocks pay more interpreter overhead per rank; larger ones fall out of
# the CPU cache at large m and run slower.
_NAIVE_BLOCK = 2**16


class PValuePair(NamedTuple):
    """Real-data p-value and pooled real+auxiliary p-value for one hypothesis."""

    p_real: Scalar
    p_pooled: Scalar


@dataclass(frozen=True, eq=False)
class StepUpConfig:
    """Levels and mode for the synthetic-powered step-up procedures.

    ``alpha`` is the target FDR level in (0, 1); ``epsilon`` in [0, 1) is
    the admission cost for auxiliary data (0 disables it).  ``weights``,
    when given, must be nonnegative and sum to their length m; set
    ``normalize_weights=True`` to rescale instead of erroring.  Exact
    rational runs pass ``Fraction`` values for the levels and weights.
    """

    alpha: Scalar
    epsilon: Scalar = 0.0
    weights: Sequence[Scalar] | np.ndarray | None = None
    mode: Literal["naive", "fast"] = "fast"
    normalize_weights: bool = False

    def __post_init__(self) -> None:
        _check_level("alpha", self.alpha)
        if isinstance(self.epsilon, float) and not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon!r}")
        if not (0 <= self.epsilon < 1):
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon!r}")
        if self.mode not in ("naive", "fast"):
            raise ValueError(f"mode must be 'naive' or 'fast', got {self.mode!r}")
        if self.weights is not None:
            object.__setattr__(self, "weights", self._validated_weights())

    def _validated_weights(self):
        weights = self.weights
        if isinstance(weights, np.ndarray) and weights.dtype != object:
            w = np.array(weights, dtype=np.float64)
            exact = False
        else:
            w = list(weights)
            exact = any(isinstance(x, Fraction) for x in w)
            if not exact:
                w = np.asarray(w, dtype=np.float64)
        m = len(w)
        if m == 0:
            raise ValueError("weights must be nonempty")
        if exact:
            if any(isinstance(x, float) and not math.isfinite(x) for x in w):
                raise ValueError("weights must be finite")
            w = [_fraction(x) for x in w]
            if any(f.numerator < 0 for f in w):
                raise ValueError("weights must be nonnegative")
            # The sum, exactly, as one integer over the common denominator.
            den, nums = _over_common_denominator(w)
            total = sum(nums)
            if self.normalize_weights:
                if total == 0:
                    raise ValueError("cannot normalize all-zero weights")
                return [Fraction(a * m, total) for a in nums]
            if total != m * den:
                raise ValueError(
                    f"weights must sum to m={m}, got {total / den!r}"
                )
            return w
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        total = float(np.sum(w))
        if self.normalize_weights:
            if total == 0:
                raise ValueError("cannot normalize all-zero weights")
            return w * (m / total)
        if abs(total - m) > WEIGHT_SUM_ATOL:
            raise ValueError(
                f"weights must sum to m={m} within {WEIGHT_SUM_ATOL}, got {total!r}"
            )
        return w


@dataclass(frozen=True, eq=False)
class RejectionResult:
    """Outcome of one step-up run.

    ``k_star`` is the selected step-up index (0 means nothing rejected);
    ``rejected`` holds the 0-based hypothesis indices, ascending;
    ``modified_pvalues`` are the values actually compared against the
    thresholds (the inputs for ``bh``, the static ``v_j`` in fast mode,
    the guard-``k_star`` adjusted values in naive mode);
    ``threshold_used`` is ``alpha * k_star / m`` (0 when ``k_star == 0``).
    """

    k_star: int
    rejected: np.ndarray
    modified_pvalues: np.ndarray | list
    threshold_used: Scalar

    @property
    def num_rejected(self) -> int:
        return int(self.rejected.shape[0])

    def rejection_mask(self) -> np.ndarray:
        """Boolean mask over the m input hypotheses."""
        mask = np.zeros(len(self.modified_pvalues), dtype=bool)
        mask[self.rejected] = True
        return mask


def _check_level(name: str, value: Scalar) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not (0 < value < 1):
        raise ValueError(f"{name} must be in (0, 1), got {value!r}")


def _raise_bad_entry(name: str, vec: np.ndarray) -> None:
    """Pinpoint the offending entry of a failed range check (NaN included)."""
    bad = np.nonzero(~((vec >= 0) & (vec <= 1)))[0]
    i = int(bad[0])
    if not np.isfinite(vec[i]):
        raise ValueError(f"{name} contains non-finite values")
    raise ValueError(f"{name}[{i}]={float(vec[i])!r} outside [0, 1]")


def _check_prob_array(name: str, vec: np.ndarray) -> None:
    """Validate [0, 1] membership with two reduction passes; NaN fails both."""
    if vec.size == 0:
        raise ValueError(f"{name} must be nonempty")
    lo, hi = vec.min(), vec.max()
    if not (lo >= 0 and hi <= 1):
        _raise_bad_entry(name, vec.reshape(-1))


def _as_prob_vector(values, name: str):
    """Return (vector, exact) where vector is float64 ndarray or Fraction list."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        vec = np.asarray(values, dtype=np.float64)
        if vec.ndim != 1:
            raise ValueError(f"{name} must be one-dimensional")
        _check_prob_array(name, vec)
        return vec, False
    items = list(values)
    if not items:
        raise ValueError(f"{name} must be nonempty")
    if any(isinstance(x, Fraction) for x in items):
        return _fraction_vector(items, name), True
    return _as_prob_vector(np.asarray(items, dtype=np.float64), name)


def _fraction(x) -> Fraction:
    """``x`` as a ``Fraction`` (a float by its binary value)."""
    return x if isinstance(x, Fraction) else Fraction(x)


def _over_common_denominator(fracs: list[Fraction]) -> tuple[int, list[int]]:
    """``(d, a)`` with ``fracs[j] == a[j] / d``, d the lcm of the denominators."""
    d = math.lcm(*{f.denominator for f in fracs})
    return d, [f.numerator * (d // f.denominator) for f in fracs]


def _lowest_terms(num: int, den: int) -> tuple[int, int]:
    """Numerator and denominator of num/den (den > 0) in lowest terms."""
    g = math.gcd(num, den)
    return num // g, den // g


def _fraction_vector(items: list, name: str) -> list[Fraction]:
    """Each entry as a ``Fraction`` (floats by their binary value), in [0, 1]."""
    # Fraction(f) of a Fraction f costs a full constructor call; skip it.
    # Inline rather than through _fraction: this runs once per input value.
    out = [x if isinstance(x, Fraction) else Fraction(x) for x in items]
    for i, f in enumerate(out):
        # 0 <= f <= 1 on the integer parts; a Fraction's denominator is positive.
        if not (0 <= f.numerator <= f.denominator):
            raise ValueError(f"{name}[{i}]={items[i]!r} outside [0, 1]")
    return out


def _split_pairs(pairs):
    """Split a sequence of (p_real, p_pooled) into two vectors.

    Returns (p, q, exact).  Exact mode is selected when any entry is a
    ``Fraction``; all entries are then converted (floats exactly, by their
    binary value).
    """
    if isinstance(pairs, np.ndarray) and pairs.dtype != object:
        arr = np.asarray(pairs, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("pairs must have shape (m, 2)")
        if arr.shape[0] == 0:
            raise ValueError("pairs must be nonempty")
        lo, hi = arr.min(), arr.max()
        if not (lo >= 0 and hi <= 1):
            _check_prob_array("p_real", np.ascontiguousarray(arr[:, 0]))
            _check_prob_array("p_pooled", np.ascontiguousarray(arr[:, 1]))
        return arr[:, 0], arr[:, 1], False
    rows = list(pairs)
    if not rows:
        raise ValueError("pairs must be nonempty")
    first = [row[0] for row in rows]
    second = [row[1] for row in rows]
    if any(isinstance(x, Fraction) for x in first + second):
        return _fraction_vector(first, "p_real"), _fraction_vector(second, "p_pooled"), True
    p, _ = _as_prob_vector(np.asarray(first, dtype=np.float64), "p_real")
    q, _ = _as_prob_vector(np.asarray(second, dtype=np.float64), "p_pooled")
    return p, q, False


# ---------------------------------------------------------------------------
# Core step-up scans (dtype-agnostic: float64, int64 or Python-int arrays).
# ---------------------------------------------------------------------------


def _bh_scan(values: np.ndarray, thresholds: np.ndarray) -> int:
    """k* = max{k : kth smallest value <= thresholds[k-1]}, 0 if none."""
    ordered = np.sort(values)
    passing = np.nonzero(ordered <= thresholds)[0]
    return int(passing[-1]) + 1 if passing.size else 0


def stepup_rows(values: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Step-up scan of each row of a (T, m) float64 array at thresholds alpha*k/m.

    Returns ``k_star`` (int64, 0 where nothing passes) and ``cutoff``, each
    row's k*-th smallest value (-inf where k* = 0), so that
    ``values <= cutoff[:, None]`` is the rejection mask.  The comparisons
    are the plain ``value <= alpha * k / m`` in float64.  A value above the
    largest threshold can never pass, so the comparison stops at the first
    column whose smallest entry is above it.
    """
    ordered = np.sort(values, axis=1)
    rows, m = ordered.shape
    # Rows ascend, so their column-wise minimum ascends too.
    lowest = ordered[0] if rows == 1 else ordered.min(axis=0)
    limit = int(lowest.searchsorted(alpha * m / m, side="right"))
    if limit == 0:
        return np.zeros(rows, dtype=np.intp), np.full(rows, -np.inf)
    # Ranks limit, ..., 1 and then a rank-0 sentinel that always passes, so
    # that argmax finds each row's largest passing rank.
    ranked = np.empty((rows, limit + 1))
    ranked[:, :limit] = ordered[:, :limit][:, ::-1]
    ranked[:, limit] = -np.inf
    first = (ranked <= alpha * np.arange(float(limit), -1.0, -1.0) / m).argmax(axis=1)
    return limit - first, ranked[np.arange(rows), first]


def _naive_scan(p: np.ndarray, q: np.ndarray, units, thresholds: np.ndarray) -> int:
    """Literal rank-adaptive rule; ``units`` is scalar or per-hypothesis.

    k* is the largest k whose k-th smallest guarded value
    ``min(p, max(q, p - k * units))`` is at most ``thresholds[k-1]``, that
    is, for which at least k guarded values are.  Ranks are tested from the
    top down, a block of them at a time in one buffer of about
    ``_NAIVE_BLOCK`` guarded values, and the first block with a passing
    rank holds k*.
    """
    m = p.shape[0]
    per = min(m, max(1, _NAIVE_BLOCK // m))
    rows = np.empty((per, m), dtype=p.dtype)
    passing = np.empty((per, m), dtype=bool)
    per_hypothesis = np.shape(units) == p.shape
    for top in range(m, 0, -per):
        low = max(top - per, 0)
        ranks = np.arange(low + 1, top + 1)
        block, hit = rows[:top - low], passing[:top - low]
        ks = ranks.astype(p.dtype)[:, np.newaxis]
        # A (K, 1) shift broadcasts along each row; a per-hypothesis one
        # is written into the buffer first.
        shift = np.multiply(ks, units, out=block) if per_hypothesis else ks * units
        np.subtract(p, shift, out=block)
        np.maximum(block, q, out=block)
        np.minimum(block, p, out=block)
        np.less_equal(block, thresholds[low:top, np.newaxis], out=hit)
        found = np.nonzero(np.count_nonzero(hit, axis=1) >= ranks)[0]
        if found.size:
            return low + int(found[-1]) + 1
    return 0


def bh(pvalues, alpha: Scalar) -> RejectionResult:
    """Classical step-up rule at level ``alpha``.

    Selects k* = max{k : m * p_(k) / k <= alpha} and rejects every
    hypothesis whose p-value is at most the k*-th smallest.
    """
    _check_level("alpha", alpha)
    values, exact = _as_prob_vector(pvalues, "pvalues")
    if exact:
        return _stepup_exact(values, values, None, alpha, 0, "fast")
    return _scan_float(values, float(alpha))


def _float_result(modified: np.ndarray, k_star: int, cutoff: float,
                  alpha: float) -> RejectionResult:
    """Result of a float run whose k*-th smallest modified value is ``cutoff``."""
    return RejectionResult(
        k_star=k_star,
        rejected=np.nonzero(modified <= cutoff)[0] if k_star else np.empty(0, dtype=np.int64),
        modified_pvalues=modified,
        threshold_used=alpha * k_star / modified.shape[0],
    )


def _scan_float(modified: np.ndarray, alpha: float) -> RejectionResult:
    k_star, cutoff = stepup_rows(modified[np.newaxis], alpha)
    return _float_result(modified, int(k_star[0]), cutoff[0], alpha)


def synth_bh(pairs, config: StepUpConfig) -> RejectionResult:
    """Rank-adaptive step-up over (real, pooled) p-value pairs.

    Fast mode runs one plain step-up pass on the static modified values
    ``v_j = min(p_j, max(q_j, c * p_j))`` with ``c = alpha/(alpha+epsilon)``;
    naive mode executes the rank-by-rank loop.  ``config.weights`` must be
    None; use :func:`weighted_synth_bh` for per-hypothesis budgets.
    """
    if config.weights is not None:
        raise ValueError("synth_bh takes no weights; use weighted_synth_bh")
    p, q, exact = _split_pairs(pairs)
    return _stepup_impl(p, q, None, config, exact)


def weighted_synth_bh(pairs, config: StepUpConfig) -> RejectionResult:
    """Weighted rank-adaptive step-up; hypothesis j's guard scales with w_j.

    The fast path uses per-hypothesis ratios ``c_j = alpha/(alpha + w_j *
    epsilon)``.  With all weights equal to one the output matches
    :func:`synth_bh` exactly; with ``epsilon == 0`` it matches :func:`bh`
    on the real p-values.
    """
    if config.weights is None:
        raise ValueError("weighted_synth_bh requires config.weights")
    p, q, exact = _split_pairs(pairs)
    weights = config.weights
    if len(weights) != len(p):
        raise ValueError(
            f"weights length {len(weights)} != number of pairs {len(p)}"
        )
    return _stepup_impl(p, q, weights, config, exact)


def _stepup_impl(p, q, weights, config: StepUpConfig, exact: bool) -> RejectionResult:
    if exact:
        return _stepup_exact(p, q, weights, config.alpha, config.epsilon, config.mode)
    return _stepup_float(p, q, weights, config)


def _stepup_float(p: np.ndarray, q: np.ndarray, weights,
                  config: StepUpConfig) -> RejectionResult:
    m = p.shape[0]
    alpha = float(config.alpha)
    eps = float(config.epsilon)
    if weights is None:
        units = eps / m                      # scalar guard increment
        ratios = alpha / (alpha + eps)
    else:
        w = np.asarray(weights, dtype=np.float64)
        units = w * eps / m
        ratios = alpha / (alpha + w * eps)
    if config.mode == "fast":
        v = np.minimum(p, np.maximum(q, ratios * p))
        return _scan_float(v, alpha)
    p = np.ascontiguousarray(p)
    q = np.ascontiguousarray(q)
    thresholds = alpha * np.arange(1, m + 1) / m
    k_star = _naive_scan(p, q, units, thresholds)
    modified = np.minimum(p, np.maximum(q, p - k_star * units))
    cutoff = np.partition(modified, k_star - 1)[k_star - 1] if k_star else -np.inf
    return _float_result(modified, k_star, cutoff, alpha)


def _stepup_exact(p: list[Fraction], q: list[Fraction], weights, alpha: Scalar,
                  epsilon: Scalar, mode: str) -> RejectionResult:
    """Exact run of either mode on integers over one common denominator.

    p, q, the threshold unit ``alpha/m`` and the guard units ``w_j*eps/m``
    are rescaled to integers; fast mode further multiplies through by the
    denominators of the ratios ``c_j`` so that ``c_j * p_j`` is an integer
    too.  The arrays are int64 when every magnitude the scans reach stays
    below ``_INT64_SAFE``, else Python ints (object dtype).
    """
    m = len(p)
    alpha, eps = _fraction(alpha), _fraction(epsilon)
    thr_unit = alpha / m
    # The weights over their common denominator: w_j = a_j / d_w.  Unit
    # weights give every hypothesis the same guard unit and ratio, so each
    # is computed once and broadcast.
    if weights is None:
        d_w, nums = 1, [1]
    else:
        d_w, nums = _over_common_denominator([_fraction(x) for x in weights])
    # Guard units w_j*eps/m = a_j*eps_n / (d_w*eps_d*m), in lowest terms.
    unit_den = d_w * eps.denominator * m
    units = [_lowest_terms(a * eps.numerator, unit_den) for a in nums]
    denom = math.lcm(*{f.denominator for f in p}, *{f.denominator for f in q},
                     thr_unit.denominator, *{d for _, d in units})
    # Values and thresholds (at most alpha) lie in [0, scale]; naive guard
    # values reach down to p - m * unit.
    if mode == "fast":
        # c_j = alpha/(alpha + w_j*eps) = b / (b + a_j*eps_n*alpha_d),
        # with b = alpha_n*d_w*eps_d.
        b = alpha.numerator * d_w * eps.denominator
        step = eps.numerator * alpha.denominator
        ratios = [_lowest_terms(b, b + a * step) for a in nums]
        boost = math.lcm(*{d for _, d in ratios})
        bound = scale = denom * boost
    else:
        boost, scale = 1, denom
        guard = [n * (denom // d) for n, d in units]
        bound = max(scale, m * max(guard))
    dtype = np.int64 if bound < _INT64_SAFE else object

    def ints(fracs, unit):
        return np.array([f.numerator * (unit // f.denominator) for f in fracs], dtype=dtype)

    base_p = ints(p, denom)
    big_p, big_q = base_p * boost, ints(q, scale)
    thresholds = np.arange(1, m + 1, dtype=dtype) * (
        thr_unit.numerator * (scale // thr_unit.denominator)
    )
    if mode == "fast":
        c = np.array([n * (boost // d) for n, d in ratios], dtype=dtype)
        modified = np.minimum(big_p, np.maximum(big_q, base_p * c))
        k_star = _bh_scan(modified, thresholds)
    else:
        guard = np.array(guard, dtype=dtype)
        k_star = _naive_scan(big_p, big_q, guard, thresholds)
        modified = np.minimum(big_p, np.maximum(big_q, big_p - k_star * guard))
    if k_star:
        cutoff = np.partition(modified, k_star - 1)[k_star - 1]
        rejected = np.nonzero(modified <= cutoff)[0]
    else:
        rejected = np.empty(0, dtype=np.int64)
    # A value equal to its input reuses that input's Fraction object.
    values = list(p)
    for j in np.nonzero(modified != big_p)[0].tolist():
        values[j] = q[j] if modified[j] == big_q[j] else Fraction(int(modified[j]), scale)
    return RejectionResult(
        k_star=k_star,
        rejected=rejected,
        modified_pvalues=values,
        threshold_used=alpha * k_star / m if k_star else Fraction(0),
    )
