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

One kernel, ``_guarded``, computes every guarded value and one row-wise
scan, ``stepup_rows``, runs every fast step-up, on float64, int64 or Python
int (object) arrays.  ``stepup_guarded`` runs either mode on the rows of
(T, m) float p-values; ``bh`` (the guarded rule at ``epsilon = 0``, where
``v = p``), ``synth_bh`` and ``weighted_synth_bh`` call it with T = 1.  An
exact run rescales its inputs to integers over one common denominator and
runs the same kernel and scans; the result still carries ``Fraction``s.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
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
    # Exact weights as ``_exact_weights`` returns them, checked and
    # normalised once here; None for float weights, which an exact run
    # checks by their binary value.
    _exact_ints: tuple[int, list[int]] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if isinstance(self.alpha, float) and not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")
        if not (0 < self.alpha < 1):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha!r}")
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
            den, nums = _exact_weights(w, self.normalize_weights)
            object.__setattr__(self, "_exact_ints", (den, nums))
            return [Fraction(a, den) for a in nums] if self.normalize_weights else w
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


def _check_prob_array(name: str, vec: np.ndarray) -> None:
    """Validate [0, 1] membership with two reduction passes; NaN fails both."""
    if vec.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not (vec.min() >= 0 and vec.max() <= 1):
        vec = vec.reshape(-1)
        i = int(np.nonzero(~((vec >= 0) & (vec <= 1)))[0][0])
        if not np.isfinite(vec[i]):
            raise ValueError(f"{name} contains non-finite values")
        raise ValueError(f"{name}[{i}]={float(vec[i])!r} outside [0, 1]")


def _as_prob_vector(values, name: str):
    """Return (vector, exact): a float64 ndarray, whose range
    ``stepup_guarded`` checks, or the triple of ``_fraction_vector``."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        vec = np.asarray(values, dtype=np.float64)
        if vec.ndim != 1:
            raise ValueError(f"{name} must be one-dimensional")
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


def _exact_weights(weights: list[Fraction], normalize: bool) -> tuple[int, list[int]]:
    """``(d, a)`` with weight j equal to ``a[j] / d`` and ``sum(a) == m * d``.

    Weights whose exact sum is not m are rescaled exactly when
    ``normalize`` is set and rejected otherwise.
    """
    m = len(weights)
    den, nums = _over_common_denominator(weights)
    total = sum(nums)
    if total == m * den:
        return den, nums
    if not normalize:
        raise ValueError(
            f"weights must sum to m={m} exactly in an exact run, got {Fraction(total, den)}"
        )
    if total == 0:
        raise ValueError("cannot normalize all-zero weights")
    return total, [a * m for a in nums]


def _lowest_terms(num: int, den: int) -> tuple[int, int]:
    """Numerator and denominator of num/den (den > 0) in lowest terms."""
    g = math.gcd(num, den)
    return num // g, den // g


def _fraction_vector(items: list, name: str) -> tuple[list[Fraction], tuple, tuple]:
    """Each entry as a ``Fraction`` (floats by their binary value), in [0, 1],
    with the numerators and denominators, read once here for the engine."""
    # Fraction(f) of a Fraction f costs a full constructor call; skip it.
    # Inline rather than through _fraction: this runs once per input value.
    fracs = [x if isinstance(x, Fraction) else Fraction(x) for x in items]
    nums, dens = zip(*[f.as_integer_ratio() for f in fracs])
    # 0 <= f <= 1 on the integer parts; a Fraction's denominator is positive.
    if min(nums) < 0 or not all(map(operator.le, nums, dens)):
        i = next(i for i, (num, den) in enumerate(zip(nums, dens)) if not 0 <= num <= den)
        raise ValueError(f"{name}[{i}]={items[i]!r} outside [0, 1]")
    return fracs, nums, dens


def _split_pairs(pairs):
    """Split a sequence of (p_real, p_pooled) into two vectors.

    Returns (p, q, exact, checked).  Exact mode is selected when any entry
    is a ``Fraction``; all entries are then converted (floats exactly, by
    their binary value).  ``checked`` is true when a float array's (m, 2)
    block was found in [0, 1] in one pass; otherwise ``stepup_guarded``
    checks p and q, and names the first value out of range.
    """
    if isinstance(pairs, np.ndarray) and pairs.dtype != object:
        arr = np.asarray(pairs, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("pairs must have shape (m, 2)")
        if arr.shape[0] == 0:
            raise ValueError("pairs must be nonempty")
        # NaN fails both comparisons.
        return arr[:, 0], arr[:, 1], False, bool(arr.min() >= 0 and arr.max() <= 1)
    rows = list(pairs)
    if not rows:
        raise ValueError("pairs must be nonempty")
    first = [row[0] for row in rows]
    second = [row[1] for row in rows]
    if any(isinstance(x, Fraction) for x in first + second):
        return _fraction_vector(first, "p_real"), _fraction_vector(second, "p_pooled"), True, True
    p, _ = _as_prob_vector(np.asarray(first, dtype=np.float64), "p_real")
    q, _ = _as_prob_vector(np.asarray(second, dtype=np.float64), "p_pooled")
    return p, q, False, False


# ---------------------------------------------------------------------------
# One guarded-value kernel and one step-up scan (float64, int64 or object).
# ---------------------------------------------------------------------------


def _guarded(p: np.ndarray, q: np.ndarray, floor: np.ndarray, out=None) -> np.ndarray:
    """The guarded value ``min(p, max(q, floor))``; ``out`` may be ``floor``."""
    return np.minimum(p, np.maximum(q, floor, out=out), out=out)


def stepup_rows(values: np.ndarray, thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Step-up scan of each (float64, int64 or object) row of a (T, m) array.

    ``thresholds[k-1]`` bounds the k-th smallest value of a row; on float
    rows it is ``alpha * k / m``, so each comparison is the plain
    ``value <= alpha * k / m``.  Returns ``k_star`` (0 where nothing
    passes) and the (T, m) rejection masks.  A value above the largest
    threshold can never pass, so the comparison stops at the first column
    whose smallest entry is above it, and is not made at all when that is
    the first column.
    """
    ordered = np.sort(values, axis=1)
    rows = ordered.shape[0]
    # Rows ascend, so their column-wise minimum ascends too.
    lowest = ordered[0] if rows == 1 else ordered.min(axis=0)
    limit = int(lowest.searchsorted(thresholds[-1], side="right"))
    if not limit:
        return np.zeros(rows, np.intp), np.zeros(values.shape, bool)
    # Column k tells whether rank k passes; rank 0 always does, so that
    # each row's largest passing rank is the last True.
    passing = np.ones((rows, limit + 1), dtype=bool)
    np.less_equal(ordered[:, :limit], thresholds[:limit], out=passing[:, 1:])
    k_star = limit - passing[:, ::-1].argmax(axis=1)
    return k_star, _at_most_kth(values, ordered, k_star)


def _at_most_kth(values: np.ndarray, ordered: np.ndarray, k_star: np.ndarray) -> np.ndarray:
    """Masks of the entries at most their row's k*-th smallest; none where k* = 0."""
    cutoff = ordered[np.arange(k_star.shape[0]), k_star - 1]
    rejected = values <= cutoff[:, np.newaxis]
    rejected[k_star == 0] = False
    return rejected


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
        _guarded(p, q, np.subtract(p, shift, out=block), out=block)
        np.less_equal(block, thresholds[low:top, np.newaxis], out=hit)
        found = np.nonzero(np.count_nonzero(hit, axis=1) >= ranks)[0]
        if found.size:
            return low + int(found[-1]) + 1
    return 0


def _select(p: np.ndarray, q: np.ndarray, floor, units, thresholds: np.ndarray,
            mode: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k*, rejection masks and compared values on each row of (T, m) p and q.

    Fast mode scans ``v = min(p, max(q, floor))``, written over ``floor``;
    naive mode runs the rank-adaptive rule with guard ``units`` and returns
    the values at k*.
    """
    if mode == "fast":
        v = _guarded(p, q, floor, out=floor)
        return (*stepup_rows(v, thresholds), v)
    rows = zip(np.ascontiguousarray(p), np.ascontiguousarray(q))
    k_star = np.array([_naive_scan(a, b, units, thresholds) for a, b in rows])
    v = _guarded(p, q, p - k_star[:, np.newaxis] * units)
    return k_star, _at_most_kth(v, np.sort(v, axis=1), k_star), v


def stepup_guarded(p: np.ndarray, q: np.ndarray, config: StepUpConfig,
                   checked: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Guarded step-up at ``config`` on each row of (T, m) float64 p and q.

    Checks that p and q lie in [0, 1] (named ``pvalues`` when ``bh`` passes
    one array as both) unless the caller has: ``checked``.  Returns
    ``k_star`` per row, the (T, m) rejection masks and the values compared
    with the thresholds ``alpha * k / m``.
    """
    if not checked and q is p:
        _check_prob_array("pvalues", p)
    elif not checked:
        _check_prob_array("p_real", p)
        _check_prob_array("p_pooled", q)
    m = p.shape[1]
    alpha, eps = float(config.alpha), float(config.epsilon)
    w = 1.0 if config.weights is None else np.asarray(config.weights, dtype=np.float64)
    floor = alpha / (alpha + w * eps) * p if config.mode == "fast" else None
    thresholds = alpha * np.arange(1.0, m + 1.0) / m
    return _select(p, q, floor, w * eps / m, thresholds, config.mode)


def bh(pvalues, alpha: Scalar) -> RejectionResult:
    """Classical step-up rule at level ``alpha``.

    Selects k* = max{k : m * p_(k) / k <= alpha} and rejects every
    hypothesis whose p-value is at most the k*-th smallest.
    """
    config = StepUpConfig(alpha=alpha)
    values, exact = _as_prob_vector(pvalues, "pvalues")
    return _run(values, values, exact, False, config)


def synth_bh(pairs, config: StepUpConfig) -> RejectionResult:
    """Rank-adaptive step-up over (real, pooled) p-value pairs.

    Fast mode runs one plain step-up pass on the static modified values
    ``v_j = min(p_j, max(q_j, c * p_j))`` with ``c = alpha/(alpha+epsilon)``;
    naive mode executes the rank-by-rank loop.  ``config.weights`` must be
    None; use :func:`weighted_synth_bh` for per-hypothesis budgets.
    """
    if config.weights is not None:
        raise ValueError("synth_bh takes no weights; use weighted_synth_bh")
    return _run(*_split_pairs(pairs), config)


def weighted_synth_bh(pairs, config: StepUpConfig) -> RejectionResult:
    """Weighted rank-adaptive step-up; hypothesis j's guard scales with w_j.

    The fast path uses per-hypothesis ratios ``c_j = alpha/(alpha + w_j *
    epsilon)``.  With all weights equal to one the output matches
    :func:`synth_bh` exactly; with ``epsilon == 0`` it matches :func:`bh`
    on the real p-values.  In an exact run the weights must sum to m
    exactly, floats by their binary value, or be rescaled to do so with
    ``normalize_weights``.
    """
    if config.weights is None:
        raise ValueError("weighted_synth_bh requires config.weights")
    p, q, exact, checked = _split_pairs(pairs)
    m = len(p[0] if exact else p)
    if len(config.weights) != m:
        raise ValueError(f"weights length {len(config.weights)} != number of pairs {m}")
    return _run(p, q, exact, checked, config)


def _run(p, q, exact: bool, checked: bool, config: StepUpConfig) -> RejectionResult:
    """The run of one p and q from ``_as_prob_vector`` or ``_split_pairs``."""
    if exact:
        return _stepup_exact(p, q, config)
    rows = p[np.newaxis]
    q_rows = rows if q is p else q[np.newaxis]
    k_star, rejected, modified = stepup_guarded(rows, q_rows, config, checked)
    k_star = int(k_star[0])
    return RejectionResult(
        k_star=k_star,
        rejected=np.nonzero(rejected[0])[0],
        modified_pvalues=modified[0],
        threshold_used=float(config.alpha) * k_star / p.shape[0],
    )


def _stepup_exact(p: tuple, q: tuple, config: StepUpConfig) -> RejectionResult:
    """Exact run of either mode on integers over one common denominator.

    ``p`` and ``q`` are ``_fraction_vector`` triples.  p, q, the threshold
    unit ``alpha/m`` and the guard units ``w_j*eps/m`` are rescaled to
    integers; fast mode further multiplies through by the denominators of
    the ratios ``c_j`` so that ``c_j * p_j`` is an integer too.  The arrays
    are int64 when every magnitude the scans reach stays below
    ``_INT64_SAFE``, else Python ints (object dtype).
    """
    (p, p_nums, p_dens), (q, q_nums, q_dens) = p, q
    m = len(p)
    alpha, eps = _fraction(config.alpha), _fraction(config.epsilon)
    thr_unit = alpha / m
    # The weights over their common denominator: w_j = a_j / d_w.  Unit
    # weights give every hypothesis the same guard unit and ratio, so each
    # is computed once and broadcast.
    if config.weights is None:
        d_w, nums = 1, [1]
    else:
        d_w, nums = config._exact_ints or _exact_weights(
            [Fraction(x) for x in config.weights.tolist()], config.normalize_weights)
    # Guard units w_j*eps/m = a_j*eps_n / (d_w*eps_d*m), in lowest terms.
    unit_den = d_w * eps.denominator * m
    units = [_lowest_terms(a * eps.numerator, unit_den) for a in nums]
    denom = math.lcm(*set(p_dens), *set(q_dens), thr_unit.denominator, *{d for _, d in units})
    # Values and thresholds (at most alpha) lie in [0, scale]; naive guard
    # values reach down to p - m * unit.
    if config.mode == "fast":
        # c_j = alpha/(alpha + w_j*eps) = b / (b + a_j*eps_n*alpha_d),
        # with b = alpha_n*d_w*eps_d.
        b = alpha.numerator * d_w * eps.denominator
        step = eps.numerator * alpha.denominator
        ratios = [_lowest_terms(b, b + a * step) for a in nums]
        boost = math.lcm(*{d for _, d in ratios})
        bound = scale = denom * boost
        # c_j on the boosted scale, so that base_p * c_j = c_j * p_j * scale.
        factors = [n * (boost // d) for n, d in ratios]
    else:
        boost, scale = 1, denom
        # The guard units on the scale.
        factors = [n * (denom // d) for n, d in units]
        bound = max(scale, m * max(factors))
    dtype = np.int64 if bound < _INT64_SAFE else object

    def ints(nums, dens, unit):
        return np.array([[n * (unit // d) for n, d in zip(nums, dens)]], dtype=dtype)

    base_p = ints(p_nums, p_dens, denom)
    big_p, big_q = base_p * boost, ints(q_nums, q_dens, scale)
    thresholds = np.arange(1, m + 1, dtype=dtype) * (
        thr_unit.numerator * (scale // thr_unit.denominator)
    )
    factors = np.array(factors, dtype=dtype)
    floor = base_p * factors if config.mode == "fast" else None
    k_star, rejected, modified = _select(big_p, big_q, floor, factors, thresholds, config.mode)
    k_star, modified, big_p, big_q = int(k_star[0]), modified[0], big_p[0], big_q[0]
    # A value equal to its input reuses that input's Fraction object.
    values = list(p)
    for j in np.nonzero(modified != big_p)[0].tolist():
        values[j] = q[j] if modified[j] == big_q[j] else Fraction(int(modified[j]), scale)
    return RejectionResult(
        k_star=k_star,
        rejected=np.nonzero(rejected[0])[0],
        modified_pvalues=values,
        threshold_used=alpha * k_star / m if k_star else Fraction(0),
    )
