"""Monte Carlo experiments for the guarded step-up procedures.

Two seeded experiments are provided.  ``run_bernoulli_experiment(SimConfig)``
tests m coins against fairness with a randomized exact binomial test,
computing one p-value from the real sample alone and one from the real
sample pooled with an auxiliary synthetic sample; it then scores four
methods per trial:

* ``BH-real``     step-up on the real p-values at level alpha
* ``BH-real+eps`` step-up on the real p-values at level alpha + epsilon
* ``BH-synth``    step-up on the pooled p-values at level alpha
* ``SynthBH``     the guarded procedure at (alpha, epsilon)

``run_outlier_experiment(OutlierConfig)`` is the conformal analogue with
Gaussian scores, a contaminated auxiliary set, and trimming.

Both have one shape: a frozen config class that checks its fields when
built, and a trial function ``_<name>_trial(config, trial)`` that draws
one trial's p-values and null mask, keyed by the class in ``_TRIALS``.
The config's fields are the experiment's parameters, in the order that
the ``simulate`` summary lists them; the CLI sweeps every field but
``seed``.  ``run_experiments(configs)`` runs a list of configs:
consecutive ones that differ only in ``alpha`` and ``epsilon`` share one
``_run_trials`` pass, scored at their levels by
``_score_trials(blocks, trials, levels)``.

Reproducibility: every trial draws from ``default_rng([seed, trial])``,
in trial order, so results depend on the seed alone, and the levels enter
no draw.  Trials run serially; their p-values are stacked into blocks of
about 16k hypotheses, and each method scores a whole block with one
row-wise step-up scan.  No draw is kept beyond its block.

Results: an ``ExperimentResult`` holds the ``fdp``, ``power`` and
``rejections`` of every trial as read-only ``(methods, trials)`` arrays,
which each block's scans write into; ``summaries()`` reduces their rows.
``TrialMetrics`` objects are made only when ``trial_metrics`` or
``per_trial`` is read.

Binomial tail probabilities are computed by exact integer summation and
a single correctly rounded float division, for n up to 2000; larger n
raises rather than silently approximating.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .conformal import _outlier_pvalues, trim_by_score
from .stepup import StepUpConfig, stepup_guarded

MAX_EXACT_BINOMIAL_N = 2000

# Sentinel for the hostile auxiliary regime: synthetic data claim signal
# for every hypothesis, nulls included.
MIRROR_ALT = "mirror-alt"

METHOD_NAMES = ("BH-real", "BH-real+eps", "BH-synth", "SynthBH")

# Hypotheses per stacked block of trials.  It bounds the memory a block
# takes; the number of trials per block follows from m alone.
BLOCK_HYPOTHESES = 16384

# One trial's draws: real p-values, pooled p-values and the null mask.
Draws = tuple[np.ndarray, np.ndarray, np.ndarray]


def _check_probability(name: str, value: float) -> None:
    if not math.isfinite(value) or not (0 <= value <= 1):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def _check_count(name: str, value: int, minimum: int = 1) -> None:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


def _check_levels(alpha: float, epsilon: float) -> None:
    if not (math.isfinite(alpha) and 0 < alpha < 1):
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    if not (math.isfinite(epsilon) and 0 <= epsilon < 1):
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon!r}")
    if alpha + epsilon >= 1:
        raise ValueError(
            f"alpha + epsilon must be below 1 for the relaxed-level baseline, "
            f"got {alpha + epsilon!r}"
        )


@dataclass(frozen=True)
class SimConfig:
    """Parameters of the Bernoulli experiment.

    Defaults give m = 1000 hypotheses with 5% alternatives at success
    probability 0.6, n_real = 200 real and n_synth = 1000 synthetic draws
    per hypothesis, synthetic alternatives at 0.55, and levels
    alpha = epsilon = 0.1 over 100 trials.  ``q_synth_null`` is either a
    probability or the string ``"mirror-alt"``, which makes synthetic
    nulls use ``q_synth_alt`` (auxiliary data claiming signal everywhere).
    """

    n_real: int = 200
    n_synth: int = 1000
    m: int = 1000
    frac_alt: float = 0.05
    q_alt: float = 0.6
    q_synth_null: Union[float, str] = 0.5
    q_synth_alt: float = 0.55
    alpha: float = 0.1
    epsilon: float = 0.1
    trials: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        _check_count("n_real", self.n_real)
        _check_count("n_synth", self.n_synth)
        _check_count("m", self.m)
        _check_count("trials", self.trials)
        if self.n_real + self.n_synth > MAX_EXACT_BINOMIAL_N:
            raise ValueError(
                f"n_real + n_synth must be at most {MAX_EXACT_BINOMIAL_N} for the "
                f"exact pooled test, got {self.n_real + self.n_synth}"
            )
        _check_probability("frac_alt", self.frac_alt)
        _check_probability("q_alt", self.q_alt)
        _check_probability("q_synth_alt", self.q_synth_alt)
        if isinstance(self.q_synth_null, str):
            if self.q_synth_null != MIRROR_ALT:
                raise ValueError(
                    f"q_synth_null must be a probability or {MIRROR_ALT!r}, "
                    f"got {self.q_synth_null!r}"
                )
        else:
            _check_probability("q_synth_null", self.q_synth_null)
        _check_levels(self.alpha, self.epsilon)
        _check_count("seed", self.seed, minimum=0)

    @property
    def n_alternatives(self) -> int:
        """Number of non-null hypotheses; they occupy the first indices."""
        return round(self.frac_alt * self.m)


@dataclass(frozen=True)
class OutlierConfig:
    """Parameters of the Gaussian-score outlier experiment.

    Inlier scores are Normal(0, 1) and outlier scores Normal(mu_out, 1);
    the default mu_out of 3.0 was calibrated so the reference-only
    step-up baseline lands near 50% power at the default sizes.  Each
    trial draws a clean reference set of size n, an auxiliary set of size
    n_synth (1000, as in the Bernoulli experiment) with a
    ``contamination_frac`` share of outlier-like scores, of
    which the top ``rho`` fraction is trimmed, and m test points with an
    ``outlier_frac`` share of outliers; levels are alpha = epsilon = 0.1
    over 100 trials.
    """

    n: int = 500
    n_synth: int = 1000
    m: int = 1000
    outlier_frac: float = 0.05
    contamination_frac: float = 0.05
    rho: float = 0.02
    mu_out: float = 3.0
    alpha: float = 0.1
    epsilon: float = 0.1
    trials: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        _check_count("n", self.n)
        _check_count("n_synth", self.n_synth, minimum=0)
        _check_count("m", self.m)
        _check_count("trials", self.trials)
        _check_probability("outlier_frac", self.outlier_frac)
        _check_probability("contamination_frac", self.contamination_frac)
        if not (0 <= self.rho < 1):
            raise ValueError(f"rho must be in [0, 1), got {self.rho!r}")
        _check_levels(self.alpha, self.epsilon)
        if not math.isfinite(self.mu_out):
            raise ValueError(f"mu_out must be finite, got {self.mu_out!r}")
        _check_count("seed", self.seed, minimum=0)


@dataclass(frozen=True)
class TrialMetrics:
    """Per-trial outcome of one method.

    ``fdp`` is false rejections over ``max(|R|, 1)``; ``power`` is true
    rejections over ``max(#non-nulls, 1)``; ``rejections`` is |R|, which
    for every step-up rule here equals the selected index k*.
    """

    fdp: float
    power: float
    rejections: int


@dataclass(frozen=True)
class MethodSummary:
    """Mean and standard error of one method's metrics over all trials."""

    method: str
    trials: int
    mean_fdp: float
    se_fdp: float
    mean_power: float
    se_power: float
    mean_rejections: float


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """All per-trial metrics of one experiment, one row per method.

    ``fdp``, ``power`` (float64) and ``rejections`` (int64) are read-only
    ``(methods, trials)`` arrays; row i holds what :func:`fdp_and_power`
    gives for ``method_names[i]`` in each trial.
    """

    method_names: tuple
    fdp: np.ndarray
    power: np.ndarray
    rejections: np.ndarray

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExperimentResult) and self.method_names == other.method_names
                and np.array_equal(self.fdp, other.fdp) and np.array_equal(self.power, other.power)
                and np.array_equal(self.rejections, other.rejections))

    @property
    def per_trial(self) -> dict[str, tuple]:
        """One ``TrialMetrics`` per trial, keyed by method; built when read."""
        return {name: tuple(map(TrialMetrics, fdp.tolist(), power.tolist(), rej.tolist()))
                for name, fdp, power, rej in zip(self.method_names, self.fdp, self.power,
                                                 self.rejections)}

    def trial_metrics(self, method: str) -> tuple:
        return self.per_trial[method]

    def summaries(self) -> list[MethodSummary]:
        rejections = self.rejections.astype(np.float64)
        return [MethodSummary(name, fdp.size, float(fdp.mean()), _standard_error(fdp),
                              float(power.mean()), _standard_error(power), float(rej.mean()))
                for name, fdp, power, rej in zip(self.method_names, self.fdp, self.power,
                                                 rejections)]


def _standard_error(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(values.size))


@lru_cache(maxsize=64)
def _binomial_half_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact fair-coin tail and mass tables: sf[x] = P(B > x), pmf[x] = P(B = x).

    Computed with arbitrary-precision integers and one correctly rounded
    division per entry, so every value is the nearest float to the true
    probability.
    """
    total = 1 << n
    masses = [math.comb(n, x) for x in range(n + 1)]
    sf = np.empty(n + 1)
    pmf = np.empty(n + 1)
    suffix = 0
    for x in range(n, -1, -1):
        sf[x] = suffix / total
        pmf[x] = masses[x] / total
        suffix += masses[x]
    return sf, pmf


def randomized_binomial_pvalues(successes, n: int, u) -> np.ndarray:
    """Randomized one-sided fair-coin test p-values, vectorized.

    For success count x out of n and an independent uniform draw u, the
    p-value is ``P(B > x) + u * P(B = x)`` with B ~ Binomial(n, 1/2),
    testing success probability <= 1/2 against > 1/2.  When the truth is
    exactly 1/2 the result is uniform on (0, 1); below 1/2 it is
    super-uniform.
    """
    _check_count("n", n)
    if n > MAX_EXACT_BINOMIAL_N:
        raise ValueError(
            f"n={n} exceeds the exact-tail limit of {MAX_EXACT_BINOMIAL_N}"
        )
    x = np.asarray(successes)
    if not np.issubdtype(x.dtype, np.integer):
        raise ValueError("successes must be integers")
    if x.size and (x.min() < 0 or x.max() > n):
        raise ValueError(f"successes must lie in [0, {n}]")
    uu = np.asarray(u, dtype=np.float64)
    # A NaN makes min and max NaN, which fails both comparisons.
    if uu.size and not (uu.min() >= 0 and uu.max() <= 1):
        raise ValueError("u must lie in [0, 1]")
    sf, pmf = _binomial_half_tables(n)
    return np.minimum(sf[x] + uu * pmf[x], 1.0)


def randomized_binomial_pvalue(successes: int, n: int, u: float) -> float:
    """Scalar form of :func:`randomized_binomial_pvalues`."""
    return float(randomized_binomial_pvalues([successes], n, [u])[0])


def fdp_and_power(rejected, null_mask) -> TrialMetrics:
    """False discovery proportion and power of one rejection set.

    ``rejected`` holds hypothesis indices; ``null_mask`` is True where a
    hypothesis is null.  An empty rejection set has fdp 0; power is 0
    when no non-nulls exist.
    """
    mask = np.asarray(null_mask, dtype=bool)
    idx = np.asarray(rejected, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= mask.size):
        raise ValueError("rejected indices out of range")
    n_rej = int(idx.size)
    false_rej = int(mask[idx].sum())
    n_alt = int((~mask).sum())
    return TrialMetrics(
        fdp=false_rej / max(n_rej, 1),
        power=(n_rej - false_rej) / max(n_alt, 1),
        rejections=n_rej,
    )


def _bernoulli_trial(config: SimConfig, trial: int) -> Draws:
    rng = np.random.default_rng([config.seed, trial])
    m, m_alt = config.m, config.n_alternatives
    synth_null = (
        config.q_synth_alt
        if config.q_synth_null == MIRROR_ALT
        else config.q_synth_null
    )
    # One scalar-probability call per segment, alternatives first: the
    # same variates, in the same order, as one call with a per-element
    # probability array.
    x_real = np.concatenate([rng.binomial(config.n_real, config.q_alt, m_alt),
                             rng.binomial(config.n_real, 0.5, m - m_alt)])
    x_synth = np.concatenate([rng.binomial(config.n_synth, config.q_synth_alt, m_alt),
                              rng.binomial(config.n_synth, synth_null, m - m_alt)])
    u_real = rng.random(m)
    u_pooled = rng.random(m)
    p_real = randomized_binomial_pvalues(x_real, config.n_real, u_real)
    p_pooled = randomized_binomial_pvalues(
        x_real + x_synth, config.n_real + config.n_synth, u_pooled
    )
    null_mask = np.ones(m, dtype=bool)
    null_mask[:m_alt] = False
    return p_real, p_pooled, null_mask


def _run_trials(worker: Callable[[int], Draws], trials: int) -> Iterator[Draws]:
    """The draws of trials 0 .. trials-1, in order, stacked into blocks.

    Each block stacks the p-values and null masks of up to
    ``max(1, BLOCK_HYPOTHESES // m)`` consecutive trials as (T, m) arrays.
    """
    rows: list[Draws] = []
    for trial in range(trials):
        rows.append(worker(trial))
        size = max(1, BLOCK_HYPOTHESES // rows[0][0].shape[0])
        if len(rows) == size or trial == trials - 1:
            yield tuple(np.stack(column) for column in zip(*rows))
            rows = []


def _score_trials(blocks: Iterator[Draws], trials: int,
                  levels: Sequence[tuple[float, float]]) -> list[ExperimentResult]:
    """Score the four methods on each block of stacked trials, at each level.

    Gives, per ``(alpha, epsilon)`` in ``levels`` and trial for trial, the
    metrics of ``fdp_and_power`` on the rejection sets of ``bh`` at alpha,
    ``bh`` at alpha + epsilon, ``bh`` on the pooled p-values and fast
    ``synth_bh``, with the same checks.  The blocks hold ``trials`` trials.
    Every level's configs are built before the first block is drawn, and
    within a block a method's scan at a config that already ran is not run
    again; its metrics are written straight into the result arrays.
    """
    configs = [(StepUpConfig(alpha=alpha), StepUpConfig(alpha=alpha + epsilon),
                StepUpConfig(alpha=alpha, epsilon=epsilon)) for alpha, epsilon in levels]
    shape = (len(levels), len(METHOD_NAMES), trials)
    fdp, power, rejections = np.empty(shape), np.empty(shape), np.empty(shape, dtype=np.int64)
    start = 0
    for p_real, p_pooled, null_mask in blocks:
        stop = start + len(null_mask)
        n_alt = np.maximum(np.count_nonzero(~null_mask, axis=1), 1)
        scored: dict[tuple, tuple] = {}
        for level, (plain, relaxed, guarded) in enumerate(configs):
            # bh is the guarded rule at epsilon = 0, where v = p.  The first
            # run, with p_pooled as q, checks both arrays; the others skip it.
            # The runs are in the order of METHOD_NAMES.
            runs = ((p_real, p_pooled, plain), (p_real, p_real, relaxed),
                    (p_pooled, p_pooled, plain), (p_real, p_pooled, guarded))
            for row, (p, q, config) in enumerate(runs):
                key = (row, config.alpha, config.epsilon)
                if key not in scored:
                    _, rejected, _ = stepup_guarded(p, q, config, checked=bool(scored))
                    n_rej = np.count_nonzero(rejected, axis=1)
                    false_rej = np.count_nonzero(rejected & null_mask, axis=1)
                    scored[key] = (false_rej / np.maximum(n_rej, 1),
                                   (n_rej - false_rej) / n_alt, n_rej)
                (fdp[level, row, start:stop], power[level, row, start:stop],
                 rejections[level, row, start:stop]) = scored[key]
        start = stop
    for values in (fdp, power, rejections):
        values.flags.writeable = False
    return [ExperimentResult(METHOD_NAMES, *arrays) for arrays in zip(fdp, power, rejections)]


def run_bernoulli_experiment(config: SimConfig) -> ExperimentResult:
    """Run the Bernoulli experiment; per-trial metrics for all four methods.

    Each trial draws, per hypothesis, a real success count and a synthetic
    success count, turns them into a real-only p-value and a pooled
    p-value via the randomized binomial test (with independent uniform
    draws for the two), and scores the four methods against the known
    null mask.  Identical seeds give identical results.
    """
    return next(run_experiments([config]))


def _outlier_trial(config: OutlierConfig, trial: int) -> Draws:
    rng = np.random.default_rng([config.seed, trial])
    m, n_synth = config.m, config.n_synth
    m_out = round(config.outlier_frac * m)
    n_contam = round(config.contamination_frac * n_synth)
    real = rng.normal(0.0, 1.0, config.n)
    synth_clean = rng.normal(0.0, 1.0, n_synth - n_contam)
    synth_bad = rng.normal(config.mu_out, 1.0, n_contam)
    test_out = rng.normal(config.mu_out, 1.0, m_out)
    test_in = rng.normal(0.0, 1.0, m - m_out)
    synth = trim_by_score(np.concatenate([synth_clean, synth_bad]), config.rho)
    test = np.concatenate([test_out, test_in])
    null_mask = np.ones(m, dtype=bool)
    null_mask[:m_out] = False
    # Normal draws are finite one-dimensional vectors, as a ScoreBundle checks.
    return (*_outlier_pvalues(real, synth, test), null_mask)


def run_outlier_experiment(config: OutlierConfig) -> ExperimentResult:
    """Run the outlier experiment; per-trial metrics for all four methods.

    Each trial builds a clean reference set, a contaminated auxiliary set
    trimmed by ``rho`` and a test set with known outliers, and scores the
    four methods with conformal p-values in the real role and pooled
    conformal p-values in the synthetic role.  Identical seeds give
    identical results.
    """
    return next(run_experiments([config]))


# The trial function of each experiment's config class.
_TRIALS: dict[type, Callable[..., Draws]] = {
    SimConfig: _bernoulli_trial,
    OutlierConfig: _outlier_trial,
}


def _draws_key(config) -> tuple:
    """What a config's draws depend on: everything but its levels."""
    return type(config), [getattr(config, f.name) for f in fields(config)
                          if f.name not in ("alpha", "epsilon")]


def run_experiments(configs: Iterable) -> Iterator[ExperimentResult]:
    """One result per config of ``_TRIALS``, in order.

    Consecutive configs that differ only in ``alpha`` and ``epsilon`` share
    one pass over the trials: each trial is drawn once and scored at each
    of their levels.  Each result equals that of its config run alone.
    """
    for _, run in itertools.groupby(configs, _draws_key):
        run = list(run)
        blocks = _run_trials(partial(_TRIALS[type(run[0])], run[0]), run[0].trials)
        yield from _score_trials(blocks, run[0].trials, [(c.alpha, c.epsilon) for c in run])
