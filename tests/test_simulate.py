"""Tests for the randomized binomial test and the Monte Carlo experiments."""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

from synthbh import (
    MIRROR_ALT,
    MethodSummary,
    OutlierConfig,
    SimConfig,
    StepUpConfig,
    TrialMetrics,
    bh,
    fdp_and_power,
    randomized_binomial_pvalue,
    randomized_binomial_pvalues,
    run_bernoulli_experiment,
    run_outlier_experiment,
    synth_bh,
)
from synthbh import conformal, simulate
from synthbh.simulate import MAX_EXACT_BINOMIAL_N, run_experiments


def enumerated_tail(n: int, x: int) -> tuple[float, float]:
    """P(B > x) and P(B = x) for a fair coin by brute enumeration."""
    above = equal = 0
    for outcome in itertools.product((0, 1), repeat=n):
        s = sum(outcome)
        if s > x:
            above += 1
        elif s == x:
            equal += 1
    return above / 2**n, equal / 2**n


class TestRandomizedBinomialPvalue:
    def test_single_flip(self):
        assert randomized_binomial_pvalue(0, 1, 0.5) == 0.75

    def test_all_heads_of_three(self):
        assert randomized_binomial_pvalue(3, 3, 1.0) == 0.125

    def test_u_zero_is_strict_tail(self):
        assert randomized_binomial_pvalue(1, 2, 0.0) == 0.25

    def test_matches_enumeration_for_small_n(self):
        for n in (1, 2, 3, 5, 8):
            for x in range(n + 1):
                sf, pmf = enumerated_tail(n, x)
                for u in (0.0, 0.25, 1.0):
                    expected = min(sf + u * pmf, 1.0)
                    assert randomized_binomial_pvalue(x, n, u) == pytest.approx(
                        expected, abs=1e-15
                    )

    def test_never_exceeds_one(self):
        p = randomized_binomial_pvalues(
            np.zeros(5, dtype=np.int64), 400, np.ones(5)
        )
        assert (p <= 1.0).all()
        assert randomized_binomial_pvalue(0, 1, 1.0) == 1.0

    def test_uniform_under_the_null(self):
        # Kolmogorov distance between the empirical law at q = 1/2 and
        # the uniform law, over 10^5 draws.
        rng = np.random.default_rng(50)
        draws = 100_000
        x = rng.binomial(200, 0.5, draws)
        p = randomized_binomial_pvalues(x, 200, rng.random(draws))
        grid = np.sort(p)
        ks = np.abs(grid - (np.arange(1, draws + 1) / draws)).max()
        assert ks < 0.01

    def test_super_uniform_below_half(self):
        rng = np.random.default_rng(51)
        draws = 50_000
        x = rng.binomial(100, 0.4, draws)
        p = randomized_binomial_pvalues(x, 100, rng.random(draws))
        for t in np.linspace(0.05, 0.95, 19):
            se = np.sqrt(t * (1 - t) / draws)
            assert (p <= t).mean() <= t + 3 * se

    def test_large_n_within_limit(self):
        p = randomized_binomial_pvalue(MAX_EXACT_BINOMIAL_N // 2, MAX_EXACT_BINOMIAL_N, 0.5)
        assert 0 < p < 1

    def test_n_above_limit_rejected(self):
        with pytest.raises(ValueError, match="exact-tail limit"):
            randomized_binomial_pvalue(0, MAX_EXACT_BINOMIAL_N + 1, 0.5)

    def test_successes_out_of_range(self):
        with pytest.raises(ValueError, match="successes"):
            randomized_binomial_pvalue(5, 4, 0.5)
        with pytest.raises(ValueError, match="successes"):
            randomized_binomial_pvalue(-1, 4, 0.5)

    def test_u_out_of_range(self):
        with pytest.raises(ValueError, match="u must"):
            randomized_binomial_pvalue(1, 4, 1.5)


class TestFdpAndPower:
    def test_empty_rejection_set(self):
        metrics = fdp_and_power([], np.array([True, False, True]))
        assert metrics == TrialMetrics(fdp=0.0, power=0.0, rejections=0)

    def test_exactly_the_non_nulls(self):
        null_mask = np.array([True, False, True, False])
        metrics = fdp_and_power([1, 3], null_mask)
        assert metrics.fdp == 0.0
        assert metrics.power == 1.0
        assert metrics.rejections == 2

    def test_reject_everything(self):
        null_mask = np.array([True, True, True, False])
        metrics = fdp_and_power([0, 1, 2, 3], null_mask)
        assert metrics.fdp == 0.75
        assert metrics.power == 1.0

    def test_all_null_power_is_zero(self):
        metrics = fdp_and_power([0], np.array([True, True]))
        assert metrics.fdp == 1.0
        assert metrics.power == 0.0

    def test_out_of_range_index(self):
        with pytest.raises(ValueError, match="out of range"):
            fdp_and_power([5], np.array([True, False]))


class TestSimConfig:
    def test_defaults_are_valid(self):
        config = SimConfig()
        assert config.n_alternatives == 50

    def test_mirror_alt_sentinel(self):
        config = SimConfig(q_synth_null=MIRROR_ALT)
        assert config.q_synth_null == "mirror-alt"

    def test_unknown_sentinel_rejected(self):
        with pytest.raises(ValueError, match="mirror-alt"):
            SimConfig(q_synth_null="hostile")

    def test_bad_probability(self):
        with pytest.raises(ValueError, match="q_alt"):
            SimConfig(q_alt=1.5)

    def test_levels_must_leave_headroom(self):
        with pytest.raises(ValueError, match="alpha \\+ epsilon"):
            SimConfig(alpha=0.6, epsilon=0.5)

    def test_counts_positive(self):
        with pytest.raises(ValueError, match="trials"):
            SimConfig(trials=0)

    @pytest.mark.parametrize("config_class, name", [
        (SimConfig, "trials"), (SimConfig, "m"), (OutlierConfig, "n"),
        (OutlierConfig, "n_synth"), (OutlierConfig, "trials")])
    def test_counts_fit_int64(self, config_class, name):
        # Only checked, never allocated: building a config draws nothing.
        assert getattr(config_class(**{name: simulate.MAX_COUNT}), name) == 2**63 - 1
        for value in (2**63, 10**30):
            with pytest.raises(ValueError, match=f"^{name} must be <= {2**63 - 1}, got {value}$"):
                config_class(**{name: value})

    def test_seed_is_not_bounded(self):
        assert SimConfig(seed=10**30).seed == OutlierConfig(seed=10**30).seed == 10**30


class TestBernoulliExperiment:
    SMALL = dict(n_real=40, n_synth=80, m=60, trials=8)

    def test_same_seed_same_metrics(self):
        a = run_bernoulli_experiment(SimConfig(seed=3, **self.SMALL))
        b = run_bernoulli_experiment(SimConfig(seed=3, **self.SMALL))
        assert a.per_trial == b.per_trial

    @pytest.mark.parametrize("block", [1, 60, 180, 10**6])
    def test_block_boundaries_do_not_change_results(self, monkeypatch, block):
        config = SimConfig(seed=4, **self.SMALL)
        default = run_bernoulli_experiment(config)
        monkeypatch.setattr(simulate, "BLOCK_HYPOTHESES", block)
        assert run_bernoulli_experiment(config).per_trial == default.per_trial

    def test_reports_all_methods(self):
        result = run_bernoulli_experiment(SimConfig(seed=5, **self.SMALL))
        assert result.method_names == ("BH-real", "BH-real+eps", "BH-synth", "SynthBH")
        for name in result.method_names:
            rows = result.trial_metrics(name)
            assert len(rows) == 8
            for row in rows:
                assert 0 <= row.fdp <= 1
                assert 0 <= row.power <= 1

    def test_all_null_config(self):
        result = run_bernoulli_experiment(
            SimConfig(frac_alt=0.0, n_real=30, n_synth=50, m=40, trials=6, seed=6)
        )
        for row in result.trial_metrics("SynthBH"):
            assert row.power == 0.0

    def test_hostile_auxiliary_inflates_unguarded_method(self):
        benign = run_bernoulli_experiment(SimConfig(seed=7, trials=20, m=200))
        hostile = run_bernoulli_experiment(
            SimConfig(seed=7, trials=20, m=200, q_synth_null=MIRROR_ALT)
        )
        fdp = lambda res, name: np.mean([r.fdp for r in res.trial_metrics(name)])
        assert fdp(hostile, "BH-synth") > fdp(benign, "BH-synth") + 0.3
        assert fdp(hostile, "SynthBH") < 0.25

    def test_summaries_shape(self):
        result = run_bernoulli_experiment(SimConfig(seed=8, **self.SMALL))
        summaries = result.summaries()
        assert [s.method for s in summaries] == list(result.method_names)
        for s in summaries:
            assert s.trials == 8
            assert 0 <= s.mean_fdp <= 1
            assert s.se_fdp >= 0


class TestOutlierExperiment:
    def test_metrics_well_formed(self):
        result = run_outlier_experiment(
            OutlierConfig(n=60, n_synth=120, m=80, trials=5, seed=9)
        )
        for name in result.method_names:
            for row in result.trial_metrics(name):
                assert 0 <= row.fdp <= 1
                assert 0 <= row.power <= 1

    def test_no_auxiliary_matches_reference_only_method(self):
        result = run_outlier_experiment(OutlierConfig(
            n=50, n_synth=0, m=40, trials=6, seed=10, contamination_frac=0.0, rho=0.0
        ))
        assert result.trial_metrics("SynthBH") == result.trial_metrics("BH-real")
        assert result.trial_metrics("BH-synth") == result.trial_metrics("BH-real")

    def test_same_seed_same_metrics(self):
        config = OutlierConfig(n=50, n_synth=100, m=60, trials=5, seed=11)
        a = run_outlier_experiment(config)
        b = run_outlier_experiment(config)
        assert a.per_trial == b.per_trial

    def test_invalid_rho(self):
        with pytest.raises(ValueError, match="rho"):
            run_outlier_experiment(OutlierConfig(rho=1.0, trials=1))

    def test_invalid_contamination(self):
        with pytest.raises(ValueError, match="contamination_frac"):
            run_outlier_experiment(OutlierConfig(contamination_frac=-0.2, trials=1))

    def test_pvalues_computed_once_per_trial(self, monkeypatch):
        # One p-value stage per trial, which counts over each score set once.
        # Only the trimmed auxiliary scores are checked: the trial's own
        # draws go to the p-value stage without a ScoreBundle.
        calls = []
        for module, name in ((simulate, "_outlier_pvalues"), (conformal, "_outlier_pvalues"),
                             (conformal, "_count_at_least"), (conformal, "_as_score_vector")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        run_outlier_experiment(OutlierConfig(n=30, n_synth=60, m=20, trials=3, seed=12))
        assert sorted(calls) == (["_as_score_vector"] * 3 + ["_count_at_least"] * 6
                                 + ["_outlier_pvalues"] * 3)


def oracle_metrics(draws, alpha, epsilon):
    """Per-trial metrics from separate bh, synth_bh and fdp_and_power calls."""
    per_trial = {name: [] for name in simulate.METHOD_NAMES}
    guarded = StepUpConfig(alpha=alpha, epsilon=epsilon, mode="fast")
    for p_real, p_pooled, null_mask in draws:
        runs = {
            "BH-real": bh(p_real, alpha),
            "BH-real+eps": bh(p_real, alpha + epsilon),
            "BH-synth": bh(p_pooled, alpha),
            "SynthBH": synth_bh(np.column_stack((p_real, p_pooled)), guarded),
        }
        for name, run in runs.items():
            per_trial[name].append(fdp_and_power(run.rejected, null_mask))
    return {name: tuple(rows) for name, rows in per_trial.items()}


def stacked_metrics(draws, alpha, epsilon):
    blocks = simulate._run_trials(draws.__getitem__, len(draws))
    return simulate._score_trials(blocks, len(draws), [(alpha, epsilon)])[0].per_trial


def crafted_draws(rng, trials, m, levels):
    """Trials whose p-values sit on thresholds, tie, or reject all or nothing."""
    ranks = np.arange(1.0, m + 1.0)
    grid = np.concatenate([level * ranks / m for level in levels] + [[0.0, 0.5, 1.0]])
    draws = []
    for _ in range(trials):
        kind = int(rng.integers(5))
        if kind == 0:
            p_real, p_pooled = np.zeros(m), np.zeros(m)
        elif kind == 1:
            p_real, p_pooled = np.ones(m), np.full(m, 0.9)
        elif kind == 2:
            p_real, p_pooled = np.full(m, 0.04), np.full(m, float(rng.random()))
        elif kind == 3:
            p_real, p_pooled = rng.choice(grid, m), rng.choice(grid, m)
            p_pooled = np.nextafter(p_pooled, rng.choice([0.0, 1.0], m))
            p_pooled = np.clip(p_pooled, 0.0, 1.0)
        else:
            p_real, p_pooled = rng.random(m) ** 3, rng.random(m) ** 3
        draws.append((p_real, p_pooled, rng.random(m) < 0.7))
    return draws


class TestStackedScoring:
    """Stacked scoring against separate step-up calls per trial."""

    @pytest.mark.parametrize("trials", [1, 3, 4, 5, 9])
    @pytest.mark.parametrize("m", [1, 7, 4096])
    @pytest.mark.parametrize("alpha,epsilon", [(0.1, 0.1), (0.2, 0.0), (0.5, 0.4999999)])
    def test_crafted_trials_match_oracle(self, trials, m, alpha, epsilon):
        rng = np.random.default_rng([trials, m])
        draws = crafted_draws(rng, trials, m, (alpha, alpha + epsilon))
        assert stacked_metrics(draws, alpha, epsilon) == oracle_metrics(draws, alpha, epsilon)

    @pytest.mark.parametrize("trials", [1, 3, 4, 5])
    @pytest.mark.parametrize("extra", [
        {"m": 4096},
        {"m": 1},
        {"m": 50, "q_synth_null": MIRROR_ALT},
        {"m": 40, "frac_alt": 1.0, "q_alt": 1.0},
        {"m": 40, "alpha": 0.3, "epsilon": 0.6999},
    ])
    def test_bernoulli_matches_oracle(self, trials, extra):
        config = SimConfig(n_real=30, n_synth=60, trials=trials, seed=13, **extra)
        draws = [simulate._bernoulli_trial(config, t) for t in range(trials)]
        result = run_bernoulli_experiment(config)
        assert result.per_trial == oracle_metrics(draws, config.alpha, config.epsilon)

    def test_outlier_experiment_matches_oracle(self):
        config = OutlierConfig(n=40, n_synth=80, m=30, outlier_frac=0.1,
                               contamination_frac=0.1, rho=0.05, seed=14, mu_out=3.0,
                               trials=6, alpha=0.2, epsilon=0.1)
        draws = [simulate._outlier_trial(config, t) for t in range(6)]
        result = run_outlier_experiment(config)
        assert result.per_trial == oracle_metrics(draws, 0.2, 0.1)

    def test_block_size_follows_m(self):
        sizes = lambda m, trials: [
            block[0].shape for block in simulate._run_trials(
                lambda t: (np.zeros(m), np.zeros(m), np.ones(m, dtype=bool)), trials)
        ]
        assert sizes(4096, 9) == [(4, 4096), (4, 4096), (1, 4096)]
        assert sizes(20000, 2) == [(1, 20000), (1, 20000)]
        assert sizes(1000, 16) == [(16, 1000)]

    def test_out_of_range_pvalue_rejected(self):
        draws = [(np.array([0.1, 1.5]), np.array([0.1, 0.2]), np.ones(2, dtype=bool))]
        with pytest.raises(ValueError, match="p_real"):
            stacked_metrics(draws, 0.1, 0.1)
        draws = [(np.array([0.1, 0.5]), np.array([np.nan, 0.2]), np.ones(2, dtype=bool))]
        with pytest.raises(ValueError, match="p_pooled"):
            stacked_metrics(draws, 0.1, 0.1)

    @pytest.mark.parametrize("alpha,epsilon", [(0.6, 0.5), (0.1, -0.1), (0.0, 0.1)])
    def test_levels_checked(self, alpha, epsilon):
        draws = [(np.array([0.1]), np.array([0.1]), np.ones(1, dtype=bool))]
        with pytest.raises(ValueError):
            stacked_metrics(draws, alpha, epsilon)


def oracle_summaries(per_trial):
    """Summaries reduced from TrialMetrics objects, one array per metric."""
    def standard_error(values):
        return 0.0 if values.size < 2 else float(values.std(ddof=1) / math.sqrt(values.size))

    out = []
    for name, rows in per_trial.items():
        fdp = np.array([r.fdp for r in rows])
        power = np.array([r.power for r in rows])
        rej = np.array([r.rejections for r in rows], dtype=np.float64)
        out.append(MethodSummary(name, len(rows), float(fdp.mean()), standard_error(fdp),
                                 float(power.mean()), standard_error(power),
                                 float(rej.mean())))
    return out


def bits(summaries):
    return [[v.hex() if isinstance(v, float) else v for v in vars(s).values()]
            for s in summaries]


class TestResultArrays:
    """ExperimentResult holds (methods, trials) arrays; summaries reduce them."""

    CONFIGS = [
        SimConfig(n_real=30, n_synth=60, m=50, trials=10, seed=15),
        OutlierConfig(n=40, n_synth=80, m=50, trials=10, seed=16, outlier_frac=0.2),
    ]
    LEVELS = [(0.05, 0.1), (0.1, 0.1), (0.2, 0.0), (0.2, 0.3)]

    @pytest.mark.parametrize("config", CONFIGS, ids=["bernoulli", "outlier"])
    def test_arrays_are_read_only_method_rows(self, config):
        result = next(run_experiments([config]))
        for name, dtype in (("fdp", np.float64), ("power", np.float64),
                            ("rejections", np.int64)):
            values = getattr(result, name)
            assert (values.shape, values.dtype) == ((4, 10), dtype)
            with pytest.raises(ValueError, match="read-only"):
                values[0, 0] = 1
        for row, name in enumerate(result.method_names):
            assert result.trial_metrics(name) == tuple(map(
                TrialMetrics, result.fdp[row], result.power[row], result.rejections[row]))

    @pytest.mark.parametrize("config", CONFIGS, ids=["bernoulli", "outlier"])
    def test_level_sweep_summaries_match_oracle_bits(self, monkeypatch, config):
        # Three trials a block, so that each block writes at an offset and
        # the last block is short.
        monkeypatch.setattr(simulate, "BLOCK_HYPOTHESES", 3 * config.m)
        trial = simulate._TRIALS[type(config)]
        draws = [trial(config, t) for t in range(config.trials)]
        configs = [dataclasses.replace(config, alpha=a, epsilon=e) for a, e in self.LEVELS]
        results = list(run_experiments(configs))
        assert len(results) == len(self.LEVELS)
        for (alpha, epsilon), result in zip(self.LEVELS, results):
            want = oracle_metrics(draws, alpha, epsilon)
            assert result.per_trial == want
            assert bits(result.summaries()) == bits(oracle_summaries(want))
            assert result == next(run_experiments([dataclasses.replace(
                config, alpha=alpha, epsilon=epsilon)]))

    def test_equality_compares_every_array(self):
        result = next(run_experiments([self.CONFIGS[0]]))
        for name in ("fdp", "power", "rejections"):
            values = getattr(result, name).copy()
            values[3, 9] += 1
            assert dataclasses.replace(result, **{name: values}) != result
        assert dataclasses.replace(result, method_names=result.method_names[::-1]) != result

    @pytest.mark.parametrize("config", CONFIGS, ids=["bernoulli", "outlier"])
    def test_trial_metrics_builds_only_its_method(self, monkeypatch, config):
        result = next(run_experiments([config]))
        want = result.per_trial
        built = []

        def counted(*args):
            built.append(args)
            return TrialMetrics(*args)

        monkeypatch.setattr(simulate, "TrialMetrics", counted)
        for name in result.method_names:
            built.clear()
            got = result.trial_metrics(name)
            assert len(built) == config.trials
            assert got == want[name]
            assert [tuple(map(type, dataclasses.astuple(row))) for row in got] == \
                [(float, float, int)] * config.trials
        with pytest.raises(KeyError):
            result.trial_metrics("BH")
