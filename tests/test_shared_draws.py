"""Sweep points that differ only in alpha or epsilon share one draw per trial."""

from __future__ import annotations

import re

import numpy as np
import pytest

from synthbh import (
    MIRROR_ALT,
    OutlierConfig,
    SimConfig,
    randomized_binomial_pvalues,
    run_bernoulli_experiment,
    run_outlier_experiment,
)
from synthbh import cli, simulate
from synthbh.simulate import run_experiments

# Sizes at which SynthBH rejects more as epsilon grows, so that a scan
# scored at the wrong level shows.
SMALL = {SimConfig: dict(n_real=30, n_synth=300, m=40, frac_alt=0.3, q_alt=0.7,
                         q_synth_alt=0.7, trials=5, seed=21),
         OutlierConfig: dict(n=40, n_synth=400, m=40, outlier_frac=0.3,
                             contamination_frac=0.0, trials=5, seed=21)}
RUN = {SimConfig: run_bernoulli_experiment, OutlierConfig: run_outlier_experiment}


@pytest.fixture
def draws(monkeypatch):
    """Count the calls of each experiment's trial function."""
    calls = []
    for config_class, trial in list(simulate._TRIALS.items()):
        def counted(config, t, _trial=trial):
            calls.append((config, t))
            return _trial(config, t)

        monkeypatch.setitem(simulate._TRIALS, config_class, counted)
    return calls


@pytest.mark.parametrize("config_class", [SimConfig, OutlierConfig])
class TestDrawsAreShared:
    @pytest.mark.parametrize("param", ["alpha", "epsilon"])
    def test_level_sweep_draws_each_trial_once(self, draws, config_class, param):
        configs = [config_class(**SMALL[config_class], **{param: v}) for v in (0.05, 0.1, 0.2)]
        assert len(list(run_experiments(configs))) == 3
        assert [t for _, t in draws] == list(range(5))

    def test_other_sweep_draws_each_point(self, draws, config_class):
        base = SMALL[config_class]
        configs = [config_class(**{**base, "n_synth": base["n_synth"] + k}) for k in (0, 20)]
        assert len(list(run_experiments(configs))) == 2
        assert [t for _, t in draws] == list(range(5)) * 2

    def test_draws_do_not_outlive_a_call(self, draws, config_class):
        configs = [config_class(**SMALL[config_class], alpha=a) for a in (0.1, 0.2)]
        first = list(run_experiments(configs))
        assert list(run_experiments(configs)) == first
        assert len(draws) == 2 * 5

    def test_each_result_equals_its_own_run(self, config_class):
        base = SMALL[config_class]
        configs = [
            # A level run, where 0.1 + 0.1 of the first point is the second's alpha.
            config_class(**base, alpha=0.1, epsilon=0.1),
            config_class(**base, alpha=0.2, epsilon=0.1),
            config_class(**base, alpha=0.2, epsilon=0.0),
            # A change that is not a level, then a level pair on it.
            config_class(**{**base, "m": 30}, alpha=0.1, epsilon=0.2),
            config_class(**{**base, "m": 30}, alpha=0.3, epsilon=0.05),
            config_class(**base, alpha=0.05, epsilon=0.1),
        ]
        results = list(run_experiments(configs))
        assert results == [RUN[config_class](c) for c in configs]
        synth = [r.trial_metrics("SynthBH") for r in results]
        assert synth[0] != synth[1] != synth[2]


def test_runtime_error_names_its_point(monkeypatch, tmp_path, capsys):
    bernoulli = simulate._TRIALS[SimConfig]

    def failing(config, trial):
        if config.n_synth == 400:
            raise ValueError("boom")
        return bernoulli(config, trial)

    monkeypatch.setitem(simulate._TRIALS, SimConfig, failing)
    argv = ["simulate", "--trials", "2", "--m", "20", "--seed", "3",
            "--output", str(tmp_path / "x.csv")]
    assert cli.main(argv + ["--sweep", "n_synth=200:600:200"]) == 2
    assert capsys.readouterr().err == "error: sweep n_synth=400: boom\n"
    assert cli.main(argv + ["--n-synth", "400", "--sweep", "epsilon=0.05,0.1"]) == 2
    assert capsys.readouterr().err == "error: sweep epsilon=0.05: boom\n"
    assert cli.main(argv + ["--sweep", "n_synth=100,200,400"]) == 2
    assert capsys.readouterr().err == "error: sweep n_synth=400: boom\n"


def per_element_trial(config: SimConfig, trial: int):
    """The Bernoulli trial drawn with one per-element probability array per sample."""
    rng = np.random.default_rng([config.seed, trial])
    m, m_alt = config.m, config.n_alternatives
    q_real = np.full(m, 0.5)
    q_real[:m_alt] = config.q_alt
    synth_null = (config.q_synth_alt if config.q_synth_null == MIRROR_ALT
                  else config.q_synth_null)
    q_synth = np.full(m, synth_null)
    q_synth[:m_alt] = config.q_synth_alt
    x_real = rng.binomial(config.n_real, q_real)
    x_synth = rng.binomial(config.n_synth, q_synth)
    u_real = rng.random(m)
    u_pooled = rng.random(m)
    p_real = randomized_binomial_pvalues(x_real, config.n_real, u_real)
    p_pooled = randomized_binomial_pvalues(
        x_real + x_synth, config.n_real + config.n_synth, u_pooled)
    null_mask = np.ones(m, dtype=bool)
    null_mask[:m_alt] = False
    return p_real, p_pooled, null_mask


@pytest.mark.parametrize("extra", [
    {}, {"frac_alt": 0.0}, {"frac_alt": 1.0}, {"q_alt": 0.0}, {"q_alt": 1.0},
    {"q_synth_null": 0.0}, {"q_synth_null": 1.0}, {"q_synth_null": MIRROR_ALT},
    {"m": 1}, {"m": 1, "frac_alt": 1.0}, {"n_real": 700, "n_synth": 1300},
    {"frac_alt": 0.3, "q_alt": 0.9, "q_synth_alt": 0.2, "q_synth_null": 0.7},
], ids=repr)
@pytest.mark.parametrize("seed", [0, 17])
def test_segmented_draws_equal_per_element_draws(extra, seed):
    config = SimConfig(**{"n_real": 50, "n_synth": 90, "m": 37, "seed": seed, **extra})
    for trial in range(4):
        got = simulate._bernoulli_trial(config, trial)
        want = per_element_trial(config, trial)
        for a, b in zip(got, want):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


U_MESSAGE = "u must lie in [0, 1]"


@pytest.mark.parametrize("u", [np.nan, np.inf, -np.inf, -1e-300, -5e-324, -0.5,
                               np.nextafter(1.0, 2.0), 1.5])
def test_bad_u_keeps_its_message(u):
    for values in ([u], [0.5, u, 0.25], [u, np.nan]):
        with pytest.raises(ValueError, match=f"^{re.escape(U_MESSAGE)}$"):
            randomized_binomial_pvalues(np.ones(len(values), dtype=np.int64), 4, values)


@pytest.mark.parametrize("successes, message", [
    ([5], "successes must lie in [0, 4]"),
    ([-1], "successes must lie in [0, 4]"),
    ([0, 4, 9], "successes must lie in [0, 4]"),
    ([1.0], "successes must be integers"),
    ([True], "successes must be integers"),
])
def test_bad_successes_keep_their_message(successes, message):
    # Successes are checked before u, which is bad here too.
    for u in ([0.5] * len(successes), [np.nan] * len(successes)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            randomized_binomial_pvalues(np.array(successes), 4, u)


def test_edge_values_accepted():
    p = randomized_binomial_pvalues(np.array([0, 4]), 4, np.array([-0.0, 1.0]))
    assert p.tolist() == [15 / 16, 1 / 16]
    assert randomized_binomial_pvalues(np.array([], dtype=np.int64), 4, []).size == 0
