"""Tests for the step-up engine, checked against a from-scratch oracle.

The reference implementations below use only Python builtins and exact
rationals, with cross-multiplied threshold comparisons (no division), so
they share no code path or rounding behavior with the package.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from synthbh import (
    PValuePair,
    StepUpConfig,
    bh,
    synth_bh,
    weighted_synth_bh,
)
from synthbh import stepup
from synthbh.stepup import stepup_rows


def reference_bh(pvalues, alpha):
    """Plain step-up by exhaustive scan: k*, the rejected index set, the values."""
    m = len(pvalues)
    ordered = sorted(pvalues)
    k_star = 0
    for k in range(1, m + 1):
        if ordered[k - 1] * m <= alpha * k:
            k_star = k
    if k_star == 0:
        return 0, set(), list(pvalues)
    cutoff = ordered[k_star - 1]
    return k_star, {j for j, p in enumerate(pvalues) if p <= cutoff}, list(pvalues)


def reference_guarded(pairs, alpha, eps, weights=None):
    """Rank-adaptive guarded step-up by exhaustive per-rank recomputation."""
    m = len(pairs)
    if weights is None:
        weights = [Fraction(1)] * m
    k_star = 0
    for k in range(1, m + 1):
        mod = sorted(
            min(p, max(q, p - Fraction(k) * w * eps / m))
            for (p, q), w in zip(pairs, weights)
        )
        if mod[k - 1] * m <= alpha * k:
            k_star = k
    mod_final = [
        min(p, max(q, p - Fraction(k_star) * w * eps / m))
        for (p, q), w in zip(pairs, weights)
    ]
    if k_star == 0:
        return 0, set(), mod_final
    cutoff = sorted(mod_final)[k_star - 1]
    return k_star, {j for j, v in enumerate(mod_final) if v <= cutoff}, mod_final


def reference_static(pairs, alpha, eps, weights=None):
    """Fast mode's values v_j = min(p, max(q, p * alpha / (alpha + w_j * eps)))."""
    if weights is None:
        weights = [Fraction(1)] * len(pairs)
    return [min(p, max(q, p * alpha / (alpha + w * eps))) for (p, q), w in zip(pairs, weights)]


def assert_exact_result(result, reference, alpha, modified=None):
    """Compare k*, rejections, Fraction values and threshold with a reference.

    ``modified`` overrides the reference's values (fast mode reports the
    static ``v_j`` rather than the guard-k* values).
    """
    k_star, rejected, values = reference
    m = len(values)
    assert result.k_star == k_star
    assert result.rejected.tolist() == sorted(rejected)
    assert all(type(v) is Fraction for v in result.modified_pvalues)
    assert result.modified_pvalues == (values if modified is None else modified)
    assert type(result.threshold_used) is Fraction
    assert result.threshold_used == (alpha * k_star / m if k_star else 0)


def random_exact_instance(rng, max_m=60):
    m = int(rng.integers(1, max_m + 1))
    grid = rng.integers(0, 1001, size=(m, 2))
    pairs = [(Fraction(int(a), 1000), Fraction(int(b), 1000)) for a, b in grid]
    alpha = Fraction(int(rng.integers(1, 31)), 100)
    eps = Fraction(int(rng.integers(1, 31)), 100)
    return pairs, alpha, eps


def random_wide_instance(rng, max_m=25):
    """Denominators in [2**31, 2**32): their common multiple leaves int64."""
    m = int(rng.integers(1, max_m + 1))
    dens = rng.integers(2**31, 2**32, size=(m, 2)).tolist()
    pairs = [tuple(Fraction(int(rng.integers(0, d + 1)), d) for d in row) for row in dens]
    # Some p-values sit low enough that rejections happen.
    for j in np.nonzero(rng.random(m) < 0.3)[0].tolist():
        pairs[j] = (pairs[j][0] / 50, pairs[j][1] / 50)
    alpha = Fraction(int(rng.integers(1, 31)), 100)
    eps = Fraction(int(rng.integers(1, 31)), 100)
    return pairs, alpha, eps


def random_weights(rng, m):
    """Exact weights summing to m, some of them zero."""
    raw = [int(v) for v in rng.integers(0, 11, m)]
    if sum(raw) == 0:
        raw[0] = 1
    return [Fraction(r * m, sum(raw)) for r in raw]


class TestBh:
    def test_basic_example(self):
        result = bh([0.01, 0.02, 0.5], 0.1)
        assert result.k_star == 2
        assert list(result.rejected) == [0, 1]
        assert result.threshold_used == pytest.approx(0.1 * 2 / 3)

    def test_nothing_rejected(self):
        result = bh([1.0, 1.0, 1.0], 0.1)
        assert result.k_star == 0
        assert result.rejected.size == 0
        assert result.threshold_used == 0.0

    def test_all_zero_rejects_everything(self):
        result = bh([0.0, 0.0, 0.0], 0.05)
        assert result.k_star == 3
        assert list(result.rejected) == [0, 1, 2]

    def test_modified_pvalues_echo_input(self):
        p = [0.3, 0.01, 0.2]
        result = bh(p, 0.1)
        assert np.array_equal(result.modified_pvalues, np.array(p))

    def test_rejection_mask(self):
        result = bh([0.01, 0.02, 0.5], 0.1)
        assert list(result.rejection_mask()) == [True, True, False]

    def test_matches_reference_on_fuzz(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            m = int(rng.integers(1, 40))
            vals = [Fraction(int(v), 1000) for v in rng.integers(0, 1001, m)]
            alpha = Fraction(int(rng.integers(1, 31)), 100)
            result = bh(vals, alpha)
            assert_exact_result(result, reference_bh(vals, alpha), alpha)
            assert len(result.rejected) == result.k_star

    def test_wide_denominators_match_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            pairs, alpha, _ = random_wide_instance(rng)
            vals = [p for p, _ in pairs]
            assert_exact_result(bh(vals, alpha), reference_bh(vals, alpha), alpha)

    def test_modified_pvalues_reuse_exact_inputs(self):
        vals = [Fraction(1, 100), Fraction(1, 2), 0.25]
        result = bh(vals, Fraction(1, 10))
        assert result.modified_pvalues[0] is vals[0]
        assert result.modified_pvalues[1] is vals[1]
        assert result.modified_pvalues[2] == Fraction(1, 4)

    def test_float_matches_reference_on_grid(self):
        # Grid p-values are exactly representable enough that float BH
        # agrees with the rational reference away from constructed
        # boundary cases.
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = int(rng.integers(1, 40))
            ints = rng.integers(0, 1001, m)
            vals = ints / 1000.0
            ref_k, ref_set, _ = reference_bh(
                [Fraction(int(v), 1000) for v in ints], Fraction(7, 100)
            )
            result = bh(vals, 0.07)
            assert result.k_star == ref_k
            assert set(result.rejected.tolist()) == ref_set

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, float("nan")])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(ValueError):
            bh([0.5], alpha)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            bh([], 0.1)

    def test_nan_pvalue(self):
        with pytest.raises(ValueError):
            bh([0.1, float("nan")], 0.1)

    def test_out_of_range_pvalue_names_index(self):
        with pytest.raises(ValueError, match=r"\[1\]"):
            bh([0.1, 1.2], 0.1)

    @pytest.mark.parametrize("bad", [Fraction(3, 2), Fraction(-1, 3), -0.5, 1.5])
    def test_exact_out_of_range_pvalue_names_index(self, bad):
        with pytest.raises(ValueError, match=r"pvalues\[2\]=.* outside \[0, 1\]"):
            bh([Fraction(1, 2), Fraction(1), bad], Fraction(1, 10))
        pairs = [(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 5), bad)]
        with pytest.raises(ValueError, match=r"p_pooled\[1\]=.* outside \[0, 1\]"):
            synth_bh(pairs, StepUpConfig(alpha=Fraction(1, 10), epsilon=Fraction(1, 10)))


class TestSynthBh:
    CONFIG = dict(alpha=0.1, epsilon=0.1)

    def test_naive_example(self):
        result = synth_bh(
            [(0.08, 0.01), (0.9, 0.9)], StepUpConfig(mode="naive", **self.CONFIG)
        )
        assert result.k_star == 1
        assert list(result.rejected) == [0]
        assert np.allclose(result.modified_pvalues, [0.03, 0.9])

    def test_fast_example(self):
        result = synth_bh(
            [(0.08, 0.01), (0.9, 0.9)], StepUpConfig(mode="fast", **self.CONFIG)
        )
        assert result.k_star == 1
        assert list(result.rejected) == [0]
        assert np.allclose(result.modified_pvalues, [0.04, 0.9])

    def test_accepts_pvalue_pairs(self):
        pairs = [PValuePair(0.08, 0.01), PValuePair(0.9, 0.9)]
        result = synth_bh(pairs, StepUpConfig(**self.CONFIG))
        assert result.k_star == 1

    def test_epsilon_zero_is_plain_stepup(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            m = int(rng.integers(1, 50))
            pairs = rng.random((m, 2))
            guarded = synth_bh(pairs, StepUpConfig(alpha=0.1, epsilon=0.0))
            plain = bh(pairs[:, 0], 0.1)
            assert guarded.k_star == plain.k_star
            assert np.array_equal(guarded.rejected, plain.rejected)
            assert np.array_equal(guarded.modified_pvalues, plain.modified_pvalues)

    def test_pooled_above_real_is_plain_stepup(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            m = int(rng.integers(1, 50))
            p = rng.random(m)
            q = p + (1 - p) * rng.random(m)
            guarded = synth_bh(
                np.column_stack((p, q)), StepUpConfig(alpha=0.1, epsilon=0.25)
            )
            plain = bh(p, 0.1)
            assert guarded.k_star == plain.k_star
            assert np.array_equal(guarded.rejected, plain.rejected)

    def test_naive_fast_and_reference_agree_exactly(self):
        rng = np.random.default_rng(14)
        for _ in range(150):
            pairs, alpha, eps = random_exact_instance(rng)
            ref = reference_guarded(pairs, alpha, eps)
            naive = synth_bh(pairs, StepUpConfig(alpha=alpha, epsilon=eps, mode="naive"))
            fast = synth_bh(pairs, StepUpConfig(alpha=alpha, epsilon=eps, mode="fast"))
            assert_exact_result(naive, ref, alpha)
            assert_exact_result(fast, ref, alpha, reference_static(pairs, alpha, eps))
            assert len(fast.rejected) == ref[0]

    def test_wide_denominators_match_reference(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            pairs, alpha, eps = random_wide_instance(rng)
            ref = reference_guarded(pairs, alpha, eps)
            for mode in ("naive", "fast"):
                result = synth_bh(pairs, StepUpConfig(alpha=alpha, epsilon=eps, mode=mode))
                static = reference_static(pairs, alpha, eps) if mode == "fast" else None
                assert_exact_result(result, ref, alpha, static)

    @pytest.mark.parametrize("mode", ["naive", "fast"])
    def test_modified_pvalues_reuse_exact_inputs(self, mode):
        pairs = [
            (Fraction(1, 100), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(49, 100)),
            (Fraction(1, 2), Fraction(1, 100)),
        ]
        config = StepUpConfig(alpha=Fraction(1, 10), epsilon=Fraction(1, 10), mode=mode)
        result = synth_bh(pairs, config)
        assert result.modified_pvalues[0] is pairs[0][0]
        assert result.modified_pvalues[1] is pairs[1][1]
        assert result.modified_pvalues[2] < pairs[2][0]

    def test_huge_denominators_run_on_python_ints(self):
        # Denominators chosen so no int64 common scale exists.
        primes = [999999937, 999999893, 999999883]
        pairs = [
            (Fraction(1, primes[0]), Fraction(1, primes[1])),
            (Fraction(1, 3), Fraction(1, primes[2])),
            (Fraction(2, 3), Fraction(1, 2)),
        ]
        alpha, eps = Fraction(1, 7), Fraction(1, 11)
        ref = reference_guarded(pairs, alpha, eps)
        for mode in ("naive", "fast"):
            result = synth_bh(pairs, StepUpConfig(alpha=alpha, epsilon=eps, mode=mode))
            static = reference_static(pairs, alpha, eps) if mode == "fast" else None
            assert_exact_result(result, ref, alpha, static)

    def test_float_modes_agree_on_random_instances(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            m = int(rng.integers(1, 60))
            pairs = rng.random((m, 2))
            naive = synth_bh(pairs, StepUpConfig(alpha=0.1, epsilon=0.1, mode="naive"))
            fast = synth_bh(pairs, StepUpConfig(alpha=0.1, epsilon=0.1, mode="fast"))
            assert naive.k_star == fast.k_star
            assert np.array_equal(naive.rejected, fast.rejected)

    def test_weights_rejected(self):
        with pytest.raises(ValueError, match="weighted_synth_bh"):
            synth_bh(
                [(0.1, 0.1)],
                StepUpConfig(alpha=0.1, epsilon=0.1, weights=[1.0]),
            )

    def test_malformed_pairs(self):
        with pytest.raises(ValueError):
            synth_bh(np.zeros((2, 3)), StepUpConfig(alpha=0.1))
        with pytest.raises(ValueError):
            synth_bh([], StepUpConfig(alpha=0.1))


class TestWeightedSynthBh:
    def test_hand_example(self):
        pairs = [(0.12, 0.01), (0.5, 0.01)]
        config = StepUpConfig(alpha=0.1, epsilon=0.1, weights=[2.0, 0.0])
        result = weighted_synth_bh(pairs, config)
        assert result.k_star == 1
        assert list(result.rejected) == [0]
        assert np.allclose(result.modified_pvalues, [0.04, 0.5])

    def test_uniform_weights_match_unweighted_bitwise(self):
        rng = np.random.default_rng(16)
        for mode in ("naive", "fast"):
            for _ in range(100):
                m = int(rng.integers(1, 50))
                pairs = rng.random((m, 2))
                alpha = float(rng.uniform(0.01, 0.3))
                eps = float(rng.uniform(0.0, 0.3))
                weighted = weighted_synth_bh(
                    pairs,
                    StepUpConfig(alpha=alpha, epsilon=eps, weights=np.ones(m), mode=mode),
                )
                plain = synth_bh(
                    pairs, StepUpConfig(alpha=alpha, epsilon=eps, mode=mode)
                )
                assert weighted.k_star == plain.k_star
                assert np.array_equal(weighted.rejected, plain.rejected)
                assert np.array_equal(
                    weighted.modified_pvalues, plain.modified_pvalues
                )

    def test_epsilon_zero_is_plain_stepup(self):
        rng = np.random.default_rng(17)
        m = 30
        w = rng.random(m)
        w *= m / w.sum()
        pairs = rng.random((m, 2))
        result = weighted_synth_bh(
            pairs, StepUpConfig(alpha=0.1, epsilon=0.0, weights=w)
        )
        plain = bh(pairs[:, 0], 0.1)
        assert result.k_star == plain.k_star
        assert np.array_equal(result.rejected, plain.rejected)

    def test_matches_reference_exactly(self):
        rng = np.random.default_rng(18)
        for mode in ("naive", "fast"):
            for _ in range(75):
                pairs, alpha, eps = random_exact_instance(rng, max_m=30)
                weights = random_weights(rng, len(pairs))
                result = weighted_synth_bh(
                    pairs,
                    StepUpConfig(alpha=alpha, epsilon=eps, weights=weights, mode=mode),
                )
                static = (
                    reference_static(pairs, alpha, eps, weights) if mode == "fast" else None
                )
                assert_exact_result(
                    result, reference_guarded(pairs, alpha, eps, weights), alpha, static
                )

    def test_wide_denominators_match_reference(self):
        rng = np.random.default_rng(23)
        for mode in ("naive", "fast"):
            for _ in range(30):
                pairs, alpha, eps = random_wide_instance(rng)
                weights = random_weights(rng, len(pairs))
                result = weighted_synth_bh(
                    pairs,
                    StepUpConfig(alpha=alpha, epsilon=eps, weights=weights, mode=mode),
                )
                static = (
                    reference_static(pairs, alpha, eps, weights) if mode == "fast" else None
                )
                assert_exact_result(
                    result, reference_guarded(pairs, alpha, eps, weights), alpha, static
                )

    def test_cancelling_weight_denominators_stay_on_int64(self, monkeypatch):
        # epsilon's numerator cancels the weights' common denominator d, so
        # the naive guard units w_j*eps/m have denominators near 2**42.  Not
        # reduced, they would carry d as well, and the scale would leave int64.
        d = 2**40 + 15
        alpha, eps = Fraction(1, 10), Fraction(d, 2 * d + 1)
        weights = [Fraction(1, d), 2 - Fraction(1, d)]
        pairs = [(Fraction(1, 100), Fraction(1, 200)), (Fraction(3, 10), Fraction(1, 50))]
        seen = []

        def spy(values, *rest, _scan=stepup._naive_scan):
            seen.append(values.dtype)
            return _scan(values, *rest)

        monkeypatch.setattr(stepup, "_naive_scan", spy)
        config = StepUpConfig(alpha=alpha, epsilon=eps, weights=weights, mode="naive")
        result = weighted_synth_bh(pairs, config)
        assert seen == [np.dtype(np.int64)]
        assert_exact_result(result, reference_guarded(pairs, alpha, eps, weights), alpha)

    def test_requires_weights(self):
        with pytest.raises(ValueError, match="requires config.weights"):
            weighted_synth_bh([(0.1, 0.1)], StepUpConfig(alpha=0.1, epsilon=0.1))

    def test_length_mismatch(self):
        config = StepUpConfig(alpha=0.1, epsilon=0.1, weights=[1.5, 0.5])
        with pytest.raises(ValueError, match="length"):
            weighted_synth_bh([(0.1, 0.1)], config)

    # q = 0 makes the guard bind everywhere, so every value depends on its
    # weight exactly.
    GUARD_BOUND = [(Fraction(1, 20), Fraction(0))] * 3

    @pytest.mark.parametrize("mode", ["naive", "fast"])
    def test_float_weights_must_sum_exactly_in_exact_run(self, mode):
        # 0.1 + 0.2 + 2.7 passes the float check, but the binary values of
        # the three floats sum to 108086391056891911/36028797018963968.
        config = StepUpConfig(alpha=Fraction(1, 10), epsilon=Fraction(1, 10),
                              weights=[0.1, 0.2, 2.7], mode=mode)
        with pytest.raises(ValueError, match="sum to m=3 exactly in an exact run"):
            weighted_synth_bh(self.GUARD_BOUND, config)
        assert weighted_synth_bh([(0.05, 0.0)] * 3, config).k_star == 3

    @pytest.mark.parametrize("mode", ["naive", "fast"])
    @pytest.mark.parametrize("raw", [[0.1, 0.2, 2.7], [0.1, 0.7, 0.5]])
    def test_float_weights_normalised_exactly_in_exact_run(self, raw, mode):
        alpha = eps = Fraction(1, 10)
        config = StepUpConfig(alpha=alpha, epsilon=eps, weights=raw, mode=mode,
                              normalize_weights=True)
        binary = [Fraction(w) for w in config.weights]
        assert sum(binary) != 3
        weights = [w * 3 / sum(binary) for w in binary]
        pairs = self.GUARD_BOUND
        static = reference_static(pairs, alpha, eps, weights) if mode == "fast" else None
        assert_exact_result(
            weighted_synth_bh(pairs, config),
            reference_guarded(pairs, alpha, eps, weights), alpha, static,
        )

    @pytest.mark.parametrize("mode", ["naive", "fast"])
    @pytest.mark.parametrize("raw, normalize", [
        ([Fraction(1, 3), Fraction(5, 3), 1], False),
        ([Fraction(1, 3), Fraction(2, 3), 1], True),
        ([0.5, 1.5, 1.0], False),
        ([0.25, 0.75, 1.0], True),
    ])
    def test_weights_summed_once_per_exact_run(self, monkeypatch, raw, normalize, mode):
        # Fraction weights are checked when the config is built, float ones
        # by the exact run; neither is checked twice.
        calls = []
        original = stepup._exact_weights

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(stepup, "_exact_weights", counted)
        alpha = eps = Fraction(1, 10)
        config = StepUpConfig(alpha=alpha, epsilon=eps, weights=raw, mode=mode,
                              normalize_weights=normalize)
        result = weighted_synth_bh(self.GUARD_BOUND, config)
        assert len(calls) == 1
        binary = [Fraction(w) for w in raw]
        weights = [w * 3 / sum(binary) for w in binary]
        static = reference_static(self.GUARD_BOUND, alpha, eps, weights) if mode == "fast" else None
        assert_exact_result(
            result, reference_guarded(self.GUARD_BOUND, alpha, eps, weights), alpha, static,
        )


class TestInt64Limit:
    """Exact runs just below and just above the int64 limit of the engine.

    Each instance's rescaled magnitude is ``growth * d``, where ``d`` is the
    common denominator of its inputs.  Fast mode multiplies ``d`` by the
    denominators of its ratios; in the weighted naive run the guard value
    ``p - m * unit`` reaches ``-3d/2``.  Values sit 1/d on either side of a
    threshold, so every integer counts.
    """

    ALPHA, EPS = Fraction(1, 2), Fraction(3, 4)
    WEIGHTS = [Fraction(0), Fraction(2)]
    CASES = {
        # name: (growth, mode, weighted); fast ratios 2/5, or 1 and 1/4.
        "bh": (1, None, False),
        "naive": (1, "naive", False),
        "fast": (5, "fast", False),
        "weighted-naive": (Fraction(3, 2), "naive", True),
        "weighted-fast": (4, "fast", True),
    }

    @staticmethod
    def denominator(growth, above):
        """A multiple of 16 whose product with ``growth`` is just below/above the limit."""
        return 16 * ((stepup._INT64_SAFE - 1) // (16 * growth) + int(above))

    @pytest.mark.parametrize("above", [False, True], ids=["int64", "python-int"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_dtype_matches_reference(self, monkeypatch, case, above):
        growth, mode, weighted = self.CASES[case]
        d = self.denominator(growth, above)
        assert (growth * d < stepup._INT64_SAFE) != above
        pairs = [
            (Fraction(1, d), Fraction(1, d)),
            (Fraction(1, 2) + Fraction(1, d), Fraction(1, 2) - Fraction(1, d)),
        ]
        seen = []
        for name in ("stepup_rows", "_naive_scan"):
            def spy(values, *rest, _scan=getattr(stepup, name)):
                seen.append(values.dtype)
                return _scan(values, *rest)
            monkeypatch.setattr(stepup, name, spy)
        alpha, eps = self.ALPHA, self.EPS
        weights = self.WEIGHTS if weighted else None
        if mode is None:
            p = [a for a, _ in pairs]
            result, ref, static = bh(p, alpha), reference_bh(p, alpha), None
        else:
            config = StepUpConfig(alpha=alpha, epsilon=eps, weights=weights, mode=mode)
            result = (weighted_synth_bh if weighted else synth_bh)(pairs, config)
            ref = reference_guarded(pairs, alpha, eps, weights)
            static = reference_static(pairs, alpha, eps, weights) if mode == "fast" else None
        assert seen == [np.dtype(object) if above else np.dtype(np.int64)]
        assert_exact_result(result, ref, alpha, static)


class TestStepUpConfig:
    def test_weight_sum_must_match_length(self):
        with pytest.raises(ValueError, match="sum to m"):
            StepUpConfig(alpha=0.1, epsilon=0.1, weights=[1.0, 0.5])

    def test_weight_sum_tolerance(self):
        w = np.array([1.0, 1.0 + 5e-10])
        config = StepUpConfig(alpha=0.1, epsilon=0.1, weights=w)
        assert config.weights is not None

    def test_normalize_weights(self):
        config = StepUpConfig(
            alpha=0.1, epsilon=0.1, weights=[1.0, 3.0], normalize_weights=True
        )
        assert np.allclose(config.weights, [0.5, 1.5])

    def test_normalize_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            StepUpConfig(
                alpha=0.1, epsilon=0.1, weights=[0.0, 0.0], normalize_weights=True
            )

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            StepUpConfig(alpha=0.1, epsilon=0.1, weights=[-0.5, 2.5])

    def test_exact_weights_must_sum_exactly(self):
        with pytest.raises(ValueError, match="sum to m"):
            StepUpConfig(
                alpha=0.1, epsilon=0.1, weights=[Fraction(1, 2), Fraction(3, 2) + Fraction(1, 10**12)]
            )

    def test_normalize_mixed_float_and_fraction_weights_exactly(self):
        config = StepUpConfig(
            alpha=Fraction(1, 10), epsilon=Fraction(1, 10),
            weights=[0.1, Fraction(1), Fraction(1)], normalize_weights=True,
        )
        assert all(type(w) is Fraction for w in config.weights)
        assert sum(config.weights) == 3
        assert config.weights[0] == Fraction(0.1) * 3 / (Fraction(0.1) + 2)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_exact_weights_rejected(self, bad, normalize):
        with pytest.raises(ValueError, match="weights must be finite"):
            StepUpConfig(
                alpha=Fraction(1, 10), epsilon=Fraction(1, 10),
                weights=[bad, Fraction(1), Fraction(1)], normalize_weights=normalize,
            )

    @pytest.mark.parametrize("eps", [-0.1, 1.0, float("nan")])
    def test_invalid_epsilon(self, eps):
        with pytest.raises(ValueError):
            StepUpConfig(alpha=0.1, epsilon=eps)

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="mode"):
            StepUpConfig(alpha=0.1, mode="quick")


class TestMonotonicity:
    def test_raising_coordinates_never_raises_k_star(self):
        rng = np.random.default_rng(19)
        for _ in range(150):
            m = int(rng.integers(2, 40))
            pairs = rng.random((m, 2))
            config = StepUpConfig(alpha=0.15, epsilon=0.1)
            base = synth_bh(pairs, config).k_star
            bumped = pairs.copy()
            j = int(rng.integers(0, m))
            side = int(rng.integers(0, 2))
            bumped[j, side] = min(1.0, bumped[j, side] + rng.random())
            assert synth_bh(bumped, config).k_star <= base

    def test_k_star_nondecreasing_in_epsilon(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            m = int(rng.integers(2, 40))
            pairs = rng.random((m, 2))
            ks = [
                synth_bh(pairs, StepUpConfig(alpha=0.1, epsilon=e)).k_star
                for e in (0.0, 0.05, 0.1, 0.2, 0.4)
            ]
            assert ks == sorted(ks)


def float_scan(row, alpha):
    """k* of one row by the literal float comparison ``p_(k) <= alpha * k / m``."""
    ordered = sorted(row.tolist())
    m = len(ordered)
    return max((k for k in range(1, m + 1) if ordered[k - 1] <= alpha * k / m), default=0)


def boundary_rows(rng, rows, m, alpha):
    """Rows drawn from thresholds alpha*k/m, their 1-ULP neighbours, ties, 0, 1."""
    thresholds = alpha * np.arange(1.0, m + 1.0) / m
    pool = np.concatenate([
        thresholds,
        np.nextafter(thresholds, 0.0),
        np.nextafter(thresholds, 1.0),
        [0.0, 1.0, alpha, np.nextafter(alpha, 1.0)],
    ])
    values = rng.choice(pool, size=(rows, m))
    uniform = rng.random((rows, m)) < rng.random((rows, 1))
    values[uniform] = rng.random(int(uniform.sum()))
    return values


def loop_bh_scan(values, thresholds):
    """k* of one row by the integer engine's former 1-D scan, ``_bh_scan``."""
    ordered = np.sort(values)
    passing = np.nonzero(ordered <= thresholds)[0]
    return int(passing[-1]) + 1 if passing.size else 0


class TestStepupRows:
    def test_rows_match_separate_bh_calls(self):
        rng = np.random.default_rng(30)
        for _ in range(150):
            rows, m = int(rng.integers(1, 12)), int(rng.integers(1, 60))
            alpha = float(rng.choice([0.05, 0.1, 0.3, 0.7, 0.999]))
            values = boundary_rows(rng, rows, m, alpha)
            k_star, rejected = stepup_rows(values, alpha * np.arange(1, m + 1) / m)
            for row, k, mask in zip(values, k_star.tolist(), rejected):
                single = bh(row, alpha)
                assert k == single.k_star == float_scan(row, alpha)
                assert np.array_equal(np.nonzero(mask)[0], single.rejected)
                assert np.array_equal(mask, row <= np.sort(row)[k - 1] if k else row < 0)

    def test_all_rejected_and_none_rejected_rows(self):
        values = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.2, 0.2, 0.2]])
        k_star, rejected = stepup_rows(values, 0.1 * np.arange(1, 4) / 3)
        assert k_star.tolist() == [3, 0, 0]
        assert rejected.tolist() == [[True] * 3, [False] * 3, [False] * 3]

    @pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
    def test_integer_rows_match_former_scan(self, dtype):
        # Values on a threshold and 1 on either side of it, with one
        # all-pass and one none-pass row per draw; object rows go past
        # int64.
        rng = np.random.default_rng(31)
        hits = 0
        for _ in range(150):
            rows, m = int(rng.integers(3, 10)), int(rng.integers(1, 40))
            unit = int(rng.integers(1, 1000)) * (2**64 if dtype is object else 1)
            thresholds = np.arange(1, m + 1, dtype=dtype) * unit
            top = np.array([0, thresholds[-1] + 1], dtype=dtype)
            pool = np.concatenate([thresholds, thresholds - 1, thresholds + 1, top])
            values = rng.choice(pool, size=(rows, m))
            values[0], values[1] = top[0], top[1]
            assert values.dtype == np.dtype(dtype)
            k_star, rejected = stepup_rows(values, thresholds)
            assert k_star[0] == m and k_star[1] == 0
            for row, k, mask in zip(values, k_star.tolist(), rejected):
                assert k == loop_bh_scan(row, thresholds)
                cutoff = np.sort(row)[k - 1] if k else -1
                assert mask.tolist() == [v <= cutoff for v in row.tolist()]
            hits += int(np.count_nonzero(k_star[2:]))
        assert hits


class TestStepupGuarded:
    """The stacked float entry against one synth_bh call per row."""

    @pytest.mark.parametrize("mode", ["fast", "naive"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_rows_match_separate_calls(self, mode, weighted):
        rng = np.random.default_rng(32)
        for _ in range(40):
            rows, m = int(rng.integers(1, 6)), int(rng.integers(1, 40))
            p = boundary_rows(rng, rows, m, 0.2)
            q = boundary_rows(rng, rows, m, 0.2)
            weights = rng.integers(1, 4, m) * 1.0 if weighted else None
            config = StepUpConfig(alpha=0.2, epsilon=0.1, weights=weights, mode=mode,
                                  normalize_weights=True)
            k_star, rejected, values = stepup.stepup_guarded(p, q, config)
            for j in range(rows):
                run = weighted_synth_bh if weighted else synth_bh
                single = run(np.column_stack((p[j], q[j])), config)
                assert k_star[j] == single.k_star
                assert np.array_equal(np.nonzero(rejected[j])[0], single.rejected)
                assert values[j].tobytes() == single.modified_pvalues.tobytes()

    def test_range_checks_name_the_array(self):
        good, bad = np.full((2, 3), 0.5), np.full((2, 3), 0.5)
        bad[1, 2] = 1.5
        config = StepUpConfig(alpha=0.1, epsilon=0.1)
        for p, q, name in ((bad, good, r"p_real\[5\]"), (good, bad, r"p_pooled\[5\]"),
                           (bad, bad, r"pvalues\[5\]")):
            with pytest.raises(ValueError, match=name):
                stepup.stepup_guarded(p, q, config)


def loop_naive_scan(p, q, units, thresholds):
    """The literal rule rank by rank: one partition of the guarded values per rank."""
    m = p.shape[0]
    k_star = 0
    for k in range(1, m + 1):
        mod = np.minimum(p, np.maximum(q, p - k * units))
        mod.partition(k - 1)
        if mod[k - 1] <= thresholds[k - 1]:
            k_star = k
    return k_star


def scan_instance(rng, m, dtype, scale=10**6):
    """(p, q, units, thresholds) of one naive scan on float64, int64 or object ints.

    Values are drawn from the thresholds, their nearest neighbours (1 ULP
    for floats, 1 for integers), values one to three guard steps above
    them, 0, the top value and uniform draws, so ties are common.  Units
    are one scalar or per-hypothesis, with zero weights among the latter.
    """
    alpha = float(rng.choice([0.05, 0.1, 0.3, 0.9]))
    eps = float(rng.choice([0.0, 0.05, 0.2, 0.6]))
    weights = rng.integers(0, 4, m) * (rng.random() < 0.5)
    if dtype is np.float64:
        top = 1.0
        thresholds = alpha * np.arange(1, m + 1) / m
        below, above = np.nextafter(thresholds, -np.inf), np.nextafter(thresholds, np.inf)
        unit = eps / m
        units = unit if not weights.any() else weights * unit
    else:
        top = scale
        thresholds = np.arange(1, m + 1, dtype=dtype) * int(alpha * scale / m + 1)
        below, above = thresholds - 1, thresholds + 1
        unit = int(eps * scale / m)
        units = (
            np.array([unit], dtype=dtype) if not weights.any()
            else weights.astype(dtype) * unit
        )
    steps = thresholds[:, np.newaxis] + np.arange(1, 4, dtype=dtype) * unit
    ends = np.array([0, top], dtype=dtype)
    pool = np.concatenate([thresholds, below, above, steps.ravel(), ends])
    pq = rng.choice(pool, size=(2, m))
    uniform = rng.random((2, m)) < rng.random()
    draws = rng.random(int(uniform.sum())) * top
    pq[uniform] = draws if dtype is np.float64 else [int(x) for x in draws]
    return pq[0], pq[1], units, thresholds


class TestNaiveScan:
    """The blocked naive scan against the per-rank loop it replaced."""

    @pytest.mark.parametrize("budget", [None, 1, 7, 64])
    @pytest.mark.parametrize(
        "dtype", [np.float64, np.int64, object], ids=["float64", "int64", "object"]
    )
    def test_matches_loop_on_fuzz(self, monkeypatch, dtype, budget):
        if budget is not None:
            monkeypatch.setattr(stepup, "_NAIVE_BLOCK", budget)
        rng = np.random.default_rng(40 + (budget or 0))
        for _ in range(120):
            m = int(rng.integers(1, 50))
            p, q, units, thresholds = scan_instance(rng, m, dtype)
            assert p.dtype == np.dtype(dtype)
            expected = loop_naive_scan(p, q, units, thresholds)
            assert stepup._naive_scan(p, q, units, thresholds) == expected

    def test_object_values_above_int64(self):
        rng = np.random.default_rng(41)
        scale = 2**70 + 12345
        hits = 0
        for _ in range(60):
            m = int(rng.integers(1, 30))
            p, q, units, thresholds = scan_instance(rng, m, object, scale=scale)
            p[rng.random(m) < 0.3] += 2**64      # values beyond any int64
            expected = loop_naive_scan(p, q, units, thresholds)
            hits += expected > 0
            assert stepup._naive_scan(p, q, units, thresholds) == expected
        assert hits

    @pytest.mark.parametrize("per", [1, 2, 5])
    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_every_k_star_at_block_edges(self, monkeypatch, per, blocks, extra):
        # m ranks in blocks of `per`: one rank short of, exactly at and one
        # past the edge of the first or second block.  The first k
        # hypotheses pass at every rank up to k, so each k* from 0 to m is
        # the largest of several passing ranks.
        m = max(1, blocks * per + extra)
        monkeypatch.setattr(stepup, "_NAIVE_BLOCK", per * m)
        thresholds = 0.1 * np.arange(1, m + 1) / m
        q = np.ones(m)
        for k in range(m + 1):
            p = np.where(np.arange(m) < k, 0.0, 1.0)
            assert loop_naive_scan(p, q, 0.01, thresholds) == k
            assert stepup._naive_scan(p, q, 0.01, thresholds) == k

    def test_exact_naive_with_small_blocks_matches_reference(self, monkeypatch):
        monkeypatch.setattr(stepup, "_NAIVE_BLOCK", 5)
        rng = np.random.default_rng(42)
        for _ in range(40):
            pairs, alpha, eps = random_exact_instance(rng, max_m=25)
            weights = random_weights(rng, len(pairs))
            config = StepUpConfig(alpha=alpha, epsilon=eps, weights=weights, mode="naive")
            assert_exact_result(
                weighted_synth_bh(pairs, config),
                reference_guarded(pairs, alpha, eps, weights), alpha,
            )
