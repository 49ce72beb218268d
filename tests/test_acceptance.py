"""Acceptance suite: the nine release criteria.

Each test prints a single ``[criterion N] PASS/FAIL`` line (run pytest
with ``-s`` to see the lines for passing tests) and then asserts.  All
randomness is seeded, so the suite is deterministic.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from synthbh import (
    MIRROR_ALT,
    OutlierConfig,
    SimConfig,
    StepUpConfig,
    bh,
    conformal_pvalues,
    run_bernoulli_experiment,
    run_outlier_experiment,
    synth_bh,
    weighted_synth_bh,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_naive_and_fast_agree_in_exact_mode():
    """10,000 fuzzed exact-rational instances: identical k* and rejections."""
    rng = np.random.default_rng(1001)
    instances = 10_000
    started = time.perf_counter()
    for i in range(instances):
        m = int(rng.integers(1, 201))
        grid = rng.integers(0, 1001, size=(m, 2))
        pairs = [
            (Fraction(int(a), 1000), Fraction(int(b), 1000)) for a, b in grid
        ]
        alpha = Fraction(int(rng.integers(1, 31)), 100)
        eps = Fraction(int(rng.integers(1, 31)), 100)
        naive = synth_bh(pairs, StepUpConfig(alpha=alpha, epsilon=eps, mode="naive"))
        fast = synth_bh(pairs, StepUpConfig(alpha=alpha, epsilon=eps, mode="fast"))
        if naive.k_star != fast.k_star or not np.array_equal(
            naive.rejected, fast.rejected
        ):
            _report(
                1,
                False,
                f"instance {i}: naive k*={naive.k_star} vs fast k*={fast.k_star}",
            )
    elapsed = time.perf_counter() - started
    _report(
        1,
        elapsed < 60.0,
        f"{instances} exact instances agreed between modes in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_reduction_identities():
    """epsilon=0, uniform weights, and dominated pooled values all collapse."""
    rng = np.random.default_rng(1002)
    checked = 0
    for i in range(1000):
        m = int(rng.integers(1, 101))
        mode = "naive" if i % 2 else "fast"
        alpha = float(rng.uniform(0.01, 0.3))

        pairs = rng.random((m, 2))
        zero_eps = synth_bh(pairs, StepUpConfig(alpha=alpha, epsilon=0.0, mode=mode))
        plain = bh(pairs[:, 0], alpha)
        ok = (
            zero_eps.k_star == plain.k_star
            and np.array_equal(zero_eps.rejected, plain.rejected)
            and np.array_equal(zero_eps.modified_pvalues, plain.modified_pvalues)
        )
        if not ok:
            _report(2, False, f"epsilon=0 identity broke on instance {i}")

        eps = float(rng.uniform(0.0, 0.3))
        weighted = weighted_synth_bh(
            pairs,
            StepUpConfig(alpha=alpha, epsilon=eps, weights=np.ones(m), mode=mode),
        )
        unweighted = synth_bh(pairs, StepUpConfig(alpha=alpha, epsilon=eps, mode=mode))
        ok = (
            weighted.k_star == unweighted.k_star
            and np.array_equal(weighted.rejected, unweighted.rejected)
            and np.array_equal(weighted.modified_pvalues, unweighted.modified_pvalues)
        )
        if not ok:
            _report(2, False, f"uniform-weight identity broke on instance {i}")

        p = rng.random(m)
        q = p + (1 - p) * rng.random(m)
        dominated = synth_bh(
            np.column_stack((p, q)), StepUpConfig(alpha=alpha, epsilon=eps, mode=mode)
        )
        plain = bh(p, alpha)
        ok = (
            dominated.k_star == plain.k_star
            and np.array_equal(dominated.rejected, plain.rejected)
            and np.array_equal(dominated.modified_pvalues, plain.modified_pvalues)
        )
        if not ok:
            _report(2, False, f"dominated-pooled identity broke on instance {i}")
        checked += 1
    _report(2, checked == 1000, f"{checked} instances passed all three identities exactly")


def test_criterion_3_benign_auxiliary_regime():
    """Default Bernoulli setup: FDR stays near alpha and power is not lost."""
    result = run_bernoulli_experiment(SimConfig(seed=0))
    by_name = {s.method: s for s in result.summaries()}
    guarded = by_name["SynthBH"]
    baseline = by_name["BH-real"]
    bound = 0.19 + 3 * guarded.se_fdp
    ok = (
        guarded.mean_fdp <= bound
        and guarded.mean_fdp <= 0.13
        and guarded.mean_power >= baseline.mean_power - baseline.se_power
    )
    _report(
        3,
        ok,
        f"benign regime: FDP={guarded.mean_fdp:.4f} (<= {bound:.4f} and <= 0.13), "
        f"power={guarded.mean_power:.4f} vs baseline {baseline.mean_power:.4f} "
        f"- {baseline.se_power:.4f}",
    )


def test_criterion_4_hostile_auxiliary_regime():
    """Auxiliary data claiming signal everywhere breaks the unguarded method only."""
    result = run_bernoulli_experiment(SimConfig(q_synth_null=MIRROR_ALT, seed=0))
    by_name = {s.method: s for s in result.summaries()}
    unguarded = by_name["BH-synth"]
    guarded = by_name["SynthBH"]
    bound = 0.19 + 3 * guarded.se_fdp
    ok = unguarded.mean_fdp > 0.20 and guarded.mean_fdp <= bound
    _report(
        4,
        ok,
        f"hostile regime: unguarded FDP={unguarded.mean_fdp:.4f} (> 0.20), "
        f"guarded FDP={guarded.mean_fdp:.4f} (<= {bound:.4f})",
    )


def test_criterion_5_monotonicity():
    """Raising any p-value never raises k*; growing epsilon never lowers it."""
    rng = np.random.default_rng(1005)
    eps_grid = [0.0, 0.01, 0.05, 0.1, 0.2, 0.3]
    for i in range(1000):
        m = int(rng.integers(2, 61))
        pairs = rng.random((m, 2))
        alpha = float(rng.uniform(0.01, 0.3))
        eps = float(rng.uniform(0.0, 0.3))
        j = int(rng.integers(0, m))
        side = int(rng.integers(0, 2))
        bumped = pairs.copy()
        bumped[j, side] += (1 - bumped[j, side]) * float(rng.uniform(0.1, 1.0))

        config = StepUpConfig(alpha=alpha, epsilon=eps)
        if synth_bh(bumped, config).k_star > synth_bh(pairs, config).k_star:
            _report(5, False, f"unweighted raise increased k* on instance {i}")

        w = rng.random(m)
        w *= m / w.sum()
        wconfig = StepUpConfig(alpha=alpha, epsilon=eps, weights=w)
        if (
            weighted_synth_bh(bumped, wconfig).k_star
            > weighted_synth_bh(pairs, wconfig).k_star
        ):
            _report(5, False, f"weighted raise increased k* on instance {i}")

        runs = [
            synth_bh(pairs, StepUpConfig(alpha=alpha, epsilon=e)) for e in eps_grid
        ]
        for prev, nxt in zip(runs, runs[1:]):
            if not (np.asarray(nxt.modified_pvalues) <= np.asarray(prev.modified_pvalues)).all():
                _report(5, False, f"modified values rose with epsilon on instance {i}")
            if nxt.k_star < prev.k_star:
                _report(5, False, f"k* dropped as epsilon grew on instance {i}")
    _report(5, True, "1000 instances: coordinate and epsilon monotonicity held")


def test_criterion_6_conformal_super_uniformity():
    """Fresh n=20 reference draws: P(p <= t) <= t + 3 SE on the whole lattice."""
    rng = np.random.default_rng(1006)
    draws = 100_000
    n = 20
    scores = rng.normal(size=(draws, n + 1))
    pvals = np.empty(draws)
    for i in range(draws):
        pvals[i] = conformal_pvalues(scores[i, :n], scores[i, n:])[0]
    lattice = np.arange(1, n + 2) / (n + 1)
    on_lattice = bool(np.isin(pvals, lattice).all())
    worst = -np.inf
    bounded = True
    for t in lattice:
        se = np.sqrt(t * (1 - t) / draws)
        excess = (pvals <= t).mean() - (t + 3 * se)
        worst = max(worst, excess)
        if excess > 0:
            bounded = False
    _report(
        6,
        on_lattice and bounded,
        f"{draws} draws: lattice membership={on_lattice}, "
        f"max excess over t+3SE={worst:.2e} (<= 0)",
    )


def test_criterion_7_outlier_fdr_bound():
    """Contaminated auxiliary scores with trimming: FDR within the budget."""
    result = run_outlier_experiment(OutlierConfig(
        n=500,
        n_synth=2500,
        m=1000,
        outlier_frac=0.05,
        contamination_frac=0.05,
        rho=0.02,
        alpha=0.1,
        epsilon=0.1,
        trials=100,
        seed=0,
    ))
    guarded = {s.method: s for s in result.summaries()}["SynthBH"]
    bound = 0.95 * 0.2 + 3 * guarded.se_fdp
    ok = guarded.mean_fdp <= bound
    _report(
        7,
        ok,
        f"outlier run: FDP={guarded.mean_fdp:.4f} <= {bound:.4f}",
    )


def test_criterion_8_fast_mode_scaling():
    """One-sort engine: a million pairs in well under two seconds."""
    rng = np.random.default_rng(1008)
    pairs = rng.random((1_000_000, 2))
    config = StepUpConfig(alpha=0.1, epsilon=0.1, mode="fast")
    synth_bh(pairs[:1000], config)  # warm-up

    def best_of(data, reps=3):
        best = np.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            synth_bh(data, config)
            best = min(best, time.perf_counter() - t0)
        return best

    t_small = best_of(pairs[:100_000])
    t_large = best_of(pairs)
    ratio = t_large / t_small
    ok = t_large < 2.0 and ratio < 15.0
    _report(
        8,
        ok,
        f"m=1e6 in {t_large * 1000:.0f}ms (< 2000ms), "
        f"ratio vs m=1e5 is {ratio:.1f} (< 15)",
    )


def test_criterion_9_simulation_determinism(tmp_path):
    """Fixed seed: byte-identical outputs across four separate runs."""
    base = [
        sys.executable, "-m", "synthbh", "simulate",
        "--trials", "5", "--seed", "11", "--m", "300",
        "--n-real", "60", "--n-synth", "120",
    ]
    payloads = []
    for tag in ("a", "b", "c", "d"):
        out = tmp_path / f"{tag}.csv"
        proc = subprocess.run(base + ["--output", str(out)], capture_output=True)
        if proc.returncode != 0:
            _report(9, False, f"simulate exited {proc.returncode}: {proc.stderr!r}")
        summary = tmp_path / f"{tag}.summary.json"
        payloads.append((out.read_bytes(), summary.read_bytes()))
    identical = all(p == payloads[0] for p in payloads[1:])
    json.loads(payloads[0][1])  # summary must be well-formed JSON
    _report(9, identical, "4 separate runs at one seed byte-identical")
