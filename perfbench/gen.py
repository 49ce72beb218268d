"""Generate one workload's inputs from its seed, in a process of its own.

Usage: python3 perfbench/gen.py --workload NAME --seed N --scale full|tiny --out DIR

Writes the input files into DIR plus ``plan.json``, which tells the
measuring process what to run (argv of each CLI call, or the exact-audit
instance file), how many hypotheses one operation decides, and which
output files it leaves.  The measuring process never sees the seed, only
these files.  This script needs numpy but not synthbh.
"""

from __future__ import annotations

import argparse
import json
import math
import os
from fractions import Fraction

import numpy as np

ALPHA = "0.1"
EPSILON = "0.1"

# Sizes per scale.  "full" is what the benchmark measures; "tiny" is the
# self-check's quick pass through the same code.
SIZES = {
    "cli-test": {"full": {"m": 200_000}, "tiny": {"m": 300}},
    "cli-outliers": {
        "full": {"n_real": 20_000, "n_synth": 100_000, "n_test": 100_000},
        "tiny": {"n_real": 60, "n_synth": 200, "n_test": 150},
    },
    "simulate": {
        "full": {"trials": 120, "outlier_trials": 150, "m": 1000},
        "tiny": {"trials": 3, "outlier_trials": 3, "m": 100},
    },
    "exact-audit": {
        "full": {"instances": 180, "big": 20},
        "tiny": {"instances": 6, "big": 2},
    },
}

WORKLOAD_SALT = {"cli-test": 1, "cli-outliers": 2, "simulate": 3, "exact-audit": 4}


def _normal_sf(z: np.ndarray) -> np.ndarray:
    """One-sided p-value P(Z > z) of a standard normal statistic."""
    return np.array([0.5 * math.erfc(x / math.sqrt(2.0)) for x in z.tolist()])


def _floats_csv(rows) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def gen_cli_test(rng, size, out):
    """``id,p_real,p_synth`` rows: 10% non-nulls, an auxiliary sample four
    times the real one that is honest on most nulls and claims signal on a
    tenth of them (the rows where the guard clamps ``v`` to ``c*p``)."""
    m = size["m"]
    nonnull = rng.random(m) < 0.10
    hostile = ~nonnull & (rng.random(m) < 0.10)
    mu, ratio = 3.0, 4.0
    z_real = rng.standard_normal(m) + mu * nonnull
    z_aux = rng.standard_normal(m) + mu * (nonnull | hostile)
    z_pooled = (z_real + math.sqrt(ratio) * z_aux) / math.sqrt(1.0 + ratio)
    p, q = _normal_sf(z_real), _normal_sf(z_pooled)
    path = os.path.join(out, "pvalues.csv")
    with open(path, "w", newline="") as handle:
        handle.write("id,p_real,p_synth\n")
        handle.write(_floats_csv(
            (f"h{j:06d}", repr(a), repr(b))
            for j, (a, b) in enumerate(zip(p.tolist(), q.tolist()))
        ))
    c = float(ALPHA) / (float(ALPHA) + float(EPSILON))
    v = np.minimum(p, np.maximum(q, c * p))
    result = os.path.join(out, "result.csv")
    return {
        "calls": [["test", path, "--alpha", ALPHA, "--epsilon", EPSILON,
                   "--output", result]],
        "inputs": [path],
        "outputs": [result],
        "hyp": m,
        "params": {"alpha": ALPHA, "epsilon": EPSILON},
        "stats": {
            "rows": m,
            "nonnull_share": float(nonnull.mean()),
            "v_eq_p_share": float(np.mean(v == p)),
            "v_eq_q_share": float(np.mean((v == q) & (v != p))),
            "v_clamped_share": float(np.mean((v == c * p) & (v != q) & (v != p))),
            "below_alpha_share": float(np.mean(v <= float(ALPHA))),
        },
    }


def gen_cli_outliers(rng, size, out):
    """``role,score`` rows in shuffled order: N(0,1) references, an
    auxiliary set with 5% contamination at N(3,1), and test points with 5%
    outliers at N(3.5,1).  ``--rho 0.05`` trims as many auxiliary scores
    as are contaminated."""
    n, big_n, m = size["n_real"], size["n_synth"], size["n_test"]
    real = rng.standard_normal(n)
    synth = rng.standard_normal(big_n)
    synth[rng.random(big_n) < 0.05] += 3.0
    test = rng.standard_normal(m)
    outlier = rng.random(m) < 0.05
    test[outlier] += 3.5
    roles = np.array(["real"] * n + ["synth"] * big_n + ["test"] * m)
    scores = np.concatenate([real, synth, test])
    # Roles are interleaved; a test point's id is its rank among the test
    # rows in file order.
    order = rng.permutation(roles.size)
    path = os.path.join(out, "scores.csv")
    with open(path, "w", newline="") as handle:
        handle.write("role,score\n")
        handle.write(_floats_csv(
            (roles[i], repr(s)) for i, s in zip(order.tolist(), scores[order].tolist())
        ))
    result = os.path.join(out, "outliers.json")
    rho = "0.05"
    return {
        "calls": [["outliers", "--scores", path, "--alpha", ALPHA, "--epsilon",
                   EPSILON, "--rho", rho, "--format", "json", "--output", result]],
        "inputs": [path],
        "outputs": [result],
        "hyp": m,
        "params": {"alpha": ALPHA, "epsilon": EPSILON, "rho": rho},
        "stats": {"n_real": n, "n_synth": big_n, "n_test": m,
                  "outlier_share": float(outlier.mean())},
    }


def gen_simulate(rng, size, out):
    """Two ``simulate`` calls per operation, both seeded from the workload
    seed: the Bernoulli experiment swept over epsilon, then the outlier
    experiment.  Both leave a per-trial CSV and its summary JSON."""
    seed = str(int(rng.integers(0, 2**31)))
    trials, outlier_trials, m = size["trials"], size["outlier_trials"], size["m"]
    sweep = ["0.05", "0.1", "0.2"]
    sim, outl = os.path.join(out, "bernoulli.csv"), os.path.join(out, "outlier.csv")
    calls = [
        ["simulate", "--trials", str(trials), "--seed", seed, "--m", str(m),
         "--sweep", "epsilon=" + ",".join(sweep), "--output", sim],
        ["simulate", "--experiment", "outlier", "--trials", str(outlier_trials),
         "--seed", seed, "--m", str(m), "--output", outl],
    ]
    return {
        "calls": calls,
        "inputs": [],
        "outputs": [sim, sim[:-4] + ".summary.json", outl, outl[:-4] + ".summary.json"],
        "hyp": (len(sweep) * trials + outlier_trials) * m * 4,
        "params": {"trials": trials, "outlier_trials": outlier_trials, "m": m,
                   "sweep": sweep, "seed": seed},
        "stats": {"trials_per_op": len(sweep) * trials + outlier_trials},
    }


def _weights(rng, m):
    raw = [int(x) for x in rng.integers(1, 6, size=m)]
    total = sum(raw)
    return [Fraction(r * m, total) for r in raw]


def gen_exact_audit(rng, size, out):
    """Fuzzed exact-rational instances, each run in naive and fast mode.

    Sizes are stratified (one instance per stratum of m in 1..200) so the
    work of an operation hardly depends on the seed.  A quarter carry
    weights.  ``big`` further instances (m in 1..40) use denominators near
    2**32, so the common denominator leaves int64 and the engine takes its
    Fraction fallback.
    """
    count, big = size["instances"], size["big"]
    instances = []
    for i in range(count + big):
        if i < count:
            m = 1 + int((i + rng.random()) * 200 / count)
            pq = [[str(Fraction(int(a), 1000)) for a in row]
                  for row in rng.integers(0, 1001, size=(m, 2))]
        else:
            m = 1 + int((i - count + rng.random()) * 40 / big)
            dens = rng.integers(2**31, 2**32, size=(m, 2))
            pq = [[str(Fraction(int(rng.integers(0, d + 1)), int(d))) for d in row]
                  for row in dens]
        inst = {
            "pairs": pq,
            "alpha": str(Fraction(int(rng.integers(1, 31)), 100)),
            "epsilon": str(Fraction(int(rng.integers(1, 31)), 100)),
            "weights": None,
        }
        if rng.random() < 0.25:
            inst["weights"] = [str(w) for w in _weights(rng, m)]
        instances.append(inst)
    order = rng.permutation(len(instances)).tolist()
    instances = [instances[i] for i in order]
    path = os.path.join(out, "instances.json")
    with open(path, "w") as handle:
        json.dump(instances, handle)
    return {
        "calls": [],
        "inputs": [path],
        "outputs": [os.path.join(out, "exact_results.json")],
        "hyp": 2 * sum(len(inst["pairs"]) for inst in instances),
        "params": {},
        "stats": {
            "instances": len(instances),
            "weighted": sum(inst["weights"] is not None for inst in instances),
            "fraction_fallback": big,
            "hypotheses": sum(len(inst["pairs"]) for inst in instances),
        },
    }


GENERATORS = {
    "cli-test": gen_cli_test,
    "cli-outliers": gen_cli_outliers,
    "simulate": gen_simulate,
    "exact-audit": gen_exact_audit,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    rng = np.random.default_rng([args.seed, WORKLOAD_SALT[args.workload]])
    plan = GENERATORS[args.workload](rng, SIZES[args.workload][args.scale], args.out)
    plan["workload"] = args.workload
    with open(os.path.join(args.out, "plan.json"), "w") as handle:
        json.dump(plan, handle, indent=1)


if __name__ == "__main__":
    main()
