"""Output checks, run in a process of their own after the measuring process.

Usage: python3 perfbench/check.py --plan DIR/plan.json --result FILE DIGEST_DIR...

Each DIGEST_DIR holds one distinct output of the workload's operation
(as kept by ``measure.py``).  Every check recomputes what the output must
be from the inputs, by code of its own, or tests a property the method
must have; nothing is compared against a stored copy of an earlier
output.  Writes ``{digest: {"ok": bool, "reason": str}}`` to FILE.
This script needs numpy but not synthbh.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
from fractions import Fraction

import numpy as np


class Wrong(Exception):
    """The output disagrees with an independent computation."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Wrong(message)


def own_kstar(v: np.ndarray, alpha: float) -> int:
    """Step-up k* = max{k : #{v <= alpha*k/m} >= k}, by counting."""
    m = v.size
    ks = np.arange(1, m + 1)
    counts = np.searchsorted(np.sort(v), alpha * ks / m, side="right")
    passing = np.nonzero(counts >= ks)[0]
    return int(passing[-1]) + 1 if passing.size else 0


def own_rejections(v: np.ndarray, alpha: float) -> tuple[int, np.ndarray]:
    k = own_kstar(v, alpha)
    if k == 0:
        return 0, np.zeros(v.size, dtype=bool)
    return k, v <= np.sort(v)[k - 1]


def guarded(p: np.ndarray, q: np.ndarray, alpha: float, eps: float) -> np.ndarray:
    c = alpha / (alpha + eps)
    return np.minimum(p, np.maximum(q, c * p))


def read_csv(path: str) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


# ---------------------------------------------------------------------------


def check_cli_test(plan, out_dir):
    alpha, eps = float(plan["params"]["alpha"]), float(plan["params"]["epsilon"])
    rows_in = read_csv(plan["inputs"][0])[1:]
    ids = [r[0] for r in rows_in]
    p = np.array([float(r[1]) for r in rows_in])
    q = np.array([float(r[2]) for r in rows_in])
    lines = read_csv(os.path.join(out_dir, os.path.basename(plan["outputs"][0])))
    expect(lines[0] == ["id", "p_real", "p_synth", "v", "rejected"], f"header {lines[0]}")
    summary_line = lines[-1]
    body = lines[1:-1]
    expect(len(body) == len(ids), f"{len(body)} rows for {len(ids)} inputs")
    expect([r[0] for r in body] == ids, "ids differ from the input's")
    expect(np.array_equal(np.array([float(r[1]) for r in body]), p), "p_real does not round-trip")
    expect(np.array_equal(np.array([float(r[2]) for r in body]), q), "p_synth does not round-trip")
    v = guarded(p, q, alpha, eps)
    expect(np.array_equal(np.array([float(r[3]) for r in body]), v),
           "v differs from min(p, max(q, c*p))")
    flags = [r[4] for r in body]
    expect(set(flags) <= {"true", "false"}, "rejected column not true/false")
    k, mask = own_rejections(v, alpha)
    expect(np.array_equal(np.array(flags) == "true", mask), "rejected column differs from own step-up")
    summary = dict(tok.partition("=")[::2] for tok in " ".join(summary_line).lstrip("# ").split())
    expect(int(summary["k_star"]) == k, f"k_star {summary['k_star']} != own {k}")
    threshold = alpha * k / v.size if k else 0.0
    expect(float(summary["threshold"]) == threshold, f"threshold {summary['threshold']} != {threshold!r}")


def _integer_count(value: float, scale: int, expected: np.ndarray, name: str) -> None:
    scaled = np.asarray(value) * scale
    rounded = np.rint(scaled)
    expect(bool(np.all(np.abs(scaled - rounded) < 1e-6)), f"{name}*(n+1) is not an integer")
    bad = np.nonzero(rounded.astype(np.int64) != expected)[0]
    expect(bad.size == 0, f"{name} of test point {bad[:1].tolist()} differs from own count")


def check_cli_outliers(plan, out_dir):
    params = plan["params"]
    alpha, eps = float(params["alpha"]), float(params["epsilon"])
    by_role = {"real": [], "synth": [], "test": []}
    for role, score in read_csv(plan["inputs"][0])[1:]:
        by_role[role].append(float(score))
    real, synth, test = (np.array(by_role[r]) for r in ("real", "synth", "test"))
    with open(os.path.join(out_dir, os.path.basename(plan["outputs"][0]))) as handle:
        out = json.load(handle)
    n, big_n = real.size, synth.size
    n_kept = big_n - math.ceil(Fraction(params["rho"]) * big_n)
    expect(out["n_real"] == n, f"n_real {out['n_real']} != {n}")
    expect(out["n_synth_used"] == n_kept, f"n_synth_used {out['n_synth_used']} != {n_kept}")
    rows = out["rows"]
    expect(len(rows) == test.size, f"{len(rows)} rows for {test.size} test points")
    expect([r["id"] for r in rows] == list(range(test.size)), "ids are not 0..m-1")
    expect(np.array_equal(np.array([r["score"] for r in rows]), test), "scores differ from input")
    real_sorted = np.sort(real)
    kept_sorted = np.sort(synth)[:n_kept]  # trimming drops the largest scores
    count_real = n - np.searchsorted(real_sorted, test, side="left")
    count_kept = n_kept - np.searchsorted(kept_sorted, test, side="left")
    p = np.array([r["p_real"] for r in rows])
    q = np.array([r["p_merged"] for r in rows])
    _integer_count(p, n + 1, count_real + 1, "p_real")
    _integer_count(q, n + n_kept + 1, count_real + count_kept + 1, "p_merged")
    k, mask = own_rejections(guarded(p, q, alpha, eps), alpha)
    expect(out["k_star"] == k, f"k_star {out['k_star']} != own {k}")
    expect(np.array_equal(np.array([r["rejected"] for r in rows], dtype=bool), mask),
           "rejections differ from own step-up")


METHODS = ("BH-real", "BH-real+eps", "BH-synth", "SynthBH")


def _check_trials(rows, trials, n_alt, where):
    """rows: (method, trial, fdp, power, rejections) of one experiment point."""
    expect(len(rows) == len(METHODS) * trials, f"{where}: {len(rows)} rows, want {len(METHODS) * trials}")
    rej = {}
    for method, trial, fdp, power, r in rows:
        expect(method in METHODS, f"{where}: unknown method {method}")
        expect(0.0 <= fdp <= 1.0 and 0.0 <= power <= 1.0, f"{where}: fdp/power outside [0, 1]")
        false = fdp * max(r, 1)
        expect(abs(false - round(false)) < 1e-9, f"{where}: fdp*|R| not an integer")
        expect(power == (r - round(false)) / max(n_alt, 1), f"{where}: power != true rejections / {n_alt}")
        rej[method, trial] = r
    for t in range(trials):
        lo, mid, hi = rej["BH-real", t], rej["SynthBH", t], rej["BH-real+eps", t]
        expect(lo <= mid <= hi, f"{where}, trial {t}: BH-real {lo}, SynthBH {mid}, BH-real+eps {hi}")
    return rows


def _check_means(rows, methods_summary, where):
    for s in methods_summary:
        mine = [r for r in rows if r[0] == s["method"]]
        expect(s["trials"] == len(mine), f"{where}: summary trials for {s['method']}")
        for key, col in (("mean_fdp", 2), ("mean_power", 3), ("mean_rejections", 4)):
            mean = math.fsum(r[col] for r in mine) / len(mine)
            expect(math.isclose(s[key], mean, rel_tol=1e-12, abs_tol=1e-15),
                   f"{where}: summary {key} of {s['method']} {s[key]!r} != CSV mean {mean!r}")


def _parse_trial(cells):
    method, trial, fdp, power, rej = cells
    return method, int(trial), float(fdp), float(power), int(rej)


def check_simulate(plan, out_dir):
    params = plan["params"]
    m = params["m"]
    n_alt = round(0.05 * m)  # --frac-alt and --outlier-frac defaults
    files = [os.path.join(out_dir, os.path.basename(path)) for path in plan["outputs"]]
    sweep_csv, sweep_json, outlier_csv, outlier_json = files
    lines = read_csv(sweep_csv)
    expect(lines[0] == ["param", "value", "method", "trial", "fdp", "power", "rejections"],
           f"sweep header {lines[0]}")
    with open(sweep_json) as handle:
        summary = json.load(handle)
    points = [float(x) for x in params["sweep"]]
    expect(len(summary["points"]) == len(points), "summary point count")
    expect(len(lines) - 1 == len(points) * len(METHODS) * params["trials"], "sweep row count")
    for value, point in zip(points, summary["points"]):
        where = f"epsilon={value}"
        mine = [_parse_trial(r[2:]) for r in lines[1:] if r[0] == "epsilon" and float(r[1]) == value]
        _check_trials(mine, params["trials"], n_alt, where)
        expect(point["value"] == value, f"{where}: summary value {point['value']}")
        _check_means(mine, point["methods"], where)
    lines = read_csv(outlier_csv)
    expect(lines[0] == ["method", "trial", "fdp", "power", "rejections"], f"outlier header {lines[0]}")
    rows = [_parse_trial(r) for r in lines[1:]]
    _check_trials(rows, params["outlier_trials"], n_alt, "outlier")
    with open(outlier_json) as handle:
        summary = json.load(handle)
    _check_means(rows, summary["points"][0]["methods"], "outlier")


def check_exact_audit(plan, out_dir):
    with open(plan["inputs"][0]) as handle:
        instances = json.load(handle)
    with open(os.path.join(out_dir, os.path.basename(plan["outputs"][0]))) as handle:
        results = json.load(handle)
    expect(len(results) == len(instances), f"{len(results)} results for {len(instances)} instances")
    for i, (inst, (naive, fast)) in enumerate(zip(instances, results)):
        p = [Fraction(a) for a, _ in inst["pairs"]]
        q = [Fraction(b) for _, b in inst["pairs"]]
        alpha, eps = Fraction(inst["alpha"]), Fraction(inst["epsilon"])
        m = len(p)
        w = [Fraction(x) for x in inst["weights"]] if inst["weights"] else [Fraction(1)] * m
        where = f"instance {i} (m={m})"
        expect(naive["k_star"] == fast["k_star"], f"{where}: naive k* {naive['k_star']} != fast {fast['k_star']}")
        expect(naive["rejected"] == fast["rejected"], f"{where}: naive and fast reject different sets")
        k = fast["k_star"]
        for mode, rec in (("naive", naive), ("fast", fast)):
            expect(Fraction(rec["threshold"]) == (alpha * k / m if k else 0),
                   f"{where}, {mode}: threshold {rec['threshold']} != alpha*k*/m")
            v = [Fraction(x) for x in rec["modified"]]
            cutoff = sorted(v)[k - 1] if k else None
            expect(rec["rejected"] == [j for j in range(m) if k and v[j] <= cutoff],
                   f"{where}, {mode}: rejected set is not {{j : v_j <= v_(k*)}}")
        own_v = [min(pj, max(qj, alpha / (alpha + wj * eps) * pj)) for pj, qj, wj in zip(p, q, w)]
        expect([Fraction(x) for x in fast["modified"]] == own_v, f"{where}: fast v differs from own")
        ordered = sorted(own_v)
        own_k = max((j for j in range(1, m + 1) if ordered[j - 1] <= alpha * j / m), default=0)
        expect(k == own_k, f"{where}: k* {k} != own {own_k}")
        own_naive = [min(pj, max(qj, pj - k * wj * eps / m)) for pj, qj, wj in zip(p, q, w)]
        expect([Fraction(x) for x in naive["modified"]] == own_naive,
               f"{where}: naive modified values differ from the guard at k*")


CHECKS = {
    "cli-test": check_cli_test,
    "cli-outliers": check_cli_outliers,
    "simulate": check_simulate,
    "exact-audit": check_exact_audit,
}


def verdict(plan, out_dir) -> dict:
    try:
        CHECKS[plan["workload"]](plan, out_dir)
    except (Wrong, KeyError, ValueError, IndexError, TypeError) as exc:
        return {"ok": False, "reason": f"{type(exc).__name__}: {exc}"}
    return {"ok": True, "reason": ""}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("dirs", nargs="+")
    args = parser.parse_args()
    with open(args.plan) as handle:
        plan = json.load(handle)
    verdicts = {os.path.basename(d.rstrip("/")): verdict(plan, d) for d in args.dirs}
    with open(args.result, "w") as handle:
        json.dump(verdicts, handle)


if __name__ == "__main__":
    main()
