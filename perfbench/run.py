"""Benchmark for synthbh: one workload, one run, one JSON line of results.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-test, cli-outliers, simulate, exact-audit (see README.md).
A run takes four steps, each in a process of its own:

1. ``gen.py`` makes the workload's inputs from ``--seed``;
2. fresh interpreters ``import synthbh``; the median time is ``setup_s``;
3. ``measure.py`` repeats the operation for ``--seconds``;
4. ``check.py`` checks every distinct output against its own computation.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  An operation
fails when it raises, exits non-zero, or leaves an output the checks
reject; ``correct`` is false when any output was rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("cli-test", "cli-outliers", "simulate", "exact-audit")
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s", "hyp_per_s": "hyp/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER_UNITS = {
    "cli.read_s": "s", "cli.read_rows_per_s": "rows/s", "cli.compute_s": "s",
    "cli.write_s": "s", "cli.input_bytes": "bytes", "cli.output_bytes": "bytes",
    "stepup.calls": "count", "stepup.s": "s", "stepup.hyp": "hyp",
    "stepup.ns_per_hyp": "ns/hyp", "stepup.below_alpha": "count", "stepup.k_star": "count",
    "stepup.exact_naive_s": "s", "stepup.exact_fast_s": "s",
    "conformal.pvalue_calls": "count", "conformal.pvalue_s": "s", "conformal.trim_s": "s",
    "conformal.scores": "count",
    "simulate.trials": "count", "simulate.threads": "count", "simulate.pvalue_s": "s",
    "simulate.stepup_s": "s", "simulate.score_s": "s", "simulate.busy_over_wall": "ratio",
    "trace.overhead_s": "s", "trace.self_sum_s": "s", "trace.untraced_wall_s": "s",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("SYNTHBH_THREADS", None)  # the program's default thread pool
    return env


def run_child(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run a Python child in the checkout; kill it if the run's deadline passes."""
    try:
        return subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} did not finish before the run's deadline") from exc


def run_step(argv: list[str], what: str, deadline: float) -> None:
    proc = run_child(argv, deadline)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}")


def measure_setup(samples: int, deadline: float) -> float:
    """Median wall time for a fresh interpreter to import synthbh."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = run_child(["-c", "import synthbh"], deadline)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"import synthbh failed: {proc.stderr.strip()}")
    return statistics.median(times)


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 scale: str = "full", plant: str | None = None) -> dict:
    if not os.path.isfile(os.path.join(SRC, "synthbh", "__init__.py")):
        raise BenchError(f"no synthbh sources under {SRC}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = os.path.join(HERE, "work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        plan_path = os.path.join(work, "plan.json")
        run_step([os.path.join(HERE, "gen.py"), "--workload", workload, "--seed", str(seed),
                  "--scale", scale, "--out", work], "gen.py", deadline)
        setup_s = measure_setup(SETUP_SAMPLES, deadline) if not trace else None
        measured = os.path.join(work, "measure.json")
        argv = [os.path.join(HERE, "measure.py"), "--plan", plan_path, "--seconds",
                str(seconds), "--trace", str(trace), "--result", measured]
        if plant:
            argv += ["--plant", plant]
        run_step(argv, "measure.py", deadline)
        with open(measured) as handle:
            m = json.load(handle)
        kept = os.path.join(work, "kept")
        digests = sorted(os.listdir(kept)) if os.path.isdir(kept) else []
        verdicts = {}
        if digests:
            checked = os.path.join(work, "check.json")
            run_step([os.path.join(HERE, "check.py"), "--plan", plan_path, "--result", checked,
                      *(os.path.join(kept, d) for d in digests)], "check.py", deadline)
            with open(checked) as handle:
                verdicts = json.load(handle)
        with open(plan_path) as handle:
            plan = json.load(handle)
        return summarize(plan, m, verdicts, setup_s, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summarize(plan: dict, m: dict, verdicts: dict, setup_s, trace: int) -> dict:
    ops = m["ops"]
    failed = 0
    wrong = False
    reference = m["warmup"]["digest"]
    for op in ops:
        if op["error"] is not None:
            failed += 1
            print(f"perfbench: operation failed: {op['error']}", file=sys.stderr)
            continue
        verdict = verdicts[op["digest"]]
        ok = verdict["ok"]
        # simulate promises byte-identical files for the same seed.
        if ok and plan["workload"] == "simulate" and op["digest"] != reference:
            ok = False
            verdict = {"reason": "output differs from the warm-up run of the same seed"}
        if not ok:
            failed += 1
            wrong = True
            print(f"perfbench: wrong output: {verdict['reason']}", file=sys.stderr)
    if trace:
        values = dict(m["layers"])
        through_cli = bool(plan["calls"])
        values["cli.input_bytes"] = (
            sum(os.path.getsize(p) for p in plan["inputs"]) if through_cli else 0)
        values["cli.output_bytes"] = (
            statistics.median(op["bytes"] for op in ops if op["traced"]) if through_cli else 0)
        units = PER_LAYER_UNITS
    else:
        walls = [op["wall"] for op in ops]
        values = {
            "wall_s": statistics.median(walls),
            "hyp_per_s": plan["hyp"] * len(ops) / sum(walls),
            "cpu_s": statistics.median(op["cpu"] for op in ops),
            "peak_rss_mb": m["peak_rss_mb"],
            "setup_s": setup_s,
        }
        units = END_TO_END_UNITS
    return {
        "correct": not wrong,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="synthbh benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="input size; tiny is for selfcheck.py")
    parser.add_argument("--plant", help="corrupt one output (selfcheck.py only)")
    args = parser.parse_args()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                              args.scale, args.plant)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
