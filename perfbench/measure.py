"""The measuring process: run one workload's operation for a fixed time.

Usage: python3 perfbench/measure.py --plan DIR/plan.json --seconds S
           --trace 0|1 --result FILE [--plant KIND]

Imports synthbh from ``src/`` of the checkout, runs one untimed warm-up
operation, then repeats the operation until ``--seconds`` have passed.
Each operation is timed (wall and process CPU, all threads).  Its output
files are hashed after the timer stops; the first copy of every distinct
output is kept under ``DIR/kept/<digest>/`` for the checker, which runs
in another process so that its memory does not count here.

With ``--trace 1`` operations alternate between untraced and traced
(spans from ``spans.py``); the difference of their median wall times is
the tracing overhead.  ``--plant`` is used by ``selfcheck.py`` only: it
corrupts the output of the first timed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import synthbh  # noqa: E402
import synthbh.cli  # noqa: E402
import synthbh.simulate  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402


def cli_operation(calls):
    def op():
        for argv in calls:
            code = synthbh.cli.main(list(argv))
            if code != 0:
                raise RuntimeError(f"synthbh {argv[0]} exited {code}")
    return op


def load_instances(path):
    with open(path) as handle:
        raw = json.load(handle)
    return [
        (
            [(Fraction(a), Fraction(b)) for a, b in inst["pairs"]],
            Fraction(inst["alpha"]),
            Fraction(inst["epsilon"]),
            None if inst["weights"] is None else [Fraction(w) for w in inst["weights"]],
        )
        for inst in raw
    ]


def exact_operation(instances, out_path):
    """Every instance in naive then fast mode, through the public API."""
    results = []

    def op():
        results.clear()
        for pairs, alpha, eps, weights in instances:
            for mode in ("naive", "fast"):
                config = synthbh.StepUpConfig(alpha=alpha, epsilon=eps,
                                              weights=weights, mode=mode)
                run = synthbh.weighted_synth_bh if weights is not None else synthbh.synth_bh
                results.append(run(pairs, config))

    def write():
        records = [
            {
                "k_star": int(r.k_star),
                "rejected": [int(j) for j in r.rejected],
                "threshold": str(r.threshold_used),
                "modified": [str(v) for v in r.modified_pvalues],
            }
            for r in results
        ]
        with open(out_path, "w") as handle:
            json.dump([records[i:i + 2] for i in range(0, len(records), 2)], handle)

    return op, write


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()[:16]


def keep(paths, kept_dir):
    os.makedirs(kept_dir, exist_ok=True)
    for path in paths:
        shutil.copyfile(path, os.path.join(kept_dir, os.path.basename(path)))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--plant")
    args = parser.parse_args()

    with open(args.plan) as handle:
        plan = json.load(handle)
    work = os.path.dirname(os.path.abspath(args.plan))
    outputs = plan["outputs"]
    write = None
    if plan["workload"] == "exact-audit":
        op, write = exact_operation(load_instances(plan["inputs"][0]), outputs[0])
    else:
        op = cli_operation(plan["calls"])
    plant = None
    if args.plant:
        from selfcheck import PLANTS
        plant = PLANTS[plan["workload"]][args.plant]

    tracer = Tracer() if args.trace else None
    kept: set[str] = set()
    records = []

    def run_once(traced: bool, index: int | None):
        if tracer is not None:
            tracer.op = index if traced else None
            if traced:
                tracer.install()
        error = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            op()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer is not None and traced:
            tracer.uninstall()
        key, size = None, 0
        if error is None:
            if write is not None:
                write()
            if plant is not None and index == 0:
                plant(outputs)
            key = digest(outputs)
            size = sum(os.path.getsize(path) for path in outputs)
            if key not in kept:
                kept.add(key)
                keep(outputs, os.path.join(work, "kept", key))
        return {"wall": t1 - t0, "cpu": c1 - c0, "digest": key, "error": error,
                "bytes": size, "traced": traced}

    warmup = run_once(False, None)
    started = time.perf_counter()
    while True:
        index = len(records)
        records.append(run_once(bool(tracer) and index % 2 == 1, index))
        elapsed = time.perf_counter() - started
        if elapsed >= args.seconds and len(records) >= 2 and len(records) % 2 == 0:
            break

    result = {
        "warmup": warmup,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        threads = getattr(synthbh.simulate, "resolve_thread_count", lambda: 1)()
        layers = layer_metrics(tracer, threads)
        plain = statistics.median(r["wall"] for r in records if not r["traced"])
        traced = statistics.median(r["wall"] for r in records if r["traced"])
        layers["trace.overhead_s"] = traced - plain
        layers["trace.untraced_wall_s"] = plain
        result["layers"] = layers
        result["spans"] = len(tracer.spans)
        trace_dir = os.path.join(HERE, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.dump(os.path.join(trace_dir, f"{plan['workload']}.spans.json"))
    with open(args.result, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
