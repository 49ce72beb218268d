"""Self-check: the output checks catch wrong answers.

Usage (from the root of a checkout): python3 perfbench/selfcheck.py

For each workload, at a tiny input size, it makes one clean run (0 failed
operations expected, traced and untraced), then one run per planted fault:
``flip`` turns one rejection decision around, ``offbyone`` moves one
p-value (or modified value) by one step.  The fault is planted in the
output of the first timed operation only, so the run must report exactly
one failed operation, ``correct`` false, and a reason from the content
checks.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _edit_csv_row(path, edit):
    with open(path, newline="") as handle:
        lines = handle.read().split("\n")
    row = next(csv.reader([lines[1]]))
    lines[1] = ",".join(edit(row))
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines))


def _edit_json(path, edit):
    with open(path) as handle:
        data = json.load(handle)
    edit(data)
    with open(path, "w") as handle:
        json.dump(data, handle)


def _toggle(row, col):
    row[col] = "false" if row[col] == "true" else "true"
    return row


def _next_float(row, col, toward=2.0):
    row[col] = format(float(np.nextafter(float(row[col]), toward)), ".17g")
    return row


def _flip_outlier(data):
    data["rows"][0]["rejected"] = not data["rows"][0]["rejected"]


def _offbyone_outlier(data):
    data["rows"][0]["p_real"] += 1.0 / (data["n_real"] + 1)


def _more_rejections(row):
    # param,value,method,trial,fdp,power,rejections: one more rejection.
    row[6] = str(int(row[6]) + 1)
    return row


def _flip_exact(data):
    fast = data[0][1]
    fast["rejected"] = sorted(set(fast["rejected"]) ^ {0})


def _offbyone_exact(data):
    fast = data[0][1]
    v = Fraction(fast["modified"][0])
    fast["modified"][0] = str(v + Fraction(1, v.denominator))


PLANTS = {
    "cli-test": {
        "flip": lambda outs: _edit_csv_row(outs[0], lambda r: _toggle(r, 4)),
        "offbyone": lambda outs: _edit_csv_row(outs[0], lambda r: _next_float(r, 3)),
    },
    "cli-outliers": {
        "flip": lambda outs: _edit_json(outs[0], _flip_outlier),
        "offbyone": lambda outs: _edit_json(outs[0], _offbyone_outlier),
    },
    "simulate": {
        "flip": lambda outs: _edit_csv_row(outs[0], _more_rejections),
        "offbyone": lambda outs: _edit_csv_row(outs[0], lambda r: _next_float(r, 5, -1.0)),
    },
    "exact-audit": {
        "flip": lambda outs: _edit_json(outs[0], _flip_exact),
        "offbyone": lambda outs: _edit_json(outs[0], _offbyone_exact),
    },
}


def bench(workload, trace=0, plant=None):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "11", "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"]
    if plant:
        argv += ["--plant", plant]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return None, proc.stderr.strip()
    reasons = [line for line in proc.stderr.splitlines() if "wrong output" in line]
    return json.loads(proc.stdout.splitlines()[-1]), "; ".join(reasons)


def main() -> int:
    ok = True
    for workload in PLANTS:
        for trace in (0, 1):
            result, why = bench(workload, trace)
            good = result is not None and result["correct"] and result["failed"] == 0
            ok &= good
            label = "traced" if trace else "clean"
            print(f"{workload:13s} {label:9s} {'ok' if good else 'FAIL'}  "
                  f"{result and (result['attempted'], result['failed'])} {why}")
        for plant in PLANTS[workload]:
            result, why = bench(workload, plant=plant)
            good = (result is not None and not result["correct"] and result["failed"] == 1
                    and "warm-up" not in why)
            ok &= good
            print(f"{workload:13s} {plant:9s} {'ok' if good else 'FAIL'}  "
                  f"{result and (result['attempted'], result['failed'])} {why}")
    print("selfcheck passed" if ok else "selfcheck FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
