"""Span recording at synthbh's module boundaries, from outside the program.

``Tracer.install`` replaces, in each synthbh module's namespace, the
functions that module calls across a module boundary (plus the few
internal calls the per-layer metrics need) with wrappers that record a
span: name, start, end, parent span, thread and operation number.  Spans
stay in memory until ``Tracer.dump`` writes them out at the end of a run;
``Tracer.uninstall`` restores the original functions, so untraced
operations run the unmodified program.

A span's name is ``<calling namespace>.<function>``: ``cli.synth_bh`` is
the step-up call made from ``cli``, ``conformal.synth_bh`` the one made
inside ``detect_outliers``, ``bench.synth_bh`` the benchmark's own call.
Counts a metric needs (hypotheses, rejections, rows) are taken from the
arguments and the result after the span's end time is read, and the time
they take is excluded from the parent's self time.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import threading
import time
from fractions import Fraction

import numpy as np

READERS = ("read_pvalue_table", "read_single_column", "read_role_scores")
STEPUP = ("bh", "synth_bh", "weighted_synth_bh")
PVALUES = ("conformal_pvalues", "merged_conformal_pvalues")
EXPERIMENTS = ("run_bernoulli_experiment", "run_outlier_experiment")


class Span:
    __slots__ = ("id", "name", "parent", "thread", "op", "start", "end", "stop", "cpu",
                 "attrs")

    @property
    def fn(self) -> str:
        return self.name.rsplit(".", 1)[1]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _size(x) -> int:
    """Element count of an array or sequence argument; 0 for a scalar."""
    return int(np.size(x)) if isinstance(x, (np.ndarray, list, tuple)) else 0


def _stepup_attrs(args, kwargs, result, fn):
    if fn == "bh":
        alpha = args[1] if len(args) > 1 else kwargs["alpha"]
        mode = "fast"
    else:
        config = args[1] if len(args) > 1 else kwargs["config"]
        alpha, mode = config.alpha, config.mode
    mods = result.modified_pvalues
    exact = isinstance(result.threshold_used, Fraction)
    if exact:
        below = sum(1 for v in mods if v <= alpha)
    else:
        below = int(np.count_nonzero(np.asarray(mods) <= float(alpha)))
    return {"hyp": len(mods), "below_alpha": below, "k_star": int(result.k_star),
            "exact": exact, "mode": mode}


def _reader_attrs(args, kwargs, result, fn):
    if fn == "read_pvalue_table":
        return {"rows": len(result[0])}
    if fn == "read_role_scores":
        return {"rows": sum(int(v.size) for v in result.values())}
    return {"rows": int(result.size)}


def _score_attrs(args, kwargs, result, fn):
    return {"scores": sum(_size(a) for a in args)}


def _attrs_for(fn: str):
    if fn in STEPUP:
        return _stepup_attrs
    if fn in READERS:
        return _reader_attrs
    if fn in PVALUES or fn == "trim_by_score":
        return _score_attrs
    return None


# (module, attribute, span-name prefix).  The prefix is the calling
# namespace; for "synthbh" it is the benchmark itself.
BOUNDARIES = [
    ("synthbh.cli", "main", "cli"),
    *(("synthbh.cli", fn, "cli") for fn in READERS),
    *(("synthbh.cli", fn, "cli") for fn in (
        "synth_bh", "weighted_synth_bh", "conformal_pvalues",
        "merged_conformal_pvalues", "detect_outliers", "trim_by_score",
        "apply_jitter", *EXPERIMENTS)),
    *(("synthbh.conformal", fn, "conformal") for fn in (
        "synth_bh", "conformal_pvalues", "merged_conformal_pvalues", "apply_jitter")),
    *(("synthbh.simulate", fn, "simulate") for fn in (
        "bh", "synth_bh", "conformal_pvalues", "merged_conformal_pvalues",
        "detect_outliers", "trim_by_score", "randomized_binomial_pvalues",
        "fdp_and_power")),
    ("synthbh", "synth_bh", "bench"),
    ("synthbh", "weighted_synth_bh", "bench"),
    ("synthbh", "StepUpConfig", "bench"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._wrappers: list[tuple] = []
        self.main_thread = threading.get_ident()
        for modname, attr, prefix in BOUNDARIES:
            module = sys.modules[modname]
            if not hasattr(module, attr):
                print(f"perfbench: {modname}.{attr} not found; not traced", file=sys.stderr)
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(f"{prefix}.{attr}", original, _attrs_for(attr))
            self._wrappers.append((module, attr, original, wrapper))
        simulate = sys.modules["synthbh.simulate"]
        if hasattr(simulate, "_run_trials"):
            # Trial spans: the per-trial worker, in whichever thread runs it.
            run_trials = simulate._run_trials

            def traced_run_trials(worker, trials):
                return run_trials(self.wrap("simulate.trial", worker, None, cpu=True), trials)

            self._wrappers.append((simulate, "_run_trials", run_trials, traced_run_trials))

    def install(self) -> None:
        for module, attr, _, wrapper in self._wrappers:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._wrappers:
            setattr(module, attr, original)

    def wrap(self, name: str, fn, attrs_fn, cpu: bool = False):
        """``fn`` recording one span per call; ``cpu`` also records the
        calling thread's CPU time, which excludes waiting for the GIL."""
        tracer = self
        short = name.rsplit(".", 1)[1]

        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span = Span()
            span.id = next(tracer._ids)
            span.name = name
            span.parent = stack[-1].id if stack else None
            span.thread = threading.get_ident()
            span.op = tracer.op
            span.attrs = None
            stack.append(span)
            cpu0 = time.thread_time() if cpu else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - cpu0 if cpu else None
                stack.pop()
                span.stop = span.end
                tracer.spans.append(span)
            if attrs_fn is not None:
                span.attrs = attrs_fn(args, kwargs, result, short)
                span.stop = time.perf_counter()
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                [
                    {"id": s.id, "name": s.name, "parent": s.parent, "thread": s.thread,
                     "op": s.op, "start": s.start, "end": s.end, "cpu": s.cpu,
                     "attrs": s.attrs}
                    for s in self.spans
                ],
                handle,
            )


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part covered by its children (same thread)."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.stop - s.start
    return own


def op_metrics(spans: list[Span], main_thread: int, threads: int) -> dict[str, float]:
    """Per-layer figures of one traced operation."""
    by_id = {s.id: s for s in spans}

    def total(pred) -> float:
        return sum(s.duration for s in spans if pred(s))

    def count(pred) -> int:
        return sum(1 for s in spans if pred(s))

    def attr_sum(pred, key) -> int:
        return sum(s.attrs[key] for s in spans if pred(s) and s.attrs)

    def under_simulate(s: Span) -> bool:
        parent = by_id.get(s.parent)
        while parent is not None:
            if parent.name.startswith("simulate."):
                return True
            parent = by_id.get(parent.parent)
        return False

    self_time = _self_times(spans)
    is_reader = lambda s: s.name.startswith("cli.") and s.fn in READERS
    is_stepup = lambda s: s.fn in STEPUP
    read_s = total(is_reader)
    rows = attr_sum(is_reader, "rows")
    stepup_s = total(is_stepup)
    hyp = attr_sum(is_stepup, "hyp")
    metrics = {
        "cli.read_s": read_s,
        "cli.read_rows_per_s": rows / read_s if read_s > 0 else 0.0,
        "cli.compute_s": total(lambda s: s.name.startswith("cli.")
                               and s.fn not in READERS and s.fn != "main"),
        "cli.write_s": sum(self_time[s.id] for s in spans if s.name == "cli.main"),
        "stepup.calls": count(is_stepup),
        "stepup.s": stepup_s,
        "stepup.hyp": hyp,
        "stepup.ns_per_hyp": stepup_s / hyp * 1e9 if hyp else 0.0,
        "stepup.below_alpha": attr_sum(is_stepup, "below_alpha"),
        "stepup.k_star": attr_sum(is_stepup, "k_star"),
        "conformal.pvalue_calls": count(lambda s: s.fn in PVALUES),
        "conformal.pvalue_s": total(lambda s: s.fn in PVALUES),
        "conformal.trim_s": total(lambda s: s.fn == "trim_by_score"),
        "conformal.scores": attr_sum(lambda s: s.fn in PVALUES or s.fn == "trim_by_score",
                                     "scores"),
    }
    for mode in ("naive", "fast"):
        exact = [s for s in spans if is_stepup(s) and s.attrs and s.attrs["exact"]
                 and s.attrs["mode"] == mode]
        metrics[f"stepup.exact_{mode}_s"] = (
            sum(s.duration for s in exact) / len(exact) if exact else 0.0)
    trials = [s for s in spans if s.name == "simulate.trial"]
    experiment_wall = total(lambda s: s.name.startswith("cli.") and s.fn in EXPERIMENTS)
    if trials:
        busy = sum(s.cpu for s in trials)
    else:
        # No per-trial worker to wrap: the experiment ran in its caller.
        busy = experiment_wall
    metrics.update({
        "simulate.trials": len(trials),
        "simulate.threads": threads if experiment_wall > 0 else 0,
        "simulate.pvalue_s": total(lambda s: s.name == "simulate.randomized_binomial_pvalues"),
        "simulate.stepup_s": total(lambda s: is_stepup(s) and under_simulate(s)),
        "simulate.score_s": total(lambda s: s.name == "simulate.fdp_and_power"),
        "simulate.busy_over_wall": busy / experiment_wall if experiment_wall > 0 else 0.0,
        "trace.self_sum_s": sum(self_time[s.id] for s in spans if s.thread == main_thread),
    })
    return metrics


def layer_metrics(tracer: Tracer, threads: int) -> dict[str, float]:
    """Median over traced operations of each per-operation figure."""
    by_op: dict[int, list[Span]] = {}
    for s in tracer.spans:
        by_op.setdefault(s.op, []).append(s)
    per_op = [op_metrics(spans, tracer.main_thread, threads)
              for op, spans in sorted(by_op.items()) if op is not None]
    if not per_op:
        return {}
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
