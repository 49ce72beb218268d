"""Command-line front-end.

Subcommands:

* ``test``      run the guarded step-up procedure on a p-value CSV
* ``outliers``  conformal outlier detection on score CSVs
* ``simulate``  seeded Monte Carlo experiments, optionally swept over one
  parameter
* ``bench``     wall-clock timing of the fast and naive engines

This module restates nothing that the library decides.  The flags of
``simulate`` are made from the fields of the config classes in
``_EXPERIMENTS``; an unset one takes the chosen class's default, and one
that the chosen class lacks is an error.  The library checks every value;
``main`` turns its ``ValueError``, and a ``MemoryError``, into exit 2.

Input is always headered CSV; summaries are emitted as JSON (output-only).
CSV floats are written with 17 significant digits and JSON floats with
``repr``'s shortest round-trip digits, so written results parse back to
the exact same values.  Exit codes: 0 success, 2 validation error or a
size that cannot be allocated, 3 I/O error.  All randomness flows from
``--seed``; when omitted a fresh seed is drawn and announced on stderr;
simulation results depend on the seed alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import secrets
import sys
import time
from typing import Mapping, Sequence

import numpy as np

from .conformal import JitterSpec, ScoreBundle, outlier_pvalues, trim_by_score
from .simulate import OutlierConfig, SimConfig, run_experiments
from .stepup import StepUpConfig, synth_bh, weighted_synth_bh
# EXIT_IO, EXIT_VALIDATION, read_pvalue_table and read_result_table stay importable from here.
from .tables import EXIT_IO, EXIT_OK, EXIT_VALIDATION, ROWS, CliError, _output, \
    read_pvalue_cells, read_pvalue_table, read_result_table, read_role_scores, \
    read_single_column, write_json, write_table  # noqa: F401

NAIVE_BENCH_CAP = 20_000
# Most points one --sweep range may expand to; each point is a whole experiment.
MAX_SWEEP_POINTS = 10_000

# The config class of each ``simulate --experiment``.  Its fields are the
# experiment's flags, in summary order; every field but ``seed`` can be swept.
_EXPERIMENTS = {"bernoulli": SimConfig, "outlier": OutlierConfig}


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        if seed < 0:
            raise CliError(f"--seed must be >= 0, got {seed}")
        return seed
    drawn = secrets.randbits(63)
    print(f"seed={drawn}", file=sys.stderr)
    return drawn


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_test(args: argparse.Namespace) -> int:
    """Run the guarded step-up rule over a p-value table."""
    ids, pairs, column_weights = read_pvalue_cells(args.input)
    weights = column_weights
    if args.weights_file is not None:
        if column_weights is not None:
            raise CliError(
                "weights given twice: drop the input's weight column or "
                "the --weights-file flag"
            )
        weights = read_single_column(args.weights_file, "weight")
        if weights.size != len(ids):
            raise CliError(
                f"{args.weights_file}: {weights.size} weights for "
                f"{len(ids)} hypotheses"
            )
    config = StepUpConfig(alpha=args.alpha, epsilon=args.epsilon, weights=weights,
                          mode=args.mode, normalize_weights=args.normalize_weights)
    result = (synth_bh if weights is None else weighted_synth_bh)(pairs, config)

    columns = {
        "id": ids,
        "p_real": pairs[:, 0],
        "p_synth": pairs[:, 1],
        "v": np.asarray(result.modified_pvalues, dtype=np.float64),
        "rejected": result.rejection_mask(),
    }
    write_table(args.output, columns, args.format, {
        "rows": ROWS,
        "k_star": result.k_star,
        "alpha": args.alpha,
        "epsilon": args.epsilon,
        "mode": args.mode,
        "threshold": float(result.threshold_used),
    })
    return EXIT_OK


def _load_bundle(args: argparse.Namespace) -> ScoreBundle:
    if args.scores and (args.real or args.synth or args.test):
        raise CliError("give either --scores or --real/--synth/--test, not both")
    if not args.scores and not (args.real and args.test):
        raise CliError("score input required: --scores, or --real and --test")
    if args.scores:
        by_role = read_role_scores(args.scores)
        real, synth, test = by_role["real"], by_role["synth"], by_role["test"]
    else:
        real = read_single_column(args.real, "score")
        test = read_single_column(args.test, "score")
        synth = read_single_column(args.synth, "score") if args.synth else np.empty(0)
    if real.size == 0:
        raise CliError("real score set is empty")
    if test.size == 0:
        raise CliError("test score set is empty")
    return ScoreBundle(real_scores=real, synth_scores=synth, test_scores=test)


def cmd_outliers(args: argparse.Namespace) -> int:
    """Conformal outlier detection over score files."""
    bundle = _load_bundle(args)
    trimmed = trim_by_score(bundle.synth_scores, args.rho)
    working = dataclasses.replace(bundle, synth_scores=trimmed)
    jitter = JitterSpec(seed=_resolve_seed(args.seed)) if args.jitter else None
    config = StepUpConfig(alpha=args.alpha, epsilon=args.epsilon, mode=args.mode)
    p_real, p_merged = outlier_pvalues(working, jitter)
    result = synth_bh(np.column_stack((p_real, p_merged)), config)

    columns = {
        "id": np.arange(bundle.n_test),
        "score": bundle.test_scores,
        "p_real": p_real,
        "p_merged": p_merged,
        "rejected": result.rejection_mask(),
    }
    write_table(args.output, columns, args.format, {
        "rows": ROWS,
        "k_star": result.k_star,
        "alpha": args.alpha,
        "epsilon": args.epsilon,
        "mode": args.mode,
        "rho": args.rho,
        "n_real": bundle.n_real,
        "n_synth_used": working.n_synth,
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate: sweep parsing and execution.
# ---------------------------------------------------------------------------


def _parse_sweep(text: str, allowed: Mapping[str, type]):
    name, sep, rest = text.partition("=")
    name = name.strip()
    if not sep or not rest.strip():
        raise CliError(f"sweep must look like name=v1,v2,... or name=start:stop:step, got {text!r}")
    if name not in allowed:
        raise CliError(
            f"cannot sweep {name!r}; choose one of {', '.join(sorted(allowed))}"
        )
    rest = rest.strip()
    if ":" in rest:
        parts = rest.split(":")
        if len(parts) != 3:
            raise CliError(f"range sweep must be start:stop:step, got {rest!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise CliError(f"non-numeric sweep range {rest!r}") from None
        if not all(map(math.isfinite, (start, stop, step))):
            raise CliError(f"sweep range must be finite, got {rest!r}")
        if step <= 0 or stop < start:
            raise CliError(f"sweep range must have step > 0 and stop >= start, got {rest!r}")
        # The count is checked before any point is built.
        span = (stop - start) / step + 1e-9
        if not span < MAX_SWEEP_POINTS:
            raise CliError(
                f"--sweep range {rest!r} has more than {MAX_SWEEP_POINTS} points"
            )
        values = [start + i * step for i in range(int(math.floor(span)) + 1)]
    else:
        try:
            values = [float(p) for p in rest.split(",")]
        except ValueError:
            raise CliError(f"non-numeric sweep values {rest!r}") from None
    caster = allowed[name]
    if caster is int:
        out = []
        for v in values:
            if not math.isfinite(v) or v != int(v):
                raise CliError(f"sweep over {name!r} needs integers, got {v!r}")
            out.append(int(v))
        return name, out
    return name, values


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run a Monte Carlo experiment, optionally sweeping one parameter."""
    config_class = _EXPERIMENTS[args.experiment]
    fields = dataclasses.fields(config_class)
    # A flag of another experiment's field would be dropped without a word.
    own = {f.name for f in fields}
    for other in _EXPERIMENTS.values():
        for f in dataclasses.fields(other):
            if f.name not in own and getattr(args, f.name) is not None:
                raise CliError(f"--{f.name.replace('_', '-')} is not a flag of the "
                               f"{args.experiment} experiment")
    q_synth_null = args.q_synth_null
    if q_synth_null not in (None, "mirror-alt"):
        try:
            q_synth_null = float(q_synth_null)
        except ValueError:
            raise CliError(
                f"--q-synth-null must be a probability or 'mirror-alt', "
                f"got {q_synth_null!r}"
            ) from None
    seed = _resolve_seed(args.seed)
    given = {**vars(args), "seed": seed, "q_synth_null": q_synth_null}
    # An unset flag reads None and takes the class's default.
    base_kwargs = {f.name: f.default if given[f.name] is None else given[f.name]
                   for f in fields}

    if args.sweep is not None:
        sweepable = {f.name: type(f.default) for f in fields if f.name != "seed"}
        param, values = _parse_sweep(args.sweep, sweepable)
        sweep_info = {"param": param, "values": values}
        runs = [(value, {**base_kwargs, param: value}) for value in values]
    else:
        param = sweep_info = None
        runs = [(None, base_kwargs)]

    def failure(value, exc: ValueError) -> CliError:
        prefix = "" if param is None else f"sweep {param}={value!r}: "
        return CliError(prefix + str(exc))

    # Every point is validated before any of them runs.
    configs = []
    for value, kwargs in runs:
        try:
            configs.append(config_class(**kwargs))
        except ValueError as exc:
            raise failure(value, exc) from exc
    # The runner yields the points in order, so an error belongs to the
    # first point not yet yielded.
    points = []
    try:
        for result in run_experiments(configs):
            points.append((runs[len(points)][0], result))
    except ValueError as exc:
        raise failure(runs[len(points)][0], exc) from exc

    summary_payload = {
        "experiment": args.experiment,
        "config": base_kwargs,
        "seed": seed,
        "sweep": sweep_info,
        "points": [
            {"param": param, "value": value,
             "methods": [dataclasses.asdict(s) for s in result.summaries()]}
            for value, result in points
        ],
    }

    values: list = []
    methods: list[str] = []
    trial = []
    for value, result in points:
        n_methods, n_trials = result.fdp.shape
        values += [value] * (n_methods * n_trials)
        for name in result.method_names:
            methods += [name] * n_trials
        trial.append(np.tile(np.arange(n_trials), n_methods))
    columns: dict[str, Sequence] = {}
    if args.format == "json" or param is not None:
        columns["param"] = [param] * len(methods)
        # JSON keeps each sweep value's own type; CSV writes it as a float.
        columns["value"] = values if args.format == "json" else np.array(values, dtype=np.float64)
    columns["method"] = methods
    columns["trial"] = np.concatenate(trial)
    for name in ("fdp", "power", "rejections"):
        columns[name] = np.concatenate([getattr(result, name).ravel() for _, result in points])
    if args.format == "json":
        write_table(args.output, columns, "json", {**summary_payload, "per_trial": ROWS})
        return EXIT_OK
    # The table keeps its temporary name until the sidecar is in place, so a
    # failure in either file leaves neither new one.
    with _output(args.output) as table:
        write_table(table, columns, "csv", {})
        if args.output is not None:
            table.flush()
            stem = args.output[:-4] if args.output.endswith(".csv") else args.output
            write_json(stem + ".summary.json", summary_payload)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    """Time the fast engine (and the naive oracle at small m)."""
    sizes = []
    for token in args.sizes.split(","):
        try:
            sizes.append(int(token))
        except ValueError:
            raise CliError(f"--sizes must be integers, got {token!r}") from None
    if args.repeats < 1:
        raise CliError(f"--repeats must be >= 1, got {args.repeats}")
    for m in sizes:
        if m < 1:
            raise CliError(f"sizes must be >= 1, got {m}")
    configs = {
        mode: StepUpConfig(alpha=args.alpha, epsilon=args.epsilon, mode=mode)
        for mode in ("fast", "naive")
    }
    seed = _resolve_seed(args.seed)
    records = []
    for m in sizes:
        rng = np.random.default_rng([seed, m])
        pairs = rng.random((m, 2))
        modes = ["fast"] if m > NAIVE_BENCH_CAP else ["fast", "naive"]
        for mode in modes:
            best = math.inf
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                synth_bh(pairs, configs[mode])
                best = min(best, time.perf_counter() - t0)
            records.append((m, mode, best))
    columns = {
        "m": np.array([r[0] for r in records], dtype=np.int64),
        "mode": [r[1] for r in records],
        "seconds": np.array([r[2] for r in records], dtype=np.float64),
    }
    write_table(args.output, columns, "csv", {})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _add_level_flags(parser: argparse.ArgumentParser, default_epsilon: float) -> None:
    parser.add_argument("--alpha", type=float, default=0.1,
                        help="target FDR level (default 0.1)")
    parser.add_argument("--epsilon", type=float, default=default_epsilon,
                        help=f"admission cost for auxiliary data (default {default_epsilon})")


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per field of each config class in ``_EXPERIMENTS``.

    A field of every class is a common option, any other is in its
    experiment's group.  No flag has a default: an unset one reads None,
    and ``cmd_simulate`` takes the chosen class's default for it.
    """
    fields = {name: dataclasses.fields(c) for name, c in _EXPERIMENTS.items()}
    shared = set.intersection(*({f.name for f in fs} for fs in fields.values()))
    added = {"alpha", "epsilon", "seed"}  # written by hand among the common options
    for name, fs in fields.items():
        group = parser.add_argument_group(f"{name} experiment")
        for f in fs:
            if f.name in added:
                continue
            added.add(f.name)
            # q_synth_null is a probability or a word, which cmd_simulate parses.
            kwargs = ({"help": "probability, or 'mirror-alt' for the hostile regime"}
                      if f.name == "q_synth_null" else {"type": type(f.default)})
            (parser if f.name in shared else group).add_argument(
                "--" + f.name.replace("_", "-"), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthbh",
        description="Guarded step-up multiple testing with auxiliary data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the step-up procedure on a p-value CSV")
    p_test.add_argument("input", help="CSV with header id,p_real,p_synth[,weight]")
    _add_level_flags(p_test, default_epsilon=0.0)
    p_test.add_argument("--weights-file", help="single-column CSV with header 'weight'")
    p_test.add_argument("--normalize-weights", action="store_true",
                        help="rescale weights to sum to m instead of erroring")
    p_test.add_argument("--mode", choices=["naive", "fast"], default="fast")
    p_test.add_argument("--output", help="output path (default stdout)")
    p_test.add_argument("--format", choices=["csv", "json"], default="csv")

    p_out = sub.add_parser("outliers", help="conformal outlier detection on score CSVs")
    p_out.add_argument("--scores", help="CSV with header role,score (roles real/synth/test)")
    p_out.add_argument("--real", help="single-column score CSV for the reference set")
    p_out.add_argument("--synth", help="single-column score CSV for the auxiliary set")
    p_out.add_argument("--test", help="single-column score CSV for the test points")
    _add_level_flags(p_out, default_epsilon=0.0)
    p_out.add_argument("--rho", type=float, default=0.0,
                       help="fraction of most outlier-like auxiliary scores to trim")
    p_out.add_argument("--mode", choices=["naive", "fast"], default="fast")
    p_out.add_argument("--jitter", action="store_true",
                       help="break score ties with seeded negligible noise")
    p_out.add_argument("--seed", type=int, help="seed for --jitter")
    p_out.add_argument("--output", help="output path (default stdout)")
    p_out.add_argument("--format", choices=["csv", "json"], default="csv")

    p_sim = sub.add_parser("simulate", help="run a seeded Monte Carlo experiment")
    p_sim.add_argument("--experiment", choices=list(_EXPERIMENTS), default="bernoulli")
    _add_level_flags(p_sim, default_epsilon=0.1)
    p_sim.add_argument("--seed", type=int,
                       help="master seed (omitted: drawn from entropy and printed)")
    p_sim.add_argument("--sweep", help="one-parameter sweep: name=v1,v2,... or name=start:stop:step")
    p_sim.add_argument("--output", help="per-trial CSV path (default stdout); "
                       "a .summary.json sidecar is written next to it")
    p_sim.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_experiment_flags(p_sim)

    p_bench = sub.add_parser("bench", help="time the fast and naive engines")
    p_bench.add_argument("--sizes", required=True,
                         help="comma-separated problem sizes, e.g. 1000,100000")
    _add_level_flags(p_bench, default_epsilon=0.1)
    p_bench.add_argument("--repeats", type=int, default=3,
                         help="timing repeats per size; the minimum is reported")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--output", help="output path (default stdout)")
    return parser


def _run_size(args: argparse.Namespace) -> str:
    """What sets the size of a run: its size flags, or its input files."""
    if args.command == "bench":
        return f"--sizes {args.sizes}"
    if args.command == "simulate":
        given = [(f.name, getattr(args, f.name), f.default)
                 for f in dataclasses.fields(_EXPERIMENTS[args.experiment])
                 if type(f.default) is int and f.name != "seed"]
        flags = [f"--{name.replace('_', '-')} {default if value is None else value}"
                 for name, value, default in given]
        return " ".join(flags + ([] if args.sweep is None else [f"--sweep {args.sweep}"]))
    paths = ([args.input, args.weights_file] if args.command == "test"
             else [args.scores, args.real, args.synth, args.test])
    sizes = []
    for path in filter(None, paths):
        try:
            sizes.append(f"{path} ({os.stat(path).st_size} bytes)")
        except OSError:
            sizes.append(path)
    return ", ".join(sizes)


_DISPATCH = {
    "test": cmd_test,
    "outliers": cmd_outliers,
    "simulate": cmd_simulate,
    "bench": cmd_bench,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _DISPATCH[args.command](args)
        # Flushed here, so that a closed stdout fails where it is handled.
        sys.stdout.flush()
        return code
    except (CliError, ValueError) as exc:
        # A ValueError is a failed library check, such as a config's.
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_VALIDATION)
    except MemoryError:
        # numpy refuses at once a size that cannot be allocated at all.
        print(f"error: not enough memory for {args.command} {_run_size(args)}",
              file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError as exc:
        # Unflushed output would fail again at exit; devnull takes it.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: stdout: {exc.strerror}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
