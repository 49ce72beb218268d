"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import collections
import csv
import dataclasses
import json
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

import synthbh.conformal
from synthbh import JitterSpec, ScoreBundle, StepUpConfig, bh, cli, conformal_pvalues, \
    detect_outliers, simulate, synth_bh, tables, trim_by_score
from synthbh.cli import CliError, main, read_result_table

PAIR_FILE = "id,p_real,p_synth\nh1,0.08,0.01\nh2,0.9,0.9\n"


def write(path, text):
    path.write_text(text)
    return str(path)


def run(argv):
    return main([str(a) for a in argv])


class TestCmdTest:
    def test_basic_run(self, tmp_path):
        inp = write(tmp_path / "p.csv", PAIR_FILE)
        out = tmp_path / "result.csv"
        code = run(["test", inp, "--alpha", "0.1", "--epsilon", "0.1",
                    "--output", out])
        assert code == 0
        header, rows, summary = read_result_table(str(out))
        assert header == ["id", "p_real", "p_synth", "v", "rejected"]
        assert [r[0] for r in rows] == ["h1", "h2"]
        assert [r[4] for r in rows] == ["true", "false"]
        assert summary["k_star"] == "1"
        assert summary["mode"] == "fast"

    def test_ids_with_separators_read_back_unchanged(self, tmp_path):
        ids = ["lf\nid", "crlf\r\nid", "cr\rid", "a,b", 'q"uote', "#hash", "plain"]
        with open(tmp_path / "p.csv", "w", newline="") as handle:
            # This terminator makes csv.writer quote the bare "\r" too.
            writer = csv.writer(handle, lineterminator="\r\n")
            writer.writerow(["id", "p_real", "p_synth"])
            writer.writerows([i, 0.01 * (k + 1), 0.5] for k, i in enumerate(ids))
        out = tmp_path / "r.csv"
        assert run(["test", tmp_path / "p.csv", "--alpha", "0.2", "--output", out]) == 0
        header, rows, summary = read_result_table(str(out))
        assert header == ["id", "p_real", "p_synth", "v", "rejected"]
        assert [r[0] for r in rows] == ids
        assert all(len(r) == 5 for r in rows)
        assert summary["k_star"] == str(len(ids))
        with open(out, newline="") as handle:
            assert [r[0] for r in csv.reader(handle)][1:-1] == ids

    def test_round_trip_reproduces_rejections(self, tmp_path):
        rng = np.random.default_rng(60)
        lines = ["id,p_real,p_synth"]
        for j in range(50):
            lines.append(f"x{j},{rng.random()!r},{rng.random()!r}")
        inp = write(tmp_path / "p.csv", "\n".join(lines) + "\n")
        out = tmp_path / "r.csv"
        assert run(["test", inp, "--alpha", "0.2", "--epsilon", "0.1",
                    "--output", out]) == 0
        _, rows, summary = read_result_table(str(out))
        rejected = {r[0] for r in rows if r[4] == "true"}
        assert len(rejected) == int(summary["k_star"])
        # Feed the echoed p-values back in; the rejection set must repeat.
        relines = ["id,p_real,p_synth"] + [f"{r[0]},{r[1]},{r[2]}" for r in rows]
        re_inp = write(tmp_path / "p2.csv", "\n".join(relines) + "\n")
        out2 = tmp_path / "r2.csv"
        assert run(["test", re_inp, "--alpha", "0.2", "--epsilon", "0.1",
                    "--output", out2]) == 0
        _, rows2, _ = read_result_table(str(out2))
        assert {r[0] for r in rows2 if r[4] == "true"} == rejected

    def test_out_of_range_pvalue_diagnostic(self, tmp_path, capsys):
        inp = write(tmp_path / "p.csv", "id,p_real,p_synth\nh1,1.2,0.5\n")
        assert run(["test", inp]) == 2
        err = capsys.readouterr().err
        assert "row 2" in err
        assert "p_real" in err

    def test_missing_file_is_io_error(self, tmp_path):
        assert run(["test", tmp_path / "absent.csv"]) == 3

    def test_epsilon_zero_equals_plain_stepup(self, tmp_path):
        rng = np.random.default_rng(61)
        p = rng.random(30)
        q = rng.random(30)
        lines = ["id,p_real,p_synth"] + [
            f"h{j},{float(p[j])!r},{float(q[j])!r}" for j in range(30)
        ]
        inp = write(tmp_path / "p.csv", "\n".join(lines) + "\n")
        out = tmp_path / "r.csv"
        assert run(["test", inp, "--alpha", "0.15", "--epsilon", "0",
                    "--output", out]) == 0
        _, rows, summary = read_result_table(str(out))
        plain = bh(p, 0.15)
        assert int(summary["k_star"]) == plain.k_star
        got = [j for j, r in enumerate(rows) if r[4] == "true"]
        assert got == plain.rejected.tolist()
        # v column echoes p_real when no guard budget exists.
        assert [r[3] for r in rows] == [r[1] for r in rows]

    def test_weight_column_and_flag_conflict(self, tmp_path, capsys):
        inp = write(
            tmp_path / "p.csv", "id,p_real,p_synth,weight\nh1,0.1,0.1,1.0\n"
        )
        wfile = write(tmp_path / "w.csv", "weight\n1.0\n")
        assert run(["test", inp, "--weights-file", wfile]) == 2
        assert "twice" in capsys.readouterr().err

    def test_weights_file(self, tmp_path):
        inp = write(
            tmp_path / "p.csv", "id,p_real,p_synth\nh1,0.12,0.01\nh2,0.5,0.01\n"
        )
        wfile = write(tmp_path / "w.csv", "weight\n2.0\n0.0\n")
        out = tmp_path / "r.csv"
        assert run(["test", inp, "--alpha", "0.1", "--epsilon", "0.1",
                    "--weights-file", wfile, "--output", out]) == 0
        _, rows, summary = read_result_table(str(out))
        assert summary["k_star"] == "1"
        assert [r[4] for r in rows] == ["true", "false"]

    def test_weight_sum_violation(self, tmp_path, capsys):
        inp = write(
            tmp_path / "p.csv",
            "id,p_real,p_synth,weight\nh1,0.1,0.1,1.0\nh2,0.2,0.2,0.5\n",
        )
        assert run(["test", inp, "--epsilon", "0.1"]) == 2
        assert "sum to m" in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        inp = write(tmp_path / "p.csv", PAIR_FILE)
        out = tmp_path / "r.json"
        assert run(["test", inp, "--alpha", "0.1", "--epsilon", "0.1",
                    "--format", "json", "--output", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["k_star"] == 1
        assert payload["rows"][0]["rejected"] is True
        assert payload["rows"][1]["rejected"] is False

    def test_malformed_row_width(self, tmp_path, capsys):
        inp = write(tmp_path / "p.csv", "id,p_real,p_synth\nh1,0.1\n")
        assert run(["test", inp]) == 2
        assert "row 2" in capsys.readouterr().err

    def test_undecodable_byte_names_file_and_row(self, tmp_path, capsys):
        inp = tmp_path / "p.csv"
        inp.write_bytes(b"id,p_real,p_synth\nh1,0.1,0.2\nh\xff,0.1,0.2\n")
        assert run(["test", inp]) == 2
        err = capsys.readouterr().err
        assert f"{inp}: row 3:" in err
        assert "0xff" in err

    def test_field_over_csv_limit_names_file_and_row(self, tmp_path, capsys):
        limit = csv.field_size_limit()
        # A line longer than the limit is fine while each field is within it.
        half = "1" + "0" * (limit // 2)
        tiny = f"{half[:-1]}e-{limit // 2}"
        ok = write(tmp_path / "ok.csv", f"id,p_real,p_synth\n{half},0.5,{tiny}\n")
        assert run(["test", ok, "--output", tmp_path / "r.csv"]) == 0
        inp = write(tmp_path / "p.csv",
                    f"id,p_real,p_synth\nh1,0.1,0.2\n{'x' * (limit + 1)},0.1,0.2\n")
        assert run(["test", inp]) == 2
        err = capsys.readouterr().err
        assert f"{inp}: row 3: field larger than field limit" in err


class TestCmdOutliers:
    @staticmethod
    def role_file(tmp_path, real, synth, test):
        lines = ["role,score"]
        lines += [f"real,{float(v)!r}" for v in real]
        lines += [f"synth,{float(v)!r}" for v in synth]
        lines += [f"test,{float(v)!r}" for v in test]
        return write(tmp_path / "scores.csv", "\n".join(lines) + "\n")

    def test_negative_jitter_seed_names_flag(self, tmp_path, capsys):
        path = self.role_file(tmp_path, real=[1.0, 2.0], synth=[], test=[3.0])
        assert run(["outliers", "--scores", path, "--jitter", "--seed", "-1"]) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["5", "-5"])
    def test_seed_without_jitter_names_flag(self, tmp_path, capsys, seed):
        path = self.role_file(tmp_path, real=[1.0, 2.0], synth=[], test=[3.0])
        assert run(["outliers", "--scores", path, "--seed", seed]) == 2
        assert capsys.readouterr() == ("", "error: --seed is only used with --jitter\n")

    def test_single_outlier_detected(self, tmp_path):
        path = self.role_file(
            tmp_path,
            real=np.arange(1.0, 21.0),
            synth=np.linspace(-3.0, 0.5, 30),
            test=[25.0],
        )
        out = tmp_path / "r.csv"
        assert run(["outliers", "--scores", path, "--alpha", "0.2",
                    "--epsilon", "0.1", "--output", out]) == 0
        header, rows, summary = read_result_table(str(out))
        assert header == ["id", "score", "p_real", "p_merged", "rejected"]
        assert rows[0][4] == "true"
        assert summary["k_star"] == "1"
        assert float(rows[0][2]) == pytest.approx(1 / 21)
        assert float(rows[0][3]) == pytest.approx(1 / 51)

    def test_separate_files_and_missing_synth(self, tmp_path):
        rng = np.random.default_rng(62)
        real = rng.normal(size=40)
        test = np.concatenate([rng.normal(size=10), [8.0]])
        rfile = write(tmp_path / "real.csv",
                      "score\n" + "\n".join(repr(float(v)) for v in real) + "\n")
        tfile = write(tmp_path / "test.csv",
                      "score\n" + "\n".join(repr(float(v)) for v in test) + "\n")
        out = tmp_path / "r.csv"
        assert run(["outliers", "--real", rfile, "--test", tfile,
                    "--alpha", "0.2", "--output", out]) == 0
        _, rows, _ = read_result_table(str(out))
        plain = bh(conformal_pvalues(real, test), 0.2)
        got = [j for j, r in enumerate(rows) if r[4] == "true"]
        assert got == plain.rejected.tolist()

    def test_rho_trims_auxiliary(self, tmp_path):
        path = self.role_file(
            tmp_path,
            real=np.arange(1.0, 21.0),
            synth=list(np.linspace(-3.0, 0.5, 28)) + [50.0, 60.0],
            test=[25.0],
        )
        out = tmp_path / "r.csv"
        assert run(["outliers", "--scores", path, "--alpha", "0.2",
                    "--epsilon", "0.1", "--rho", "0.05", "--output", out]) == 0
        _, rows, summary = read_result_table(str(out))
        assert summary["n_synth_used"] == "28"
        # With the two contaminants trimmed the extreme point is back to
        # the smallest pooled value.
        assert float(rows[0][3]) == pytest.approx(1 / 49)

    def test_pvalue_columns_match_library_and_simulation(self, tmp_path, monkeypatch):
        # The scores of one outlier-experiment trial, before trimming, go
        # through the CLI, detect_outliers and the experiment alike.
        seen = {}

        def trim(scores, rho, _trim=simulate.trim_by_score):
            seen["synth"] = scores
            return _trim(scores, rho)

        def stage(real, synth, test, _stage=simulate._outlier_pvalues):
            seen["real"], seen["test"] = real, test
            return _stage(real, synth, test)

        monkeypatch.setattr(simulate, "trim_by_score", trim)
        monkeypatch.setattr(simulate, "_outlier_pvalues", stage)
        p_real, p_merged, _ = simulate._outlier_trial(simulate.OutlierConfig(
            n=60, n_synth=120, m=40, outlier_frac=0.1, contamination_frac=0.1,
            rho=0.05, seed=21, mu_out=3.0,
        ), 3)
        scores = [seen["real"], seen["synth"], seen["test"]]

        def columns(scores, *flags):
            path = self.role_file(tmp_path, *scores)
            out = tmp_path / "r.csv"
            assert run(["outliers", "--scores", path, "--rho", "0.05", *flags,
                        "--output", out]) == 0
            _, rows, _ = read_result_table(str(out))
            return np.array([[float(r[2]), float(r[3])] for r in rows])

        assert columns(scores).tobytes() == np.column_stack((p_real, p_merged)).tobytes()
        # Jitter only matters where scores tie: the same scores to one decimal.
        tied = [np.round(s, 1) for s in scores]
        pairs = []
        monkeypatch.setattr(synthbh.conformal, "synth_bh",
                            lambda p, config: pairs.append(p) or synth_bh(p, config))
        bundle = ScoreBundle(tied[0], trim_by_score(tied[1], 0.05), tied[2])
        detect_outliers(bundle, StepUpConfig(alpha=0.1, epsilon=0.1), JitterSpec(seed=5))
        jittered = columns(tied, "--jitter", "--seed", "5")
        assert len(pairs) == 1 and jittered.tobytes() == pairs[0].tobytes()
        assert not np.array_equal(jittered, columns(tied))

    def test_requires_some_input(self, capsys):
        assert run(["outliers", "--alpha", "0.2"]) == 2
        assert "score input required" in capsys.readouterr().err

    def test_conflicting_inputs(self, tmp_path, capsys):
        path = self.role_file(tmp_path, real=[1.0], synth=[], test=[2.0])
        assert run(["outliers", "--scores", path, "--real", path]) == 2
        assert "not both" in capsys.readouterr().err

    def test_unknown_role_diagnostic(self, tmp_path, capsys):
        path = write(tmp_path / "s.csv", "role,score\ncalibration,1.0\n")
        assert run(["outliers", "--scores", path]) == 2
        err = capsys.readouterr().err
        assert "row 2" in err and "role" in err

    def test_conformal_pvalues_computed_once(self, tmp_path, monkeypatch):
        # One p-value stage per run, which counts over each score set once.
        calls = collections.Counter()
        for module, name in ((cli, "outlier_pvalues"), (synthbh.conformal, "outlier_pvalues"),
                             (synthbh.conformal, "_count_at_least")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        path = self.role_file(tmp_path, real=np.arange(1.0, 21.0),
                              synth=np.linspace(-3.0, 0.5, 30), test=[25.0, 0.0])
        assert run(["outliers", "--scores", path, "--alpha", "0.2", "--epsilon", "0.1",
                    "--output", tmp_path / "r.csv"]) == 0
        assert calls == {"outlier_pvalues": 1, "_count_at_least": 2}


class TestCmdSimulate:
    ARGS = ["simulate", "--trials", "3", "--m", "40", "--n-real", "30",
            "--n-synth", "60", "--seed", "7"]
    # ARGS without --n-real, which only the Bernoulli experiment takes.
    SHARED_ARGS = ["simulate", "--trials", "3", "--m", "40", "--n-synth", "60", "--seed", "7"]

    def test_deterministic_output_files(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(self.ARGS + ["--output", out1]) == 0
        assert run(self.ARGS + ["--output", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        s1 = (tmp_path / "a.summary.json").read_bytes()
        s2 = (tmp_path / "b.summary.json").read_bytes()
        assert s1 == s2

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "a.csv"
        assert run(self.ARGS + ["--output", out]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["method", "trial", "fdp", "power", "rejections"]
        assert len(rows) == 1 + 4 * 3
        summary = json.loads((tmp_path / "a.summary.json").read_text())
        assert [m["method"] for m in summary["points"][0]["methods"]] == [
            "BH-real", "BH-real+eps", "BH-synth", "SynthBH",
        ]

    def test_epsilon_sweep_monotone_rejections(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(self.ARGS + ["--sweep", "epsilon=0,0.05,0.1,0.2",
                                "--output", out]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["param", "value", "method", "trial", "fdp",
                           "power", "rejections"]
        per_trial: dict[str, list[tuple[float, int]]] = {}
        for param, value, method, trial, _, _, rejections in rows[1:]:
            assert param == "epsilon"
            if method == "SynthBH":
                per_trial.setdefault(trial, []).append(
                    (float(value), int(rejections))
                )
        assert per_trial
        for series in per_trial.values():
            series.sort()
            counts = [c for _, c in series]
            assert counts == sorted(counts)

    def test_sweep_range_syntax(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(self.ARGS + ["--sweep", "n_real=20:40:10",
                                "--output", out]) == 0
        summary = json.loads((tmp_path / "sweep.summary.json").read_text())
        assert summary["sweep"]["values"] == [20, 30, 40]

    def test_bad_sweep_parameter(self, capsys):
        assert run(self.ARGS + ["--sweep", "flux=1,2"]) == 2
        assert "cannot sweep" in capsys.readouterr().err

    def test_bad_sweep_range(self, capsys):
        assert run(self.ARGS + ["--sweep", "epsilon=0.3:0.1:0.1"]) == 2
        assert "sweep range" in capsys.readouterr().err

    def test_huge_sweep_range_refused_before_building(self):
        # In a child capped at 1 GiB of address space, so that building the
        # ~1e300 points would fail fast instead of filling the machine.  One
        # BLAS thread keeps the stacks of a thread per core under the cap.
        resource = pytest.importorskip("resource")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = os.path.dirname(os.path.dirname(synthbh.conformal.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "synthbh", *self.ARGS, "--sweep", "alpha=0:1:1e-300"],
            capture_output=True, env=env, timeout=120, preexec_fn=cap,
        )
        assert proc.returncode == 2
        assert proc.stderr.decode() == (
            f"error: --sweep range '0:1:1e-300' has more than {cli.MAX_SWEEP_POINTS} points\n")

    @pytest.mark.parametrize("sweep", ["alpha=0:1:1e-4", "n_real=1:1e308:1e-308"])
    def test_sweep_point_ceiling(self, capsys, sweep):
        # 0:1:1e-4 is one point over the ceiling; the second overflows to inf.
        assert run(self.ARGS + ["--sweep", sweep]) == 2
        assert "--sweep range" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", ["n_real=nan", "n_real=1e400", "m=-inf",
                                       "alpha=0:1:nan", "alpha=nan:0.2:0.1",
                                       "alpha=0.1:inf:1"])
    def test_non_finite_integer_sweep(self, capsys, sweep):
        assert run(self.ARGS + ["--sweep", sweep]) == 2
        err = capsys.readouterr().err
        if ":" in sweep:
            # A range is rejected as a whole, before any value is cast.
            assert f"sweep range must be finite, got {sweep.partition('=')[2]!r}" in err
        else:
            assert "needs integers" in err

    SWEEPABLE = {
        "bernoulli": "alpha, epsilon, frac_alt, m, n_real, n_synth, q_alt, q_synth_alt, "
                     "q_synth_null, trials",
        "outlier": "alpha, contamination_frac, epsilon, m, mu_out, n, n_synth, "
                   "outlier_frac, rho, trials",
    }

    @pytest.mark.parametrize("experiment", ["bernoulli", "outlier"])
    def test_sweepable_names_are_config_fields(self, monkeypatch, capsys, experiment):
        names = self.SWEEPABLE[experiment]
        assert run(self.SHARED_ARGS + ["--experiment", experiment, "--sweep", "seed=1,2"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot sweep 'seed'; choose one of {names}\n"
        )
        fields = dataclasses.fields(cli._EXPERIMENTS[experiment])
        assert sorted(f.name for f in fields if f.name != "seed") == names.split(", ")

        def ran(config):
            raise ValueError("ran")

        monkeypatch.setattr(cli, "run_experiments", ran)
        for f in fields:
            if f.name == "seed":
                continue
            assert run(self.SHARED_ARGS + ["--experiment", experiment,
                                           "--sweep", f"{f.name}=2.5"]) == 2
            err = capsys.readouterr().err
            if f.type == "int":
                assert err == f"error: sweep over {f.name!r} needs integers, got 2.5\n"
            else:
                # Parsed as a float; the point fails validation or the run.
                assert err.startswith(f"error: sweep {f.name}=2.5: ")

    def test_invalid_base_with_valid_sweep_points(self, tmp_path):
        out = tmp_path / "a.json"
        assert run(self.ARGS + ["--alpha", "0.95", "--sweep", "alpha=0.1,0.2",
                                "--format", "json", "--output", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["alpha"] == 0.95
        assert [p["value"] for p in payload["points"]] == [0.1, 0.2]

    def test_negative_seed_rejected_before_running(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_experiments", lambda configs: 1 / 0)
        assert run(self.ARGS + ["--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_mirror_alt_accepted(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(self.ARGS + ["--q-synth-null", "mirror-alt",
                                "--output", out]) == 0
        summary = json.loads((tmp_path / "w.summary.json").read_text())
        assert summary["config"]["q_synth_null"] == "mirror-alt"

    def test_outlier_experiment(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run(["simulate", "--experiment", "outlier", "--trials", "3",
                    "--n", "40", "--n-synth", "80", "--m", "30",
                    "--seed", "5", "--output", out]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1 + 4 * 3

    def test_json_format_includes_per_trial(self, tmp_path):
        out = tmp_path / "sim.json"
        assert run(self.ARGS + ["--format", "json", "--output", out]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["per_trial"]) == 4 * 3
        assert payload["points"][0]["methods"][0]["trials"] == 3

    def test_invalid_config_is_validation_error(self, capsys):
        assert run(["simulate", "--trials", "0", "--seed", "1"]) == 2
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, sweep, bad", [
        ("bernoulli", "alpha=0.5:0.95:0.2", "alpha=0.9"),
        ("bernoulli", "n_synth=1000:2000:1000", "n_synth=2000"),
        ("outlier", "rho=0.5:1.0:0.5", "rho=1.0"),
    ])
    def test_sweep_validated_before_any_point_runs(self, monkeypatch, capsys,
                                                   experiment, sweep, bad):
        calls = []
        monkeypatch.setattr(cli, "run_experiments", lambda *a, **k: calls.append(a))
        assert run(self.SHARED_ARGS + ["--experiment", experiment, "--sweep", sweep]) == 2
        assert calls == []
        assert f"sweep {bad}:" in capsys.readouterr().err


class TestCmdBench:
    def test_small_sizes(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--sizes", "10,2000", "--repeats", "1",
                    "--output", out]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["m", "mode", "seconds"]
        # Both sizes are under the naive cap: two modes each.
        assert len(rows) == 5
        assert all(float(r[2]) >= 0 for r in rows[1:])

    def test_naive_capped_above_limit(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--sizes", "30000", "--repeats", "1",
                    "--output", out]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert [r[1] for r in rows[1:]] == ["fast"]

    def test_bad_sizes(self, capsys):
        assert run(["bench", "--sizes", "10,many"]) == 2
        assert "sizes" in capsys.readouterr().err

    def test_bad_level_is_validation_error(self, capsys):
        assert run(["bench", "--sizes", "10", "--alpha", "2"]) == 2
        assert "alpha must be in (0, 1)" in capsys.readouterr().err

    def test_negative_seed_is_validation_error(self, capsys):
        assert run(["bench", "--sizes", "10", "--seed", "-1"]) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err


class TestOutputFiles:
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, capsys):
        inp = write(tmp_path / "p.csv", PAIR_FILE)
        out = tmp_path / "r.csv"
        out.write_text("previous\n")
        monkeypatch.setattr(tables, "_CHUNK_ROWS", 1)
        original = tables._chunk_texts
        calls = []

        def failing(columns, fmt, pieces):
            calls.append(fmt)
            if len(calls) > 1:  # the second chunk, after the first is written
                raise OSError(28, "No space left on device")
            return original(columns, fmt, pieces)

        monkeypatch.setattr(tables, "_chunk_texts", failing)
        assert run(["test", inp, "--output", out]) == 3
        assert f"{out}: No space left on device" in capsys.readouterr().err
        assert out.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv", "r.csv"]

    def test_failed_summary_leaves_no_file(self, tmp_path):
        target = tmp_path / "sim.summary.json"
        with pytest.raises(CliError) as info:
            with tables._output(str(target)) as handle:
                handle.write("{")
                raise OSError(28, "No space left on device")
        assert info.value.exit_code == 3
        assert list(tmp_path.iterdir()) == []

    SIM = ["simulate", "--trials", "2", "--m", "20", "--seed", "1"]

    def test_sidecar_that_cannot_be_opened_leaves_no_table(self, tmp_path, capsys):
        (tmp_path / "out.summary.json").mkdir()
        assert run(self.SIM + ["--output", tmp_path / "out.csv"]) == 3
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'out.summary.json'}: Is a directory\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.summary.json"]

    @pytest.mark.parametrize("older", [False, True], ids=["no-pair", "older-pair"])
    def test_failed_sidecar_leaves_the_pair_as_it_was(self, tmp_path, monkeypatch, capsys,
                                                     older):
        if older:
            (tmp_path / "out.csv").write_text("older table\n")
            (tmp_path / "out.summary.json").write_text("{}\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def full_disk(path, payload):
            with tables._output(path) as handle:
                handle.write("{")
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_json", full_disk)
        assert run(self.SIM + ["--output", tmp_path / "out.csv"]) == 3
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'out.summary.json'}: No space left on device\n")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_closed_stdout_is_io_error(self):
        # The read end is closed before the child starts, so that its first
        # write to stdout fails.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.dirname(os.path.dirname(synthbh.conformal.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "synthbh", "simulate", "--trials", "2", "--m", "20",
                 "--seed", "1"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        err = proc.stderr.decode()
        assert proc.returncode == 3
        assert err.startswith("error: stdout: ")
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_missing_directory_is_io_error(self, tmp_path, capsys):
        inp = write(tmp_path / "p.csv", PAIR_FILE)
        assert run(["test", inp, "--output", tmp_path / "absent" / "r.csv"]) == 3
        assert "No such file or directory" in capsys.readouterr().err


class TestErrorContract:
    """Seeded fuzz over flags, levels, sweeps and small input files.

    Every call must end in exit 0, 2 or 3, with no traceback.
    """

    LEVELS = ["0.1", "0.3", "0.05", "0", "1", "nan", "-1", "2", "1e400", "-inf", "x"]
    SWEEPS = ["epsilon=0.05,0.2", "alpha=0.5:0.95:0.2", "trials=1:2:1", "m=3,5",
              "n_real=1e400", "n_real=nan", "n_real=-inf", "m=1.5", "rho=0.5:1.0:0.5",
              "alpha=nan", "epsilon=0.2:0.1:0.1", "alpha=0:1:0", "alpha=a:b:c",
              "n_synth=1000:2000:1000", "bogus=1", "alpha=", "=", "q_synth_null=2"]
    FILES = {
        "pairs.csv": b"id,p_real,p_synth\nh1,0.08,0.01\n\"a,b\",0.5,0.2\nh3,0,1\n",
        "weighted.csv": b"id,p_real,p_synth,weight\nh1,0.01,0.2,2\nh2,0.5,0.5,0\n",
        "bad_utf8.csv": b"id,p_real,p_synth\nh\xff1,0.1,0.2\n",
        "ragged.csv": b"id,p_real,p_synth\nh1,0.1\nh2,0.1,0.2,0.3\n",
        "quotes.csv": b"id,p_real,p_synth\n\"open,0.1,0.2\nh2,\"0.5\",0.1\n",
        "cells.csv": b"id,p_real,p_synth\nh1,nan,0.2\nh2,1e400,-0\n",
        "empty.csv": b"",
        "header_only.csv": b"id,p_real,p_synth\n",
        "crlf.csv": b"id,p_real,p_synth\r\nh1,0.01,0.02\r\n",
        "weights.csv": b"weight\n1.5\n1.5\n",
        "scores.csv": b"role,score\nreal,0.1\nreal,1.5\nsynth,0.3\ntest,2.5\ntest,-1\n",
        "bad_roles.csv": b"role,score\nreal,0.1\nRaw,2\ntest,1\n",
        "score.csv": b"score\n0.1\n0.7\n2.0\n",
        "nan_score.csv": b"score\nnan\n",
    }

    def _argv(self, rng, files_dir, files, outputs):
        pick = rng.choice

        def maybe(*flag_values):
            return list(flag_values) if rng.random() < 0.5 else []

        def level():
            # Half of the levels are valid, so that calls get past validation.
            return pick(self.LEVELS[:3]) if rng.random() < 0.5 else pick(self.LEVELS)

        def levels():
            return maybe("--alpha", level()) + maybe("--epsilon", level())

        def good(*names):
            return str(files_dir / pick(names)) if rng.random() < 0.5 else pick(files)

        output = pick(outputs)
        out = [] if output is None else ["--output", output]
        fmt = maybe("--format", pick(["csv", "json", "xml"]))
        command = pick(["test", "outliers", "simulate", "bench", "junk"])
        if command == "test":
            return (["test", good("pairs.csv", "weighted.csv", "crlf.csv")] + levels()
                    + fmt + out + maybe("--weights-file", pick(files))
                    + maybe("--normalize-weights")
                    + maybe("--mode", pick(["fast", "naive", "slow"])))
        if command == "outliers":
            if rng.random() < 0.5:
                inputs = ["--scores", good("scores.csv")]
            else:
                inputs = ["--real", good("score.csv"), "--test", good("score.csv")]
                inputs += maybe("--synth", pick(files)) + maybe("--scores", pick(files))
            return (["outliers"] + inputs + levels() + fmt + out
                    + maybe("--rho", pick(["0", "0.3", "1", "nan", "-0.5"]))
                    + maybe("--jitter", "--seed", pick(["1", "-1", "x"])))
        if command == "simulate":
            return (["simulate", "--trials", pick(["1", "2", "3", "0", "x"]),
                     "--m", pick(["1", "5", "20", "0"]), "--n-real", pick(["10", "30", "0"]),
                     "--n-synth", pick(["20", "40", "3000"]), "--n", pick(["10", "20", "-2"])]
                    + levels() + fmt + out
                    + maybe("--experiment", pick(["bernoulli", "outlier", "other"]))
                    + maybe("--sweep", pick(self.SWEEPS))
                    + maybe("--seed", pick(["3", "-1", "1.5"]))
                    + maybe("--rho", pick(["0.1", "nan", "1"]))
                    + maybe("--q-synth-null", pick(["0.5", "mirror-alt", "hostile", "nan"]))
                    + maybe("--frac-alt", level())
                    + maybe("--mu-out", pick(["3", "nan", "inf"])))
        if command == "bench":
            return (["bench", "--sizes", pick(["5", "3,8", "0", "-4", "x", "", "5,,6"])]
                    + levels() + out
                    + maybe("--repeats", pick(["1", "0", "-1"]))
                    + maybe("--seed", pick(["0", "7", "-1"])))
        return pick([[], ["--bogus"], ["test"], ["simulate", "--trials"], ["bench"]])

    def test_fuzzed_calls_keep_the_exit_contract(self, tmp_path, capsys):
        files = [str(tmp_path / "missing.csv"), str(tmp_path)]
        for name, data in self.FILES.items():
            (tmp_path / name).write_bytes(data)
            files.append(str(tmp_path / name))
        outputs = [None, str(tmp_path / "out.csv"), str(tmp_path / "absent" / "o.csv"),
                   str(tmp_path)]
        rng = random.Random(20261018)
        codes = collections.Counter()
        for _ in range(200):
            argv = self._argv(rng, tmp_path, files, outputs)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
            except Exception as exc:
                pytest.fail(f"{argv}: {exc!r}")
            err = capsys.readouterr().err
            assert code in (0, 2, 3), (argv, err)
            assert "Traceback" not in err, argv
            codes[code] += 1
        # The fuzz reaches successful runs and both kinds of failure.
        assert set(codes) == {0, 2, 3}


class TestSimulateFlags:
    """The flags of ``simulate`` are the fields of the experiment config classes."""

    @pytest.mark.parametrize("experiment", ["bernoulli", "outlier"])
    def test_help_names_one_flag_per_field(self, capsys, experiment):
        with pytest.raises(SystemExit):
            run(["simulate", "--help"])
        flags = re.findall(r"^ +(--[a-z-]+)", capsys.readouterr().out, re.M)
        for f in dataclasses.fields(cli._EXPERIMENTS[experiment]):
            assert flags.count("--" + f.name.replace("_", "-")) == 1, f.name

    @pytest.mark.parametrize("experiment", ["bernoulli", "outlier"])
    def test_unset_flags_take_the_class_defaults(self, tmp_path, experiment):
        out = tmp_path / "x.csv"
        assert run(["simulate", "--experiment", experiment, "--trials", "2", "--m", "20",
                    "--seed", "5", "--output", out]) == 0
        summary = json.loads((tmp_path / "x.summary.json").read_text())
        config_class = cli._EXPERIMENTS[experiment]
        assert summary["config"] == dataclasses.asdict(config_class(trials=2, m=20, seed=5))

    def test_a_new_config_field_gets_a_flag(self, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class WidthConfig:
            width: float = 1.5
            alpha: float = 0.1
            epsilon: float = 0.1
            trials: int = 100
            seed: int = 0

        monkeypatch.setitem(cli._EXPERIMENTS, "width", WidthConfig)
        args = cli.build_parser().parse_args(
            ["simulate", "--experiment", "width", "--width", "2.5", "--trials", "3"])
        assert (args.experiment, args.width, args.trials) == ("width", 2.5, 3)
        assert cli.build_parser().parse_args(["simulate"]).width is None

    @pytest.mark.parametrize("experiment, flags, named", [
        ("outlier", ["--frac-alt", "0.2"], "--frac-alt"),
        ("outlier", ["--n-real", "30", "--q-alt", "0.7"], "--n-real"),
        # Not parsed as a probability: the outlier experiment has no such field.
        ("outlier", ["--q-synth-null", "bogus"], "--q-synth-null"),
        ("outlier", ["--q-synth-null", "0.5"], "--q-synth-null"),
        ("bernoulli", ["--rho", "0.3", "--mu-out", "9"], "--rho"),
        ("bernoulli", ["--mu-out", "9"], "--mu-out"),
        ("bernoulli", ["--n", "40"], "--n"),
    ])
    def test_a_flag_of_the_other_experiment_exits_2(self, tmp_path, monkeypatch, capsys,
                                                    experiment, flags, named):
        monkeypatch.setattr(cli, "run_experiments", lambda configs: 1 / 0)
        out = tmp_path / "x.csv"
        assert run(["simulate", "--experiment", experiment, "--trials", "2", "--m", "20",
                    "--n-synth", "50", "--output", out] + flags) == 2
        assert capsys.readouterr().err == (
            f"error: {named} is not a flag of the {experiment} experiment\n")
        assert not out.exists()

    def test_fuzzed_calls_with_the_experiments_own_flags(self, tmp_path, capsys):
        # TestErrorContract's simulate calls mix both experiments' flags, so
        # they all stop at the check above; these reach the runs.
        own = {"bernoulli": [("--n-real", ["10", "30", "0"]), ("--frac-alt", ["0.2", "1", "2"]),
                             ("--q-synth-null", ["0.5", "mirror-alt", "nan"])],
               "outlier": [("--n", ["10", "20", "-2"]), ("--rho", ["0.1", "nan", "1"]),
                           ("--mu-out", ["3", "nan", "inf"])]}
        rng = random.Random(20261020)
        codes = collections.Counter()
        for _ in range(60):
            experiment = rng.choice(list(own))
            argv = ["simulate", "--experiment", experiment, "--trials", rng.choice(["1", "3"]),
                    "--m", rng.choice(["1", "5", "20"]), "--n-synth", rng.choice(["20", "40"]),
                    "--seed", "3", "--output", str(tmp_path / "o.csv")]
            for flag, values in own[experiment]:
                if rng.random() < 0.5:
                    argv += [flag, rng.choice(values)]
            for flag, values in (("--alpha", TestErrorContract.LEVELS[:4]),
                                 ("--epsilon", TestErrorContract.LEVELS[:4]),
                                 ("--sweep", TestErrorContract.SWEEPS)):
                if rng.random() < 0.5:
                    argv += [flag, rng.choice(values)]
            code = run(argv)
            err = capsys.readouterr().err
            assert code in (0, 2), (argv, err)
            assert "not a flag" not in err, argv
            codes[experiment, code] += 1
        assert all(codes[experiment, code] for experiment in own for code in (0, 2))


class TestErrorBoundary:
    """``main`` turns a library ValueError into exit 2, whichever step raises it."""

    @pytest.mark.parametrize("argv", [
        ["test", "{pairs}"],
        ["outliers", "--real", "{scores}", "--test", "{scores}"],
        ["simulate", "--trials", "2", "--m", "20", "--seed", "1"],
        ["bench", "--sizes", "10", "--repeats", "1"],
    ], ids=lambda argv: argv[0])
    def test_value_error_exits_2_with_its_message(self, tmp_path, monkeypatch, capsys, argv):
        files = {"pairs": write(tmp_path / "p.csv", PAIR_FILE),
                 "scores": write(tmp_path / "s.csv", "score\n0.1\n0.7\n2.0\n")}

        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "write_table", boom)
        assert run([a.format(**files) for a in argv]) == 2
        assert capsys.readouterr().err == "error: boom\n"


class TestHugeSizes:
    """A size beyond int64 is refused by its field's check, before any allocation."""

    BIG = 10**30
    MAX = 2**63 - 1

    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--trials", str(BIG), "--m", "5", "--seed", "1"],
         f"trials must be <= {MAX}, got {BIG}"),
        (["simulate", "--m", str(2**63), "--trials", "1", "--seed", "1"],
         f"m must be <= {MAX}, got {2**63}"),
        (["simulate", "--experiment", "outlier", "--n", str(BIG), "--seed", "1"],
         f"n must be <= {MAX}, got {BIG}"),
        (["simulate", "--trials", "1", "--seed", "1", "--sweep", "m=5,1e30"],
         f"sweep m={int(1e30)}: m must be <= {MAX}, got {int(1e30)}"),
        (["bench", "--sizes", f"5,{BIG}", "--repeats", "1"], f"sizes must be <= {MAX}, got {BIG}"),
        (["bench", "--sizes", str(2**63), "--repeats", "1"],
         f"sizes must be <= {MAX}, got {2**63}"),
    ], ids=["trials", "m", "outlier-n", "sweep-m", "bench-sizes", "bench-2**63"])
    def test_field_is_named(self, capsys, argv, message):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestOutOfMemory:
    """A size that cannot be allocated at all exits 2 with one line naming it.

    Each call runs in a child whose address space is capped at 4 GiB, so
    the allocation is refused at once whatever the machine's overcommit
    mode, and no large size is ever paged in.  One BLAS thread keeps the
    stacks of a thread per core under the cap.
    """

    def run_capped(self, argv, cwd):
        resource = pytest.importorskip("resource")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        src = os.path.dirname(os.path.dirname(synthbh.conformal.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-m", "synthbh", *argv], capture_output=True,
                              env=env, cwd=cwd, timeout=120, preexec_fn=cap)

    @pytest.mark.parametrize("argv,sizes", [
        (["simulate", "--m", "1000000000000", "--trials", "1", "--seed", "1"],
         "simulate --n-real 200 --n-synth 1000 --m 1000000000000 --trials 1"),
        (["simulate", "--experiment", "outlier", "--n", "1000000000000", "--trials", "1",
          "--m", "10", "--seed", "1"],
         "simulate --n 1000000000000 --n-synth 1000 --m 10 --trials 1"),
        (["simulate", "--trials", "1", "--seed", "1", "--sweep", "m=10,1000000000000"],
         "simulate --n-real 200 --n-synth 1000 --m 1000 --trials 1 "
         "--sweep m=10,1000000000000"),
        (["bench", "--sizes", "100000000000", "--repeats", "1"], "bench --sizes 100000000000"),
    ], ids=["bernoulli-m", "outlier-n", "sweep-m", "bench-sizes"])
    def test_size_flags_are_named(self, tmp_path, argv, sizes):
        proc = self.run_capped(argv, tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.decode() == f"error: not enough memory for {sizes}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["test"], ["outliers", "--scores"]],
                             ids=["test", "outliers"])
    def test_input_path_and_size_are_named(self, tmp_path, command):
        big = tmp_path / "big.csv"
        try:
            with open(big, "wb"):
                pass
            os.truncate(big, 2 << 40)
        except OSError:
            pytest.skip("the filesystem refuses a sparse 2 TiB file")
        try:
            proc = self.run_capped([*command, str(big)], tmp_path)
        finally:
            big.unlink()
        assert proc.returncode == 2
        assert proc.stderr.decode() == (
            f"error: not enough memory for {command[0]} {big} ({2 << 40} bytes)\n")
