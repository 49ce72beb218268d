"""Equivalence fuzz tests for the CLI's column readers and table writer.

The ``ref_*`` functions below are the row-by-row readers and per-command
writers the CLI used before it read and wrote whole columns.  They serve
as the reference: on seeded fuzzed tables the CLI must return the same ids
and arrays, or the same diagnostic and exit code, and write the same CSV
and JSON bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from synthbh import OutlierConfig, SimConfig, StepUpConfig, run_bernoulli_experiment, \
    run_outlier_experiment, synth_bh, tables, weighted_synth_bh
from synthbh.cli import main
from synthbh.conformal import ScoreBundle, conformal_pvalues, detect_outliers, \
    merged_conformal_pvalues, trim_by_score
from synthbh.tables import CliError, ROWS, read_pvalue_table, read_role_scores, \
    read_single_column, write_table


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    """Write a few rows per chunk so that fuzzed tables cross chunk edges."""
    monkeypatch.setattr(tables, "_CHUNK_ROWS", 4)


# ---------------------------------------------------------------------------
# Reference readers.
# ---------------------------------------------------------------------------


def ref_open_rows(path):
    try:
        with open(path, newline="") as handle:
            return list(csv.reader(handle))
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}", 3) from exc


def ref_parse_cell(path, row_num, column, text):
    try:
        value = float(text)
    except ValueError:
        raise CliError(
            f"{path}: row {row_num}, column {column!r}: not a number: {text!r}"
        ) from None
    if not math.isfinite(value):
        raise CliError(
            f"{path}: row {row_num}, column {column!r}: non-finite value {text!r}"
        )
    return value


def ref_parse_probability_cell(path, row_num, column, text):
    value = ref_parse_cell(path, row_num, column, text)
    if not (0 <= value <= 1):
        raise CliError(
            f"{path}: row {row_num}, column {column!r}: "
            f"value {text} outside [0, 1]"
        )
    return value


def ref_read_pvalue_table(path):
    rows = ref_open_rows(path)
    if not rows:
        raise CliError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    required = ["id", "p_real", "p_synth"]
    if header != required and header != required + ["weight"]:
        raise CliError(
            f"{path}: expected header id,p_real,p_synth[,weight], "
            f"got {','.join(header)}"
        )
    has_weight = len(header) == 4
    ids, pairs, weights = [], [], []
    for offset, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise CliError(
                f"{path}: row {offset}: expected {len(header)} fields, got {len(row)}"
            )
        ids.append(row[0])
        p = ref_parse_probability_cell(path, offset, "p_real", row[1])
        q = ref_parse_probability_cell(path, offset, "p_synth", row[2])
        pairs.append((p, q))
        if has_weight:
            w = ref_parse_cell(path, offset, "weight", row[3])
            if w < 0:
                raise CliError(
                    f"{path}: row {offset}, column 'weight': negative value {row[3]}"
                )
            weights.append(w)
    if not ids:
        raise CliError(f"{path}: no data rows")
    return ids, np.array(pairs), (np.array(weights) if has_weight else None)


def ref_read_single_column(path, column):
    rows = ref_open_rows(path)
    if not rows:
        raise CliError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if header != [column]:
        raise CliError(f"{path}: expected header {column!r}, got {','.join(header)}")
    values = []
    for offset, row in enumerate(rows[1:], start=2):
        if len(row) != 1:
            raise CliError(f"{path}: row {offset}: expected 1 field, got {len(row)}")
        values.append(ref_parse_cell(path, offset, column, row[0]))
    return np.array(values)


def ref_read_role_scores(path):
    rows = ref_open_rows(path)
    if not rows:
        raise CliError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if header != ["role", "score"]:
        raise CliError(f"{path}: expected header role,score, got {','.join(header)}")
    scores = {"real": [], "synth": [], "test": []}
    for offset, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise CliError(f"{path}: row {offset}: expected 2 fields, got {len(row)}")
        role = row[0].strip()
        if role not in scores:
            raise CliError(
                f"{path}: row {offset}, column 'role': "
                f"unknown role {row[0]!r} (expected real, synth, or test)"
            )
        scores[role].append(ref_parse_cell(path, offset, "score", row[1]))
    return {role: np.array(vals) for role, vals in scores.items()}


# ---------------------------------------------------------------------------
# Reference writers: the bytes each command wrote.
# ---------------------------------------------------------------------------


def fmt17(x):
    return format(float(x), ".17g")


def ref_json(payload):
    return json.dumps(payload, indent=2) + "\n"


def ref_csv(header, rows, summary=None):
    out = io.StringIO()
    row_text = io.StringIO()
    # The "\r\n" terminator makes csv.writer quote a field holding a bare
    # carriage return as well; each row still ends in "\n".
    writer = csv.writer(row_text, lineterminator="\r\n")
    for row in [header, *rows]:
        row_text.seek(0)
        row_text.truncate()
        writer.writerow(row)
        out.write(row_text.getvalue()[:-2] + "\n")
    if summary is not None:
        out.write("# " + " ".join(f"{k}={v}" for k, v in summary.items()) + "\n")
    return out.getvalue()


def ref_test_output(ids, pairs, result, alpha, epsilon, mode, fmt):
    rejected = result.rejection_mask()
    if fmt == "json":
        return ref_json({
            "rows": [
                {
                    "id": ids[j],
                    "p_real": float(pairs[j, 0]),
                    "p_synth": float(pairs[j, 1]),
                    "v": float(result.modified_pvalues[j]),
                    "rejected": bool(rejected[j]),
                }
                for j in range(len(ids))
            ],
            "k_star": result.k_star,
            "alpha": alpha,
            "epsilon": epsilon,
            "mode": mode,
            "threshold": float(result.threshold_used),
        })
    return ref_csv(
        ["id", "p_real", "p_synth", "v", "rejected"],
        [
            [ids[j], fmt17(pairs[j, 0]), fmt17(pairs[j, 1]),
             fmt17(result.modified_pvalues[j]), "true" if rejected[j] else "false"]
            for j in range(len(ids))
        ],
        {"k_star": result.k_star, "alpha": fmt17(alpha), "epsilon": fmt17(epsilon),
         "mode": mode, "threshold": fmt17(result.threshold_used)},
    )


def ref_outliers_output(by_role, alpha, epsilon, rho, fmt):
    bundle = ScoreBundle(by_role["real"], by_role["synth"], by_role["test"])
    working = ScoreBundle(
        bundle.real_scores, trim_by_score(bundle.synth_scores, rho), bundle.test_scores
    )
    p_real = conformal_pvalues(working.real_scores, working.test_scores)
    p_merged = merged_conformal_pvalues(
        working.real_scores, working.synth_scores, working.test_scores
    )
    result = detect_outliers(working, StepUpConfig(alpha=alpha, epsilon=epsilon))
    rejected = result.rejection_mask()
    if fmt == "json":
        return ref_json({
            "rows": [
                {
                    "id": j,
                    "score": float(bundle.test_scores[j]),
                    "p_real": float(p_real[j]),
                    "p_merged": float(p_merged[j]),
                    "rejected": bool(rejected[j]),
                }
                for j in range(bundle.n_test)
            ],
            "k_star": result.k_star,
            "alpha": alpha,
            "epsilon": epsilon,
            "mode": "fast",
            "rho": rho,
            "n_real": bundle.n_real,
            "n_synth_used": working.n_synth,
        })
    return ref_csv(
        ["id", "score", "p_real", "p_merged", "rejected"],
        [
            [j, fmt17(bundle.test_scores[j]), fmt17(p_real[j]), fmt17(p_merged[j]),
             "true" if rejected[j] else "false"]
            for j in range(bundle.n_test)
        ],
        {"k_star": result.k_star, "alpha": fmt17(alpha), "epsilon": fmt17(epsilon),
         "mode": "fast", "rho": fmt17(rho), "n_real": bundle.n_real,
         "n_synth_used": working.n_synth},
    )


def ref_simulate_output(experiment, config, seed, param, values, points, fmt):
    summary = {
        "experiment": experiment,
        "config": config,
        "seed": seed,
        "sweep": None if param is None else {"param": param, "values": values},
        "points": [
            {"param": param, "value": value,
             "methods": [dataclasses.asdict(s) for s in result.summaries()]}
            for value, result in points
        ],
    }
    trials = [
        (value, method, trial, metrics)
        for value, result in points
        for method in result.method_names
        for trial, metrics in enumerate(result.trial_metrics(method))
    ]
    if fmt == "json":
        payload = dict(summary)
        payload["per_trial"] = [
            {"param": param, "value": value, "method": method, "trial": trial,
             "fdp": m.fdp, "power": m.power, "rejections": m.rejections}
            for value, method, trial, m in trials
        ]
        return ref_json(payload), None
    header = ["method", "trial", "fdp", "power", "rejections"]
    rows = []
    for value, method, trial, m in trials:
        row = [method, trial, fmt17(m.fdp), fmt17(m.power), m.rejections]
        rows.append(row if param is None else [param, fmt17(value)] + row)
    if param is not None:
        header = ["param", "value"] + header
    return ref_csv(header, rows), ref_json(summary)


# ---------------------------------------------------------------------------
# Fuzzed tables.
# ---------------------------------------------------------------------------

IDS = ["h1", "a,b", 'say "hi"', "cr\rhere", "lf\nhere", "crlf\r\nx", "  lead",
       "", "nul\x00id", "café", "日本", "trail ", '"', ",", "x%sy"]
GOOD_P = ["0", "1", "-0.0", "5e-324", repr(math.nextafter(0.0, 1.0)),
          repr(math.nextafter(1.0, 0.0)), " 0.5 ", "0.25", "1e-300", "0.1"]
BAD_P = ["nan", "inf", "-inf", "1e400", repr(math.nextafter(1.0, 2.0)), "1_0",
         "-1e-300", "abc", "", "0x1", "1,5", '"0.5"']
GOOD_W = ["0", "1", "2.5", "1_0", "-0.0", " 3 ", "1e-300"]
BAD_W = ["-1", "-5e-324", "nan", "inf", "1e400", "w"]
ROLES = ["real", "synth", "test", " real", "test ", "\treal"]
BAD_ROLES = ["Real", "calibration", "", "re al"]


def random_float_text(rng):
    x = float(rng.random())
    return [repr(x), f"{x:.3f}", f"{x:.17g}", f"{x:e}"][rng.integers(4)]


def pick(rng, pool):
    return pool[rng.integers(len(pool))]


def render(rng, header, rows):
    """Text of one fuzzed CSV file with varied line endings and quoting."""
    style = rng.integers(4)
    if style == 0:
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([header] + rows)
        text = out.getvalue()
    elif style == 1:
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerows([header] + rows)
        text = out.getvalue()
    else:
        # Plain joins: ids with separators give malformed rows on purpose.
        text = "\n".join(",".join(r) for r in [header] + rows) + "\n"
    if rng.random() < 0.2:
        text = text.rstrip("\r\n")
    if rng.random() < 0.1:
        lines = text.split("\n")
        lines.insert(int(rng.integers(1, len(lines) + 1)), "")
        text = "\n".join(lines)
    return text


def fuzz_pvalue_text(rng):
    has_weight = rng.random() < 0.3
    m = int(rng.integers(0, 12))
    plain_ids = rng.random() < 0.5
    rows = []
    for j in range(m):
        row = [f"h{j}" if plain_ids else pick(rng, IDS),
               random_float_text(rng) if rng.random() < 0.6 else pick(rng, GOOD_P),
               random_float_text(rng) if rng.random() < 0.6 else pick(rng, GOOD_P)]
        if has_weight:
            row.append(pick(rng, GOOD_W))
        rows.append(row)
    if rows and rng.random() < 0.35:
        row = rows[rng.integers(len(rows))]
        defect = rng.integers(4)
        if defect == 0:
            row[1 + rng.integers(2)] = pick(rng, BAD_P)
        elif defect == 1 and has_weight:
            row[3] = pick(rng, BAD_W)
        elif defect == 2:
            row.pop()
        else:
            row.append("0.5")
    header = ["id", "p_real", "p_synth"] + (["weight"] if has_weight else [])
    if rng.random() < 0.05:
        header = [" id", "p_real ", "p_synth"]
    return render(rng, header, rows)


def fuzz_role_text(rng):
    rows = []
    for _ in range(int(rng.integers(0, 15))):
        rows.append([pick(rng, ROLES), random_float_text(rng)])
    if rows and rng.random() < 0.3:
        row = rows[rng.integers(len(rows))]
        if rng.random() < 0.5:
            row[0] = pick(rng, BAD_ROLES)
        else:
            row[1] = pick(rng, ["nan", "inf", "1e400", "x", "", "1_0", " 2 "])
    return render(rng, ["role", "score"], rows)


def fuzz_column_text(rng):
    rows = [[random_float_text(rng)] for _ in range(int(rng.integers(0, 8)))]
    if rows and rng.random() < 0.3:
        rows[rng.integers(len(rows))] = [pick(rng, ["nan", "1e400", "", "a", "1,2", "-0.0"])]
    return render(rng, ["weight"], rows)


def outcome(reader, *args):
    try:
        return "ok", reader(*args)
    except CliError as exc:
        return "error", (str(exc), exc.exit_code)


def same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, newline="")
    return str(path)


# ---------------------------------------------------------------------------
# Readers.
# ---------------------------------------------------------------------------


def test_pvalue_reader_matches_reference(tmp_path):
    rng = np.random.default_rng(20240)
    seen = set()
    for case in range(400):
        path = write(tmp_path, f"p{case}.csv", fuzz_pvalue_text(rng))
        want, got = outcome(ref_read_pvalue_table, path), outcome(read_pvalue_table, path)
        seen.add(want[0])
        assert want[0] == got[0], (path, want, got)
        if want[0] == "error":
            assert want == got
            continue
        (ids0, pairs0, w0), (ids1, pairs1, w1) = want[1], got[1]
        assert ids0 == ids1
        assert same_array(pairs0, pairs1)
        assert (w0 is None) == (w1 is None)
        if w0 is not None:
            assert same_array(w0, w1)
    assert seen == {"ok", "error"}


def test_role_reader_matches_reference(tmp_path):
    rng = np.random.default_rng(20241)
    for case in range(300):
        path = write(tmp_path, f"s{case}.csv", fuzz_role_text(rng))
        want, got = outcome(ref_read_role_scores, path), outcome(read_role_scores, path)
        assert want[0] == got[0], (path, want, got)
        if want[0] == "error":
            assert want == got
            continue
        assert list(want[1]) == list(got[1])
        for role in want[1]:
            assert same_array(want[1][role], got[1][role])


def test_single_column_reader_matches_reference(tmp_path):
    rng = np.random.default_rng(20242)
    for case in range(300):
        path = write(tmp_path, f"w{case}.csv", fuzz_column_text(rng))
        want = outcome(ref_read_single_column, path, "weight")
        got = outcome(read_single_column, path, "weight")
        assert want[0] == got[0], (path, want, got)
        if want[0] == "error":
            assert want == got
        else:
            assert same_array(want[1], got[1])


@pytest.mark.parametrize("text", [
    "", "\n", "id,p_real,p_synth", "id,p_real,p_synth\n",
    "id,p_real,p_synth\n\n", "id,p_real,p_synth\nh,0.1,0.2\n\n",
    '"id",p_real,p_synth\n"h",0.1,0.2\n', 'id,p_real,p_synth\n"a\nb",0.1,0.2',
    "id,p_real,p_synth\r\nh,0.1,0.2\r\n", "id,p_real,p_synth\rh,0.1,0.2\r",
])
def test_pvalue_reader_edge_files(tmp_path, text):
    path = write(tmp_path, "e.csv", text)
    want, got = outcome(ref_read_pvalue_table, path), outcome(read_pvalue_table, path)
    assert want[0] == got[0]
    if want[0] == "error":
        assert want == got
    else:
        assert want[1][0] == got[1][0] and same_array(want[1][1], got[1][1])


# A plain row and a quoted row for each one- and two-column header.
EDGE_ROWS = {"weight": ("0.5", '"0.25"'), "role,score": ("real,0.5", '"test"," 0.25"')}


@pytest.mark.parametrize("header", list(EDGE_ROWS))
@pytest.mark.parametrize("template", [
    "{h}\n\n{r}\n", "{h}\n{r}\n\n{r}\n", "{h}\n{r}\n\n", "{h}\n{r}\n \n{r}\n",
    "{h}\r\n{r}\r\n{r}\r\n", "{h}\n{q}\n{r}\n", "{h}\n{r}\n{r}", "{h}\n", "{h}",
], ids=["blank-first", "blank-middle", "blank-last", "whitespace-line", "crlf",
        "quoted", "no-final-newline", "header-newline", "header-only"])
def test_column_reader_edge_files(tmp_path, header, template):
    row, quoted = EDGE_ROWS[header]
    path = write(tmp_path, "e.csv", template.format(h=header, r=row, q=quoted))
    if header == "weight":
        want = outcome(ref_read_single_column, path, "weight")
        got = outcome(read_single_column, path, "weight")
    else:
        want, got = outcome(ref_read_role_scores, path), outcome(read_role_scores, path)
    assert want[0] == got[0], (want, got)
    if want[0] == "error":
        assert want == got
    elif header == "weight":
        assert same_array(want[1], got[1])
    else:
        assert list(want[1]) == list(got[1])
        assert all(same_array(want[1][role], got[1][role]) for role in want[1])


# ---------------------------------------------------------------------------
# Command outputs.
# ---------------------------------------------------------------------------


def test_test_command_bytes_match_reference(tmp_path):
    rng = np.random.default_rng(20243)
    compared = 0
    while compared < 60:
        path = write(tmp_path, "p.csv", fuzz_pvalue_text(rng))
        state, read = outcome(ref_read_pvalue_table, path)
        if state == "error":
            continue
        ids, pairs, weights = read
        alpha = float(rng.choice([0.05, 0.1, 0.3]))
        epsilon = float(rng.choice([0.0, 0.1, 0.2]))
        mode = str(rng.choice(["fast", "naive"]))
        try:
            config = StepUpConfig(alpha=alpha, epsilon=epsilon, weights=weights,
                                  mode=mode, normalize_weights=True)
            result = (weighted_synth_bh if weights is not None else synth_bh)(pairs, config)
        except ValueError:
            continue
        for fmt in ("csv", "json"):
            out = tmp_path / f"out.{fmt}"
            code = main(["test", path, "--alpha", str(alpha), "--epsilon", str(epsilon),
                         "--mode", mode, "--normalize-weights", "--format", fmt,
                         "--output", str(out)])
            assert code == 0
            want = ref_test_output(ids, pairs, result, alpha, epsilon, mode, fmt)
            assert out.read_bytes() == want.encode()
        compared += 1


def test_test_command_stdout_matches_reference(tmp_path, capsys):
    text = "id,p_real,p_synth\n" + "".join(
        f"{i},{float(p)!r},{float(q)!r}\n"
        for i, p, q in zip(IDS, np.linspace(0, 1, len(IDS)), np.linspace(1, 0, len(IDS)))
        if "\n" not in i and "\r" not in i and '"' not in i and "," not in i
    )
    path = write(tmp_path, "p.csv", text)
    ids, pairs, _ = ref_read_pvalue_table(path)
    result = synth_bh(pairs, StepUpConfig(alpha=0.2, epsilon=0.1))
    for fmt in ("csv", "json"):
        assert main(["test", path, "--alpha", "0.2", "--epsilon", "0.1", "--format", fmt]) == 0
        assert capsys.readouterr().out == ref_test_output(
            ids, pairs, result, 0.2, 0.1, "fast", fmt)


def test_outliers_command_bytes_match_reference(tmp_path):
    rng = np.random.default_rng(20244)
    compared = 0
    while compared < 40:
        lines = ["role,score"]
        for role, size in (("real", rng.integers(1, 30)), ("synth", rng.integers(0, 60)),
                           ("test", rng.integers(1, 30))):
            # Rounded scores make ties, which conformal p-values must handle.
            scores = np.round(rng.normal(size=int(size)) * 2, int(rng.integers(0, 4)))
            lines += [f"{role},{s!r}" for s in scores.tolist()]
        order = [lines[0]] + [lines[k] for k in rng.permutation(len(lines) - 1) + 1]
        path = write(tmp_path, "s.csv", "\n".join(order) + "\n")
        by_role = ref_read_role_scores(path)
        rho = float(rng.choice([0.0, 0.05, 0.3]))
        for fmt in ("csv", "json"):
            out = tmp_path / f"out.{fmt}"
            assert main(["outliers", "--scores", path, "--alpha", "0.2", "--epsilon", "0.1",
                         "--rho", str(rho), "--format", fmt, "--output", str(out)]) == 0
            want = ref_outliers_output(by_role, 0.2, 0.1, rho, fmt)
            assert out.read_bytes() == want.encode()
        compared += 1


@pytest.mark.parametrize("sweep", [None, "epsilon=0.05,0.2", "n_real=20:40:10", "trials=1:4:1"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_bernoulli_bytes_match_reference(tmp_path, sweep, fmt):
    base = {"n_real": 30, "n_synth": 60, "m": 40, "frac_alt": 0.05, "q_alt": 0.6,
            "q_synth_null": 0.5, "q_synth_alt": 0.55, "alpha": 0.1, "epsilon": 0.1,
            "trials": 3, "seed": 7}
    argv = ["simulate", "--trials", "3", "--m", "40", "--n-real", "30", "--n-synth", "60",
            "--seed", "7", "--format", fmt, "--output", str(tmp_path / f"sim.{fmt}")]
    param = values = None
    runs = [(None, base)]
    if sweep:
        argv += ["--sweep", sweep]
        param = sweep.split("=")[0]
        values = {"epsilon": [0.05, 0.2], "n_real": [20, 30, 40], "trials": [1, 2, 3, 4]}[param]
        runs = [(v, {**base, param: v}) for v in values]
    points = [(v, run_bernoulli_experiment(SimConfig(**kw))) for v, kw in runs]
    assert main(argv) == 0
    table, summary = ref_simulate_output("bernoulli", base, 7, param, values, points, fmt)
    assert (tmp_path / f"sim.{fmt}").read_bytes() == table.encode()
    if summary is not None:
        assert (tmp_path / "sim.summary.json").read_bytes() == summary.encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_outlier_bytes_match_reference(tmp_path, fmt):
    base = {"n": 40, "n_synth": 80, "m": 30, "outlier_frac": 0.05,
            "contamination_frac": 0.05, "rho": 0.02, "mu_out": 3.0, "alpha": 0.1,
            "epsilon": 0.1, "trials": 3, "seed": 5}
    out = tmp_path / f"o.{fmt}"
    assert main(["simulate", "--experiment", "outlier", "--trials", "3", "--n", "40",
                 "--n-synth", "80", "--m", "30", "--seed", "5", "--format", fmt,
                 "--output", str(out)]) == 0
    points = [(None, run_outlier_experiment(OutlierConfig(**base)))]
    table, summary = ref_simulate_output("outlier", base, 5, None, None, points, fmt)
    assert out.read_bytes() == table.encode()
    if summary is not None:
        assert (tmp_path / "o.summary.json").read_bytes() == summary.encode()


def test_write_table_matches_csv_and_json_modules(tmp_path):
    rng = np.random.default_rng(20245)
    specials = [0.0, -0.0, 5e-324, 1e308, float("nan"), float("inf"), -float("inf"),
                math.nextafter(1.0, 2.0), 1 / 3]
    # Powers of ten and their neighbours, powers of two and subnormals: the
    # values near the decade edges and rounding ties that the float kernel
    # hands to CPython, and the ones just beside them that it does not.
    for k in range(-323, 309, 7):
        for v in (10.0 ** k, float(f"1e{k}")):
            specials += [v, math.nextafter(v, math.inf), -math.nextafter(v, 0.0)]
    specials += [2.0 ** k for k in range(-1074, 1024, 37)]
    specials += [-2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
                 9007199254740993.0, 1e16, 1e17, 1e15, 123456789012345680.0, 0.1, 1e-5]
    for case in range(200):
        n = int(rng.integers(0, 9))
        floats = np.array([pick(rng, specials) if rng.random() < 0.5 else float(rng.normal())
                           for _ in range(n)])
        columns = {
            "name": [pick(rng, IDS) for _ in range(n)],
            "x": floats,
            "k": rng.integers(-5, 5, size=n),
            "flag": rng.random(n) < 0.5,
        }
        summary = {"rows": ROWS, "count": n, "level": float(rng.random()), "tag": "t"}
        out = tmp_path / "t.csv"
        write_table(str(out), columns, "csv", summary)
        want = ref_csv(
            list(columns),
            [[columns["name"][j], fmt17(floats[j]), int(columns["k"][j]),
              "true" if columns["flag"][j] else "false"] for j in range(n)],
            {"count": n, "level": fmt17(summary["level"]), "tag": "t"},
        )
        assert out.read_bytes() == want.encode()
        out = tmp_path / "t.json"
        write_table(str(out), columns, "json", summary)
        want = ref_json({
            "rows": [
                {"name": columns["name"][j], "x": float(floats[j]),
                 "k": int(columns["k"][j]), "flag": bool(columns["flag"][j])}
                for j in range(n)
            ],
            "count": n, "level": summary["level"], "tag": "t",
        })
        assert out.read_bytes() == want.encode()
