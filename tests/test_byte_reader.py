"""The byte-level column reader on plain files, against the row-by-row readers.

A plain file (ASCII, no quote, no NUL, every carriage return just before a
line feed) must be cut and parsed without the csv module, so that a slide
back to the slow path fails here instead of passing every other test.  The
``ref_*`` readers of ``test_cli_io`` give the expected values and
diagnostics.
"""

from __future__ import annotations

import numpy as np
import pytest

from synthbh import tables
from synthbh.tables import CliError, read_pvalue_table, read_role_scores, read_single_column
from test_cli_io import ref_read_pvalue_table, ref_read_role_scores, ref_read_single_column


def outcome(reader, *args):
    try:
        return "ok", reader(*args)
    except CliError as exc:
        return "error", (str(exc), exc.exit_code)


def same(want, got) -> bool:
    if isinstance(want, np.ndarray):
        return want.dtype == got.dtype and want.shape == got.shape and \
            want.tobytes() == got.tobytes()
    if isinstance(want, dict):
        return list(want) == list(got) and all(same(want[k], got[k]) for k in want)
    if isinstance(want, (list, tuple)):
        return len(want) == len(got) and all(same(a, b) for a, b in zip(want, got))
    return want == got


def write(tmp_path, name, lines, newline, final):
    path = tmp_path / name
    path.write_bytes((newline.join(lines) + (newline if final else "")).encode())
    return str(path)


def plain_files(tmp_path, newline, final):
    """(reader, reference, path, extra args) for plain files of each reader."""
    rng = np.random.default_rng(5)
    p, q, w = rng.random(3000), rng.random(3000) ** 5, rng.random(3000) * 9
    scores = rng.normal(size=3000)
    roles = [("real", "synth", "test")[k] for k in rng.integers(0, 3, 3000)]
    files = [
        ("p.csv", ["id,p_real,p_synth"] + [f"h{i},{a!r},{b!r}" for i, (a, b) in
                                           enumerate(zip(p.tolist(), q.tolist()))]),
        ("w.csv", ["id,p_real,p_synth,weight"] + [f"g{i},{a:.3f},{b:.17g},{c!r}" for i, (a, b, c)
                                                  in enumerate(zip(p, q, w.tolist()))]),
        ("bad.csv", ["id,p_real,p_synth", "a,0.5,0.25", "b,nan,0.5", "c,0.5,1.5"]),
        ("s.csv", ["role,score"] + [f"{r},{s!r}" for r, s in zip(roles, scores.tolist())]),
        ("odd.csv", ["role,score", "real,1", " real,2", "test ,3e-1", "synth,.5"]),
        ("unknown.csv", ["role,score", "real,1", "Real,2"]),
        ("c.csv", ["weight"] + [repr(v) for v in w.tolist()]),
        ("nonfinite.csv", ["weight", "1", "1e400", "inf"]),
    ]
    for name, lines in files:
        path = write(tmp_path, name, lines, newline, final)
        if name[0] in "pwb":
            yield read_pvalue_table, ref_read_pvalue_table, path, ()
        elif name[0] in "sou":
            yield read_role_scores, ref_read_role_scores, path, ()
        else:
            yield read_single_column, ref_read_single_column, path, ("weight",)


@pytest.mark.parametrize("final", [True, False], ids=["final-newline", "no-final-newline"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_plain_files_skip_the_csv_module(tmp_path, monkeypatch, newline, final):
    def refuse(path, body):
        raise AssertionError(f"{path}: a plain body reached the csv module")

    cases = list(plain_files(tmp_path, newline, final))
    wants = [outcome(ref, path, *args) for _, ref, path, args in cases]
    monkeypatch.setattr(tables, "_records", refuse)
    for (reader, _, path, args), want in zip(cases, wants):
        got = outcome(reader, path, *args)
        assert want[0] == got[0] and same(want[1], got[1]), (path, want, got)


@pytest.mark.parametrize("text", [
    "id,p_real,p_synth\rh,0.1,0.2\r",
    "id,p_real,p_synth\nh,0.1,0.2\r\rj,0.3,0.4\n",
    "id,p_real,p_synth\r\nh,0.1\r,0.2\r\n",
    'id,p_real,p_synth\n"h",0.1,0.2\n',
    "id,p_real,p_synth\nh\x00,0.1,0.2\n",
    "id,p_real,p_synth\nhé,0.1,0.2\n",
    "id,p_real,p_synth\nh,0.1,0.2\n\nj,0.3,0.4\n",
    "id,p_real,p_synth\nh,0.1,0.2,\n",
])
def test_other_files_take_the_csv_module(tmp_path, monkeypatch, text):
    path = tmp_path / "o.csv"
    path.write_bytes(text.encode())
    want = outcome(ref_read_pvalue_table, str(path))
    calls = []
    records = tables._records

    def counted(*args):
        calls.append(args)
        return records(*args)

    monkeypatch.setattr(tables, "_records", counted)
    got = outcome(read_pvalue_table, str(path))
    assert calls
    assert want[0] == got[0] and same(want[1], got[1]), (want, got)


def test_mixed_line_ends_are_plain(tmp_path, monkeypatch):
    path = tmp_path / "m.csv"
    path.write_bytes(b"id,p_real,p_synth\r\na,0.5,0.25\nb,0.125,1\r\nc,0,1e-3")
    want = outcome(ref_read_pvalue_table, str(path))
    monkeypatch.setattr(tables, "_records", None)
    got = outcome(read_pvalue_table, str(path))
    assert want[0] == got[0] == "ok" and same(want[1], got[1])
