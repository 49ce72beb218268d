"""The table writer's block assembly against the reference writers.

Each block of rows is one buffer: ids of a plain file stay as bytes
(``TextCells``), floats take 32 cells, and lists of strings are encoded
once per chunk.  These
tests write through ``write_table`` and ``synthbh test`` and compare the
bytes with ``csv.writer``, ``'%.17g'`` and ``json.dumps``.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest

from synthbh import StepUpConfig, floattext, synth_bh, tables
from synthbh.cli import main
from synthbh.tables import ROWS, TextCells, read_pvalue_cells, read_pvalue_table, \
    read_result_table, write_table
from test_cli_io import ref_read_pvalue_table, ref_test_output


def csv_text(header, rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


def json_text(name, values) -> str:
    return json.dumps({"rows": [{name: v} for v in values]}, indent=2) + "\n"


def assert_floats_written(tmp_path, values):
    values = np.asarray(values, np.float64)
    out = tmp_path / "t.csv"
    write_table(str(out), {"x": values}, "csv", {})
    assert out.read_text() == csv_text(["x"], [["%.17g" % v] for v in values.tolist()])
    out = tmp_path / "t.json"
    write_table(str(out), {"x": values}, "json", {"rows": ROWS})
    assert out.read_text() == json_text("x", values.tolist())


def interior_point_values() -> list[float]:
    """Values whose text has its point after digit k = 1..16, with every
    count of digits after the point, so that the digits after the point
    move into the next cells and trailing zeros are dropped at each place."""
    rng = np.random.default_rng(140)
    values = []
    for k in range(1, 17):
        head = int(rng.integers(10 ** k, 10 ** (k + 1)))
        for after in range(0, 17 - k):
            # head + r / 2**bits is exact, with bits digits after the point.
            bits = min(after, 52 - head.bit_length())
            if bits < 0:
                continue
            frac = int(rng.integers(0, 2 ** bits)) | 1 if bits else 0
            values.append(head + frac / 2 ** bits)
        # 17 significant digits, the last one in the exponent word.
        values.append(float(f"{head}.{rng.integers(10 ** (15 - k), 10 ** (16 - k))}"))
    values += [float(f"{d}e{k}") for d in ("1", "12", "1.5", "9.999") for k in range(1, 17)]
    return values + [-v for v in values]


@pytest.mark.parametrize("size", [1, 4096])
def test_floats_with_a_point_inside_match_cpython(tmp_path, size):
    values = interior_point_values()
    rng = np.random.default_rng(size)
    values += (rng.random(size) * 10.0 ** rng.integers(0, 18, size)).tolist()
    assert_floats_written(tmp_path, values)


def test_floats_of_one_row_per_chunk_match_cpython(tmp_path, monkeypatch):
    monkeypatch.setattr(tables, "_CHUNK_ROWS", 1)
    assert_floats_written(tmp_path, interior_point_values()[::7] + [0.5, -2.5e-7, 1e300])


def test_fallback_texts_of_24_characters_fill_the_row(tmp_path, monkeypatch):
    # Every value near a tie goes to CPython; with the bound at 1/2, all do.
    monkeypatch.setattr(floattext, "_NEAR", 0.5)
    values = [-2.2250738585072014e-308, -1.2345678901234567e-300, -4.9406564584124654e-324,
              -1.7976931348623157e308, 0.1, -0.0, 123.25, 5e-324]
    assert max(len("%.17g" % v) for v in values) == 24
    assert_floats_written(tmp_path, values)


def test_string_column_holding_the_join_separator(tmp_path, monkeypatch):
    monkeypatch.setattr(tables, "_CHUNK_ROWS", 3)
    names = ["a", "line\nfeed", "", "b", "c\n", "\n", "é", "d", "e"]
    k = np.arange(len(names))
    out = tmp_path / "t.csv"
    write_table(str(out), {"name": names, "k": k}, "csv", {})
    assert out.read_text() == csv_text(["name", "k"], zip(names, k.tolist()))
    out = tmp_path / "t.json"
    write_table(str(out), {"name": names}, "json", {"rows": ROWS})
    assert out.read_text() == json_text("name", names)


def test_text_cells_slice_and_decode():
    texts = ["h1", "", "abc\\", "x\ty", "\x7f"]
    cells = tables._string_cells(texts)
    assert isinstance(cells, TextCells) and len(cells) == 5
    assert cells.tolist() == texts
    assert cells[1:4].tolist() == texts[1:4]
    assert cells[3:].tolist() == texts[3:] and cells[:0].tolist() == []
    assert tables._spread(cells[0:3], 4).tolist() == [list(b"h1\xff\xff"), [255] * 4,
                                                       list(b"abc\\")]


def run_test_command(tmp_path, path):
    """``synthbh test`` on ``path`` in both formats, against the reference writers."""
    ids, pairs, _ = ref_read_pvalue_table(path)
    result = synth_bh(pairs, StepUpConfig(alpha=0.3, epsilon=0.1))
    for fmt in ("csv", "json"):
        out = tmp_path / f"out.{fmt}"
        assert main(["test", path, "--alpha", "0.3", "--epsilon", "0.1", "--format", fmt,
                     "--output", str(out)]) == 0
        assert out.read_bytes() == ref_test_output(
            ids, pairs, result, 0.3, 0.1, "fast", fmt).encode()
    return ids


def pvalue_file(tmp_path, ids, newline="\n", quoting=csv.QUOTE_MINIMAL) -> str:
    rng = np.random.default_rng(len(ids))
    p, q = (rng.random(len(ids)) ** 3).tolist(), rng.random(len(ids)).tolist()
    out = io.StringIO()
    csv.writer(out, lineterminator=newline, quoting=quoting).writerows(
        [["id", "p_real", "p_synth"]] + [[i, repr(a), repr(b)] for i, a, b in zip(ids, p, q)])
    path = tmp_path / "p.csv"
    path.write_bytes(out.getvalue().encode())
    return str(path)


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_plain_ids_with_escapes_match_reference(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(tables, "_CHUNK_ROWS", chunk)
    # Backslash, TAB, DEL and other control bytes keep a file plain; JSON
    # escapes them, so their chunks take the string path.  Widths change
    # from chunk to chunk.
    ids = [f"h{j}" + ["", "\\", "\t", "\x7f", "\x01", " ", "~~~~~~~~~~", "a\\b"][j % 8] * (j % 4)
           for j in range(60)]
    path = pvalue_file(tmp_path, ids)
    assert isinstance(read_pvalue_cells(path)[0], TextCells)
    assert run_test_command(tmp_path, path) == ids


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_plain_ids_of_one_length_and_crlf_match_reference(tmp_path, monkeypatch, newline):
    monkeypatch.setattr(tables, "_CHUNK_ROWS", 5)
    ids = [f"id{j:05d}" for j in range(23)] + [f"long-id-{j}" for j in range(9)]
    path = pvalue_file(tmp_path, ids, newline)
    assert isinstance(read_pvalue_cells(path)[0], TextCells)
    assert run_test_command(tmp_path, path) == ids


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_non_plain_ids_match_reference(tmp_path, monkeypatch, newline):
    monkeypatch.setattr(tables, "_CHUNK_ROWS", 3)
    ids = [["a,b", "line\nbreak", "é", "日本", 'say "hi"', "cr\rlf", "plain", "x\\y"][j % 8]
           * (1 + j % 3) for j in range(40)]
    # Every field quoted, so that a bare carriage return stays in its id.
    path = pvalue_file(tmp_path, ids, newline, csv.QUOTE_ALL)
    assert isinstance(read_pvalue_cells(path)[0], list)
    assert read_pvalue_table(path)[0] == ids
    assert run_test_command(tmp_path, path) == ids


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_one_column_table_quotes_empty_texts(tmp_path, monkeypatch, chunk):
    # csv.writer writes an empty row's one field as "", so that the row
    # does not read back as a blank line.  Empty texts fall on chunk edges.
    monkeypatch.setattr(tables, "_CHUNK_ROWS", chunk)
    names = ["", "a", "", "", "bc", "d", "e", "", "f", ""]
    out = tmp_path / "t.csv"
    for header in ("name", ""):
        for column in (names, tables._string_cells(names)):
            write_table(str(out), {header: column}, "csv", {})
            assert out.read_text() == csv_text([header], [[n] for n in names])
    assert read_result_table(str(out))[1] == [[n] for n in names]
    # A plain file's empty id is TextCells too.
    ids, _, _ = read_pvalue_cells(str(pvalue_file(tmp_path, names)))
    assert isinstance(ids, TextCells)
    write_table(str(out), {"id": ids}, "csv", {})
    assert out.read_text() == csv_text(["id"], [[n] for n in names])
    quoted = ["", "a,b", "", 'q"']
    write_table(str(out), {"name": quoted}, "csv", {})
    assert out.read_text() == csv_text(["name"], [[n] for n in quoted])
