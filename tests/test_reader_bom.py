"""CSV input that starts with the UTF-8 byte-order mark.

Spreadsheet programs write "CSV UTF-8" files with a leading EF BB BF.
Every reader skips it, so that the rest of a plain file still takes the
byte-level path, and reads the same values as from the file without it.
"""

from __future__ import annotations

import numpy as np
import pytest

from synthbh import tables
from synthbh.cli import main
from synthbh.tables import CliError, read_pvalue_table, read_role_scores, read_single_column
from test_byte_reader import same

BOM = b"\xef\xbb\xbf"
FILES = [
    (read_pvalue_table, (), ["id,p_real,p_synth", "h1,0.25,0.5", "h2,1e-3,0.125"]),
    (read_pvalue_table, (), ["id,p_real,p_synth,weight", "a,0.5,0.5,1", "b,0.1,0.2,1"]),
    (read_single_column, ("weight",), ["weight", "1.5", "2", "0.5"]),
    (read_role_scores, (), ["role,score", "real,1.5", "synth,-2", "test,3e-1", "test,4"]),
]


def write(tmp_path, name, data: bytes) -> str:
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def no_csv_module(path, body):
    raise AssertionError("a plain file went through the csv module")


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("reader, args, lines", FILES)
def test_plain_file_with_bom_reads_as_without(tmp_path, monkeypatch, newline, reader, args,
                                              lines):
    text = (newline.join(lines) + newline).encode()
    want = reader(write(tmp_path, "plain.csv", text), *args)
    monkeypatch.setattr(tables, "_records", no_csv_module)
    got = reader(write(tmp_path, "bom.csv", BOM + text), *args)
    assert same(want, got)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("reader, args, lines", FILES)
def test_quoted_file_with_bom_reads_as_without(tmp_path, newline, reader, args, lines):
    # A quoted header keeps the file off the byte-level path.
    quoted = ['"' + lines[0].replace(",", '","') + '"'] + lines[1:]
    text = (newline.join(quoted) + newline).encode()
    want = reader(write(tmp_path, "plain.csv", text), *args)
    got = reader(write(tmp_path, "bom.csv", BOM + text), *args)
    assert same(want, got)


@pytest.mark.parametrize("reader, args, lines", FILES)
def test_bom_only_file_is_empty(tmp_path, reader, args, lines):
    path = write(tmp_path, "bom.csv", BOM)
    with pytest.raises(CliError) as info:
        reader(path, *args)
    assert str(info.value) == f"{path}: empty file" and info.value.exit_code == 2


def test_undecodable_byte_offset_counts_the_bom(tmp_path):
    path = write(tmp_path, "bom.csv", BOM + b"id,p_real,p_synth\na\xff,0.5,0.5\n")
    with pytest.raises(CliError) as info:
        read_pvalue_table(path)
    assert str(info.value) == (f"{path}: row 2: byte 0xff at offset 22 "
                               "is not valid utf-8 text")


def test_test_command_reads_a_bom_file(tmp_path, capsys):
    lines = ["id,p_real,p_synth", "h1,0.01,0.5", "h2,0.9,0.02"]
    text = ("\n".join(lines) + "\n").encode()
    plain, bom = write(tmp_path, "plain.csv", text), write(tmp_path, "bom.csv", BOM + text)
    assert main(["test", plain, "--alpha", "0.2"]) == 0
    want = capsys.readouterr().out
    assert main(["test", bom, "--alpha", "0.2"]) == 0
    assert capsys.readouterr().out == want
    assert np.array_equal(read_pvalue_table(bom)[1], read_pvalue_table(plain)[1])
