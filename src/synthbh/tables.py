"""CSV and JSON tables for the command line, read and written by whole columns.

The readers take the header with the csv module and the rest of the file
as one string.  When that body is plain (see :func:`_split_columns`) it is
cut into columns at once, each numeric column is converted with one
``float`` pass, and the checks run on arrays.  Any other body, and any body
with a cell that fails a check, goes through the row-by-row csv loop,
which gives the same values and raises the first diagnostic in row order.

:func:`write_table` formats every row of a table from one ``%`` template,
a chunk of rows at a time, and writes exactly the bytes ``csv.writer`` and
``json.dump(..., indent=2)`` would, except that a CSV field holding a
carriage return is quoted.  Files are written to a temporary name
and renamed into place once complete.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import secrets
import stat
import sys
from json.encoder import encode_basestring_ascii
from typing import Mapping, Sequence

import numpy as np

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


class CliError(Exception):
    """Failure with a user-facing message and a process exit code."""

    def __init__(self, message: str, exit_code: int = EXIT_VALIDATION) -> None:
        super().__init__(message)
        self.exit_code = exit_code


def _fmt_float(x) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# CSV ingestion with row/column diagnostics.
# ---------------------------------------------------------------------------


def _read_text(path: str) -> tuple[list[str], str]:
    """The header fields, stripped, and the rest of the file as one string."""
    try:
        with open(path, newline="") as handle:
            try:
                header = next(csv.reader(handle), None)
            except csv.Error as exc:
                raise CliError(f"{path}: row 1: {exc}") from None
            body = handle.read()
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}", EXIT_IO) from exc
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    if header is None:
        raise CliError(f"{path}: empty file")
    return [h.strip() for h in header], body


def _undecodable(path: str, exc: UnicodeDecodeError) -> CliError:
    """Name the row that holds the first byte ``exc.encoding`` cannot decode."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        data.decode(exc.encoding)
    except UnicodeDecodeError as first:
        # A sentinel in place of the bad byte lands in the record that holds it.
        prefix = data[: first.start].decode(exc.encoding) + "?"
        where = ""
        try:
            where = f" row {sum(1 for _ in csv.reader(io.StringIO(prefix, newline='')))}:"
        except csv.Error:
            pass
        return CliError(
            f"{path}:{where} byte 0x{data[first.start]:02x} at offset "
            f"{first.start} is not valid {exc.encoding} text"
        )
    except OSError:
        pass
    return CliError(f"{path}: not valid {exc.encoding} text")


def _records(path: str, body: str) -> list[list[str]]:
    """The data records of ``body`` as ``csv.reader`` parses them."""
    rows: list[list[str]] = []
    try:
        for row in csv.reader(io.StringIO(body, newline="")):
            rows.append(row)
    except csv.Error as exc:
        raise CliError(f"{path}: row {len(rows) + 2}: {exc}") from None
    return rows


def _split_columns(body: str, width: int) -> list[list[str]] | None:
    """``body`` cut into ``width`` columns of cells without the csv module.

    Returns None unless every line holds exactly ``width`` plain fields:
    no quote, no carriage return, no NUL, and no line longer than the csv
    field size limit.  ``csv.reader`` gives the same cells on every body
    this accepts, so only the row-by-row path needs to know csv's rules.
    """
    if not body:
        return [[] for _ in range(width)]
    if '"' in body or "\r" in body or "\0" in body:
        return None
    if body.endswith("\n"):
        body = body[:-1]
    lines = body.split("\n")
    if set(map(str.count, lines, itertools.repeat(","))) != {width - 1}:
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    if width == 1:
        return [lines]
    del lines
    cells = body.replace("\n", ",").split(",")
    return [cells[k::width] for k in range(width)]


def _split_floats(body: str, width: int, first: int):
    """Columns of ``body`` before ``first`` as text, and the rest as floats.

    Each float column is one ``float`` pass over its cells.  None when
    :func:`_split_columns` declines ``body`` or a cell is not a number.
    """
    columns = _split_columns(body, width)
    if columns is None:
        return None
    try:
        floats = [np.fromiter(map(float, c), np.float64, len(c)) for c in columns[first:]]
    except ValueError:
        return None
    return columns[:first], floats


def _parse_cell(path: str, row_num: int, column: str, text: str) -> float:
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


def _parse_probability_cell(path: str, row_num: int, column: str, text: str) -> float:
    value = _parse_cell(path, row_num, column, text)
    if not (0 <= value <= 1):
        raise CliError(
            f"{path}: row {row_num}, column {column!r}: "
            f"value {text} outside [0, 1]"
        )
    return value


def read_pvalue_table(path: str):
    """Read ``id,p_real,p_synth[,weight]`` rows.

    Returns (ids, pairs array of shape (m, 2), weights array or None).
    """
    header, body = _read_text(path)
    required = ["id", "p_real", "p_synth"]
    if header != required and header != required + ["weight"]:
        raise CliError(
            f"{path}: expected header id,p_real,p_synth[,weight], "
            f"got {','.join(header)}"
        )
    has_weight = len(header) == 4
    fast = _split_floats(body, len(header), 1)
    if fast is not None:
        (ids,), (p, q, *w) = fast
        w = w[0] if has_weight else None
        probabilities_ok = ((p >= 0) & (p <= 1) & (q >= 0) & (q <= 1)).all()
        weights_ok = w is None or (np.isfinite(w) & (w >= 0)).all()
        if probabilities_ok and weights_ok and p.size:
            return ids, np.column_stack((p, q)), w
    ids: list[str] = []
    pairs: list[tuple[float, float]] = []
    weights: list[float] = []
    for offset, row in enumerate(_records(path, body), start=2):
        if len(row) != len(header):
            raise CliError(
                f"{path}: row {offset}: expected {len(header)} fields, got {len(row)}"
            )
        ids.append(row[0])
        p = _parse_probability_cell(path, offset, "p_real", row[1])
        q = _parse_probability_cell(path, offset, "p_synth", row[2])
        pairs.append((p, q))
        if has_weight:
            w = _parse_cell(path, offset, "weight", row[3])
            if w < 0:
                raise CliError(
                    f"{path}: row {offset}, column 'weight': negative value {row[3]}"
                )
            weights.append(w)
    if not ids:
        raise CliError(f"{path}: no data rows")
    return ids, np.array(pairs), (np.array(weights) if has_weight else None)


def read_single_column(path: str, column: str) -> np.ndarray:
    """Read a one-column CSV whose header names ``column``."""
    header, body = _read_text(path)
    if header != [column]:
        raise CliError(f"{path}: expected header {column!r}, got {','.join(header)}")
    fast = _split_floats(body, 1, 0)
    if fast is not None and np.isfinite(fast[1][0]).all():
        return fast[1][0]
    values = []
    for offset, row in enumerate(_records(path, body), start=2):
        if len(row) != 1:
            raise CliError(f"{path}: row {offset}: expected 1 field, got {len(row)}")
        values.append(_parse_cell(path, offset, column, row[0]))
    return np.array(values)


def read_role_scores(path: str) -> dict[str, np.ndarray]:
    """Read a ``role,score`` CSV; roles are real, synth, or test."""
    header, body = _read_text(path)
    if header != ["role", "score"]:
        raise CliError(f"{path}: expected header role,score, got {','.join(header)}")
    roles = ("real", "synth", "test")
    fast = _split_floats(body, 2, 1)
    if fast is not None:
        (texts,), (values,) = fast
        spellings = {text: text.strip() for text in set(texts)}
        if set(spellings.values()) <= set(roles) and np.isfinite(values).all():
            code = {text: roles.index(role) for text, role in spellings.items()}
            codes = np.fromiter(map(code.__getitem__, texts), np.int8, values.size)
            return {role: values[codes == k] for k, role in enumerate(roles)}
    scores: dict[str, list[float]] = {role: [] for role in roles}
    for offset, row in enumerate(_records(path, body), start=2):
        if len(row) != 2:
            raise CliError(f"{path}: row {offset}: expected 2 fields, got {len(row)}")
        role = row[0].strip()
        if role not in scores:
            raise CliError(
                f"{path}: row {offset}, column 'role': "
                f"unknown role {row[0]!r} (expected real, synth, or test)"
            )
        scores[role].append(_parse_cell(path, offset, "score", row[1]))
    return {role: np.array(vals) for role, vals in scores.items()}


def read_result_table(path: str):
    """Read back a results CSV written by this tool.

    Returns (header, data rows, summary dict parsed from the trailing
    ``# key=value`` comment line if present).  Quoted fields may span
    lines; blank lines are skipped.
    """
    try:
        with open(path, newline="") as handle:
            rows = [row for row in csv.reader(handle) if row]
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}", EXIT_IO) from exc
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    except csv.Error as exc:
        raise CliError(f"{path}: {exc}") from None
    summary: dict[str, str] = {}
    if rows and len(rows[-1]) == 1 and rows[-1][0].startswith("#"):
        for token in rows.pop()[0].lstrip("# ").split():
            key, _, value = token.partition("=")
            summary[key] = value
    if not rows:
        raise CliError(f"{path}: no rows")
    return rows[0], rows[1:], summary


# ---------------------------------------------------------------------------
# Output helpers.
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _output(path: str | None):
    """A text handle on ``path``, or on stdout when ``path`` is None.

    A new file, or a writable regular one, is written under a temporary
    name in its directory and moved over ``path`` only once complete, so a
    failed run leaves the previous file or none, never a truncated one.
    Anything else (a symlink such as ``/dev/stdout``, a device, a pipe, a
    read-only file) is opened in place, so that it behaves, and fails, as
    an ``open`` of ``path`` does.
    """
    if path is None:
        yield sys.stdout
        return
    try:
        mode = os.lstat(path).st_mode
    except OSError:
        mode = None
    exists = mode is not None
    in_place = exists and not (stat.S_ISREG(mode) and os.access(path, os.W_OK))
    folder, name = os.path.split(path)
    temp = path if in_place else os.path.join(folder, f".{name}.{secrets.token_hex(4)}.tmp")
    try:
        handle = open(temp, "w" if in_place else "x", newline="")
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}", EXIT_IO) from exc
    try:
        with handle:
            yield handle
        if not in_place:
            if exists:
                os.chmod(temp, stat.S_IMODE(mode))
            os.replace(temp, path)
    except BaseException as exc:
        if not in_place:
            try:
                os.remove(temp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise CliError(f"{path}: {exc.strerror or exc}", EXIT_IO) from exc
        raise


# Marks the entry of a JSON document that holds the rows of a table.
ROWS = object()

_CHUNK_ROWS = 1024
# Characters that may make csv.writer quote a field.
_CSV_SPECIAL = (",", '"', "\r", "\n", "\0")


def _quote_minimal(texts: list[str]) -> list[str]:
    """``texts`` as ``csv.writer`` writes them as fields of a row.

    A field that holds a carriage return is quoted too, which
    ``csv.writer`` with a line-feed line terminator does not do; unquoted,
    it would not read back as one field.
    """
    joined = "".join(texts)
    if not any(c in joined for c in _CSV_SPECIAL):
        return texts
    buffer = io.StringIO()
    # csv quotes a field that holds any character of the line terminator.
    writer = csv.writer(buffer, lineterminator="\r\n")

    def field(text: str) -> str:
        if not any(c in text for c in _CSV_SPECIAL):
            return text
        buffer.seek(0)
        buffer.truncate()
        # A second field keeps csv's rule for one-field rows out of play.
        writer.writerow((text, ""))
        return buffer.getvalue()[:-3]

    return list(map(field, texts))


def _cells(values, fmt: str) -> tuple[str, list]:
    """The ``%`` field and the values it formats for one column slice."""
    if isinstance(values, np.ndarray):
        if values.dtype == bool:
            return "%s", np.where(values, "true", "false").tolist()
        if values.dtype.kind in "iu":
            return "%d", values.tolist()
        if fmt == "csv":
            return "%.17g", values.tolist()
        if np.isfinite(values).all():
            # %r of a Python float is float.__repr__, as json writes it.
            return "%r", values.tolist()
        return "%s", list(map(json.dumps, values.tolist()))
    if fmt == "csv":
        return "%s", _quote_minimal(list(values))
    return "%s", [
        encode_basestring_ascii(v) if isinstance(v, str) else json.dumps(v)
        for v in values
    ]


def _write_rows(handle, columns: Mapping[str, Sequence], n: int, fmt: str, template,
                separator: str) -> None:
    """Write the ``n`` rows of ``columns``, ``_CHUNK_ROWS`` at a time.

    ``template`` maps the ``%`` fields of the columns to one row's
    template; rows are joined by ``separator``.
    """
    for start in range(0, n, _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        fields, values = zip(*(_cells(col[start:stop], fmt) for col in columns.values()))
        if start:
            handle.write(separator)
        handle.write(separator.join(map(template(fields).__mod__, zip(*values))))
        # Free this chunk's cells before the next chunk's are made.
        del values


def write_table(
    output: str | None, columns: Mapping[str, Sequence], fmt: str, summary: Mapping
) -> None:
    """Write a table of equal-length ``columns`` to ``output`` (stdout if None).

    A column is a numpy array of bools, integers or floats, or a list of
    strings (for JSON, also of None or other scalars).  ``fmt="csv"``
    writes a header, one line per row with floats at 17 significant
    digits and fields quoted as ``csv.writer`` quotes them (and also when
    they hold a carriage return), and then, if
    ``summary`` has entries besides ``ROWS``, one ``# key=value`` line of
    them.  ``fmt="json"`` writes the bytes of
    ``json.dump(summary, indent=2)`` plus a newline, with the top-level
    entry whose value is ``ROWS`` holding one object per row.
    """
    n = len(next(iter(columns.values())))
    with _output(output) as handle:
        if fmt == "csv":
            handle.write(",".join(_quote_minimal(list(columns))) + "\n")
            _write_rows(handle, columns, n, fmt, lambda fields: ",".join(fields) + "\n", "")
            rest = {k: v for k, v in summary.items() if v is not ROWS}
            if rest:
                handle.write("# " + " ".join(
                    f"{k}={_fmt_float(v) if isinstance(v, float) else v}"
                    for k, v in rest.items()
                ) + "\n")
            return
        keys = [encode_basestring_ascii(name).replace("%", "%%") for name in columns]

        def template(fields):
            body = ",\n".join(f"      {k}: {f}" for k, f in zip(keys, fields))
            return "    {\n" + body + "\n    }"

        for index, (key, value) in enumerate(summary.items()):
            opening = "," if index else "{"
            handle.write(f"{opening}\n  {encode_basestring_ascii(key)}: ")
            if value is not ROWS:
                # json never writes a raw newline inside a value, so this
                # indents the nested lines by one level.
                handle.write(json.dumps(value, indent=2).replace("\n", "\n  "))
                continue
            if not n:
                handle.write("[]")
                continue
            handle.write("[\n")
            _write_rows(handle, columns, n, fmt, template, ",\n")
            handle.write("\n  ]")
        handle.write("\n}\n")


def write_json(path: str | None, payload) -> None:
    """Write ``json.dump(payload, indent=2)`` and a newline to ``path`` (stdout if None)."""
    with _output(path) as handle:
        handle.write(json.dumps(payload, indent=2) + "\n")
