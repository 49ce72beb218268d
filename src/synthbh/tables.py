"""CSV and JSON tables for the command line, read and written by whole columns.

The three readers share one column reader, :func:`_read_columns`.  It
reads the file as bytes into a buffer padded on both sides, so that the
float kernel may read past either end, and skips a leading UTF-8
byte-order mark.  A plain file (ASCII, no quote, no NUL, every carriage
return just before a line feed, the same number of fields on every line,
no blank line; see :func:`_plain_header` and :func:`_cut`) is cut with
numpy: every separator is found at once, and each column becomes two
arrays, where its cells start and end.  Ids are gathered into one buffer
and kept as bytes (:class:`TextCells`) all the way to the writer, roles
are matched on their bytes, and floats are parsed from the bytes by
:func:`~synthbh.floattext.parse_floats`, so no Python object is made per
cell.  Any other file goes through the csv module, which gives the same
cells on a plain file.  Each column is converted and checked as a whole,
with one pass per column kind.  Only when a column fails, or a record has
the wrong number of fields, are the rows walked in order, one cell at a
time, to raise the first diagnostic.

:func:`write_table` writes exactly the bytes ``csv.writer`` and
``json.dump(..., indent=2)`` would, except that a CSV field holding a
carriage return is quoted.  It builds each block of rows in one byte
buffer, laid out by column: every field writes its cells into its own
columns, each constant piece of CSV or JSON text between fields is one
assignment, and unused cells hold 0xFF, a byte no UTF-8 text holds, so
one ``bytes.translate`` drops them whatever an id holds.  Floats come
from :func:`~synthbh.floattext.render_floats`, 32 cells a value, which
gives CPython's digits for a whole column at once in double-double
arithmetic and hands a value to CPython's own ``%``/``json.dumps`` when
it is inf or nan, lies within 2**-20 of a rounding tie or of a decade
edge, or (for JSON) is a power of two, so no output byte depends on the
fast path.  Integers come from
:func:`~synthbh.floattext.render_integers`, which looks up 4-digit groups
and hands only magnitudes of 10**16 and above to ``str``.  Ids read from
a plain file are written as they were read: they never need CSV quotes,
and JSON only needs quotes around them unless a chunk holds a byte that
JSON escapes.  A list of strings is joined and encoded once per chunk.
Files are written to a temporary name and renamed into place once
complete.
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

from .floattext import GAP, PAD, parse_floats, render_floats, render_integers

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


class TextCells:
    """A column of texts kept as bytes: each text's bytes, then a GAP byte.

    ``data`` is a uint8 array and ``ends[i]`` the index in it of the GAP
    after text i.  The reader makes one from the id column of a plain file,
    so its texts are ASCII and hold no quote, comma, carriage return, line
    feed or NUL; the writer lays the bytes out as they are.  Supports
    ``len`` and slicing by a range of rows.
    """

    __slots__ = ("data", "ends")

    def __init__(self, data: np.ndarray, ends: np.ndarray) -> None:
        self.data = data
        self.ends = ends

    def __len__(self) -> int:
        return self.ends.size

    def __getitem__(self, rows: slice) -> TextCells:
        start, stop, _ = rows.indices(len(self))
        first = int(self.ends[start - 1]) + 1 if start else 0
        ends = self.ends[start:max(start, stop)] - first
        return TextCells(self.data[first:first + (int(ends[-1]) + 1 if ends.size else 0)], ends)

    def starts(self) -> np.ndarray:
        """Where each text starts in ``data``."""
        starts = np.empty_like(self.ends)
        starts[:1] = 0
        np.add(self.ends[:-1], 1, out=starts[1:])
        return starts

    def tolist(self) -> list[str]:
        """The texts as strings."""
        texts = self.data.tobytes().translate(_GAP_TO_LINE_FEED).decode("ascii").split("\n")
        texts.pop()
        return texts


# ---------------------------------------------------------------------------
# CSV ingestion with row/column diagnostics.
# ---------------------------------------------------------------------------


def _read_bytes(path: str) -> tuple[bytearray, int]:
    """The bytes of the file at ``path``, from offset PAD of a buffer
    zero-padded by PAD bytes on each side, and their count."""
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            data = bytearray(size + 2 * PAD)
            got = handle.readinto(memoryview(data)[PAD:PAD + size])
            rest = handle.read()
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}", EXIT_IO) from exc
    if got != size or rest:
        # The file changed size, or is not a regular file.
        content = data[PAD:PAD + got] + rest
        data = bytearray(PAD) + content + bytearray(PAD)
        size = len(content)
    return data, size


def _read_text(path: str, content: bytes) -> tuple[list[str], str]:
    """The header fields, stripped, and the rest of the nonempty
    ``content`` as one string, decoded as ``open`` decodes a text file."""
    handle = io.TextIOWrapper(io.BytesIO(content), newline="")
    try:
        header = next(csv.reader(handle))
        body = handle.read()
    except csv.Error as exc:
        raise CliError(f"{path}: row 1: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
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


def _plain_header(data: bytearray, begin: int, end: int) -> tuple[list[str], int] | None:
    """The stripped header of the plain file ``data[begin:end]`` and where its body starts, or None.

    A file is plain when it is ASCII and holds no quote and no NUL, and
    its header line holds no carriage return but one just before its line
    feed and is within the csv field size limit.  ``csv.reader`` reads a
    carriage return and line feed as one line end, so the header is that
    line split at commas.
    """
    if not data.isascii() or data.find(b'"', begin, end) >= 0 or data.find(b"\0", begin, end) >= 0:
        return None
    stop = data.find(b"\n", begin, end)
    stop = end if stop < 0 else stop
    line = data[begin:stop]
    if line.endswith(b"\r") and stop < end:
        del line[-1]
    if b"\r" in line or len(line) > csv.field_size_limit():
        return None
    return [h.strip() for h in line.decode("ascii").split(",")] if line else [], stop + 1


def _cut(data: bytearray, start: int, end: int, width: int) -> list | None:
    """The cells of each column of the plain body ``data[start:end]``, or None.

    A column is a pair of arrays: where each of its cells starts and ends.
    Returns None unless every carriage return stands just before a line
    feed (csv reads the pair as one line end), every line holds exactly
    ``width`` fields, no line is blank (csv reads it as a record of no
    fields) and no line is longer than the csv field size limit.  The
    separators are found with numpy; a line feed after the last line is
    written into the padding (a carriage return that ends the file then
    ends its last line, as csv reads it).
    """
    if start >= end:
        return [(np.empty(0, np.int64),) * 2] * width
    if data[end - 1] != ord("\n"):
        data[end] = ord("\n")
        end += 1
    u8 = np.frombuffer(data, np.uint8)
    body = u8[start:end]
    mask = body == ord("\n")
    rows = np.count_nonzero(mask)
    mask |= body == ord(",")
    seps = np.flatnonzero(mask)
    del mask
    if seps.size != rows * width:
        return None
    seps += start
    line_ends = seps[width - 1::width]
    if not (u8.take(line_ends) == ord("\n")).all():
        return None
    line_starts = np.empty(rows, np.int64)
    line_starts[0] = start
    line_starts[1:] = line_ends[:-1] + 1
    if (line_ends - line_starts).max() > csv.field_size_limit():
        return None
    last = line_ends
    if data.find(b"\r", start, end) >= 0:
        crlf = u8.take(line_ends - 1) == ord("\r")
        if np.count_nonzero(body == ord("\r")) != np.count_nonzero(crlf):
            return None
        last = line_ends - crlf
    if width == 1 and (last == line_starts).any():
        return None
    starts = [line_starts] + [seps[k::width] + 1 for k in range(width - 1)]
    return list(zip(starts, [seps[k::width] for k in range(width - 1)] + [last]))


# Column kinds: "text" (str cells as read), "float" (finite), "probability"
# (in [0, 1]), "weight" (finite and >= 0) and "role" (one of _ROLES after
# stripping, read as its index).
_ROLES = ("real", "synth", "test")
# Each role's bytes as a little-endian word, and the masks that keep the
# first k bytes of a word, k = 0..8.
_ROLE_WORDS = [np.uint64(int.from_bytes(role.encode(), "little")) for role in _ROLES]
_FIRST_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
_TEXT_ROWS = 8192
_GAP_TO_LINE_FEED = bytes.maketrans(b"\xff", b"\n")
_LINE_FEED_TO_GAP = bytes.maketrans(b"\n", b"\xff")
# The UTF-8 byte-order mark, which a file may start with.
_BOM = b"\xef\xbb\xbf"


def _checked(kind: str, x: np.ndarray):
    """The float column ``x`` if each value fits ``kind``, else None."""
    if kind == "probability":
        ok = ((x >= 0) & (x <= 1)).all()
    elif kind == "weight":
        ok = (np.isfinite(x) & (x >= 0)).all()
    else:
        ok = np.isfinite(x).all()
    return x if ok else None


def _convert(kind: str, cells: list[str]):
    """The column ``cells`` as ``kind``, or None when some cell fails."""
    if kind == "text":
        return cells
    if kind == "role":
        spellings = {text: text.strip() for text in set(cells)}
        if not set(spellings.values()) <= set(_ROLES):
            return None
        code = {text: _ROLES.index(role) for text, role in spellings.items()}
        return np.fromiter(map(code.__getitem__, cells), np.int8, len(cells))
    try:
        x = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        return None
    return _checked(kind, x)


def _texts(data: bytearray, starts: np.ndarray, ends: np.ndarray) -> TextCells:
    """The cells ``data[starts[i]:ends[i]]`` of a plain body as TextCells.

    Each cell is gathered with the separator that follows it, _TEXT_ROWS
    cells at a time, into one buffer, and each separator becomes a GAP.
    """
    u8 = np.frombuffer(data, np.uint8)
    counts = ends - starts + 1
    gaps = np.cumsum(counts)
    out = np.empty(int(gaps[-1]) if gaps.size else 0, np.uint8)
    gaps -= 1
    done = 0
    for first in range(0, counts.size, _TEXT_ROWS):
        count = counts[first:first + _TEXT_ROWS]
        offsets = np.cumsum(count)
        total = int(offsets[-1])
        offsets += done - count
        u8.take(np.repeat(starts[first:first + _TEXT_ROWS] - offsets, count)
                + np.arange(done, done + total), out=out[done:done + total])
        done += total
    out[gaps] = GAP
    return TextCells(out, gaps)


def _role_codes(data: bytearray, starts: np.ndarray, ends: np.ndarray):
    """The role index of each cell spelled exactly as a role, or None."""
    words = np.ndarray((len(data) - 7,), "S8", data, 0, (1,))[starts].view("<u8")
    words &= _FIRST_BYTES.take(np.minimum(ends - starts, 8))
    real, synth, test = (words == role for role in _ROLE_WORDS)
    if not (real | synth | test).all():
        return None
    return synth.view(np.int8) + 2 * test.view(np.int8)


def _convert_cut(kind: str, data: bytearray, starts: np.ndarray, ends: np.ndarray):
    """The cut column ``data[starts[i]:ends[i]]`` as ``kind``, or None when some cell fails.

    A role spelled other than exactly as a role is read as ``_convert`` does.
    """
    if kind == "text":
        return _texts(data, starts, ends)
    if kind == "role":
        codes = _role_codes(data, starts, ends)
        return _convert(kind, _texts(data, starts, ends).tolist()) if codes is None else codes
    x = parse_floats(data, starts, ends)
    return None if x is None else _checked(kind, x)


def _cell_error(kind: str, text: str) -> str | None:
    """What is wrong with one cell of a non-text ``kind``, or None."""
    if kind == "role":
        if text.strip() in _ROLES:
            return None
        return f"unknown role {text!r} (expected real, synth, or test)"
    try:
        value = float(text)
    except ValueError:
        return f"not a number: {text!r}"
    if not math.isfinite(value):
        return f"non-finite value {text!r}"
    if kind == "probability" and not 0 <= value <= 1:
        return f"value {text} outside [0, 1]"
    if kind == "weight" and value < 0:
        return f"negative value {text}"
    return None


def _read_columns(path: str, headers: Sequence[list[str]], expected: str,
                  kinds: Sequence[str]) -> list:
    """The columns of the CSV at ``path``, each converted to its kind.

    The stripped header must be one of ``headers`` (``expected`` spells
    them in the diagnostic); column k of a header has kind ``kinds[k]``.
    A UTF-8 byte-order mark at the start of the file is skipped.  A plain
    file (see :func:`_plain_header` and :func:`_cut`) is cut into columns
    of byte ranges, and its text columns come back as TextCells; any other
    goes through the csv module, and its text columns as lists.  Each
    column is converted and checked as a whole.  Only when one fails, or a
    record has the wrong number of fields, are the rows walked in order,
    to raise the first diagnostic: a bad cell before the first bad record,
    in column order within its row, or else that record.
    """
    data, size = _read_bytes(path)
    begin, end = PAD, PAD + size
    if data.startswith(_BOM, begin):
        # Zeros, as in the padding, so that the rest may still be plain.
        data[begin:begin + len(_BOM)] = bytes(len(_BOM))
        begin += len(_BOM)
    if begin == end:
        raise CliError(f"{path}: empty file")
    plain = _plain_header(data, begin, end)
    if plain is None:
        header, body = _read_text(path, data[begin:end])
    else:
        header, start = plain
    if header not in headers:
        raise CliError(f"{path}: expected header {expected}, got {','.join(header)}")
    width = len(header)
    cut = None if plain is None else _cut(data, start, end, width)
    ragged = None
    if cut is not None:
        values = [_convert_cut(kind, data, *cells) for kind, cells in zip(kinds, cut)]
        rows = len(cut[0][0])

        def text(k: int, row: int) -> str:
            return data[cut[k][0][row]:cut[k][1][row]].decode("ascii")
    else:
        if plain is not None:
            body = data[start:end].decode("ascii")
        records = _records(path, body)
        del body
        good = next((i for i, row in enumerate(records) if len(row) != width), len(records))
        if good < len(records):
            fields = "field" if width == 1 else "fields"
            ragged = f"row {good + 2}: expected {width} {fields}, got {len(records[good])}"
        columns = [list(cells) for cells in zip(*records[:good])] or [[] for _ in header]
        del records
        values = [_convert(kind, cells) for kind, cells in zip(kinds, columns)]
        rows = len(columns[0])

        def text(k: int, row: int) -> str:
            return columns[k][row]
    if ragged is None and all(v is not None for v in values):
        return values
    failed = [k for k, v in enumerate(values) if v is None]
    for row in range(rows):
        for k in failed:
            error = _cell_error(kinds[k], text(k, row))
            if error is not None:
                raise CliError(f"{path}: row {row + 2}, column {header[k]!r}: {error}")
    raise CliError(f"{path}: {ragged}")


def read_pvalue_cells(path: str):
    """Read ``id,p_real,p_synth[,weight]`` rows, the ids as the reader has them.

    Returns (ids, pairs array of shape (m, 2), weights array or None); the
    ids are TextCells for a plain file and a list of strings otherwise.
    """
    required = ["id", "p_real", "p_synth"]
    ids, p, q, *w = _read_columns(path, (required, required + ["weight"]),
                                  "id,p_real,p_synth[,weight]",
                                  ("text", "probability", "probability", "weight"))
    if not len(ids):
        raise CliError(f"{path}: no data rows")
    return ids, np.column_stack((p, q)), (w[0] if w else None)


def read_pvalue_table(path: str):
    """Read ``id,p_real,p_synth[,weight]`` rows.

    Returns (ids as a list of strings, pairs array of shape (m, 2), weights
    array or None).
    """
    ids, pairs, weights = read_pvalue_cells(path)
    return (ids.tolist() if isinstance(ids, TextCells) else ids), pairs, weights


def read_single_column(path: str, column: str) -> np.ndarray:
    """Read a one-column CSV whose header names ``column``."""
    (values,) = _read_columns(path, ([column],), repr(column), ("float",))
    return values


def read_role_scores(path: str) -> dict[str, np.ndarray]:
    """Read a ``role,score`` CSV; roles are real, synth, or test."""
    roles, scores = _read_columns(path, (["role", "score"],), "role,score", ("role", "float"))
    return {role: scores[roles == k] for k, role in enumerate(_ROLES)}


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
def _output(path):
    """A text handle on ``path``, on stdout when ``path`` is None, or
    ``path`` itself, left open, when it is an open text handle.

    A new file, or a writable regular one, is written under a temporary
    name in its directory and moved over ``path`` only once complete, so a
    failed run leaves the previous file or none, never a truncated one.
    Anything else (a symlink such as ``/dev/stdout``, a device, a pipe, a
    read-only file) is opened in place, so that it behaves, and fails, as
    an ``open`` of ``path`` does.
    """
    if path is None or hasattr(path, "write"):
        yield sys.stdout if path is None else path
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

_CHUNK_ROWS = 4096
# Upper bound on the cells of one block of rows (see _chunk_texts).
_BLOCK_CELLS = 1 << 18
# Characters that may make csv.writer quote a field.
_CSV_SPECIAL = (",", '"', "\r", "\n", "\0")


def _quote_minimal(texts: list[str], lone: bool = False) -> list[str]:
    """``texts`` as ``csv.writer`` writes them as fields of a row.

    A field that holds a carriage return is quoted too, which
    ``csv.writer`` with a line-feed line terminator does not do; unquoted,
    it would not read back as one field.  With ``lone``, each text is the
    only field of its row, and an empty one is written ``""``, as
    ``csv.writer`` does, so that the row does not read back as blank.
    """
    if lone and not all(texts):
        return [text or '""' for text in _quote_minimal(texts)]
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


# ---------------------------------------------------------------------------
# Column text as cells.
#
# A field of n rows is an (n, w) uint8 array of cells, or TextCells: the
# UTF-8 text of row i is row i of the array, or text i, with every GAP
# cell removed.  No UTF-8 text holds the byte 0xFF, so the fields of a
# block are laid side by side in one buffer and the gaps dropped with one
# bytes.translate, whatever a string field holds.
# ---------------------------------------------------------------------------


def _string_cells(texts: list[str]) -> TextCells:
    """The UTF-8 of ``texts`` as TextCells.

    The texts are joined by line feeds and encoded once, and the line
    feeds become the gaps; only when a text holds a line feed is each
    text encoded on its own.  Lone surrogates pass through, so the text
    decodes back unchanged.
    """
    data = ("\n".join(texts) + "\n").encode("utf-8", "surrogatepass").translate(_LINE_FEED_TO_GAP)
    data = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(data == GAP)
    if ends.size != len(texts):
        data = b"\xff".join([t.encode("utf-8", "surrogatepass") for t in texts]) + b"\xff"
        data = np.frombuffer(data, np.uint8)
        ends = np.flatnonzero(data == GAP)
    return TextCells(data, ends)


def _json_plain(cells: TextCells) -> bool:
    """Whether JSON writes each text of plain-file ``cells`` as it is, in quotes.

    ``encode_basestring_ascii`` escapes a backslash, a quote (which a
    plain file does not hold) and any character outside 0x20..0x7E; the
    gaps are the only bytes outside that range that may be there.
    """
    data = cells.data
    return (np.count_nonzero(data - np.uint8(0x20) > 0x5E) == len(cells)
            and not np.count_nonzero(data == ord("\\")))


_BOOL_CELLS = np.frombuffer(b"false" + b"true\xff", np.uint8).reshape(2, 5)
# By k = 0..8: the word whose bytes k..7 are gaps and the rest zero.
_TAIL_GAPS = np.array([2 ** 64 - 2 ** (8 * k) for k in range(9)], np.uint64)


def _field(values, fmt: str, lone: bool):
    """One column slice as cells, and whether JSON quotes go around each text.

    ``lone`` marks the only column of a CSV table (see ``_quote_minimal``).
    """
    if isinstance(values, np.ndarray):
        if values.dtype == bool:
            return _BOOL_CELLS.take(values.view(np.uint8), axis=0), False
        if values.dtype.kind in "iu":
            return render_integers(values), False
        return render_floats(values, "g" if fmt == "csv" else "r"), False
    if isinstance(values, TextCells):
        # A plain-file text never needs CSV quotes, unless it is empty and alone.
        empty = lone and not (values.ends - values.starts()).all()
        if fmt == "csv" and not empty or fmt == "json" and _json_plain(values):
            return values, fmt == "json"
        values = values.tolist()
    if fmt == "csv":
        return _string_cells(_quote_minimal(list(values), lone)), False
    return _string_cells([encode_basestring_ascii(v) if isinstance(v, str) else json.dumps(v)
                          for v in values]), False


def _spread(cells: TextCells, width: int) -> np.ndarray:
    """The (n, width) cells of the n texts of ``cells``, each text first, then gaps.

    Each row is read as 64-bit words from where its text starts, and the
    bytes past the text's end are turned into gaps.
    """
    data, ends = cells.data, cells.ends
    starts = cells.starts()
    lengths = ends - starts
    words = -(-width // 8)
    # Gaps after the data, so that the last texts read as whole words too.
    padded = np.empty(data.size + 8 * words, np.uint8)
    padded[:data.size] = data
    padded[data.size:] = GAP
    # The 8 bytes from each position on, read as one word.
    view = np.ndarray((padded.size - 7,), "<u8", padded, 0, (1,))
    out = np.empty((ends.size, words), "<u8")
    for k in range(words):
        out[:, k] = view.take(starts)
        # Lengths below 0 or above 8 clip to the first or last mask.
        out[:, k] |= _TAIL_GAPS.take(lengths, mode="clip")
        starts += 8
        lengths -= 8
    return out.view(np.uint8)[:, :width]


def _chunk_texts(columns: list, fmt: str, pieces: list[bytes]):
    """The text of the rows of ``columns``, a block of rows at a time.

    Row text is ``pieces[k]`` before field k, and ``pieces[-1]`` last.
    Each block is one (rows, width) buffer: every piece is written into
    its columns at once, every field writes its cells into its own, and
    one translate drops the gaps.  A block holds at most about
    _BLOCK_CELLS cells, so that the buffer of a wide table, or of a very
    long string field, stays small.
    """
    pieces = list(pieces)
    fields = []
    for k, values in enumerate(columns):
        cells, quoted = _field(values, fmt, fmt == "csv" and len(columns) == 1)
        if quoted:
            pieces[k] += b'"'
            pieces[k + 1] = b'"' + pieces[k + 1]
        # A string field is as wide as its longest text.
        fields.append((cells, cells.shape[1] if isinstance(cells, np.ndarray)
                       else int((cells.ends - cells.starts()).max())))
    # The pieces and fields of a row in order, each with its width.
    parts = []
    for piece, field in itertools.zip_longest(pieces, fields):
        if piece:
            parts.append((np.frombuffer(piece, np.uint8), len(piece)))
        if field is not None and field[1]:
            parts.append(field)
    n = len(columns[0])
    width = sum(w for _, w in parts)
    step = max(1, _BLOCK_CELLS // width)
    for start in range(0, n, step):
        stop = min(start + step, n)
        buffer = bytearray((stop - start) * width)
        block = np.frombuffer(buffer, np.uint8).reshape(stop - start, width)
        column = 0
        for cells, w in parts:
            if isinstance(cells, TextCells):
                cells = _spread(cells[start:stop], w)
            elif cells.ndim == 2:
                cells = cells[start:stop]
            block[:, column:column + w] = cells
            column += w
        yield buffer.translate(None, b"\xff").decode("utf-8", "surrogatepass")


def _write_rows(handle, columns: Mapping[str, Sequence], n: int, fmt: str,
                pieces: list[str], separator: str) -> None:
    """Write the ``n`` rows of ``columns``, ``_CHUNK_ROWS`` at a time.

    Row text is ``pieces[0]``, field 0, ``pieces[1]``, ..., the last
    field, ``pieces[-1]``; rows are joined by ``separator``.
    """
    encoded = [piece.encode() for piece in pieces]
    # Each row starts with the separator, which the first row then drops.
    encoded[0] = separator.encode() + encoded[0]
    skip = len(separator)
    for start in range(0, n, _CHUNK_ROWS):
        chunk = [col[start:start + _CHUNK_ROWS] for col in columns.values()]
        for text in _chunk_texts(chunk, fmt, encoded):
            handle.write(text[skip:] if skip else text)
            skip = 0


def write_table(
    output, columns: Mapping[str, Sequence], fmt: str, summary: Mapping
) -> None:
    """Write a table of equal-length ``columns`` to ``output`` (stdout if
    None), a path or an open text handle.

    A column is a numpy array of bools, integers or floats, TextCells,
    or a list of strings (for JSON, also of None or other scalars).  ``fmt="csv"``
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
            handle.write(",".join(_quote_minimal(list(columns), len(columns) == 1)) + "\n")
            _write_rows(handle, columns, n, fmt, [""] + [","] * (len(columns) - 1) + ["\n"], "")
            rest = {k: v for k, v in summary.items() if v is not ROWS}
            if rest:
                handle.write("# " + " ".join(
                    f"{k}={_fmt_float(v) if isinstance(v, float) else v}"
                    for k, v in rest.items()
                ) + "\n")
            return
        keys = [f"      {encode_basestring_ascii(name)}: " for name in columns]
        pieces = ["    {\n" + keys[0]] + [",\n" + key for key in keys[1:]] + ["\n    }"]
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
            _write_rows(handle, columns, n, fmt, pieces, ",\n")
            handle.write("\n  ]")
        handle.write("\n}\n")


def write_json(path: str | None, payload) -> None:
    """Write ``json.dump(payload, indent=2)`` and a newline to ``path`` (stdout if None)."""
    with _output(path) as handle:
        handle.write(json.dumps(payload, indent=2) + "\n")
