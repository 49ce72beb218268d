"""CSV and JSON tables for the command line, read and written by whole columns.

The three readers share one column reader, :func:`_read_columns`.  It
takes the header with the csv module and the rest of the file as one
string, which is cut into columns at once when it is plain (see
:func:`_split_columns`) and parsed by the csv module otherwise; both give
the same cells.  Each column is then converted and checked as a whole,
with one pass per column kind.  Only when a column fails, or a record has
the wrong number of fields, are the rows walked in order, one cell at a
time, to raise the first diagnostic.

:func:`write_table` writes exactly the bytes ``csv.writer`` and
``json.dump(..., indent=2)`` would, except that a CSV field holding a
carriage return is quoted.  It builds each chunk of rows as one byte
buffer: every field is an array of cells, the constant CSV or JSON text
between fields is a column of cells, and unused cells hold 0xFF, a byte
no UTF-8 text contains, so one ``bytes.translate`` drops them whatever
an id holds.  Floats come from :func:`render_floats`, which gives
CPython's digits for a whole column at once in double-double arithmetic
and hands a value to CPython's own ``%``/``json.dumps`` when it is inf or
nan, lies within 2**-20 of a rounding tie or of a decade edge, or (for
JSON) is a power of two, so no output byte depends on the fast path.
Integers and strings are converted one cell at a time.  Files are
written to a temporary name and renamed into place once complete.
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
    no quote, no carriage return, no NUL, no blank line (csv reads it as a
    record of no fields), and no line longer than the csv field size
    limit.  ``csv.reader`` gives the same cells on every body this accepts.
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
        return None if "" in lines else [lines]
    del lines
    cells = body.replace("\n", ",").split(",")
    return [cells[k::width] for k in range(width)]


# Column kinds: "text" (str cells as read), "float" (finite), "probability"
# (in [0, 1]), "weight" (finite and >= 0) and "role" (one of _ROLES after
# stripping, read as its index).
_ROLES = ("real", "synth", "test")


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
    if kind == "probability":
        ok = ((x >= 0) & (x <= 1)).all()
    elif kind == "weight":
        ok = (np.isfinite(x) & (x >= 0)).all()
    else:
        ok = np.isfinite(x).all()
    return x if ok else None


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
    Each column is converted and checked as a whole.  Only when one fails,
    or a record has the wrong number of fields, are the rows walked in
    order, to raise the first diagnostic: a bad cell before the first bad
    record, in column order within its row, or else that record.
    """
    header, body = _read_text(path)
    if header not in headers:
        raise CliError(f"{path}: expected header {expected}, got {','.join(header)}")
    width = len(header)
    columns = _split_columns(body, width)
    ragged = None
    if columns is None:
        records = _records(path, body)
        end = next((i for i, row in enumerate(records) if len(row) != width), len(records))
        if end < len(records):
            fields = "field" if width == 1 else "fields"
            ragged = f"row {end + 2}: expected {width} {fields}, got {len(records[end])}"
        columns = [list(cells) for cells in zip(*records[:end])] or [[] for _ in header]
        del records
    values = [_convert(kind, cells) for kind, cells in zip(kinds, columns)]
    if ragged is None and all(v is not None for v in values):
        return values
    failed = [k for k, v in enumerate(values) if v is None]
    for row in range(len(columns[0])):
        for k in failed:
            error = _cell_error(kinds[k], columns[k][row])
            if error is not None:
                raise CliError(f"{path}: row {row + 2}, column {header[k]!r}: {error}")
    raise CliError(f"{path}: {ragged}")


def read_pvalue_table(path: str):
    """Read ``id,p_real,p_synth[,weight]`` rows.

    Returns (ids, pairs array of shape (m, 2), weights array or None).
    """
    required = ["id", "p_real", "p_synth"]
    ids, p, q, *w = _read_columns(path, (required, required + ["weight"]),
                                  "id,p_real,p_synth[,weight]",
                                  ("text", "probability", "probability", "weight"))
    if not ids:
        raise CliError(f"{path}: no data rows")
    return ids, np.column_stack((p, q)), (w[0] if w else None)


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

_CHUNK_ROWS = 4096
# Upper bound on the cells of one block of rows (see _chunk_texts).
_BLOCK_CELLS = 1 << 18
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


# ---------------------------------------------------------------------------
# Column text as cells.
#
# A field of n rows is an (n, w) uint8 array of cells: the UTF-8 text of
# row i is row i of the array with every _GAP cell removed.  No UTF-8 text
# holds the byte 0xFF, so the fields of a chunk are laid side by side and
# the gaps dropped with one bytes.translate, whatever a string field holds.
# ---------------------------------------------------------------------------

_GAP = 0xFF
# A value is handed to CPython when a rounding decision lies this close
# (in units of the last digit kept) to where it would change.
_NEAR = 2.0 ** -20
# 10**p as (hi, lo, tail, e): 10**p == (hi + lo + tail) * 2**e to within
# 2**-105 relative, hi + lo in [1, 2] with hi and lo 26 bits each.
_POW10: dict[int, tuple[float, float, float, int]] = {}


def _pow10(p: int) -> tuple[float, float, float, int]:
    if p not in _POW10:
        # t is 10**p * 2**-shift rounded to 121 bits.
        if p >= 0:
            n = 10 ** p
            shift = n.bit_length() - 121
            t = n << -shift if shift <= 0 else (n + (1 << (shift - 1))) >> shift
        else:
            d = 10 ** -p
            shift = -120 - d.bit_length()
            t = ((1 << -shift) + d // 2) // d
        head = float(t)
        big = head * 2.0 ** -120
        hi, lo = _split(big)
        _POW10[p] = (hi, lo, float(t - int(head)) * 2.0 ** -120, shift + 120)
    return _POW10[p]


def _split(a):
    """Dekker's split of ``a`` into two halves of 26 bits."""
    c = a * 134217729.0
    hi = c - (c - a)
    return hi, a - hi


def _decimal(a: np.ndarray, style: str):
    """17-digit integers, decimal exponents and CPython-fallback flags of ``a >= 0``.

    Each value is scaled by 10**(16 - exponent) in double-double arithmetic
    (error below 2**-47 on a result under 2**57) and rounded to an integer
    of 17 digits; zero is the integer 0 at exponent 0.  Style ``"r"`` then
    keeps the fewest leading digits that still read back as the value,
    trying one digit fewer while that holds: a double's rounding interval
    is symmetric unless it is a power of two, so the nearest shorter
    number is the one to try.  A value is flagged when it is not finite,
    when a rounding or read-back decision lies within _NEAR of a tie, when
    its scaled value lies within _NEAR (relative) of 10**16 or 10**17, or,
    in style ``"r"``, when it is a power of two or still shortens after
    most of its chunk has stopped.

    Every array here has a whole chunk's length or at least 1024 bytes:
    numpy keeps freed arrays under 1024 bytes for reuse, and such an array
    made in the middle of the heap during a write holds the freed input of
    the run below it there, which raised the peak memory of later runs.
    """
    finite = np.isfinite(a)
    positive = finite & (a > 0)
    a = np.where(positive, a, 1.0)
    m, e2 = np.frexp(a)
    exponent = np.floor(np.log10(a)).astype(np.int64)
    p = 16 - exponent
    first = int(p.min())
    table = [_pow10(k) for k in range(first, int(p.max()) + 1)]
    table += table[-1:] * (128 - len(table))
    hi, lo, tail, shift = (np.array(column).take(p - first) for column in zip(*table))
    # (head, tail) = m * 10**p * 2**-shift as a double-double.
    m_hi, m_lo = _split(m)
    big = hi + lo
    head = m * big
    tail = ((m_hi * hi - head) + m_hi * lo + m_lo * hi) + m_lo * lo + m * tail
    total = head + tail
    tail -= total - head
    scale = (e2 + shift).astype(np.int32)
    head = np.ldexp(total, scale)
    tail = np.ldexp(tail, scale)
    floor = np.floor(tail)
    whole = head.astype(np.int64) + floor.astype(np.int64)
    frac = tail - floor
    near = (head < 1e16 * (1 + _NEAR)) | (head > 1e17 * (1 - _NEAR))
    near |= np.abs(frac - 0.5) < _NEAR
    if style == "r":
        near |= m == 0.5
    fallback = ~finite | (positive & near)
    # Zero is the digit 0 at exponent 0 (log10(1.0)).
    digits = np.where(positive, whole + (frac > 0.5), 0)
    if style == "g":
        return digits, exponent, fallback
    # Half the gap to the neighbouring doubles, in units of the last digit.
    half = np.ldexp(big, (shift + np.maximum(e2 - 53, -1074) - 1).astype(np.int32))
    shorter = positive & ~fallback
    for places in range(1, 17):
        step = 10 ** places
        q, r = np.divmod(whole, step)
        twice = (2 * r - step) + 2 * frac
        up = twice > 0
        dist = np.where(up, (step - r) - frac, r + frac)
        unsure = shorter & ((np.abs(twice) < 2 * _NEAR)
                            | (np.abs(dist - half) < _NEAR + half * 2.0 ** -40))
        fallback |= unsure
        shorter &= (dist < half) & ~unsure
        np.copyto(digits, (q + up) * step, where=shorter)
        if np.count_nonzero(shorter) < 16:
            fallback |= shorter
            break
    # A shortest form of 10**17 (a subnormal rounding up) is 10**16 one decade higher.
    carry = digits >= 10 ** 17
    return np.where(carry, digits // 10, digits), exponent + carry, fallback


def _cell_tables():
    """Lookup tables of the cell layout of a float.

    A float's 48 cells are: sign, ``0``, ``.``, three zeros (the prefix of
    ``0.000ddd``), then digits d0..d16 each followed by a cell for a
    decimal point, then ``e``, the exponent's sign and its digits, padded
    to six 64-bit words.  The tables are built when the module loads,
    before any table is read: built during the first write, they stayed
    above the freed input on the heap and raised the peak memory of later
    runs in the same process.
    """
    group = np.arange(10000, dtype=np.uint64)
    chars = [group // 10 ** k % 10 + 48 for k in (3, 2, 1, 0)]
    # Four digits in the even cells of a word, for d1..d16.
    spaced = chars[0] | chars[1] << 16 | chars[2] << 32 | chars[3] << 48
    zeros = sum((group % (10 * k) == 0).astype(np.int64) for k in (1, 10, 100, 1000))
    # Words 0..4 by (digits kept, point after digit): gaps for dropped
    # digits and unused points, ``.`` for the point, zero elsewhere.
    masks = np.zeros((18, 17, 40), np.uint8)
    digit = np.arange(17)
    masks[:, :, 6::2] = np.where(digit < np.arange(18)[:, None, None], 0, _GAP)
    masks[:, :, 7::2] = np.where(digit == np.arange(-1, 16)[:, None], ord("."), _GAP)
    masks = masks.reshape(18 * 17, 40).view("<u8")
    # Cells 0..7 by sign and by zeros after ``0.`` (none, or 0-3); the
    # last two, d0 and its point, stay zero.
    prefix = b""
    for sign in (b"\xff", b"-"):
        for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000"):
            prefix += sign + lead.ljust(5, b"\xff") + b"\0\0"
    # Cells 40..47 by exponent (-324..308), then all gaps.
    suffix = b"".join(f"e{e:+03d}".encode().ljust(8, b"\xff") for e in range(-324, 309))
    return (spaced, zeros, masks, np.frombuffer(prefix, "<u8"),
            np.frombuffer(suffix + b"\xff" * 8, "<u8"))


_SPACED, _ZEROS, _MASKS, _PREFIX, _SUFFIX = _cell_tables()


def _groups(rest: np.ndarray) -> list[np.ndarray]:
    """The four 4-digit groups of integers below 10**16, high to low."""
    high = rest // 10 ** 8
    low = (rest - high * 10 ** 8).astype(np.float64)
    high = high.astype(np.float64)
    out = []
    for half in (high, low):
        # Exact: both halves are below 10**8.
        upper = np.floor(half / 1e4)
        out += [upper.astype(np.intp), (half - upper * 1e4).astype(np.intp)]
    return out


def render_floats(x, style: str) -> np.ndarray:
    """The cells of CPython's text of each value of a nonempty float array.

    Style ``"g"`` gives ``'%.17g' % v`` and style ``"r"`` ``json.dumps(v)``,
    which is ``repr(v)`` for a finite value.  Returns an (n, 48) uint8
    array; row i without its 0xFF cells is the ASCII text of ``x[i]``.
    Values that :func:`_decimal` flags are formatted by CPython, each
    distinct one once per call, so no output byte depends on the fast path.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    digits, exponent, fallback = _decimal(np.abs(x), style)
    digits[fallback] = 10 ** 16
    top = digits // 10 ** 16
    groups = _groups(digits - top * 10 ** 16)
    # Significant digits: 17 less the trailing zeros.
    trailing = _ZEROS.take(groups[3])
    run = groups[3] == 0
    for group in groups[2::-1]:
        if not run.any():
            break
        trailing += run * _ZEROS.take(group)
        run &= group == 0
    n = 17 - trailing
    small = exponent < 0
    fixed = (exponent >= -4) & (exponent < (17 if style == "g" else 16))
    # Digits printed, and the digit the point follows (-1: no point).
    # '%.17g' drops a point with nothing after it; repr writes ".0".
    whole = exponent + (1 if style == "g" else 2)
    keep = np.where(small | ~fixed, n, np.maximum(n, whole))
    point = exponent if style == "r" else np.where(n > whole, exponent, -1)
    dot = np.where(fixed, np.where(small, -1, point), np.where(n > 1, 0, -1))
    words = np.empty((x.size, 6), "<u8")
    words[:, :5] = _MASKS.take(keep * 17 + dot + 1, axis=0)
    for k, group in enumerate(groups, start=1):
        words[:, k] |= _SPACED.take(group)
    neg = np.signbit(x).astype(np.intp)
    words[:, 0] |= _PREFIX.take(neg * 5 + np.where(small & fixed, -exponent, 0))
    words[:, 0] |= (top + 48).astype("<u8") << np.uint64(48)
    words[:, 5] = _SUFFIX.take(np.where(fixed, 633, exponent + 324))
    cells = words.view(np.uint8)
    if fallback.any():
        # Row by row, with no small arrays (see _decimal).
        fmt = "%.17g".__mod__ if style == "g" else json.dumps
        flat = memoryview(cells.reshape(-1))
        flags = fallback.tobytes()
        bits = x.view(np.int64)
        texts: dict[int, bytes] = {}
        i = flags.find(1)
        while i >= 0:
            key = bits.item(i)
            if key not in texts:
                texts[key] = fmt(x.item(i)).encode().ljust(48, b"\xff")
            flat[48 * i:48 * i + 48] = texts[key]
            i = flags.find(1, i + 1)
    return cells


def _string_cells(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 of ``texts``, each followed by a gap, and where each gap is.

    Lone surrogates pass through, so the text decodes back unchanged.
    """
    data = b"\xff".join([t.encode("utf-8", "surrogatepass") for t in texts]) + b"\xff"
    data = np.frombuffer(data, np.uint8)
    return data, np.flatnonzero(data == _GAP)


def _spread(data: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The (n, w) cells of rows ``data[ends[i-1]+1 : ends[i]+1]``, gap-filled."""
    counts = np.diff(ends, prepend=-1)
    width = int(counts.max())
    cells = np.full((ends.size, width), _GAP, np.uint8)
    starts = ends + 1 - counts
    cells.ravel()[np.repeat(np.arange(ends.size) * width - starts, counts)
                  + np.arange(data.size)] = data
    return cells


_BOOL_CELLS = np.frombuffer(b"false" + b"true\xff", np.uint8).reshape(2, 5)


def _field(values, fmt: str):
    """One column slice as cells, or as (data, ends) of :func:`_string_cells`."""
    if isinstance(values, np.ndarray):
        if values.dtype == bool:
            return _BOOL_CELLS[values.view(np.uint8)]
        if values.dtype.kind in "iu":
            return _string_cells(list(map(str, values.tolist())))
        return render_floats(values, "g" if fmt == "csv" else "r")
    if fmt == "csv":
        return _string_cells(_quote_minimal(list(values)))
    return _string_cells([encode_basestring_ascii(v) if isinstance(v, str) else json.dumps(v)
                          for v in values])


def _chunk_texts(columns: list, fmt: str, pieces: list[bytes]):
    """The text of the rows of ``columns``, a block of rows at a time.

    Row text is ``pieces[k]`` before field k, and ``pieces[-1]`` last.  The
    cells of all fields and pieces are joined row by row and the gaps
    dropped.  A block holds at most about _BLOCK_CELLS cells, so that the
    buffers of a wide table, or of a very long string field, stay small.
    """
    fields = [_field(values, fmt) for values in columns]
    n = len(columns[0])
    width = sum(len(piece) for piece in pieces) + sum(
        f.shape[1] if isinstance(f, np.ndarray) else int(np.diff(f[1], prepend=-1).max())
        for f in fields)
    step = max(1, _BLOCK_CELLS // width)
    for start in range(0, n, step):
        stop = min(start + step, n)
        rows = []
        for piece, field in itertools.zip_longest(pieces, fields):
            if piece:
                rows.append(np.broadcast_to(np.frombuffer(piece, np.uint8),
                                            (stop - start, len(piece))))
            if isinstance(field, np.ndarray):
                rows.append(field[start:stop])
            elif field is not None:
                data, ends = field
                first = ends[start - 1] + 1 if start else 0
                rows.append(_spread(data[first:ends[stop - 1] + 1], ends[start:stop] - first))
        buffer = bytearray((stop - start) * sum(cells.shape[1] for cells in rows))
        np.concatenate(rows, axis=1, out=np.frombuffer(buffer, np.uint8).reshape(stop - start, -1))
        del rows
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
