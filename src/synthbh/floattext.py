"""Number columns to and from decimal text, a whole column at a time.

Both directions share one table of powers of ten and Dekker's
double-double product, and both hand a value to CPython whenever the
fast answer could differ from CPython's, so no result depends on the
fast path.

:func:`render_floats` gives CPython's ``'%.17g'`` or ``repr`` text of a
column as 32 cells a value, four 64-bit words: the sign, a ``0.000``
prefix, d0 and a point; d1..d16, looked up four at a time; the exponent.
Where the prefix, the point and the dropped digits go follows from the
decimal exponent and the digit count alone, through tables built when
the module loads.  Each value is scaled by a power of ten in
double-double arithmetic and rounded to 17 digits.  Style ``r`` then
takes the shortest digits in two steps: with 10**k the largest power of
ten below the width of the read-back interval (in units of the 17th
digit), the nearest multiple of 10**(k + 1) if it lies in the interval,
else the nearest multiple of 10**k.  A value goes to CPython's
``%``/``json.dumps`` when it is inf or nan, or lies within 2**-20 of a
rounding tie or of a decade edge; in style ``r`` also when it is a power
of two, when a candidate lies within 2**-20 of an end of the interval,
or when neither candidate lies in it.

:func:`render_integers` gives ``str`` of an integer column as cells, from
a table of the ASCII of every 4-digit group; a magnitude of 10**16 or
more goes to ``str``.

:func:`parse_floats` gives ``float()`` of the cells ``data[starts[i]:ends[i]]``
of a byte buffer, 8192 cells at a time, and makes no Python object for a
cell it can read itself.  Each cell is read as the 32 bytes that end
where it ends.  Packed bit masks give its first ``e`` (or ``E``) and its
first point.  The mantissa is moved to the end of a 24-byte window; the
exponent's digits are the last bytes of the row.  Masks from one table,
by the mantissa's first slot and the point's slot, turn the characters
into digit values, the point reading as a zero digit, so that one SWAR
check finds any other character.  Lemire's eight-digit step then gives
the exponent and x = i * 10**(f + 1) + frac, the digits with the point
read as a 0; w = x - 9 * i * 10**f removes that 0 (i, the integer part,
comes from x in floating point, exactly while it is at most 10**14).
``w * 10**e`` is formed in double-double arithmetic with the writer's
table and rounded once.

A cell goes to ``float()`` when it is not plain,
``[+-]digits[.digits][(e|E)[+-]digits]`` with a digit before the
exponent; when it is longer than 32 bytes, its mantissa holds more than
24 characters after its sign, its exponent more than 4 digits, x reaches
922 * 10**16 (19 significant digits at most) or i exceeds 10**14; when
the product lies within 2**-20 of an ulp of a rounding midpoint or is a
power of two; or when the result is subnormal, zero from nonzero digits,
or overflows.  So every value is bit for bit what ``float()`` gives.
"""

from __future__ import annotations

import json

import numpy as np

# The byte no UTF-8 text holds; it marks an unused cell of rendered text.
GAP = 0xFF
# A value is handed to CPython when a rounding decision lies this close
# (in units of the last digit kept) to where it would change.
_NEAR = 2.0 ** -20
# Bytes that parse_floats may read before the first start and after the
# last end of its cells.
PAD = 32
_CHUNK = 8192


def _pow10(p: int) -> tuple[float, float, float, int]:
    """10**p as (hi, lo, tail, e): 10**p == (hi + lo + tail) * 2**e.

    The sum is within 2**-105 relative of 10**p, hi + lo lies in [1, 2],
    and hi and lo have 26 bits each.
    """
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
    return hi, lo, float(t - int(head)) * 2.0 ** -120, shift + 120


def _split(a):
    """Dekker's split of ``a`` into two halves of 26 bits."""
    c = a * 134217729.0
    hi = c - (c - a)
    return hi, a - hi


# Powers of ten 10**-350 .. 10**350, by p + _P10: (hi, lo, tail, hi + lo)
# and the binary exponent.  Built when the module loads, like the cell
# tables below, so that no table lands on the heap above a freed input.
_P10 = 350
_POW_HI, _POW_LO, _POW_TAIL, _POW_EXP = (
    np.array(column) for column in zip(*map(_pow10, range(-_P10, _P10 + 1))))
_POW_BIG = _POW_HI + _POW_LO
# 10**0 .. 10**17, as floats to compare with and as integers to round to.
_TENS = 10.0 ** np.arange(18)
_TENS_INT = 10 ** np.arange(18)


# ---------------------------------------------------------------------------
# Number text as cells.
#
# A column of n floats is an (n, 32) uint8 array of cells, n integers an
# (n, w) one: the ASCII text of value i is row i of the array with every
# GAP cell removed.
# ---------------------------------------------------------------------------


def _decimal(a: np.ndarray, style: str):
    """17-digit integers, decimal exponents and CPython-fallback flags of ``a >= 0``.

    Each value is scaled by 10**(16 - exponent) in double-double arithmetic
    (error below 2**-47 on a result under 2**57) and rounded to an integer
    of 17 digits; zero is the integer 0 at exponent 0.  Style ``"r"`` then
    keeps the fewest leading digits that still read back as the value.
    A double's read-back interval is symmetric unless it is a power of
    two, with half-width ``half`` in units of the last digit.  With
    10**low < 2 * half <= 10**(low + 1), the interval holds a multiple of
    10**low and at most one multiple of 10**(low + 1), and a multiple of
    any higher power in it is that one.  So the nearest multiple of
    10**(low + 1) is the answer if it lies in the interval, and the nearest
    multiple of 10**low otherwise; ``render_floats`` drops any further
    trailing zeros.  ``low`` comes from comparing 2 * half with the powers
    of ten, not from a logarithm.  A value is flagged when it is not
    finite, when a rounding or read-back decision lies within _NEAR of a
    tie, when its scaled value lies within _NEAR (relative) of 10**16 or
    10**17, or, in style ``"r"``, when it is a power of two or neither
    candidate is found in its interval.

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
    p = 16 - exponent + _P10
    hi, lo, tail, big, shift = (table.take(p) for table in
                                (_POW_HI, _POW_LO, _POW_TAIL, _POW_BIG, _POW_EXP))
    # (head, tail) = m * 10**p * 2**-shift as a double-double.
    m_hi, m_lo = _split(m)
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
    # 10**low < 2 * half <= 10**(low + 1): the read-back interval holds a
    # multiple of 10**low and at most one of 10**(low + 1).
    low = np.searchsorted(_TENS, 2 * half) - 1
    tolerance = _NEAR + half * 2.0 ** -40
    frac *= 2  # twice the fraction from here on
    shorter = positive & ~fallback
    for places in (np.minimum(low + 1, 16), low):
        step = _TENS_INT.take(places)
        q, r = np.divmod(whole, step)
        # Twice the offset from the midpoint between two multiples of step,
        # and the distance to the nearer multiple.
        twice = (2 * r - step) + frac
        size = np.abs(twice)
        dist = (step - size) * 0.5
        unsure = shorter & ((size < 2 * _NEAR) | (np.abs(dist - half) < tolerance))
        fallback |= unsure
        shorter ^= unsure
        found = shorter & (dist < half)
        shorter ^= found
        q += twice > 0
        q *= step
        digits = np.where(found, q, digits)
    # Neither candidate in the interval: possible only through an error in half.
    fallback |= shorter
    # A shortest form of 10**17 (a subnormal rounding up) is 10**16 one decade higher.
    carry = digits >= 10 ** 17
    return np.where(carry, digits // 10, digits), exponent + carry, fallback


def _cell_tables():
    """Lookup tables of the cell layout of a float.

    A float's 32 cells are four 64-bit words.  Word 0 holds the sign,
    ``0.`` and up to three zeros (the prefix of ``0.000ddd``), d0 and a
    cell for a point after it; words 1 and 2 hold d1..d16; word 3 holds
    ``e``, the exponent's sign and its digits.  In fixed notation with the
    point after digit k >= 1, the digits after it sit one cell to the
    right, and d16 in the first cell of word 3, which fixed notation
    leaves empty.  The tables are built when the module loads, before any
    table is read: built during the first write, they stayed above the
    freed input on the heap and raised the peak memory of later runs in
    the same process.

    Returns the ASCII of each 4-digit group 0..9999 as one little-endian
    word, first digit first; the trailing zeros of each group; the cell
    masks of words 0..3 by (zeros after ``0.``, digits kept, point after
    digit): the prefix, gaps for dropped digits and unused cells, ``.``
    for the point, zero for the sign and the digits; and word 0 by
    10 * negative + d0: the sign or a gap, and d0.
    """
    group = np.arange(10000, dtype=np.uint32)
    digits = sum((group // 10 ** (3 - j) % 10 + 48) << (8 * j) for j in range(4))
    zeros = sum((group % (10 * k) == 0).astype(np.int64) for k in (1, 10, 100, 1000))
    masks = np.full((5, 18, 17, 32), GAP, np.uint8)
    for lead, text in enumerate((b"", b"0.", b"0.0", b"0.00", b"0.000")):
        masks[lead, :, :, :7] = np.frombuffer(b"\0" + text.ljust(5, b"\xff") + b"\0", np.uint8)
    for keep in range(18):
        for dot in range(-1, 16):
            cells = masks[:, keep, dot + 1]
            if dot == 0:
                cells[:, 7] = ord(".")
            elif dot > 0:
                cells[:, 8 + dot] = ord(".")
            for j in range(1, keep):
                cells[:, 7 + j + (0 < dot < j)] = 0
    first = [(sign | (48 + d) << 48) for sign in (GAP, ord("-")) for d in range(10)]
    return digits, zeros, masks.reshape(-1, 32).view("<u8"), np.array(first, np.uint64)


_DIGITS4, _ZEROS, _MASKS, _SIGN_DIGIT = _cell_tables()
# The cells of d1..d16 below cell k, k = 0..16, as (word 1, word 2) masks.
_BELOW_LOW = np.array([(1 << 8 * min(k, 8)) - 1 for k in range(17)], np.uint64)
_BELOW_HIGH = np.array([(1 << 8 * max(k - 8, 0)) - 1 for k in range(17)], np.uint64)


def _layout_tables(style: str):
    """The layout of a float's text in ``style`` by (exponent + 324) * 18 + digits.

    Returns the row of _MASKS, the cell among d1..d16 that the point
    follows (16: none, or after d0), and by exponent + 324 word 3: the
    exponent's text, or all gaps in fixed notation.  Style ``g`` writes
    exponents -4..16 in fixed notation and style ``r`` -4..15; ``'%.17g'``
    drops a point with nothing after it, and repr writes ``.0``.
    """
    exponents = range(-324, 309)
    last = 16 if style == "g" else 15
    exponent = np.array(exponents)[:, None]
    n = np.arange(18)
    small = exponent < 0
    fixed = (exponent >= -4) & (exponent <= last)
    # Digits printed, and the digit the point follows (-1: no point).
    whole = exponent + (1 if style == "g" else 2)
    keep = np.where(small | ~fixed, n, np.maximum(n, whole))
    point = exponent if style == "r" else np.where(n > whole, exponent, -1)
    dot = np.where(fixed, np.where(small, -1, point), np.where(n > 1, 0, -1))
    lead = np.where(small & fixed, -exponent, 0)
    rows = (lead * 18 + keep) * 17 + dot + 1
    suffix = b"".join(b"\xff" * 8 if -4 <= e <= last else f"e{e:+03d}".encode().ljust(8, b"\xff")
                      for e in exponents)
    return (rows.astype(np.int16).ravel(), np.where(dot > 0, dot, 16).astype(np.int8).ravel(),
            np.frombuffer(suffix, "<u8"))


_LAYOUT = {style: _layout_tables(style) for style in "gr"}


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


def _integer_tables():
    """Lookup tables of the 24 cells of an integer below 10**16 in magnitude.

    The cells start as eight ``0`` cells and the four 4-digit groups of
    the magnitude (_DIGITS4), so every cell holds a digit.  Returns by
    (digits - 1) * 2 + negative the three 64-bit words that XOR the
    leading zeros into gaps and the cell before the first digit into
    ``-`` or a gap.
    """
    cell = np.arange(24)
    first = 24 - np.arange(1, 17)[:, None, None]
    sign = np.array([GAP, ord("-")])[:, None]
    masks = np.where(cell < first - 1, ord("0") ^ GAP,
                     np.where(cell == first - 1, ord("0") ^ sign, 0))
    return masks.astype(np.uint8).reshape(32, 24).view("<u8")


_INTEGER_LEAD = _integer_tables()


def render_integers(values: np.ndarray) -> np.ndarray:
    """The cells of ``str(v)`` for each value of an integer array.

    Returns an (n, w) uint8 array, w the length of the longest text; row i
    without its 0xFF cells is the ASCII text of ``values[i]``.  Magnitudes
    below 10**16 are cut into 4-digit groups and looked up; any other
    value (int64's minimum among them) goes to ``str``.
    """
    if values.dtype == np.uint64:
        big = values >= np.uint64(10 ** 16)
    else:
        values = values.astype(np.int64, copy=False)
        big = (values >= 10 ** 16) | (values <= -10 ** 16)
    small = np.where(big, 0, values).astype(np.int64, copy=False)
    negative = small < 0
    magnitude = np.abs(small)
    words = np.empty((values.size, 6), "<u4")
    words[:, :2] = _DIGITS4[0]
    for k, group in enumerate(_groups(magnitude), start=2):
        words[:, k] = _DIGITS4.take(group)
    # Digits less one: how many of 10**1 .. 10**15 are at most the magnitude.
    count = np.searchsorted(_TENS_INT[1:16], magnitude, side="right")
    words.view("<u8")[...] ^= _INTEGER_LEAD.take(count * 2 + negative, axis=0)
    cells = words.view(np.uint8)
    width = int((count + negative).max(initial=0)) + 1
    if big.any():
        flat = memoryview(cells.reshape(-1))
        flags = big.tobytes()
        i = flags.find(1)
        while i >= 0:
            text = str(values.item(i)).encode()
            width = max(width, len(text))
            flat[24 * i:24 * i + 24] = text.rjust(24, b"\xff")
            i = flags.find(1, i + 1)
    return cells[:, 24 - width:]


def render_floats(x, style: str) -> np.ndarray:
    """The cells of CPython's text of each value of a float array.

    Style ``"g"`` gives ``'%.17g' % v`` and style ``"r"`` ``json.dumps(v)``,
    which is ``repr(v)`` for a finite value.  Returns an (n, 32) uint8
    array; row i without its 0xFF cells is the ASCII text of ``x[i]``.
    Values that :func:`_decimal` flags are formatted by CPython, each
    distinct one once per call, so no output byte depends on the fast path.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if not x.size:
        return np.empty((0, 32), np.uint8)
    digits, exponent, fallback = _decimal(np.abs(x), style)
    digits[fallback] = 10 ** 16
    top = digits // 10 ** 16
    groups = _groups(digits - top * 10 ** 16)
    # Significant digits: 17 less the trailing zeros.
    n = 17 - _ZEROS.take(groups[3])
    run = groups[3] == 0
    for group in groups[2::-1]:
        if not run.any():
            break
        n -= run * _ZEROS.take(group)
        run &= group == 0
    rows, below, suffix = _LAYOUT[style]
    exponent += 324
    layout = exponent * 18 + n
    words = np.empty((x.size, 4), "<u8")
    # Word 0: the sign cell and d0; words 1 and 2: d1..d16.
    words[:, 0] = _SIGN_DIGIT.take(top + 10 * np.signbit(x))
    quads = words.view("<u4")
    for k, group in enumerate(groups, start=2):
        quads[:, k] = _DIGITS4.take(group)
    words[:, 3] = 0
    below = below.take(layout)
    if below.min() < 16:
        # The digits after a point at d_k, k >= 1, move one cell right.
        low, high = _BELOW_LOW.take(below), _BELOW_HIGH.take(below)
        moved_low = words[:, 1] & ~low
        moved_high = words[:, 2] & ~high
        words[:, 1] &= low
        words[:, 1] |= moved_low << np.uint64(8)
        words[:, 2] &= high
        words[:, 2] |= (moved_high << np.uint64(8)) | (moved_low >> np.uint64(56))
        words[:, 3] = moved_high >> np.uint64(56)
    words |= _MASKS.take(rows.take(layout), axis=0)
    words[:, 3] &= suffix.take(exponent)
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
                texts[key] = fmt(x.item(i)).encode().ljust(32, b"\xff")
            flat[32 * i:32 * i + 32] = texts[key]
            i = flags.find(1, i + 1)
    return cells


# ---------------------------------------------------------------------------
# Float text to values.
#
# A cell is read as a row of 32 bytes, one unaligned item of the buffer,
# and its 8-byte words are taken as little-endian, so character j of a
# word is its byte j.  SWAR steps work on all eight bytes of a word at once.
# ---------------------------------------------------------------------------


def _u64(byte: int) -> np.uint64:
    """``byte`` in each of the eight bytes of a word."""
    return np.uint64(byte * 0x0101010101010101)


def _window_masks() -> np.ndarray:
    """The masks that cut a mantissa's digits out of its 24-byte window.

    Column ``f * 25 + d`` serves a mantissa whose characters after its
    sign fill slots f..23 of the window, with the point in slot d (24:
    none).  It holds three words that keep those slots, then three that
    turn them into digit values by XOR: ``0`` for a digit, and for the
    point the byte that turns ``.`` into 0, so that the point reads as a
    zero digit and any other character there fails the digit check.
    """
    slot = np.arange(24)
    f = np.arange(25)[:, None, None]
    d = np.arange(25)[None, :, None]
    kept = slot >= f
    zeros = np.where(kept, ord("0"), 0) ^ np.where(slot == d, ord(".") ^ ord("0"), 0)
    keep, zeros = np.broadcast_arrays(np.where(kept, GAP, 0), zeros)
    masks = np.concatenate([keep, zeros], axis=2).astype(np.uint8).reshape(625, 48)
    return np.ascontiguousarray(masks.view("<u8").T)


_WINDOW = _window_masks()
# 10**-j and 9 * 10**(j - 1) by j = 1 + digits after the point; 0 for no point.
_INV10 = np.array([0.0] + [10.0 ** -j for j in range(1, 25)])
_NINES = np.array([0] + [9 * 10 ** (j - 1) for j in range(1, 19)] + [0] * 6, np.int64)
# Lemire's eight-digit step: pairs of digits, then the four pairs at once.
_PAIR = np.uint64(0x000000FF000000FF)
_HIGH = np.uint64(100 + (1000000 << 32))
_LOWER = np.uint64(1 + (10000 << 32))
_SHIFT8, _SHIFT16, _SHIFT32 = np.uint64(8), np.uint64(16), np.uint64(32)
_ONE = np.uint32(1)
_ALL = np.uint64(0xFFFFFFFFFFFFFFFF)
_ROW32 = np.arange(_CHUNK) * 32


def _not_digits(v: np.ndarray) -> np.ndarray:
    """Nonzero where a byte of ``v`` (a character XOR ``0``) is not 0..9."""
    return ((v + _u64(0x76)) | v) & _u64(0x80)


def _eight_digits(v: np.ndarray) -> np.ndarray:
    """The value of the eight digits 0..9 in the bytes of ``v``, first byte
    first, computed in place."""
    t = v >> _SHIFT8
    v *= np.uint64(10)
    v += t
    np.right_shift(v, _SHIFT16, out=t)
    t &= _PAIR
    t *= _LOWER
    v &= _PAIR
    v *= _HIGH
    v += t
    v >>= _SHIFT32
    return v


def _bits(text: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The rows of a boolean (n, 32) array as 32-bit masks, bit j for byte j."""
    return np.packbits(text, bitorder="little").view("<u4") & mask


def _bit_index(bit: np.ndarray) -> np.ndarray:
    """The index of the one set bit of each 32-bit mask in ``bit``, 32 where none is."""
    index = np.frexp(bit.astype(np.float64))[1].astype(np.int64) - 1
    index[index < 0] = 32
    return index


def _parse_chunk(cells: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Values of the plain cells of a chunk and the flags of the rest.

    ``cells[p]`` is the 32 bytes from p on.  Each cell is read as the 32
    bytes that end where it ends, and positions below are in that row:
    the cell fills bytes lead..31.
    """
    n = ends.size
    length = ends - starts
    text = cells[ends - 32].view(np.uint8).reshape(n, 32)
    lead = np.maximum(32 - length, 0)
    span = np.uint32(0xFFFFFFFF) << lead.astype(np.uint32)
    exps = _bits((text | 32) == ord("e"), span)
    dots = _bits(text == ord("."), span)
    # Bytes below the first e (all of them when there is none).
    first_e = exps & -exps
    end = _bit_index(first_e)
    dots &= first_e - _ONE
    point = _bit_index(dots & -dots)
    dotted = point < end
    # The first character, and the one after the e.
    flat = text.reshape(-1)
    first = flat.take(_ROW32[:n] + np.minimum(lead, 31))
    esign = flat.take(_ROW32[:n] + np.minimum(end + 1, 31))
    chars = end - lead - (((first - np.uint8(43)) & np.uint8(0xFD)) == 0)
    # The exponent: an optional sign after the e, then its last k digits.
    k = (31 - end - (((esign - np.uint8(43)) & np.uint8(0xFD)) == 0)) * (end < 32)
    bad = (length > 32) | (chars - dotted < 1) | (chars > 24) | (k > 4) | (k < (end < 32))
    # Words 0..2: the row moved right by d bytes, so the mantissa ends at
    # byte 24; word 3: the exponent's digits, the row's last k bytes.
    d = (np.clip(end - 24, 0, 8) * 8).astype(np.uint64)
    words = np.ascontiguousarray(text.view("<u8").T)
    v = np.empty_like(words)
    np.right_shift(words[:3], d, out=v[:3])
    v[:3] |= words[1:] << (np.uint64(64) - d)
    masks = _WINDOW.take(np.maximum(24 - chars, 0) * 25 + np.clip(point + 24 - end, 0, 24),
                         axis=1)
    v[:3] &= masks[:3]
    v[:3] ^= masks[3:]
    keep = _ALL << (np.uint64(64) - (np.clip(k, 0, 4) * 8).astype(np.uint64))
    np.bitwise_and(words[3], keep, out=v[3])
    keep &= _u64(ord("0"))
    v[3] ^= keep
    bad |= np.bitwise_or.reduce(_not_digits(v), axis=0) != 0
    v = _eight_digits(v)
    bad |= v[0] > 921
    # The digits with the point read as a 0: x = i * 10**(f + 1) + frac.
    x = (np.minimum(v[0], 921) * np.uint64(10 ** 16) + v[1] * np.uint64(10 ** 8)
         + v[2]).view(np.int64)
    fraction = (end - 1 - point) * dotted
    j = np.minimum((fraction + 1) * dotted, 24)
    whole = np.floor(x * _INV10.take(j) + 0.05)
    bad |= whole > 1e14
    w = x - whole.astype(np.int64) * _NINES.take(np.minimum(j, 19))
    exponent = v[3].view(np.int64)
    exponent -= 2 * exponent * (esign == ord("-"))
    power = exponent - fraction + _P10
    bad |= (power < 0) | (power > 2 * _P10)
    power = np.minimum(np.maximum(power, 0), 2 * _P10)
    # w * 10**p as the double-double (head, tail), w = w_hi + w_lo exactly.
    w_hi = w.astype(np.float64)
    w_lo = (w - w_hi.astype(np.int64)).astype(np.float64)
    hi, lo, big = _POW_HI.take(power), _POW_LO.take(power), _POW_BIG.take(power)
    head = w_hi * big
    a_hi, a_lo = _split(w_hi)
    tail = (((a_hi * hi - head) + a_hi * lo + a_lo * hi) + a_lo * lo
            + w_lo * big + w_hi * _POW_TAIL.take(power))
    value = head + tail
    tail -= value - head
    # The tail in ulps of the value: near 1/2 is near a tie.
    bits = value.view(np.int64)
    biased = bits >> 52
    tail *= ((2098 - biased) << 52).view(np.float64)
    bad |= np.abs(np.abs(tail) - 0.5) < _NEAR
    nonzero = w != 0
    scale = _POW_EXP.take(power)
    biased += scale
    bad |= nonzero & (((bits & ((1 << 52) - 1)) == 0) | (biased < 1) | (biased > 2046))
    bits += (scale << 52) * nonzero
    bits |= (first == ord("-")).astype(np.int64) << 63
    return value, bad


def parse_floats(data, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The float64 values of the cells ``data[starts[i]:ends[i]]``, as ``float()`` reads them.

    ``data`` is a bytes-like buffer that extends at least PAD bytes
    before every start and after every end.  Plain cells are read in
    vectorised chunks; the others go to ``float()`` one by one.  Returns
    None when ``float()`` rejects a cell.
    """
    starts = np.asarray(starts, np.int64)
    ends = np.asarray(ends, np.int64)
    n = starts.size
    out = np.empty(n, np.float64)
    if not n:
        return out
    if starts.min() < PAD or ends.max() > len(data) - PAD:
        raise ValueError("parse_floats needs PAD bytes around every cell")
    # The 32 bytes from each position on, read as one item.
    cells = np.ndarray((len(data) - 31,), "S32", data, 0, (1,))
    for start in range(0, n, _CHUNK):
        # The last chunk is a whole one where it can be, so that it
        # makes no small arrays (see _decimal).
        start = max(0, min(start, n - _CHUNK))
        stop = start + min(_CHUNK, n)
        s, e = starts[start:stop], ends[start:stop]
        with np.errstate(all="ignore"):
            out[start:stop], bad = _parse_chunk(cells, s, e)
        flags = bad.tobytes()
        i = flags.find(1)
        while i >= 0:
            try:
                out[start + i] = float(data[s.item(i):e.item(i)])
            except ValueError:
                return None
            i = flags.find(1, i + 1)
    return out
