"""The byte-level float reader against ``float()``, bit for bit.

``parse_floats`` must give ``float(text)`` for every cell ``float()``
accepts, hand only a small share of ordinary cells to ``float()``, and
report a column holding a cell ``float()`` rejects.  Each class below is
generated from a seed; ``SIZE`` values per class run in the suite.
"""

from __future__ import annotations

import math
from decimal import Decimal

import numpy as np
import pytest

from synthbh import floattext
from synthbh.floattext import PAD, parse_floats

SIZE = 20_000


def cells(texts: list[bytes]):
    """A padded buffer holding ``texts`` separated by commas, and their bounds."""
    data = bytearray(PAD) + b",".join(texts) + bytearray(PAD)
    lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    ends = PAD + np.cumsum(lengths + 1) - 1
    return data, ends - lengths, ends


def digits(rng, n: int, low: int, high: int) -> list[str]:
    """``n`` random digit strings of ``low`` to ``high`` digits, no leading zero."""
    counts = rng.integers(low, high + 1, n)
    return [str(rng.integers(1, 10)) + "".join(map(str, rng.integers(0, 10, k - 1)))
            for k in counts.tolist()]


def class_repr(rng, n):
    values = np.concatenate([
        rng.random(n // 4), rng.random(n // 8) ** 7, rng.normal(size=n // 8),
        10.0 ** rng.uniform(-320, 308, n // 4),
        np.frombuffer(rng.bytes(8 * (n - n // 4 * 2 - n // 8 * 2)), np.float64)])
    values = values[np.isfinite(values)]
    return [repr(v) for v in values.tolist()]


def class_g17(rng, n):
    return ["%.17g" % v for v in 10.0 ** rng.uniform(-310, 308, n) * rng.choice([-1, 1], n)]


def class_long(rng, n):
    """15 to 25 significant digits, with a point anywhere and an exponent."""
    out = []
    for text in digits(rng, n, 15, 25):
        point = int(rng.integers(0, len(text) + 1))
        text = text[:point] + "." + text[point:]
        if rng.random() < 0.5:
            text += f"e{int(rng.integers(-330, 310))}"
        out.append(text)
    return out


def class_halfway(rng, n):
    """Exact midpoints between neighbouring doubles and numbers a digit off them."""
    out = []
    bits = rng.integers(1, 0x7FEFFFFFFFFFFFFF, n // 4, dtype=np.int64)
    bits[: n // 16] = rng.integers(0x3C00000000000000, 0x4400000000000000, n // 16)
    for x in bits.view(np.float64).tolist():
        mid = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
        text = f"{mid:e}"
        out.append(text)
        short = f"{mid:.{int(rng.integers(15, 20))}e}"
        out.append(short)
        mantissa, exponent = short.split("e")
        last = int(mantissa[-1])
        out.append(f"{mantissa[:-1]}{(last + 1) % 10}e{exponent}")
        out.append(f"{mantissa[:-1]}{(last + 9) % 10}e{exponent}")
    return out


def class_extremes(rng, n):
    """Subnormals, underflow to zero and overflow to inf."""
    subnormal = np.frombuffer(rng.integers(1, 2 ** 52, n // 2).tobytes(), np.float64)
    out = [repr(v) for v in subnormal.tolist()]
    for text in digits(rng, n - len(out), 1, 19):
        exponent = int(rng.choice([rng.integers(-400, -300), rng.integers(290, 400)]))
        out.append(f"{text[0]}.{text[1:]}e{exponent}")
    return out + ["1e-400", "2.4703282292062327e-324", "2.4703282292062328e-324",
                  "1.7976931348623157e308", "1.7976931348623158e308", "1e309", "0e999",
                  "-0e-999", "0.0", "-0", "00000000000000000000000000001"]


def class_spellings(rng, n):
    """Plain spellings: a leading sign, no digits on one side of the point, E."""
    out = []
    for head, tail in zip(digits(rng, n, 1, 9), digits(rng, n, 1, 9)):
        exponent = int(rng.integers(-30, 30))
        out.append(rng.choice([
            f"+{head}.{tail}", f".{tail}", f"{head}.", f".{tail}e{exponent}",
            f"{head}E{exponent}", f"-{head}.{tail}E+{abs(exponent)}", f"+.{tail}e-0{abs(exponent)}",
            f"{head}e+00{abs(exponent)}", f"-.{tail}", f"0000{head}.{tail}0000"]))
    return out


ACCEPTED = ["1_0", " 2 ", "inf", "-inf", "+inf", "nan", "-nan", "1e400", "\t3\n", "Infinity",
            "-iNF", "1_000.5", "1e1_0", " .5", "5. ", "1e00000000000000001", "0." + "0" * 40 + "1",
            "1" * 30, "1" * 30 + "e-30", "0.5\x0b"]
REJECTED = ["", " ", "1__0", "0x10", "1e", "e1", ".", "+", "-", "1.2.3", "1e5.5", "--1", "+-1",
            "1e+-5", "1ee5", "1e5e5", ".e1", "+.e1", "1 2", "_1", "1_", "a", "1,5", "nan1",
            "1e-", "1.5f", "1.e"]


def class_non_plain(rng, n):
    return [ACCEPTED[i] for i in rng.integers(0, len(ACCEPTED), n)]


CLASSES = [class_repr, class_g17, class_long, class_halfway, class_extremes, class_spellings,
           class_non_plain]


def check_class(make, seed: int, n: int) -> int:
    """Compare ``parse_floats`` with ``float()`` on ``n`` texts of a class."""
    texts = make(np.random.default_rng(seed), n)
    want = np.array([float(t) for t in texts])
    got = parse_floats(*cells([t.encode() for t in texts]))
    if got.view(np.int64).tolist() != want.view(np.int64).tolist():
        i = int(np.flatnonzero(got.view(np.int64) != want.view(np.int64))[0])
        pytest.fail(f"{texts[i]!r}: float() gives {want[i]!r}, parse_floats {got[i]!r}")
    return len(texts)


@pytest.mark.parametrize("make", CLASSES, ids=[c.__name__ for c in CLASSES])
def test_parse_floats_matches_float(make):
    assert check_class(make, 7, SIZE) >= 0.99 * SIZE


@pytest.mark.parametrize("text", REJECTED)
def test_parse_floats_reports_a_rejected_cell(text):
    with pytest.raises(ValueError):
        float(text)
    texts = [b"0.5"] * 9000 + [text.encode()] + [b"1e-3"] * 10
    assert parse_floats(*cells(texts)) is None


def test_parse_floats_crosses_chunks_and_keeps_order():
    rng = np.random.default_rng(3)
    for n in (0, 1, 100, 8191, 8192, 8193, 20_000):
        values = rng.normal(size=n)
        got = parse_floats(*cells([repr(v).encode() for v in values.tolist()]))
        assert got.dtype == np.float64 and got.tobytes() == values.tobytes()


def test_parse_floats_needs_padding():
    data, starts, ends = cells([b"1.5", b"2"])
    with pytest.raises(ValueError):
        parse_floats(bytes(data[PAD - 1:]), starts - PAD + 1, ends - PAD + 1)


def test_ordinary_cells_rarely_reach_float(monkeypatch):
    calls = []

    def counting_float(text):
        calls.append(text)
        return float(text)

    monkeypatch.setattr(floattext, "float", counting_float, raising=False)
    values = np.random.default_rng(11).random(200_000)
    got = parse_floats(*cells([repr(v).encode() for v in values.tolist()]))
    assert got.tobytes() == values.tobytes()
    assert len(calls) < 0.01 * values.size

