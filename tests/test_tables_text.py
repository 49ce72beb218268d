"""The table writer's number text against CPython's own formatting.

``render_floats`` must give the bytes of ``'%.17g' % v`` (CSV) and of
``json.dumps(v)`` (JSON, ``repr`` for finite values) for every float64,
including the values near rounding ties and decade edges that it hands to
CPython; integer columns must give ``str``.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import pytest

from synthbh import tables
from synthbh.tables import ROWS, render_floats, write_table


def hard_values(rng, n):
    """Seeded float64 values that stress each path of the kernel."""
    decades = np.array([10.0 ** k for k in range(-323, 309)]
                       + [float(f"1e{k}") for k in range(-323, 309)])
    edges = np.concatenate([decades, np.nextafter(decades, np.inf),
                            np.nextafter(decades, -np.inf)])
    uniform = rng.random(n)
    parts = [
        uniform,
        uniform ** 7,
        # Conformal p-values (c + 1) / (n + 1).
        (rng.integers(0, 1000, n) + 1.0) / (rng.integers(1000, 100_000, n) + 1.0),
        10.0 ** rng.uniform(-320, 308, n),
        np.frombuffer(rng.bytes(8 * n), np.float64),
        -rng.random(n),
        rng.integers(-10 ** 6, 10 ** 6, n).astype(np.float64),
        np.round(rng.normal(size=n) * 1e4),
        rng.normal(size=n),
        edges,
        -edges,
        np.ldexp(1.0, np.arange(-1074, 1024)),
        -np.ldexp(1.0, np.arange(-1074, 1024)),
        # Subnormals.
        np.frombuffer(rng.integers(1, 2 ** 52, n // 4).astype(np.int64).tobytes(), np.float64),
        np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                  2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
                  1e16, 1e17, 9007199254740993.0, 0.1, 0.5, 1.0, 100.0, 1e-4, 1e-5, 1e15,
                  123456789012345680.0, 0.3, 2.0 / 3.0]),
        # Short decimals k / 10**j, whose repr drops many digits.
        rng.integers(-10 ** 6, 10 ** 6, n // 4) / 10.0 ** rng.integers(0, 7, n // 4),
    ]
    # Values of 1-15 repr digits and their neighbours on both sides.
    short = np.array([float(f"{v:.{d}g}") for d in range(1, 16) for v in
                      (rng.random(n // 60) * 10.0 ** rng.integers(-20, 21, n // 60)).tolist()])
    parts += [short, np.nextafter(short, np.inf), np.nextafter(short, -np.inf)]
    # Where the read-back interval is exactly 10 units of the 17th digit
    # (doubles in [2**52, 2**53) at or above 10**15), and subnormals around
    # each decade, where the interval is widest.
    wide = rng.integers(10 ** 15, 2 ** 53, n // 8).astype(np.float64)
    decade = np.round(10.0 ** np.arange(-323, -307) / 5e-324).astype(np.int64)
    subnormal = (decade[:, None] + np.arange(-3, 4)).ravel()
    subnormal = np.concatenate([subnormal, np.arange(1, 4097)]).astype(np.int64)
    parts += [wide, wide + 1, np.frombuffer(subnormal.tobytes(), np.float64)]
    return np.concatenate(parts)


def texts(cells: np.ndarray) -> list[bytes]:
    """Each row of ``cells`` without its 0xFF cells."""
    lines = np.concatenate([cells, np.full((len(cells), 1), ord("\n"), np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\xff").split(b"\n")[:-1]


@pytest.mark.parametrize("style, reference", [
    ("g", lambda v: "%.17g" % v),
    # json.dumps(v) is repr(v) for a finite v; repr is the faster reference.
    ("r", lambda v: repr(v) if math.isfinite(v) else json.dumps(v)),
])
def test_render_floats_matches_cpython(style, reference):
    values = hard_values(np.random.default_rng(90), 110_000)
    assert values.size >= 1_000_000
    want = [reference(v).encode() for v in values.tolist()]
    got = []
    for start in range(0, values.size, 4096):
        got += texts(render_floats(values[start:start + 4096], style))
    if got != want:
        i = next(i for i, (a, b) in enumerate(zip(want, got)) if a != b)
        pytest.fail(f"{values[i]!r}: want {want[i]!r}, got {got[i]!r}")


def test_render_floats_takes_any_float_array():
    for values in (np.array([0.1, -2.5], np.float32), np.array([[1e-7], [3.0]]), [0.25, 1e300]):
        as_float = np.asarray(values, np.float64).ravel().tolist()
        assert texts(render_floats(values, "g")) == [("%.17g" % v).encode() for v in as_float]


def test_render_floats_takes_an_empty_array():
    for style in ("g", "r"):
        cells = render_floats(np.array([]), style)
        assert cells.shape == (0, 32) and cells.dtype == np.uint8


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64])
def test_integer_columns_match_str(tmp_path, dtype):
    info = np.iinfo(dtype)
    values = np.array([0, 1, 9, 10, info.min, info.max, info.min + 1, info.max - 1], dtype)
    out = tmp_path / "t.csv"
    write_table(str(out), {"k": values}, "csv", {})
    assert out.read_text() == "".join(f"{v}\n" for v in ["k"] + values.tolist())
    out = tmp_path / "t.json"
    write_table(str(out), {"k": values}, "json", {"rows": ROWS})
    assert out.read_text() == json.dumps({"rows": [{"k": v} for v in values.tolist()]},
                                         indent=2) + "\n"


def integer_edges() -> list[int]:
    """Values at every digit count's edge, at the kernel's 10**16 limit and at the dtype limits."""
    values = []
    for k in range(19):
        values += [10 ** k - 1, 10 ** k, -(10 ** k - 1), -(10 ** k)]
    return values + [10 ** 16 - 1, 10 ** 16, -(10 ** 16 - 1), -(10 ** 16)]


@pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32, np.uint16])
@pytest.mark.parametrize("size", [100, 10_000])
def test_integer_columns_match_str_at_digit_edges(tmp_path, dtype, size):
    info = np.iinfo(dtype)
    edges = [v for v in integer_edges() if info.min <= v <= info.max] + [info.min, info.max]
    rng = np.random.default_rng(size)
    # Random magnitudes of every digit count; 10_000 rows cross _CHUNK_ROWS.
    bits = rng.integers(0, min(info.bits - (info.kind == "i"), 62) + 1, size)
    mixed = rng.integers(0, 2 ** 62, size) >> (62 - bits)
    if info.kind == "i":
        mixed *= rng.choice([-1, 1], size)
    values = np.concatenate([np.array(edges, dtype), mixed.astype(dtype)])
    rng.shuffle(values)
    out = tmp_path / "t.csv"
    write_table(str(out), {"k": values}, "csv", {})
    assert out.read_text() == "".join(f"{v}\n" for v in ["k"] + values.tolist())
    out = tmp_path / "t.json"
    write_table(str(out), {"k": values}, "json", {"rows": ROWS})
    assert out.read_text() == json.dumps({"rows": [{"k": v} for v in values.tolist()]},
                                         indent=2) + "\n"


def test_long_fields_split_a_chunk_into_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(tables, "_BLOCK_CELLS", 256)
    names = ["a" * 300, "b", "\x00" * 5, "é" * 200, "c,d", "\xff" * 3, "日本", "z"]
    x = np.linspace(-1, 1, len(names))
    out = tmp_path / "t.csv"
    write_table(str(out), {"name": names, "x": x}, "csv", {})
    want = io.StringIO()
    csv.writer(want, lineterminator="\n").writerows(
        [["name", "x"]] + [[s, f"{v:.17g}"] for s, v in zip(names, x.tolist())])
    assert out.read_bytes() == want.getvalue().encode()
    out = tmp_path / "t.json"
    write_table(str(out), {"name": names, "x": x}, "json", {"rows": ROWS})
    assert json.loads(out.read_text()) == {
        "rows": [{"name": s, "x": v} for s, v in zip(names, x.tolist())]}
