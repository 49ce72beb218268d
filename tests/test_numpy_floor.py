"""The package must run on the oldest numpy that ``pyproject.toml`` allows.

The tests run on one installed numpy, so a function that only a newer
numpy has would pass them and still fail for a user at the floor.  This
test reads the source of every module with ``ast`` and fails on any
``np.<name>`` (or ``numpy.<name>``, at any depth) that numpy added after
the declared floor, 1.24.
"""

from __future__ import annotations

import ast
import pathlib
import re

import pytest

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "synthbh"
PYPROJECT = SOURCE.parent.parent / "pyproject.toml"

# Names under numpy that first appeared after numpy 1.24.
NEWER_NAMES = frozenset({
    # 1.25
    "dtypes", "exceptions",
    # 2.0
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "astype", "bitwise_count",
    "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift", "concat", "isdtype",
    "long", "matrix_transpose", "permute_dims", "pow", "StringDType", "strings",
    "trapezoid", "ulong", "unique_all", "unique_counts", "unique_inverse", "unique_values",
    "vecdot",
    # 2.1
    "cumulative_prod", "cumulative_sum", "unstack",
    # 2.2
    "matvec", "vecmat",
})


def numpy_names(path: pathlib.Path) -> list[tuple[int, str]]:
    """Each attribute name under ``np`` or ``numpy`` in a module, with its line."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        root = node
        while isinstance(root, ast.Attribute):
            root = root.value
        if node is not root and isinstance(root, ast.Name) and root.id in ("np", "numpy"):
            found.append((node.lineno, node.attr))
    return found


def test_declared_floor_is_the_one_checked():
    # A new floor needs a new list of names.
    assert re.search(r'"numpy>=1\.24"', PYPROJECT.read_text())


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_names_newer_than_the_floor(path):
    found = [f"{path.name}:{line}: {name}" for line, name in numpy_names(path)
             if name in NEWER_NAMES]
    assert not found, "not in numpy 1.24: " + ", ".join(found)


def test_the_scan_sees_newer_names(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import numpy as np\nx = np.bitwise_count(np.arange(3))\n"
                      "t = np.dtypes.StringDType()\n")
    assert {(2, "bitwise_count"), (3, "dtypes"), (3, "StringDType")} <= set(numpy_names(module))
