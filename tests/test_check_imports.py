"""scripts/check_imports.py: unused imported names fail, read ones pass."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "check_imports", ROOT / "scripts" / "check_imports.py")
check_imports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_imports)


@pytest.mark.parametrize("source,unused", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("import numpy as np\nimport json\njson.dumps\n", ["np"]),
    ("from math import gcd, lcm\nx = lcm(2, 3)\n", ["gcd"]),
    ("from a import b as c\nc = 1\n", ["c"]),      # a rebinding is no read
    ("from __future__ import annotations\n", []),
    ("from typing import Any\ndef f(x: 'Any') -> None: ...\n", []),
    ("from typing import Any\ndef f() -> 'list[Any]': ...\n", []),
    ("from m import a, b\n__all__ = ['a']\nb\n", []),
    ("from m import *\n", []),
])
def test_unused_names(tmp_path, source, unused):
    path = tmp_path / "mod.py"
    path.write_text(source)
    assert [name for _, name in check_imports.unused_imports(path)] == unused


def test_package_init_is_exempt(tmp_path, capsys):
    (tmp_path / "__init__.py").write_text("from .core import thing\n")
    assert check_imports.main([str(tmp_path)]) == 0
    (tmp_path / "core.py").write_text("import sys\nthing = 1\n")
    assert check_imports.main([str(tmp_path)]) == 1
    assert "core.py:1: sys is imported but never read" in capsys.readouterr().out


def test_checkout_has_no_unused_import(capsys):
    assert check_imports.main([]) == 0, capsys.readouterr().out
