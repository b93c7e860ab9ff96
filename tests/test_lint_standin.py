"""Tests for the lint stand-in (tools/lint_standin.py); CI's ``tests`` job is the gate."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("lint_standin", _ROOT / "tools" / "lint_standin.py")
lint_standin = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(lint_standin)

BAD = '''"""Docstrings may mention Dict and os without using them."""
from __future__ import annotations

import os
import sys
from typing import Dict, List, Optional

__all__ = ["kept"]


def kept(values: "List[int]") -> int:
    unused = len(values)
    total = 0
    try:
        total = sum(values)
    except ValueError as error:
        pass
    first, rest = values[0], values[1:]  # unpacking is not flagged
    quiet = 1  # noqa
    _ignored = 2
    %s
    return total + sys.maxsize


def closure():
    captured = 1
    return lambda: captured
'''


def _messages(tmp_path, source, limit=100):
    path = tmp_path / "module.py"
    path.write_text(source, encoding="utf-8")
    return [message for _path, _line, message in lint_standin.check(str(path), limit)]


def test_reports_unused_imports_unused_locals_and_long_lines(tmp_path):
    long_line = "wide = " + " + ".join(["total"] * 30)
    messages = _messages(tmp_path, BAD % long_line)
    assert sorted(message.split(" ", 1)[0] for message in messages) == [
        "E501", "F401", "F401", "F401", "F841", "F841", "F841",
    ]
    flagged = " ".join(messages)
    for name in ("`os`", "`Dict`", "`Optional`", "`unused`", "`error`", "`wide`"):
        assert name in flagged
    for name in ("`List`", "`sys`", "`first`", "`quiet`", "`_ignored`", "`captured`"):
        assert name not in flagged


def test_warnings_are_errors_and_init_files_may_reexport(tmp_path):
    assert _messages(tmp_path, 'PATTERN = "\\d+"\n')[0].startswith("E9")
    assert _messages(tmp_path, "def broken(:\n")[0].startswith("E9")
    package = tmp_path / "__init__.py"
    package.write_text("from os import path\n", encoding="utf-8")
    assert lint_standin.check(str(package), 100) == []


def test_line_length_comes_from_ruff_toml():
    assert lint_standin.line_length() == 100
