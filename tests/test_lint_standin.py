"""Tests for the lint stand-in (tools/lint_standin.py); CI's ``tests`` job is the gate."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_scipy_may_only_be_imported_inside_a_call(tmp_path):
    source = (
        "import numpy\n"
        "import scipy.optimize\n"
        "from scipy import stats\n"
        "from scipy.optimize import linprog  # noqa\n"
        "from . import scipy_free\n"
        "def solve():\n"
        "    from scipy.optimize import minimize\n"
        "    return minimize\n"
        "print(numpy, scipy, stats, scipy_free)\n"
    )
    messages = _messages(tmp_path, source)
    assert [message.split(" ", 1)[0] for message in messages] == ["TID253", "TID253"]


@pytest.mark.parametrize("module", ["repro", "repro.core.procpool"])
def test_importing_the_package_or_a_pool_worker_loads_no_scipy(module):
    """What the lint rule is for, checked where it matters: the import closure
    of the package and of a spawned pool worker (which never solves)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(_ROOT / "src"), env.get("PYTHONPATH", "")])
    script = (
        f"import sys, {module}\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_line_length_comes_from_ruff_toml():
    assert lint_standin.line_length() == 100
