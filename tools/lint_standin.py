"""A stand-in for the ``lint`` CI job where ruff and mypy are not installed.

    python tools/lint_standin.py [paths ...]        (default: src/repro)

Four checks, standard library only, each a subset of what ``ruff check``
reports under ``ruff.toml`` — so passing here never fails there for these
rules, and a finding here is a finding there:

* every file byte-compiles with warnings as errors (E9, and the
  ``SyntaxWarning`` class: invalid escapes, ``is`` with a literal);
* no unused import (F401; ``__init__.py`` re-exports and names listed in
  ``__all__`` are exempt, as in ``ruff.toml``) and no local that is assigned
  by a plain ``name = ...`` / ``with ... as name`` / ``except ... as name`` and
  never read (F841);
* no line longer than ``ruff.toml``'s ``line-length``;
* no module-level ``import scipy`` / ``from scipy ...`` (TID253 with
  ``banned-module-level-imports = ["scipy"]``): scipy is imported by the call
  that solves, so ``import repro`` — and every spawned pool worker, which
  never solves — does not pay for it.

A ``# noqa`` comment on the line silences it.  Exit status 1 on any finding.
"""

from __future__ import annotations

import ast
import os
import re
import sys
import warnings
from typing import Dict, Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
Finding = Tuple[str, int, str]


def line_length() -> int:
    with open(os.path.join(ROOT, "ruff.toml"), encoding="utf-8") as handle:
        return int(re.search(r"^line-length\s*=\s*(\d+)", handle.read(), re.M).group(1))


def python_files(paths: List[str]) -> Iterator[str]:
    for path in paths:
        if os.path.isfile(path):
            yield path
        for directory, _dirs, files in os.walk(path):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(directory, name)


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            yield node.value


def _names_read(tree: ast.AST) -> Set[str]:
    """Every name the tree reads — quoted annotations and ``__all__`` included."""
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", node.value))
    return read


def unused_imports(tree: ast.Module, path: str) -> Iterator[Tuple[int, str]]:
    if os.path.basename(path) == "__init__.py":
        return
    read = _names_read(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if alias.name != "*" and bound not in read:
                    yield node.lineno, f"F401 `{alias.name}` imported but unused"


def module_level_scipy(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    for node in tree.body:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module.split(".")[0] == "scipy" for module in modules):
            yield node.lineno, "TID253 `scipy` is banned at the module level"


def _own_nodes(function: ast.AST) -> Iterator[ast.AST]:
    """The function's nodes, nested function and class bodies left out."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        assigned: Dict[str, int] = {}
        escaping: Set[str] = set()
        for node in _own_nodes(function):
            if isinstance(node, ast.Assign):
                targets = [t for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target] if isinstance(node.target, ast.Name) else []
            elif isinstance(node, ast.withitem) and isinstance(node.optional_vars, ast.Name):
                targets = [node.optional_vars]
            elif isinstance(node, ast.ExceptHandler) and node.name:
                assigned.setdefault(node.name, node.lineno)
                continue
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                escaping.update(node.names)
                continue
            else:
                continue
            for target in targets:
                assigned.setdefault(target.id, target.lineno)
        read = _names_read(function)  # closures read the enclosing function's names
        for name, lineno in assigned.items():
            if name not in read and name not in escaping and not name.startswith("_"):
                yield lineno, f"F841 local variable `{name}` is assigned to but never used"


def check(path: str, limit: int) -> List[Finding]:
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    lines = source.splitlines()
    found: List[Tuple[int, str]] = []
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(source, path, "exec")
        tree = ast.parse(source, path)
    except (SyntaxError, Warning) as error:
        lineno = getattr(error, "lineno", None) or 1
        return [(path, lineno, f"E9 does not compile cleanly: {error}")]
    found.extend(unused_imports(tree, path))
    found.extend(unused_locals(tree))
    found.extend(module_level_scipy(tree))
    found.extend(
        (number, f"E501 line too long ({len(line)} > {limit})")
        for number, line in enumerate(lines, 1)
        if len(line) > limit
    )
    return [
        (path, number, message)
        for number, message in sorted(found)
        if "# noqa" not in lines[number - 1]
    ]


def main(argv: List[str]) -> int:
    limit = line_length()
    paths = argv or [os.path.join(ROOT, "src", "repro")]
    files = list(python_files(paths))
    findings = [finding for path in files for finding in check(path, limit)]
    for path, number, message in findings:
        print(f"{os.path.relpath(path, ROOT)}:{number}: {message}")
    print(f"lint stand-in: {len(files)} files, {len(findings)} findings")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
