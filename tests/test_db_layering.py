"""``repro.db`` is the bottom layer: it imports nothing built on top of it.

An AST walk, so an import tucked inside a function counts as much as one at
module level — that is how the last one hid (``db/sharding.py`` reached into
``repro.core`` from inside a function to build per-shard indexes).  The same
walk pins the one durable format: only the segment codec (object columns),
the journal and the UDF's worker-shipping probe may import ``pickle``.
"""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
_ABOVE = ("repro.core", "repro.sampling", "repro.serving")


def _is_above(module):
    return any(module == layer or module.startswith(layer + ".") for layer in _ABOVE)


def _imported_modules(tree, package):
    """``(line, absolute module)`` of every import in ``tree``, wherever it is.

    Relative imports are resolved against ``package``; ``from a import b``
    yields ``a.b`` where ``a`` alone is innocent (``b`` may be a submodule).
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - (node.level - 1)] if node.level else []
            module = ".".join([*base, *([node.module] if node.module else [])])
            if _is_above(module):
                yield node.lineno, module
            else:
                for alias in node.names:
                    yield node.lineno, f"{module}.{alias.name}"


def _violations(path, src=_SRC):
    package = list(path.relative_to(src).parent.parts)
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [
        f"{path.relative_to(src)}:{line}: imports {module}"
        for line, module in sorted(_imported_modules(tree, package))
        if _is_above(module)
    ]


def test_db_imports_nothing_from_core_sampling_or_serving():
    files = sorted((_SRC / "repro" / "db").rglob("*.py"))
    assert len(files) > 10  # the walk found the package
    assert [found for path in files for found in _violations(path)] == []


def test_only_the_segment_codec_the_journal_and_the_udf_import_pickle():
    allowed = {"repro.db.storage.segments", "repro.db.storage.journal", "repro.db.udf"}
    importers = set()
    for path in sorted((_SRC / "repro").rglob("*.py")):
        package = list(path.relative_to(_SRC).parent.parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if any(
            module == "pickle" or module.startswith("pickle.")
            for _line, module in _imported_modules(tree, package)
        ):
            importers.add(".".join(path.relative_to(_SRC).with_suffix("").parts))
    assert importers == allowed


def test_the_walk_sees_nested_relative_and_submodule_imports(tmp_path):
    module = tmp_path / "repro" / "db" / "storage" / "leaky.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "import repro.obs\n"
        "import repro.corelib\n"
        "from repro.db.table import Table\n"
        "def build():\n"
        "    from repro.core.parallel import build_span_tasks\n"
        "    from ...sampling import sampler\n"
        "    from repro import serving\n"
        "    import repro.serving.config as config\n",
        encoding="utf-8",
    )
    assert [found.split("py:")[1] for found in _violations(module, src=tmp_path)] == [
        "5: imports repro.core.parallel",
        "6: imports repro.sampling",
        "7: imports repro.serving",
        "8: imports repro.serving.config",
    ]
