"""Every name a module imports is used in its code: a name that only a
docstring or a comment mentions, or one left behind when its last use is
cut, fails here.  ``__init__.py`` is skipped, because its imports are the
package's re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [
    path
    for folder in (ROOT / "src" / "simpson_nd", ROOT / "tests")
    for path in sorted(folder.glob("*.py"))
    if path.name != "__init__.py"
]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that no ``Name`` node of the
    module reads; ``from __future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            # "import a.b" binds a
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nfrom a import b as c, d\nd()\n")
    assert unused_imports(source) == [(2, "os"), (3, "os"), (4, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
