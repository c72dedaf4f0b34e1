"""Source hygiene of the fsos package: no module imports a name it never
uses. The package's __init__ is exempt: its imports are the public API."""

import ast
from pathlib import Path

import pytest

import fsos

MODULES = sorted(p for p in Path(fsos.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the import statements of source that no other code in
    it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nprint(np.zeros(1), c)\n"
    assert unused_imports(source) == ["d (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
