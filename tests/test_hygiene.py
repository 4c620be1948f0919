"""Source hygiene: every name a module imports is used in that module.

The package re-exports its public names from ``__init__.py``, so that
file is the one exception.  Elsewhere a name kept for other modules to
read is imported as ``name as name``, the usual explicit re-export, and
is not counted.  Only the standard library is needed here.
"""

import ast
from pathlib import Path

import pytest

import ulrich_kit

PACKAGE = Path(ulrich_kit.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the module, with its line."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname == alias.name:
                    continue  # explicit re-export
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)  # forward references in annotations
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {
        name: line for name, line in imported_names(tree).items() if name not in used
    }
    assert not unused, f"{path.name}: unused imports {unused}"
