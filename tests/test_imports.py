"""Every imported name is used by the module that imports it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "demos")


def unused_imports(path):
    """'file:line: name' for each imported name the module never reads.

    __future__ imports and names listed in the module's __all__ (the
    re-exports of a package) are not counted.
    """
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                # "import a.b" binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in sorted(imported.items())
            if name not in read and name not in exported]


def test_no_unused_imports():
    files = sorted(p for tree in TREES for p in (ROOT / tree).rglob("*.py"))
    assert files
    unused = [hit for path in files for hit in unused_imports(path)]
    assert unused == []
