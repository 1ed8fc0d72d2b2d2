"""Every imported name is used by the module that imports it, and every
public name by some caller outside the unit tests."""

import ast
from pathlib import Path

import shjlab

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


# where a public name must be read for it to count as used; the unit
# tests do not count, so a name only they reach is dead code
CALLER_TREES = ("src", "demos", "perfbench")
CALLER_FILES = ("tests/test_acceptance.py",)


class _Reads(ast.NodeVisitor):
    """Names a module reads, as a bare name or an attribute, outside the
    definition that binds the same name."""

    def __init__(self):
        self.reads = set()
        self.inside = []

    def _define(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def _read(self, name):
        if name not in self.inside:
            self.reads.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._read(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self._read(node.attr)
        self.generic_visit(node)


def test_every_public_name_has_a_caller():
    files = sorted(p for tree in CALLER_TREES for p in (ROOT / tree).rglob("*.py"))
    files += [ROOT / f for f in CALLER_FILES]
    reads = set()
    for path in files:
        visitor = _Reads()
        visitor.visit(ast.parse(path.read_text(), str(path)))
        reads |= visitor.reads
    assert sorted(set(shjlab.__all__) - reads) == []
