"""Every imported name is used by the module that imports it; every
public name, method, record field and dict key is read, and every
defaulted parameter passed, by some caller outside the unit tests, and
those callers pass each defaulted parameter more than one value."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("module", ["shjlab", "shjlab.cli"])
def test_import_loads_numpy_only(module):
    # a fresh interpreter: this one may have scipy loaded by other tests
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    probe = (f"import sys, {module}; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


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


def _caller_trees():
    """(path, parsed module) for every caller of the census tests."""
    files = sorted(p for tree in CALLER_TREES for p in (ROOT / tree).rglob("*.py"))
    files += [ROOT / f for f in CALLER_FILES]
    return [(path, ast.parse(path.read_text(), str(path))) for path in files]


def test_every_public_name_has_a_caller():
    reads = set()
    for _, tree in _caller_trees():
        visitor = _Reads()
        visitor.visit(tree)
        reads |= visitor.reads
    assert sorted(set(shjlab.__all__) - reads) == []


def _bindings(tree):
    """(modules, ours): the names a module binds to imported modules, each
    mapped to whether it is part of shjlab, and the names it imports from
    shjlab that are not modules."""
    modules, ours = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds a
                modules[alias.asname or alias.name.split(".")[0]] = \
                    alias.name.split(".")[0] == "shjlab"
        elif isinstance(node, ast.ImportFrom):
            package = node.module or ""
            if node.level:
                package = ".".join(["shjlab"] + ([package] if package else []))
            mine = package.split(".")[0] == "shjlab"
            for alias in node.names:
                try:
                    is_module = importlib.util.find_spec(
                        f"{package}.{alias.name}") is not None
                except ImportError:
                    is_module = False
                if is_module:
                    modules[alias.asname or alias.name] = mine
                elif mine:
                    ours.add(alias.asname or alias.name)
    return modules, ours


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class _MethodReads(ast.NodeVisitor):
    """Attribute reads outside the definition that binds the same name,
    skipping reads on an imported module; a "Class.method" string (a
    tracer wraps its targets by name) reads that method too."""

    def __init__(self, modules):
        self.modules = modules
        self.reads = set()
        self.named = set()
        self.inside = []

    def _define(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def visit_Attribute(self, node):
        if (isinstance(node.ctx, ast.Load) and node.attr not in self.inside
                and _root(node) not in self.modules):
            self.reads.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.count(".") == 1:
            self.named.add(tuple(node.value.split(".")))


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


METHOD_EXEMPT = set()


def unread_methods():
    """'Class.method' for each method of a class in src/ that no caller
    reads; dunders are called by the language, not by name."""
    reads, named = set(), set()
    for _, tree in _caller_trees():
        visitor = _MethodReads(_bindings(tree)[0])
        visitor.visit(tree)
        reads |= visitor.reads
        named |= visitor.named
    unread = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and not _dunder(node.name)
                        and node.name not in reads
                        and (cls.name, node.name) not in named):
                    unread.append(f"{cls.name}.{node.name}")
    return sorted(unread)


def test_every_method_has_a_caller():
    unread = set(unread_methods())
    assert sorted(unread - METHOD_EXEMPT) == []
    assert METHOD_EXEMPT <= unread, "an exemption is no longer needed"


def _src_defs():
    """(qualified name, call name, positional, defaults) of every def in
    src/ with a defaulted parameter.  positional lists the parameters a
    positional argument can fill, without self or cls; defaults maps each
    defaulted parameter to its default's node; a class is called by its
    own name for __init__; other dunders are called by the language and
    are left out."""
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or (
                    _dunder(node.name) and node.name != "__init__"):
                continue
            owner = parents[node]
            a = node.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            decorators = {d.id for d in node.decorator_list
                          if isinstance(d, ast.Name)}
            if isinstance(owner, ast.ClassDef) and "staticmethod" not in decorators:
                positional = positional[1:]
            defaults = dict(zip(positional[len(positional) - len(a.defaults):],
                                a.defaults))
            defaults.update((p.arg, d) for p, d in zip(a.kwonlyargs,
                                                       a.kw_defaults)
                            if d is not None)
            if not defaults:
                continue
            if isinstance(owner, ast.ClassDef):
                qual = f"{owner.name}.{node.name}"
                called = owner.name if node.name == "__init__" else node.name
            else:
                qual = called = node.name
            yield f"{path.stem}.{qual}", called, positional, defaults


def _calls(path, tree):
    """(callee name, call) for each call that can reach a def in src/: a
    bare name imported from shjlab, or defined in this module when it is
    in src/, and an attribute not read on a module outside shjlab."""
    modules, ours = _bindings(tree)
    if ROOT / "src" in path.parents:
        ours |= {node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id in ours:
            yield fn.id, node
        elif isinstance(fn, ast.Attribute) and modules.get(_root(fn), True):
            yield fn.attr, node


# cli.main's argv is passed by the console entry point's sys.argv
OPTION_EXEMPT = {"cli.main.argv"}


def unset_options():
    """'module.def.param' for each defaulted parameter of a def in src/
    that no call of that name in the caller trees passes, by keyword or
    by position."""
    passed = {}         # callee name -> (most positional args, keywords)
    for path, tree in _caller_trees():
        for name, call in _calls(path, tree):
            n_pos, kws = passed.get(name, (0, set()))
            if any(isinstance(arg, ast.Starred) for arg in call.args):
                n_pos = float("inf")
            passed[name] = (max(n_pos, len(call.args)),
                            kws | {kw.arg or "**" for kw in call.keywords})
    unset = []
    for qual, called, positional, defaulted in _src_defs():
        n_pos, kws = passed.get(called, (0, set()))
        for param in defaulted:
            by_position = param in positional and positional.index(param) < n_pos
            if not (by_position or param in kws or "**" in kws):
                unset.append(f"{qual}.{param}")
    return sorted(unset)


def test_every_option_is_set_by_a_caller():
    unset = set(unset_options())
    assert sorted(unset - OPTION_EXEMPT) == []
    assert OPTION_EXEMPT <= unset, "an exemption is no longer needed"


# an argument that is not a literal, so no census can say what it holds
VARYING = object()


def _literal(node):
    """The repr of a literal node's value, else VARYING."""
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return VARYING


def _passed_value(call, param, positional, default):
    """What call passes for param: a literal's value, the default's when
    it is left out, or VARYING for any other expression."""
    for kw in call.keywords:
        if kw.arg == param:
            return _literal(kw.value)
    if any(kw.arg is None for kw in call.keywords):
        return VARYING
    if param in positional:
        i = positional.index(param)
        if any(isinstance(arg, ast.Starred) for arg in call.args[:i + 1]):
            return VARYING
        if i < len(call.args):
            return _literal(call.args[i])
    return _literal(default)


# cli.main's argv is passed by the console entry point's sys.argv.
# residual_check's side "sub" is the reference route that
# test_envelope_pair_squeezes_value checks the lower envelope against.
VALUE_EXEMPT = {"cli.main.argv", "viscosity.residual_check.side"}


def single_valued_options():
    """'module.def.param' for each defaulted parameter of a def in src/
    to which the calls of that name in the caller trees pass one literal
    value only: an option with one value is a constant."""
    calls = {}
    for path, tree in _caller_trees():
        for name, call in _calls(path, tree):
            calls.setdefault(name, []).append(call)
    single = []
    for qual, called, positional, defaults in _src_defs():
        for param, default in defaults.items():
            values = {_passed_value(call, param, positional, default)
                      for call in calls.get(called, ())}
            if len(values) == 1 and VARYING not in values:
                single.append(f"{qual}.{param}")
    return sorted(single)


def test_every_option_takes_two_values():
    single = set(single_valued_options())
    assert sorted(single - VALUE_EXEMPT) == []
    assert VALUE_EXEMPT <= single, "an exemption is no longer needed"


def _is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in cls.decorator_list)


def _record_fields(cls):
    """Record fields of a class: dataclass annotations, __slots__ entries
    and the self attributes __init__ assigns."""
    fields = set()
    for node in cls.body:
        if (isinstance(node, ast.AnnAssign) and _is_dataclass(cls)
                and isinstance(node.target, ast.Name)):
            fields.add(node.target.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in node.targets):
            fields.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
            me = node.args.args[0].arg
            fields.update(a.attr for a in ast.walk(node)
                          if isinstance(a, ast.Attribute)
                          and isinstance(a.ctx, ast.Store)
                          and isinstance(a.value, ast.Name) and a.value.id == me)
    return fields


def unread_fields():
    """'Class.field' for each record field of a class in src/ that no
    caller reads as an attribute."""
    reads = {node.attr for _, tree in _caller_trees() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(cls, ast.ClassDef):
                unread += [f"{cls.name}.{name}" for name in _record_fields(cls)
                           if name not in reads]
    return sorted(unread)


def _string(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


# calls that read every key of a dict passed to them
WHOLE_CALLS = {"dict", "list", "tuple", "set", "sorted", "iter", "enumerate",
               "zip", "max", "min", "any", "all", "str", "repr", "format"}
WHOLE_METHODS = {"items", "keys", "values", "copy"}


def _holder(node):
    """The name a dict is bound to: a bare name, or ".attr" for an
    attribute; None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return "." + node.attr
    return None


def _used_whole(scope):
    """Holders (see _holder) of the dicts a scope uses whole: iterated,
    copied, unpacked, formatted or indexed by a variable.  A name bound to
    an attribute stands for that attribute too."""
    alias = {node.targets[0].id: "." + node.value.attr
             for node in ast.walk(scope)
             if isinstance(node, ast.Assign) and len(node.targets) == 1
             and isinstance(node.targets[0], ast.Name)
             and isinstance(node.value, ast.Attribute)}
    used = []
    for node in ast.walk(scope):
        if isinstance(node, (ast.For, ast.comprehension)):
            used.append(node.iter)
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in WHOLE_CALLS:
                used += node.args
            elif (isinstance(node.func, ast.Attribute)
                  and node.func.attr in WHOLE_METHODS):
                used.append(node.func.value)
            used += [kw.value for kw in node.keywords if kw.arg is None]
        elif isinstance(node, ast.Dict):
            used += [v for k, v in zip(node.keys, node.values) if k is None]
        elif isinstance(node, ast.FormattedValue):
            used.append(node.value)
        elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
              and not isinstance(node.slice, ast.Constant)):
            used.append(node.value)
    whole = {_holder(node) for node in used} - {None}
    return whole | {alias[name] for name in whole if name in alias}


def _key_writes(tree):
    """(key, holder, scope) for each string key a module writes into a dict
    display or by a constant subscript.  holder is what the dict is bound
    to (see _holder): the target of an assignment or of .update, or the
    subscripted value.  scope is the innermost def around the write, the
    module outside every def."""
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}

    def scope_of(node):
        while node in parents:
            node = parents[node]
            if isinstance(node, ast.FunctionDef):
                return node
        return tree

    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            up = parents[node]
            holder = None
            if isinstance(up, ast.Assign) and len(up.targets) == 1:
                holder = _holder(up.targets[0])
            elif (isinstance(up, ast.Call) and isinstance(up.func, ast.Attribute)
                  and up.func.attr == "update"):
                holder = _holder(up.func.value)
            for key in node.keys:
                if _string(key) is not None:
                    yield key.value, holder, scope_of(node)
        elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
              and _string(node.slice) is not None):
            yield node.slice.value, _holder(node.value), scope_of(node)


def _key_reads(tree):
    """String keys a module reads by a constant subscript or by .get."""
    reads = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                and _string(node.slice) is not None):
            reads.add(node.slice.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and node.args
              and _string(node.args[0]) is not None):
            reads.add(node.args[0].value)
    return reads


def unread_keys():
    """'module.def.key' for each string key that code in src/ outside
    cli.py writes into a dict, unless a caller reads the key or the dict
    is used whole (by the holder's name in the writing scope, or by an
    attribute's name in any caller).  cli.py's dicts are written to
    files, which are their readers."""
    reads, whole_attrs = set(), set()
    for _, tree in _caller_trees():
        reads |= _key_reads(tree)
        whole_attrs |= {h for h in _used_whole(tree) if h.startswith(".")}
    unread = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        whole = {}
        for key, holder, scope in _key_writes(tree):
            if scope not in whole:
                whole[scope] = _used_whole(scope) | whole_attrs
            if key not in reads and holder not in whole[scope]:
                where = getattr(scope, "name", "<module>")
                unread.add(f"{path.stem}.{where}.{key}")
    return sorted(unread)


def test_every_field_and_key_has_a_reader():
    """Stored data needs a reader.  Like the option census this matches
    by name, so a same-named field read on another class, or a key read
    from another dict, hides an unread one."""
    assert (unread_fields(), unread_keys()) == ([], [])
