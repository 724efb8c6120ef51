"""Every module-level import in the package is used by its module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hmdlab"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source):
    """Names bound by module-level imports that the module never reads.
    `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _loads(tree, outside, kinds):
    """Names that `kinds` nodes load in `tree`, outside the subtree `outside`."""
    skip = {id(n) for n in ast.walk(outside)}
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, kinds) and isinstance(n.ctx, ast.Load) and id(n) not in skip
    }


def unread_private_names(source):
    """Module-level private (`_name`) functions, classes and constants that
    no other top-level statement of the module reads, and private methods
    of module-level classes (as `Class._name`) that no code outside the
    method reads by name or attribute. So a helper that only calls itself
    counts as unread."""
    tree = ast.parse(source)
    unread = []
    for owner in tree.body:
        if isinstance(owner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [owner.name]
        elif isinstance(owner, (ast.Assign, ast.AnnAssign)):
            targets = owner.targets if isinstance(owner, ast.Assign) else [owner.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        read = _loads(tree, owner, ast.Name)
        unread += [name for name in names if _private(name) and name not in read]
        if isinstance(owner, ast.ClassDef):
            unread += [
                f"{owner.name}.{method.name}"
                for method in owner.body
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _private(method.name)
                and method.name not in _loads(tree, method, (ast.Name, ast.Attribute))
            ]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_module_name_is_read(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def test_unread_private_names_flags_orphans():
    source = (
        "_USED = 1\n_ORPHAN = 2\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Helper:\n    pass\n"
        "def public():\n    return _USED + _Helper()\n"
        "class Public:\n"
        "    def _orphan(self):\n        return self._orphan()\n"
        "    def _used(self):\n        pass\n"
        "    def run(self):\n        return self._used()\n"
    )
    assert unread_private_names(source) == ["_ORPHAN", "_recursive", "Public._orphan"]


def unread_locals(source):
    """Names a function assigns but never reads, as `function.name`. Nested
    functions count as part of each function around them, an augmented
    assignment (`x += 1`) counts as a read, and names that start with `_`
    are exempt."""
    unread = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read = {}, set()
        for n in ast.walk(fn):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                stored[n.id] = None
            elif isinstance(n, ast.Name):
                read.add(n.id)
            elif isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name):
                read.add(n.target.id)
        unread += [f"{fn.name}.{name}" for name in stored
                   if not name.startswith("_") and name not in read]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_local_name_is_read(path):
    assert unread_locals(path.read_text(encoding="utf-8")) == []


def test_unread_locals_flags_dead_assignments():
    source = (
        "def f(xs):\n"
        "    n = len(xs)\n    total = 0\n    count = 0\n    _skip = 1\n"
        "    for x, unused in xs:\n        total += x\n"
        "    def g():\n        return count\n"
        "    return g\n"
    )
    assert unread_locals(source) == ["f.n", "f.unused"]


def raised_names(source):
    """What the source's `raise` statements raise, called or not: a name, or
    the source text of any other expression. A bare `raise` adds nothing."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(exc.id if isinstance(exc, ast.Name) else ast.unparse(exc))
    return names


def error_classes():
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    return {node.name for node in errors.body if isinstance(node, ast.ClassDef)}


def test_every_error_class_is_raised():
    raised = set().union(*(raised_names(p.read_text(encoding="utf-8")) for p in MODULES))
    assert sorted(error_classes() - {"HmdlabError"} - raised) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_raises_only_its_own_errors(path):
    raised = raised_names(path.read_text(encoding="utf-8"))
    assert sorted(raised - error_classes()) == []


def test_raised_names_flags_foreign_errors():
    source = (
        "def f(x):\n"
        "    try:\n        g()\n    except KeyError:\n        raise\n"
        "    if x:\n        raise ValueError('bad')\n"
        "    raise errors.DataError\n"
    )
    assert raised_names(source) - error_classes() == {"ValueError", "errors.DataError"}
