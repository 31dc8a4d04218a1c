"""Static checks over the package source that need no installed linter."""

from __future__ import annotations

import ast
import sys
from itertools import chain
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hammersim"


def test_no_unused_imports():
    # Like flake8's F401: a module-level import whose name the module never
    # reads, unless its line is marked "# noqa: F401".
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        lines = source.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or "# noqa: F401" in lines[node.lineno - 1]):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}: {name}")
    assert unused == []


def test_imports_only_the_standard_library():
    # The package depends only on the standard library: every import names
    # a standard module or one of the package's own (relative, or by name).
    allowed = sys.stdlib_module_names | {PACKAGE.name}
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []


def test_private_names_are_used():
    # Every private module-level def, class or assignment and every private
    # method must be read somewhere in the package; a helper whose last
    # caller went is dead code.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)

    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            if isinstance(node, ast.ClassDef):
                names += [item.name for item in node.body
                          if isinstance(item, ast.FunctionDef)]
            defined += [f"{module}: {name}" for name in names if private(name)]
    assert [d for d in defined if d.split(": ")[1] not in read] == []


def test_record_fields_are_read():
    # Every field and property of a package dataclass or NamedTuple must be
    # read as an attribute somewhere in the project; a field nobody reads is
    # a copy of a fact kept elsewhere, or no fact at all.
    root = PACKAGE.parents[1]
    read = set()
    for path in sorted(chain(*(root.glob(f"{d}/**/*.py")
                               for d in ("src", "bench", "scripts", "tests")))):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                read.add(node.target.attr)

    def named(node, name: str) -> bool:
        node = node.func if isinstance(node, ast.Call) else node
        return isinstance(node, ast.Name) and node.id == name

    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef) or not (
                    any(named(d, "dataclass") for d in cls.decorator_list)
                    or any(named(b, "NamedTuple") for b in cls.bases)):
                continue
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                elif isinstance(item, ast.FunctionDef) and any(
                        named(d, "property") for d in item.decorator_list):
                    name = item.name
                else:
                    continue
                if name not in read:
                    unread.append(f"{path.name}: {cls.name}.{name}")
    assert unread == []


def test_public_names_have_a_runtime_reader():
    # Every public def, class and method of the package must be read under
    # src/, bench/ or scripts/; a name only the tests read is test-only API
    # and belongs in tests/helpers.py.  Names, attributes, imports and
    # string constants all count, as bench/tracer.py patches methods by
    # name.  check_invariants, the allocator's invariant oracle, stays
    # beside the state it checks.
    allowed = {"check_invariants"}
    root = PACKAGE.parents[1]
    read = set()
    for path in sorted(chain(*(root.glob(f"{d}/**/*.py") for d in ("src", "bench", "scripts")))):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            methods = node.body if isinstance(node, ast.ClassDef) else ()
            names = [node.name] + [f"{node.name}.{item.name}" for item in methods
                                   if isinstance(item, ast.FunctionDef)]
            unread += [f"{path.name}: {name}" for name in names
                       if not name.rpartition(".")[2].startswith("_")
                       and name.rpartition(".")[2] not in read | allowed]
    assert unread == []
