"""Every name a module under src/critdens imports is used in that module,
every name it assigns at module level is read there, every private
(_-prefixed) function, method or class it defines is referenced somewhere
in the package outside its own body, no module imports another's private
name, every public module-level function or class, and every public
method of such a class, is referenced by the package or by perfbench/,
no class defines a dunder method outside ALLOWED_DUNDERS, the modules'
top-level imports of one another form no cycle, and no import sits in a
function except the self-test's of acceptance.

No linter ships with the toolchain, so this scan is the guard.  The
package's __init__ is left out, except from the private-import and
function-import scans: it imports names to re-export them.
A name counts as used when it appears as a name anywhere in the module,
including inside a quoted (forward-reference) annotation; it counts as
read when it appears that way other than as an assignment target.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "critdens"
PERFBENCH = SRC.parents[1] / "perfbench"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                names[name] = node.lineno
    return names


def _assigned(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    names[name.id] = node.lineno
    return names


def _used(tree: ast.Module, loads_only: bool = False) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if not loads_only or isinstance(node.ctx, ast.Load):
                used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = [f"{name} (line {line})"
              for name, line in _imported(tree).items() if name not in used]
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_module_assignments(path):
    tree = ast.parse(path.read_text())
    read = _used(tree, loads_only=True)
    unread = [f"{name} (line {line})"
              for name, line in _assigned(tree).items() if name not in read]
    assert not unread, f"{path.name} assigns unread names: {', '.join(unread)}"


def _private_definitions(tree: ast.Module) -> list[ast.AST]:
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def _references(tree: ast.AST, skip: ast.AST | None = None,
                strings: bool = True) -> set[str]:
    """Names, attribute names and (with strings) identifiers inside string
    constants in tree, leaving out the subtree skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(re.findall(r"[A-Za-z_]\w*", node.value))
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_no_unreferenced_private_definitions():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    refs = {name: _references(tree) for name, tree in trees.items()}
    orphans = []
    for name, tree in trees.items():
        elsewhere = set().union(*(r for other, r in refs.items() if other != name))
        for node in _private_definitions(tree):
            if (node.name not in elsewhere
                    and node.name not in _references(tree, skip=node)):
                orphans.append(f"{name}:{node.lineno} {node.name}")
    assert not orphans, f"private definitions without a reference: {', '.join(orphans)}"


# Public definitions kept without a caller in the package or perfbench/.
UNCALLED_PUBLIC = {
    "critical_scaling": "the only computation of the critical scale t* of "
                        "a ratio vector; the API offers it alongside decide_tree",
    "poly_from_strings": "the reader of the documented polynomial text, the "
                         "inverse of poly_to_strings",
    "matching_even_part": "the even part q(t^2) of the matching polynomial as "
                          "a RatPoly; largest_matching_root_squared reads the "
                          "same integers from the matching counts directly",
}


def _public_definitions(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """The public module-level functions and classes, and the public
    methods of those classes, each with its name (Class.method for a
    method)."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFINITIONS) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def test_no_uncalled_public_definitions():
    """A public function, class or method of a public class counts as
    called when a module other than __init__ names it (as a name or an
    attribute, outside its own body), or perfbench/ names it, also inside
    a string such as a traced name.  Tests do not count: code only they
    reach is dead."""
    trees = {p.name: ast.parse(p.read_text()) for p in MODULES}
    perfbench = set().union(*(_references(ast.parse(p.read_text()))
                              for p in PERFBENCH.glob("*.py")))
    refs = {name: _references(tree, strings=False) for name, tree in trees.items()}
    uncalled, defined = [], set()
    for name, tree in trees.items():
        elsewhere = set().union(perfbench, *(r for other, r in refs.items() if other != name))
        for shown, node in _public_definitions(tree):
            defined.add(shown)
            if (shown not in UNCALLED_PUBLIC and node.name not in elsewhere
                    and node.name not in _references(tree, skip=node, strings=False)):
                uncalled.append(f"{name}:{node.lineno} {shown}")
    assert not uncalled, f"public definitions nothing calls: {', '.join(uncalled)}"
    assert set(UNCALLED_PUBLIC) <= defined, "allowlist names a definition that is gone"


# Dunder methods a class under src/ may define.  The scans above skip
# dunders, which Python calls implicitly, so an operator nothing uses would
# go unseen; a class that needs one adds it here, naming its caller in src/.
ALLOWED_DUNDERS = {"__init__", "__post_init__", "__new__", "__eq__", "__hash__",
                   "__repr__", "__str__"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dunders_outside_the_allowed_set(path):
    tree = ast.parse(path.read_text())
    extra = [f"{node.name}.{item.name} (line {item.lineno})"
             for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for item in node.body if isinstance(item, DEFINITIONS)
             and item.name.startswith("__") and item.name.endswith("__")
             and item.name not in ALLOWED_DUNDERS]
    assert not extra, f"{path.name} defines dunders outside the allowed set: {', '.join(extra)}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported(path):
    """A module reaches another only through its public names."""
    tree = ast.parse(path.read_text())
    private = [f"{alias.name} from {node.module} (line {node.lineno})"
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"{path.name} imports private names: {', '.join(private)}"


def _imports(tree: ast.AST) -> Iterator[tuple[str, str | None]]:
    """Per imported module, its name as written (".x" within the package,
    "." + name for "from . import name") and the function around the
    import, None at module level."""
    functions: list[str] = []

    def visit(node: ast.AST) -> Iterator[tuple[str, str | None]]:
        where = functions[-1] if functions else None
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, where
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield "." * node.level + (node.module or alias.name), where
        is_function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if is_function:
            functions.append(node.name)
        for child in ast.iter_child_nodes(node):
            yield from visit(child)
        if is_function:
            functions.pop()

    return visit(tree)


def test_module_imports_form_no_cycle():
    """The top-level imports between the package's modules are acyclic."""
    graph = {p.stem: {name.lstrip(".").split(".")[0]
                      for name, function in _imports(ast.parse(p.read_text()))
                      if function is None and name.startswith(".")}
             for p in MODULES}
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> None:
        assert module not in path, f"import cycle: {' -> '.join(path + [module])}"
        if module not in done:
            for imported in sorted(graph.get(module, ())):
                visit(imported, path + [module])
            done.add(module)

    for module in sorted(graph):
        visit(module, [])


def test_only_the_self_test_imports_inside_a_function():
    """Every import sits at module level except cli.cmd_self_test's of
    acceptance, which keeps networkx out of start-up."""
    inside = {(p.name, function, name) for p in sorted(SRC.glob("*.py"))
              for name, function in _imports(ast.parse(p.read_text()))
              if function is not None}
    assert inside == {("cli.py", "cmd_self_test", ".acceptance")}


def test_scan_sees_every_module():
    assert {p.name for p in MODULES} >= {"blowup.py", "cli.py", "polynomials.py"}
