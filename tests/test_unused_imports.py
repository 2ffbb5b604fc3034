"""Every name a module under src/critdens imports is used in that module,
and every name it assigns at module level is read there.

No linter ships with the toolchain, so this scan is the guard.  The
package's __init__ is left out: it imports names to re-export them.
A name counts as used when it appears as a name anywhere in the module,
including inside a quoted (forward-reference) annotation; it counts as
read when it appears that way other than as an assignment target.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "critdens"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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


def test_scan_sees_every_module():
    assert {p.name for p in MODULES} >= {"blowup.py", "cli.py", "polynomials.py"}
