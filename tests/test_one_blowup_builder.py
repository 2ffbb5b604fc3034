"""Every blow-up the package builds comes from one of a few places: the
builder blowup_without (every emitted construction goes through it), the
JSON reading that rebuilds a given blow-up, and the random blow-ups of
the transversal-searcher agreement criterion.
Nothing else under src/critdens calls WeightedBlowupGraph(...) directly.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "critdens"

ALLOWED = {
    "blowup.blowup_without",
    "blowup.WeightedBlowupGraph.from_json_obj",
    "acceptance.check_searcher_agreement",
}


def _callers(path: Path) -> set[str]:
    """Qualified names of the functions in path that call
    WeightedBlowupGraph(...), by name or as an attribute."""
    found = set()

    def visit(node: ast.AST, scope: list[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "WeightedBlowupGraph":
                found.add(".".join([path.stem, *scope]))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return found


def test_blowups_are_built_only_by_the_builder():
    callers = set().union(*(_callers(p) for p in SRC.glob("*.py")))
    assert "blowup.blowup_without" in callers   # the scan sees calls
    assert callers <= ALLOWED, sorted(callers - ALLOWED)
