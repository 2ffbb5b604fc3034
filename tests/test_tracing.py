"""The benchmark's tracer and output checks still find every function
they use.

perfbench/tracing.py names functions by their module bindings, and
perfbench/checks.py imports from critdens modules, so a refactor that
moves or renames one would silently drop it from ``--trace 1`` runs or
break the checks.  Both files are only read: tracing.py is loaded from
its file, checks.py only parsed.
"""

import ast
import importlib.util
import io
from pathlib import Path

import critdens
import critdens.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for module, names in _tracing().TRACED.items():
        for name in names:
            owner = getattr(critdens, module)
            for part in name.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"{module}.{name}"


def test_every_name_the_checks_import_resolves():
    tree = ast.parse((PERFBENCH / "checks.py").read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "critdens"
               for alias in node.names]
    assert imports, "checks.py imports from critdens"
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_tracer_records_an_in_process_query(tmp_path):
    tree = tmp_path / "path3.g"
    tree.write_text("3; 1-2 2-3\n")
    original = critdens.tree_decision.edge_assignment
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        code = critdens.cli.run(["decide-tree", str(tree), "--densities", "0.6"],
                                out=io.StringIO())
    finally:
        tracer.uninstall()
    assert code == 0
    calls, _ = tracer.self_times()
    assert calls["cli.run"] == 1
    assert calls["tree_decision.decide_tree"] == 1
    assert calls["tree_decision.edge_assignment"] >= 1
    assert critdens.tree_decision.edge_assignment is original
    assert critdens.graphs.edge_assignment is original
