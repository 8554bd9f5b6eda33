"""The package's own import graph, read from the source with ast."""

import ast
from pathlib import Path

import nonlocal_sharp

PACKAGE = Path(nonlocal_sharp.__file__).parent


def relative_imports():
    """[(importing module, imported module, inside a function)] of every relative import."""
    found = []

    def visit(module, node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                targets = [child.module] if child.module else [a.name for a in child.names]
                found.extend((module, t.split(".")[0], in_function) for t in targets)
            nested = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(module, child, in_function or nested)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path.stem, ast.parse(path.read_text(encoding="utf-8")), False)
    return found


def test_no_relative_import_inside_a_function():
    assert [edge for edge in relative_imports() if edge[2]] == []


def test_import_graph_is_acyclic():
    graph = {}
    for module, target, _ in relative_imports():
        graph.setdefault(module, set()).add(target)
    assert "grids" in graph["operators"]  # the scan found the imports
    # peel off modules that import no module left in the graph; a cycle never peels
    while graph:
        leaves = {m for m, targets in graph.items() if not targets & graph.keys()}
        assert leaves, f"import cycle among {sorted(graph)}"
        graph = {m: targets for m, targets in graph.items() if m not in leaves}
