"""segrsk's sources, read by the design-rule guards, and the scope walk that
test_constructors.py and test_print_path.py share.  pytest collects only
test_*.py files, so this module is imported, never collected."""

import ast
from pathlib import Path
from typing import Callable

import segrsk


def package_sources() -> dict[str, str]:
    """The source of each segrsk module, by module name."""
    return {p.stem: p.read_text() for p in Path(segrsk.__file__).parent.glob("*.py")}


def scopes_where(sources: dict[str, str], matches: Callable[[ast.AST], bool]) -> set[str]:
    """Qualified names (module.qualname) of the scopes that hold a node that
    matches, each nested function and class naming its own scope."""
    found = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            scope = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = f"{where}.{child.name}"
            if matches(child):
                found.add(scope)
            visit(child, scope)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return found
