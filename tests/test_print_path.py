"""Where segrsk writes to stdout and stderr.

Each CLI command returns its output, and cli.main writes it, or the
{status, payload, diagnostics} envelope, to stdout through
cli._print_stdout; cli.main itself prints only its diagnostics to stderr.
A print anywhere else would be a second output path; a new one needs an
edit here.
"""

import ast
from pathlib import Path

import segrsk

PRINTERS = {"cli.main", "cli._print_stdout"}


def _is_print(node: ast.AST) -> bool:
    """A print(...) call, or a write on sys.stdout or sys.stderr."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "print"
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "write"
        and isinstance(func.value, ast.Attribute)
        and func.value.attr in ("stdout", "stderr")
    )


def _print_sites() -> set[str]:
    """Qualified names (module.function) of the scopes that print."""
    found = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            scope = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = f"{where}.{child.name}"
            if _is_print(child):
                found.add(scope)
            visit(child, scope)

    for path in Path(segrsk.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_only_main_and_the_envelope_print():
    assert _print_sites() <= PRINTERS, sorted(_print_sites() - PRINTERS)
