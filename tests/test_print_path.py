"""Where segrsk writes to stdout and stderr.

Each CLI command returns its output, and cli.main writes it, or the
{status, payload, diagnostics} envelope, to stdout through
cli._print_stdout; cli.main itself prints only its diagnostics to stderr.
A print anywhere else would be a second output path; a new one needs an
edit here.
"""

import ast

from _scopes import package_sources, scopes_where

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


def test_only_main_and_the_envelope_print():
    sites = scopes_where(package_sources(), _is_print)
    assert sites <= PRINTERS, sorted(sites - PRINTERS)


def test_finds_each_print():
    source = (
        "import sys\n"
        "def report(x):\n"
        "    print(x)\n"
        "class Log:\n"
        "    def out(self, x):\n"
        "        def flush():\n"
        "            sys.stdout.write(x)\n"
        "        return flush\n"
        "    def err(self, x):\n"
        "        sys.stderr.write(x)\n"
        "    def save(self, x):\n"
        "        self.handle.write(x)\n"
    )
    found = scopes_where({"log": source}, _is_print)
    assert found == {"log.report", "log.Log.out.flush", "log.Log.err"}
