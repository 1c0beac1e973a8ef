"""No function in segrsk calls itself.

A recursion's depth is bounded by the interpreter's recursion limit, not
by the size rules the CLI checks, so an input deep enough ends in a
RecursionError.  A function that calls itself, directly or through a
closure it defines, needs an explicit stack instead, or an entry here.
"""

import ast

from _scopes import package_sources

# the permissibility search recurses once per step of an ll-chain of the
# rest; cli.RSK_MAX_SEGMENTS keeps the CLI's inputs within the limit
RECURSIVE = {"rsk.is_permissible_pair.<locals>.matchable"}


def _calls_itself(func: ast.FunctionDef, class_name: str | None) -> bool:
    """A call of func by its own name anywhere in its body, closures included.

    A method calls itself through self, cls or its class; a function by its
    bare name.
    """
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if class_name is None:
            if isinstance(callee, ast.Name) and callee.id == func.name:
                return True
        elif (
            isinstance(callee, ast.Attribute)
            and callee.attr == func.name
            and isinstance(callee.value, ast.Name)
            and callee.value.id in ("self", "cls", class_name)
        ):
            return True
    return False


def _recursive_functions(sources: dict[str, str]) -> set[str]:
    """Qualified names (module.qualname) of the functions that call themselves."""
    found = set()

    def visit(node: ast.AST, prefix: str, class_name: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if _calls_itself(child, class_name):
                    found.add(name)
                visit(child, f"{name}.<locals>", None)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", child.name)
            else:
                visit(child, prefix, class_name)

    for module, source in sources.items():
        visit(ast.parse(source), module, None)
    return found


def test_no_function_calls_itself():
    assert _recursive_functions(package_sources()) == RECURSIVE


def test_the_guard_sees_each_form_of_recursion():
    source = """
def direct(n):
    return direct(n - 1)

def outer(n):
    def inner(k):
        return outer(k)
    return inner(n)

def closure(n):
    def walk(k):
        return walk(k - 1)
    return walk(n)

class C:
    def method(self):
        return self.method()

    @classmethod
    def build(cls):
        return C.build()

    def other(self):
        return direct(self.method)

    def direct(self):
        return direct(self)

def fine(xs):
    return sorted(xs, key=fine.__name__)
"""
    assert _recursive_functions({"m": source}) == {
        "m.direct",
        "m.outer",
        "m.closure.<locals>.walk",
        "m.C.method",
        "m.C.build",
    }
