"""Each operation of the library has one public name, listed once.

A name no segrsk code references is pinned here with the reader it serves,
so a name that loses its last caller shows up in review.  A new entry needs
an edit here.
"""

import ast
import importlib
import pkgutil
from collections import defaultdict
from pathlib import Path

from _scopes import package_sources
import segrsk


def _modules():
    yield segrsk
    for info in pkgutil.iter_modules(segrsk.__path__):
        # importing __main__ would run the CLI
        if info.name != "__main__":
            yield importlib.import_module(f"segrsk.{info.name}")


def _callable_bindings(namespace):
    """Callables of a namespace, unwrapped from classmethod, staticmethod and property."""
    for name, value in namespace.items():
        if isinstance(value, (classmethod, staticmethod)):
            value = value.__func__
        elif isinstance(value, property):
            value = value.fget
        if callable(value) and not isinstance(value, type):
            yield name, value


def _aliases(where, bindings):
    """Non-dunder names bound to one object, as 'where: a = b' lines."""
    names = defaultdict(list)
    for name, value in bindings:
        if not (name.startswith("__") and name.endswith("__")):
            names[id(value)].append(name)
    return [f"{where}: {' = '.join(sorted(group))}" for group in names.values() if len(group) > 1]


def test_one_name_per_operation():
    found = []
    classes = set()
    for module in _modules():
        found += _aliases(module.__name__, _callable_bindings(vars(module)))
        classes.update(
            value
            for name, value in vars(module).items()
            if isinstance(value, type)
            and not name.startswith("_")
            and value.__module__.startswith("segrsk")
        )
    for cls in classes:
        # each name as attribute lookup resolves it: the first class in the MRO
        resolved = {}
        for klass in reversed(cls.__mro__[:-1]):
            resolved.update(vars(klass))
        found += _aliases(cls.__qualname__, _callable_bindings(resolved))
    assert not found, sorted(found)
    missing = [name for name in segrsk.__all__ if not hasattr(segrsk, name)]
    assert not missing, missing


def test_all_is_every_name_init_imports():
    tree = ast.parse(Path(segrsk.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert segrsk.__all__ == sorted(imported)


# defined in segrsk and referenced by no segrsk code, with the reader each serves
UNREFERENCED = {
    "lattice.LaurentPoly.one": "test-only constructor of the polynomial 1",
    "lattice.LaurentPoly.q_power": "test-only constructor; criterion 7 shifts by it",
    "lattice.Weight.alpha": "test-only constructor of a simple root",
    "lattice.Weight.in_subcone": "reference for the endpoint support check of strings",
    "lattice.Weight.support": "support of the bilinear-form basis checks",
    "lattice._SparseMap.height": "level and size identities in the tests",
    "multisegment.Multisegment.of": "test-only constructor from endpoint pairs",
    "multisegment.point_multisegment": "test-only: the point multisegment of a weight",
    "oracle.insertion_trace": "oracle: the peel_trace row's trace by reverse bumping",
    "oracle.reference_peel": "oracle: one peel on Segment objects",
    "oracle.reference_string_form": "oracle: the string form by its definition",
    "rsk.depth_function": "timed by perfbench",
    "rsk.peel_trace": "every step held, for the tests and callers that revisit steps",
    "specht.Multicharge.of": "test-only constructor",
    "specht.content_multi": "the content identity of Multipartition.dagger",
    "strings.phi_weights": "traced by perfbench; the checked grading shift",
    "strings.string_form": "the checked string form, against its oracle",
    "strings.transfer_multiplicities": "acceptance criterion 7",
    "tableaux.InvertedSSYT.of": "test-only constructor",
    "tableaux.Partition.of": "test-only constructor",
}


def _unreferenced() -> set[str]:
    """Functions, methods and classes (dunders aside) whose name no segrsk
    code uses as a name, an attribute or an import, __init__'s imports aside."""
    defined: dict[str, str] = {}
    used: set[str] = set()

    def visit(node: ast.AST, prefix: str, skip_imports: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    defined[name] = child.name
                visit(child, name, skip_imports)
                continue
            if skip_imports and isinstance(child, ast.ImportFrom):
                continue
            if isinstance(child, ast.Name):
                used.add(child.id)
            elif isinstance(child, ast.Attribute):
                used.add(child.attr)
            elif isinstance(child, ast.alias):
                used.add(child.asname or child.name)
            visit(child, prefix, skip_imports)

    for module, source in package_sources().items():
        visit(ast.parse(source), module, module == "__init__")
    return {name for name, bare in defined.items() if bare not in used}


def test_unreferenced_names_are_the_pinned_ones():
    assert _unreferenced() == set(UNREFERENCED)
