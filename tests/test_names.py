"""Each operation of the library has one public name, listed once."""

import ast
import importlib
import pkgutil
from collections import defaultdict
from pathlib import Path

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
