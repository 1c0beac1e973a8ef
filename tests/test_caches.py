"""Which functions segrsk memoizes at module level.

Each cache was measured against the benchmark workloads and Tier-1, and only
ladder_of_partition's pays for itself.  A new cache needs an edit here.
"""

import importlib
import pkgutil

import segrsk


def _module_level_caches() -> set[str]:
    found = set()
    for info in pkgutil.iter_modules(segrsk.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"segrsk.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if hasattr(obj, "cache_info"):
                found.add(f"{info.name}.{name}")
            elif isinstance(obj, type):
                for attr, member in vars(obj).items():
                    # classmethods and staticmethods wrap the cached function
                    if hasattr(getattr(member, "__func__", member), "cache_info"):
                        found.add(f"{info.name}.{name}.{attr}")
    return found


def test_only_the_ladder_cache_remains():
    assert _module_level_caches() == {"specht.ladder_of_partition"}
