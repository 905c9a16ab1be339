"""Every cache in edsense is made by ``_memo.memo``, so that the suite's
cold-cache fixture clears it and the bound tests see it, and every cache
keyed by channel or series parameters is bounded."""

import ast
import importlib
import pkgutil
from pathlib import Path

import edsense
from edsense import _memo

# Caches keyed by a small index rather than by a shape: tanh-sinh node blocks
# (at most 7) and the detector's tail columns per integer order u.
_INDEX_KEYED = {"_ts_block", "_tail_columns"}
_FUNCTOOLS_CACHES = {"lru_cache", "cache", "cached_property"}


def _modules():
    return [importlib.import_module(f"edsense.{info.name}")
            for info in pkgutil.iter_modules(edsense.__path__)]


def test_no_module_makes_a_cache_of_its_own():
    # a functools cache outside _memo would escape the registry
    for path in sorted(Path(edsense.__file__).parent.glob("*.py")):
        if path.name == "_memo.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {alias.name for alias in node.names}
                assert not names & _FUNCTOOLS_CACHES, f"{path.name} imports {names}"
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert not (node.value.id == "functools" and node.attr in _FUNCTOOLS_CACHES), \
                    f"{path.name}:{node.lineno} uses functools.{node.attr}"


def test_every_cache_is_registered():
    registered = {id(cache) for cache in _memo.REGISTRY}
    found = 0
    for module in _modules():
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_info", None)) and hasattr(obj, "cache_clear"):
                found += 1
                assert id(obj) in registered, f"{module.__name__}.{name} is not registered"
    assert found >= len(_INDEX_KEYED) + 1


def test_shape_keyed_caches_are_bounded():
    names = set()
    for cache in _memo.REGISTRY:
        names.add(cache.__name__)
        if cache.__name__ not in _INDEX_KEYED:
            assert cache.cache_info().maxsize is not None, f"{cache.__qualname__} is unbounded"
    assert _INDEX_KEYED <= names
