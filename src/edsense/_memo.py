"""The package's memo caches, kept in one registry.

Every cache in edsense is a ``functools.lru_cache`` made by ``memo``, which
also appends it to ``REGISTRY``, so that all of them can be listed, sized or
cleared together; the test suite clears them all before each test, so that
cold-cache and call-count tests do not depend on the order of the tests.
"""

from __future__ import annotations

import functools

REGISTRY = []


def memo(maxsize):
    """``functools.lru_cache(maxsize=maxsize)`` (None: unbounded), registered."""
    def decorate(fn):
        cached = functools.lru_cache(maxsize=maxsize)(fn)
        REGISTRY.append(cached)
        return cached
    return decorate
