"""Suite-wide hypothesis settings: every property test draws the same
examples on every run and has no per-example deadline.  Each test sets its
own ``max_examples``.  Every test also starts with every edsense memo cache
empty (``edsense._memo.REGISTRY``)."""

import pytest
from hypothesis import settings

from edsense import _memo

settings.register_profile("edsense", derandomize=True, deadline=None)
settings.load_profile("edsense")


@pytest.fixture(autouse=True)
def _cold_caches():
    """Every test starts with empty caches, so tests that count kernel calls
    or compare cold and warm calls see cold calls whatever the test order."""
    for cache in _memo.REGISTRY:
        cache.cache_clear()
