"""Suite-wide hypothesis settings: every property test draws the same
examples on every run and has no per-example deadline.  Each test sets its
own ``max_examples``.  Every test also starts with an empty CROC operator
cache (``detection._croc_operator``)."""

import pytest
from hypothesis import settings

from edsense import detection

settings.register_profile("edsense", derandomize=True, deadline=None)
settings.load_profile("edsense")


@pytest.fixture(autouse=True)
def _cold_croc_operator():
    """Every test starts with an empty CROC detector-side cache, so tests
    that count kernel calls see cold calls whatever the test order."""
    detection._croc_operator.cache_clear()
