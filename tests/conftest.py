"""Suite-wide hypothesis settings: every property test draws the same
examples on every run and has no per-example deadline.  Each test sets its
own ``max_examples``."""

from hypothesis import settings

settings.register_profile("edsense", derandomize=True, deadline=None)
settings.load_profile("edsense")
