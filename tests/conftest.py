"""Hypothesis settings for the property tests.

The profile is derandomized (examples derive from each test's source, not
from a fresh seed) and bounded, so every run checks the same examples in a
few seconds; it keeps no example database and sets no per-example deadline,
since timings on a shared machine vary.
"""

from hypothesis import settings

settings.register_profile("camfuse", derandomize=True, database=None, deadline=None,
                          max_examples=100)
settings.load_profile("camfuse")
