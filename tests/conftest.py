"""Shared pytest configuration.

Property tests run under one hypothesis profile: examples are derived from
each test's source rather than drawn at random, so a run either always
passes or always fails, and the example count bounds their cost.
"""

from hypothesis import settings

settings.register_profile("sphwell", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("sphwell")
