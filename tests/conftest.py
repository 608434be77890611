"""Shared test settings: Hypothesis runs a fixed, derandomized set of 60
examples per property with no deadline, so every run tests the same cases."""

from hypothesis import settings

settings.register_profile("qsphere", max_examples=60, derandomize=True, deadline=None,
                          database=None)
settings.load_profile("qsphere")
