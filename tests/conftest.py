"""Derandomized hypothesis profile, so every run draws the same examples."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
