"""Hypothesis runs derandomized and without deadlines, so every property test
draws the same examples on every run and every host."""

from hypothesis import settings

settings.register_profile("fragbox", derandomize=True, deadline=None)
settings.load_profile("fragbox")
