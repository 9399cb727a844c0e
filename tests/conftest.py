"""Shared test settings: every Hypothesis test draws the same examples on
every run, so two runs of the same code give the same test count."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
