"""Shared test settings.

One hypothesis profile, loaded for every test: no per-example deadline,
because example timings on a small shared machine vary too much for one.
"""

from hypothesis import settings

settings.register_profile("rkdl", deadline=None)
settings.load_profile("rkdl")
