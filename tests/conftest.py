"""Shared test settings.

One hypothesis profile, loaded for every test: no per-example deadline,
because example timings on a small shared machine vary too much for one,
and a failure prints its ``@reproduce_failure`` blob, which replays it
without the local ``.hypothesis/`` example database.
"""

from hypothesis import settings

settings.register_profile("rkdl", deadline=None, print_blob=True)
settings.load_profile("rkdl")
