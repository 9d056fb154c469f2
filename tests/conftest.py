"""Shared test set-up: a deterministic hypothesis profile.

Property tests draw the same examples on every run, never time out on a
slow or shared host, and keep no example database between runs. Tests
that carry their own @settings override only the fields they name.
"""

from hypothesis import settings

settings.register_profile("cavityq", deadline=None, derandomize=True, database=None)
settings.load_profile("cavityq")
