"""Test-wide settings.

Property tests draw the same examples on every run: a hypothesis profile
with ``derandomize=True`` is loaded for the whole suite, so a failure seen
once can be reproduced by running the suite again.  Each test keeps its own
``max_examples``.
"""
from hypothesis import settings

settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")
