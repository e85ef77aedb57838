"""Hypothesis settings for the whole suite.

Examples are derandomized, so every run tests the same cases, and have no
deadline: numpy-backed examples vary in time with the machine's load, and a
deadline would turn that into spurious failures.
"""

from hypothesis import settings

settings.register_profile("deephole", deadline=None, derandomize=True)
settings.load_profile("deephole")
