"""Suite-wide Hypothesis settings: every run draws the same examples."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
