"""Test-suite settings: every hypothesis property test draws a fixed example sequence."""

from hypothesis import settings

settings.register_profile("seeded", derandomize=True)
settings.load_profile("seeded")
