"""Test-suite settings: every hypothesis property test draws a fixed example
sequence, and no test may leave a forked process behind."""

import os

import pytest
from hypothesis import settings

settings.register_profile("seeded", derandomize=True)
settings.load_profile("seeded")


@pytest.fixture(autouse=True)
def no_child_left():
    """After each test this process has no child: every fork was reaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
