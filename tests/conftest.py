"""A wall-time limit on every test.

A test that hangs, such as one on a broken reduced test whose period walk
never comes back to its start, would otherwise run for minutes.  Past the
limit faulthandler prints every thread's traceback and ends the run.  The
limit sits far above the slowest test, a few seconds.
"""

import faulthandler
import os

import pytest

TEST_LIMIT_S = 120

# the terminal's stderr: output capturing is off while pytest configures,
# and a traceback written to the captured stream would be lost on exit
STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[STDERR_FD] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[STDERR_FD])


@pytest.fixture(autouse=True)
def wall_time_limit(request):
    faulthandler.dump_traceback_later(
        TEST_LIMIT_S, exit=True, file=request.config.stash[STDERR_FD])
    yield
    faulthandler.cancel_dump_traceback_later()
