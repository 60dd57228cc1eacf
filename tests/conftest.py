import signal

import pytest


@pytest.fixture
def time_limit():
    """Arm a SIGALRM deadline: ``time_limit(seconds)`` makes a stall fail the test."""

    def expire(signum, frame):
        # pytest.fail raises a BaseException, which no handler under test swallows
        pytest.fail("the test ran past its time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
