import signal
import tracemalloc

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


@pytest.fixture
def traced_peak():
    """``traced_peak(call)``: bytes of the tracemalloc peak of one ``call()`` above the traced size at its start."""

    def measure(call):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    return measure
