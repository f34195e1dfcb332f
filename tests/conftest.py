"""A time bound on every test, so that a hung test fails by name.

The slowest test takes a few seconds.  A test that runs past the bound has
hung: the root-string loop never ends on a Cartan matrix that is not of
finite type, for one.  The bound is a SIGALRM, from the standard library
alone; where the platform has none, tests run unbounded.
"""

import signal

import pytest

TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past TIME_LIMIT_S.

    Not an Exception, so that hypothesis does not take it for a failing
    example and replay it, unbounded, while it shrinks.
    """


def _expire(signum, frame):
    raise TimeLimitExceeded(f"test ran past its {TIME_LIMIT_S} s bound")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        return (yield)
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
