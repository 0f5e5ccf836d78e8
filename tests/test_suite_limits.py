"""The suite's guard against hangs: every test runs under a wall-clock
alarm, and pytest dumps the stacks of one the alarm cannot stop."""

import signal

from conftest import TEST_SECONDS, _out_of_time


def test_wall_clock_limit_is_armed(pytestconfig):
    remaining, interval = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= TEST_SECONDS
    assert interval == 0
    assert signal.getsignal(signal.SIGALRM) is _out_of_time
    assert float(pytestconfig.getini("faulthandler_timeout")) > TEST_SECONDS
