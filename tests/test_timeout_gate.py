"""The pyproject ``timeout`` ceiling fails a test that runs past it."""

import importlib.util
from pathlib import Path

import pytest

CONFTEST = Path(__file__).with_name("conftest.py")


@pytest.mark.skipif(
    importlib.util.find_spec("pytest_timeout") is not None,
    reason="pytest-timeout is installed, so the conftest timer is off",
)
def test_sleeping_past_the_timeout_fails(pytester):
    pytester.makeconftest(CONFTEST.read_text())
    pytester.makeini("[pytest]\ntimeout = 1\n")
    pytester.makepyfile(
        """
        import time

        def test_hangs():
            time.sleep(10)
        """
    )
    result = pytester.runpytest_subprocess()
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*Timeout >1*"])
    result.stdout.no_fnmatch_line("*Unknown config option*")
