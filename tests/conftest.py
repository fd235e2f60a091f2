"""Suite-wide pytest hooks and fixtures.

pyproject sets ``timeout = 120``.  The hooks below register that ini key
and enforce it per test with a SIGALRM timer (``signal.setitimer``, the
sub-second form of ``signal.alarm``), so a hung event loop fails its
test instead of stalling the whole run.  pytest-timeout owns the same
key; where someone has installed it, the hooks stay off so the ceiling
is not enforced twice.

``experiments`` runs the experiment registry once per session.  The
``results/REPORT.md`` pin and every paper/ablation/extension band
assertion read that one run, so they check the numbers the report shows.
"""

import signal

import pytest

try:
    import pytest_timeout
except ImportError:
    pytest_timeout = None

pytest_plugins = ["pytester"]


@pytest.fixture(scope="session")
def experiments():
    """Every registered experiment, run once: registry id -> Experiment."""
    from repro.bench.report import EXPERIMENTS

    return {exp_id: EXPERIMENTS[exp_id]() for exp_id in sorted(EXPERIMENTS)}


if pytest_timeout is None and hasattr(signal, "SIGALRM"):

    def pytest_addoption(parser):
        parser.addini(
            "timeout",
            "per-test ceiling in seconds, 0 disables",
            default="0",
        )

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(item, nextitem):
        seconds = float(item.config.getini("timeout") or 0)
        if seconds <= 0:
            yield
            return

        def expire(signum, frame):
            pytest.fail(f"Timeout >{seconds:g}s", pytrace=False)

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
