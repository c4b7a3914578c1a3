"""Shared pytest wiring.

The acceptance tests record one summary line per criterion on the pytest
config object; the hook below prints them as a dedicated section after
the run, where output capture no longer swallows them.  The pools
fixture counts the thread pools that simulator's ordered map builds.
"""

import pytest

from entsense import simulator


def pytest_configure(config):
    config._criterion_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def pools(monkeypatch):
    """max_workers of every pool built through simulator's name."""
    built = []

    class CountingPool(simulator.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(simulator, "ThreadPoolExecutor", CountingPool)
    return built
