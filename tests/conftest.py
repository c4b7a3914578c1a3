"""Shared pytest wiring.

The acceptance tests record one summary line per criterion on the pytest
config object; the hook below prints them as a dedicated section after
the run, where output capture no longer swallows them.  The pools
fixture counts the thread pools that simulator's ordered map builds, and
the estimate_threads fixture records which thread runs each block MLE of
randomphase.
"""

import threading

import pytest

from entsense import randomphase, simulator


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


@pytest.fixture
def estimate_threads(monkeypatch):
    """threading.get_ident() of every estimate_blocks call made through
    randomphase's name, in call order."""
    idents = []
    real = randomphase.estimate_blocks

    def spy(*args, **kwargs):
        idents.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(randomphase, "estimate_blocks", spy)
    return idents
