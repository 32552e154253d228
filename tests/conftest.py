import pytest
from _acceptance_log import LINES

from curvop import conditions


@pytest.fixture
def capped_descent(monkeypatch):
    """Every descent stops after two iterations, so searches hit the cap."""
    monkeypatch.setattr(conditions, "_MAX_ITER", 2)


def pytest_terminal_summary(terminalreporter):
    if LINES:
        terminalreporter.section("acceptance criteria")
        for line in LINES:
            terminalreporter.write_line(line)
