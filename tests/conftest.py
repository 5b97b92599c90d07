from __future__ import annotations

import pytest
from hypothesis import settings

# Fixed examples on every run, independent of any local example database.
settings.register_profile("cvslab", derandomize=True, database=None, deadline=None)
settings.load_profile("cvslab")

_SCOREBOARD: list[str] = []


@pytest.fixture(scope="session")
def scoreboard() -> list[str]:
    return _SCOREBOARD


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _SCOREBOARD:
        terminalreporter.section("acceptance scoreboard")
        for line in _SCOREBOARD:
            terminalreporter.write_line(line)
