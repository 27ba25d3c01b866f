import pathlib

import pytest
from hypothesis import settings

import acceptance_log

settings.register_profile("suite", deadline=None, max_examples=60, derandomize=True)
# a longer search, chosen with --hypothesis-profile=deep
settings.register_profile("deep", deadline=None, max_examples=1000)


def pytest_configure(config):
    if not config.getoption("hypothesis_profile", None):
        settings.load_profile("suite")


@pytest.fixture(scope="session")
def datadir() -> pathlib.Path:
    return pathlib.Path(__file__).parent / "data"


def pytest_terminal_summary(terminalreporter):
    lines = acceptance_log.lines()
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
