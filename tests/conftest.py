import multiprocessing
import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """No test may leave a child process running: `verify --jobs N` stops
    and joins its children before `cli.main` returns, on every path."""
    yield
    assert multiprocessing.active_children() == []


def pytest_report_header(config):
    """Name the `hypertri` these tests import: pyproject's ``pythonpath``
    puts this checkout's ``src`` ahead of ``PYTHONPATH``."""
    import hypertri
    return f"hypertri: {os.path.dirname(hypertri.__file__)}"
