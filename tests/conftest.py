import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """No test may leave a child process running: `verify --jobs N` stops
    and joins its children before `cli.main` returns, on every path."""
    yield
    assert multiprocessing.active_children() == []
