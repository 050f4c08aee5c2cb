import os

import pytest

from hypertri.plane import HPoint
from hypertri.trig import solve_from_vertices


@pytest.fixture(autouse=True)
def no_child_left():
    """No test may leave a child process, running or unreaped: `verify
    --jobs N` stops and reaps its children before `cli.main` returns, on
    every path."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def horocycle():
    """A triangle on the horocycle w - x = 1: its vertices (y^2/2, y,
    1 + y^2/2) are unit points, so its circumcenter is the point at
    infinity (1, 0, 1)."""
    return solve_from_vertices(*(HPoint(y * y / 2, y, 1 + y * y / 2) for y in (0.0, 0.5, -0.7)))


def pytest_report_header(config):
    """Name the `hypertri` these tests import: pyproject's ``pythonpath``
    puts this checkout's ``src`` ahead of ``PYTHONPATH``."""
    import hypertri
    return f"hypertri: {os.path.dirname(hypertri.__file__)}"
