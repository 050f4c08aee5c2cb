"""Every demo script runs to completion.

Each demo is copied into a temporary directory and run there, so the SVG
figures `04_triangle_centers.py` writes next to itself stay out of the
source tree.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hypertri

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(hypertri.__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
