"""The benchmark's own unit tests, run as part of this suite.

perfbench's tracer patches named functions and methods of hypertri
(`Frame.__init__`, `TrialContext.__init__`, `TriangleData.side_line`,
`TrialReport.to_jsonl`, `cli._verify_worker`, `run_identity`); renaming one
of them fails these tests, not only a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_unit_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
