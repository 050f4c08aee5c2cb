"""Print a digest of every output that a change meant to keep behaviour must
keep byte for byte: one ``sha256  bytes  name`` line per output.

    python3 tools/pinned_outputs.py

takes no options and imports `hypertri` from the ``src`` directory next to
this script, so a copy of the script run in another checkout digests that
checkout.  The CLI commands run in this process through `hypertri.cli.main`
(``verify --jobs 2`` forks its children from it); each name ends in the
command's exit code, and a command that writes to stderr gets a second line
for it.  Each demo runs as a script in a temporary copy, as
``tests/test_demos.py`` runs it; the temporary directory is replaced by
``<tmp>`` in its stdout, so the path that demo 04 prints does not change
the digest.  Two runs on one checkout print the same text, and two
checkouts that behave alike print the same text.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hypertri import cli  # noqa: E402  (after the path is set)

# the 26 criterion-3 center identities (`tests/criterion3.py`)
C3_IDS = ("CE1", "CR1", "CR2", "CR3", "IN1", "IN2", "IN3", "IN4", "IN5", "IN6",
          "IN7", "OR1", "OR2", "OR3", "OR4", "OR5", "OR6", "IS2", "IS3", "IS4",
          "SY1", "SY2", "LE1", "LE2", "PM1", "PM2")
SHAPES = ("any", "acute", "scalene", "isosceles", "equilateral", "right")


def _line(name: str, data: bytes) -> str:
    return f"{hashlib.sha256(data).hexdigest()}  {len(data)}  {name}"


def _run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``hypertri argv``, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _lines(name: str, runs) -> list[str]:
    """The digest lines of the ``(code, stdout, stderr)`` runs taken as one
    output: their stdout joined, their exit codes in the name, and a stderr
    line when any run wrote to stderr."""
    codes = ",".join(sorted({str(code) for code, _, _ in runs}))
    lines = [_line(f"{name} [exit {codes}]", "".join(out for _, out, _ in runs).encode())]
    err = "".join(e for _, _, e in runs)
    if err:
        lines.append(_line(f"{name} [stderr]", err.encode()))
    return lines


def _cli_lines(tmp: Path) -> list[str]:
    lines = []
    for jobs in ("1", "2"):
        lines += _lines(f"verify --seeds 1..1000 --jobs {jobs}",
                        [_run(["verify", "--seeds", "1..1000", "--jobs", jobs])])
    for shape in ("acute", "right", "isosceles", "equilateral"):
        lines += _lines(f"verify --seeds 1..300 --shape {shape}",
                        [_run(["verify", "--seeds", "1..300", "--shape", shape])])
    lines += _lines("verify --seeds 1..500 --ids <criterion 3>",
                    [_run(["verify", "--seeds", "1..500", "--ids", ",".join(C3_IDS)])])
    triangle = str(tmp / "triangle.json")
    for shape in ("any", "acute"):
        runs = []
        for seed in range(1, 201):
            runs += [_run(["gen", "--seed", str(seed), "--shape", shape, "-o", triangle]),
                     _run(["centers", triangle, "--json"])]
        lines += _lines(f"centers --json, {shape} seeds 1..200", runs)
    for shape in SHAPES:
        lines += _lines(f"gen --shape {shape}, seeds 1..5",
                        [_run(["gen", "--seed", str(seed), "--shape", shape])
                         for seed in range(1, 6)])
    for d in (None, "0", "1.2"):
        argv = ["tables"] + ([] if d is None else ["--d", d])
        lines += _lines(" ".join(argv), [_run(argv)])
    return lines


def _demo_lines(tmp: Path) -> list[str]:
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    lines = []
    for demo in sorted((ROOT / "demos").glob("*.py")):
        work = tmp / demo.stem
        work.mkdir()
        shutil.copy(demo, work / demo.name)
        proc = subprocess.run([sys.executable, demo.name], cwd=work,
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=600)
        out = proc.stdout.replace(str(work), "<tmp>")
        lines += _lines(f"demo {demo.name}", [(proc.returncode, out, proc.stderr)])
        lines += [_line(f"demo {demo.name}: {svg.name}", svg.read_bytes())
                  for svg in sorted(work.glob("*.svg"))]
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        lines = _cli_lines(Path(tmp)) + _demo_lines(Path(tmp))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
