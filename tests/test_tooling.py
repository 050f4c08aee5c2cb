"""The benchmark's own unit tests and output checks, run as part of this suite.

perfbench's tracer patches named functions and methods of hypertri
(`Frame.__init__`, `TrialContext.__init__`, `TriangleData.side_line`,
`TrialReport.to_jsonl`, `cli._verify_worker`, `run_identity`) and counts
calls of the center builders through their `hypertri.centers` attributes;
its reference rows come from `run_suite(..., include_centers=False)`, and
its centers workload builds `TrialContext(seed=, t=)` and reads the row keys
of `center_table(ctx)`.  Renaming one of them, calling a builder past its
attribute, or changing an output the benchmark pins fails these tests, not
only a benchmark run.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from hypertri import centers as ct
from hypertri import registry as rg
from hypertri.generate import gen_triangle

from criterion3 import C3_IDS

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_unit_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]


def _literal(path: str, name: str):
    """The value of the module-level literal ``name`` in the file at
    ``path`` (relative to the checkout), read without importing the file."""
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets))


def _perfbench_center_builders() -> tuple:
    """The center builders whose calls perfbench's per-builder metrics
    count (the `CENTER_BUILDERS` literal of perfbench/run.py)."""
    return _literal("perfbench/run.py", "CENTER_BUILDERS")


def test_benchmark_and_pinned_outputs_run_the_criterion_3_ids():
    # the oracle-c3 workload and the pinned criterion-3 report keep their
    # own copies of the list the tests run
    assert _literal("perfbench/workloads.py", "C3_IDS") == C3_IDS
    assert _literal("tools/pinned_outputs.py", "C3_IDS") == C3_IDS


# the builder each center row and each check must reach through the
# `centers` module attribute, which the tracer rebinds
_ROW_BUILDER = {
    "M": "centroid", "O": "circumcenters", "O_A": "circumcenters",
    "O_B": "circumcenters", "O_C": "circumcenters", "I": "incenter_excenters",
    "I_A": "incenter_excenters", "I_B": "incenter_excenters",
    "I_C": "incenter_excenters", "H": "orthocenter", "H'": "isogonal_conjugate",
    "M'": "symmedian_point", "L": "lemoine_point", "S": "pseudo_centroid",
    "Z": "pseudo_orthocenter", "F": "pseudomedian_feet_center",
}
_ID_BUILDER = {
    "CE1": "centroid", "CR3": "circumcenters", "IN6": "incenter_excenters",
    "IN7": "incenter_excenters", "OR3": "orthocenter", "IS3": "isogonal_conjugate",
    "SY1": "symmedian_point", "LE1": "lemoine_point", "PM2": "pseudo_centroid",
    "RI1": "radius_identities", "MIN1C": "incenter_minimality",
}


def test_center_table_and_coordinate_checks_reach_the_traced_builders(monkeypatch):
    # perfbench counts builder calls by rebinding each builder on
    # `hypertri.centers`; a table that held the builder objects themselves
    # would bypass the rebinding and its per-builder metrics would read 0
    builders = _perfbench_center_builders()
    assert set(_ROW_BUILDER.values()) | set(_ID_BUILDER.values()) == set(builders)
    calls = []
    for name in builders:
        def counting(*args, _name=name, _original=getattr(ct, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(ct, name, counting)

    # acute seed 8: every center is available, H' and Z included
    t = gen_triangle(8, shape="acute")
    assert [row["name"] for row in rg.center_table(rg.TrialContext(8, t))] == list(_ROW_BUILDER)
    for name, builder in _ROW_BUILDER.items():
        calls.clear()
        (row,) = rg.center_table(rg.TrialContext(8, t), which=[name])
        assert "status" not in row and builder in calls, name
    for identity_id, builder in _ID_BUILDER.items():
        calls.clear()
        assert rg.run_identity(identity_id, t, seed=8).status == "pass"
        assert builder in calls, identity_id


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's `reference` and `workloads` modules, imported from its
    directory as its scripts import them, and unloaded afterwards."""
    here = str(ROOT / "perfbench")
    sys.path.insert(0, here)
    try:
        import reference
        import workloads
        yield reference, workloads
    finally:
        sys.path.remove(here)
        for name in ("reference", "workloads", "probe"):
            sys.modules.pop(name, None)


def _sample(w, base, count=40):
    """``count`` seeds spread over the window the reference pins."""
    return range(base, base + w.window, w.window // count)


@pytest.mark.parametrize("base", [1, 1_000_001])
def test_outputs_match_the_benchmark_reference(perfbench, base):
    # the checks a benchmark run makes on every op, on a sample of seeds
    reference, workloads = perfbench
    for name in ("verify-any", "oracle-c3"):
        w = workloads.WORKLOADS[name]
        ref = reference.load(name, base)
        ids = list(w.ids) if w.ids else None
        for seed in _sample(w, base):
            assert reference._verify_row((seed, ids)) == (ref.ids, ref.statuses[seed]), \
                (name, seed)
    w = workloads.WORKLOADS["centers-acute"]
    ref = reference.load(w.name, base)
    for seed in _sample(w, base):
        rows, _ = workloads.centers_op(seed)
        assert not workloads.centers_mismatch(workloads.center_summary(rows),
                                              ref.centers[seed]), seed
