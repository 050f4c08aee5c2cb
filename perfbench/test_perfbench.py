"""Tests of the benchmark's own machinery.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import os
import sys
import tempfile
import unittest
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import compare   # noqa: E402
import tracer    # noqa: E402
import workloads as wl   # noqa: E402


def synthetic(spans):
    """A Tracer filled from (name, parent, op, start, end, error) tuples."""
    tr = tracer.Tracer()
    for name, parent, op, start, end, err in spans:
        tr.name.append(tr._id(name))
        tr.parent.append(parent)
        tr.op.append(op)
        tr.start.append(start)
        tr.end.append(end)
        tr.err.append(tr._id(err) if err else 0)
    return tr


# root [0,10] has children a [1,4] and b [5,9]; a has child c [2,3];
# b has two vertex_angle children, one of them under a nested d.
TREE = [
    ("centers.pseudo_orthocenter", -1, 7, 0.0, 10.0, None),   # 0
    ("plane.normalize", 0, 7, 1.0, 4.0, None),                # 1
    ("plane.mdot_like", 1, 7, 2.0, 3.0, None),                # 2
    ("centers.other", 0, 7, 5.0, 9.0, "NoRootFound"),         # 3
    ("plane.vertex_angle", 3, 7, 5.5, 6.0, None),             # 4
    ("plane.vertex_angle", 3, 7, 6.5, 7.0, None),             # 5
    ("plane.vertex_angle", -1, 8, 11.0, 12.0, None),          # 6: outside the root
]


class SelfTimeTests(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        tr = synthetic(TREE)
        own = tracer.self_times(tr.parent, tr.start, tr.end)
        self.assertEqual(own, [10 - 3 - 4, 3 - 1, 1, 4 - 0.5 - 0.5, 0.5, 0.5, 1])

    def test_self_times_sum_to_root_durations(self):
        tr = synthetic(TREE)
        own = tracer.self_times(tr.parent, tr.start, tr.end)
        roots = sum(e - s for p, s, e in zip(tr.parent, tr.start, tr.end) if p < 0)
        self.assertAlmostEqual(sum(own), roots)

    def test_aggregate_counts_nesting_errors_and_ops(self):
        tr = synthetic(TREE)
        agg = tracer.aggregate(tr, {"plane.vertex_angle": "centers.pseudo_orthocenter"})
        self.assertEqual(agg["calls"]["plane.vertex_angle"], 3)
        self.assertEqual(agg["nested"]["plane.vertex_angle"], 2)
        self.assertEqual(agg["errors"], {"centers.other": {"NoRootFound": 1}})
        self.assertEqual(agg["ops"], 2)
        self.assertAlmostEqual(agg["self"]["plane.normalize"], 2.0)
        self.assertAlmostEqual(agg["incl"]["centers.pseudo_orthocenter"], 10.0)

    def test_spans_round_trip_through_the_written_file(self):
        import gzip
        import json
        tr = synthetic(TREE)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "spans.bin.gz")
            tr.write(path)
            with gzip.open(path, "rb") as fh:
                header = json.loads(fh.readline())
                starts = None
                for field, code in header["fields"]:
                    a = array(code)
                    a.frombytes(fh.read(a.itemsize * header["count"]))
                    if field == "start":
                        starts = a
        self.assertEqual(header["count"], len(TREE))
        self.assertEqual(list(starts), [s[3] for s in TREE])


class WrapperTests(unittest.TestCase):
    def snapshot(self):
        import hypertri.cli  # noqa: F401  (loads every traced module)
        return {name: dict(vars(mod)) for name, mod in sys.modules.items()
                if mod is not None and name.startswith("hypertri")}

    def test_wrappers_cover_direct_imports_and_are_restored(self):
        from hypertri import centers, plane, trig
        before = self.snapshot()
        side_line = trig.TriangleData.side_line
        tr = tracer.Tracer()
        with tr.installed():
            self.assertTrue(hasattr(plane.normalize, tracer.MARK))
            self.assertTrue(hasattr(centers.normalize, tracer.MARK))   # from .plane import
            self.assertTrue(hasattr(trig.TriangleData.side_line, tracer.MARK))
            self.assertFalse(hasattr(plane.mdot, tracer.MARK))
        self.assertEqual(tracer.wrapped_bindings(), [])
        self.assertIs(trig.TriangleData.side_line, side_line)
        after = self.snapshot()
        for name, attrs in before.items():
            for attr, val in attrs.items():
                self.assertIs(after[name][attr], val, f"{name}.{attr}")

    def test_wrappers_are_restored_when_the_run_raises(self):
        tr = tracer.Tracer()
        with self.assertRaises(ZeroDivisionError):
            with tr.installed():
                1 / 0
        self.assertEqual(tracer.wrapped_bindings(), [])

    def test_traced_verify_writes_the_same_report_and_tags_ops(self):
        from hypertri import cli
        with tempfile.TemporaryDirectory() as d:
            plain, traced = os.path.join(d, "a.jsonl"), os.path.join(d, "b.jsonl")
            argv = ["verify", "--seeds", "3..4", "--ids", "CE1,EU1,MIN1C", "-o"]
            rc_plain = cli.main(argv + [plain])
            tr = tracer.Tracer()
            with tr.installed():
                rc_traced = cli.main(argv + [traced])
            with open(plain, "rb") as fa, open(traced, "rb") as fb:
                self.assertEqual(fa.read(), fb.read())
        self.assertEqual(rc_plain, rc_traced)
        agg = tracer.aggregate(tr, {})
        self.assertEqual(agg["ops"], 2)
        self.assertEqual(agg["calls"]["registry.EU1"], 2)
        self.assertEqual(agg["calls"]["cli.main"], 1)
        self.assertEqual({tr.op[i] for i, nid in enumerate(tr.name)
                          if tr.names[nid] == "registry.run_suite"}, {3, 4})


class SeedPlanTests(unittest.TestCase):
    def test_same_seed_same_inputs_and_window_wrap(self):
        w = wl.WORKLOADS["verify-any"]
        a = wl.seed_blocks(w, 1, 5, 3 * w.window)
        self.assertEqual(a, wl.seed_blocks(w, 1, 5, 3 * w.window))
        flat = [s for b in a for s in b]
        self.assertEqual(min(flat), 1)
        self.assertEqual(max(flat), w.window)
        self.assertTrue(all(b[-1] - b[0] == w.block - 1 for b in a))
        self.assertNotEqual(a[0], wl.seed_blocks(w, 1, 6, w.block)[0])

    def test_verify_argv_uses_a_range_or_a_comma_list(self):
        w = wl.WORKLOADS["oracle-c3"]
        self.assertEqual(wl.verify_argv(w, [5, 6, 7], "r")[:3], ["verify", "--seeds", "5..7"])
        self.assertEqual(wl.verify_argv(w, [9, 10, 1], "r")[2], "9,10,1")
        self.assertEqual(wl.verify_argv(w, [4], "r")[2], "4")

    def test_run_size_depends_on_seconds_only(self):
        w = wl.WORKLOADS["oracle-c3"]
        self.assertEqual(w.ops_for(10) % w.block, 0)
        self.assertEqual(w.ops_for(0.001), w.block)


class CompareRuleTests(unittest.TestCase):
    def test_improved_needs_nine_in_ten_wins_and_gap_beyond_iqr(self):
        parent = [100.0 + i * 0.1 for i in range(10)]
        change = [110.0 + i * 0.1 for i in range(10)]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1)["verdict"], "improved")
        mixed = change[:8] + [99.0, 99.5]
        self.assertNotEqual(compare.verdict(parent, mixed, "higher", 0.1)["verdict"],
                            "improved")

    def test_regressed_beyond_bound_and_unresolved_when_noisy(self):
        parent = [100.0 + i for i in range(10)]
        self.assertEqual(compare.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1)
                         ["verdict"], "regressed")
        noisy = [60.0, 140.0] * 5
        self.assertEqual(compare.verdict(noisy, noisy[::-1], "lower", 0.1)["verdict"],
                         "unresolved")
        self.assertEqual(compare.verdict(parent, parent, "lower", 0.1)["verdict"],
                         "within bound")


if __name__ == "__main__":
    unittest.main()
