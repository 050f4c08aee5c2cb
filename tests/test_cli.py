import argparse
import json
import math
import os
import signal
import subprocess
import sys
import textwrap

import pytest

import hypertri
from hypertri import cli
from hypertri import registry as rg
from hypertri.cli import main
from hypertri.errors import GeometryError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_no_child():
    """No child process of any kind is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestGen:
    def test_writes_triangle_json(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code, _, _ = run_cli(capsys, "gen", "--seed", "4", "-o", str(out))
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["meta"]["seed"] == 4
        assert len(obj["vertices"]) == 3
        assert obj["model"] == "klein"

    def test_stdout_default(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--seed", "4")
        assert code == 0
        assert json.loads(out)["meta"]["seed"] == 4

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "gen", "--seed", "9")
        _, out2, _ = run_cli(capsys, "gen", "--seed", "9")
        assert out1 == out2


@pytest.fixture
def tri_file(tmp_path, capsys):
    out = tmp_path / "tri.json"
    assert main(["gen", "--seed", "3", "-o", str(out)]) == 0
    capsys.readouterr()
    return str(out)


def _replace(key, value):
    return lambda obj: {**obj, key: value}


def _first_vertex(point):
    return lambda obj: {**obj, "vertices": [point, *obj["vertices"][1:]]}


# three vertices 10**-8.25 inside the unit circle: the sides (19.4) stay
# under MAX_SIDE, but two of the measured angles are 0.0
_ZERO_ANGLE_VERTICES = [{"model": "klein", "coords": [(1 - 10**-8.25) * math.cos(a),
                                                      (1 - 10**-8.25) * math.sin(a)]}
                        for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]

# (edit of a generated triangle file, fragment of the error it must give)
MALFORMED_FILES = {
    "empty-object": (lambda obj: {}, "'vertices'"),
    "list": (lambda obj: [1, 2], "'vertices'"),
    "two-vertices": (lambda obj: {**obj, "vertices": obj["vertices"][:2]}, "exactly three"),
    "vertices-object": (_replace("vertices", {"A": 1}), "exactly three"),
    "vertex-number": (_first_vertex(1), "a point must be a JSON object"),
    "unknown-model": (_first_vertex({"model": "upper", "coords": [0.1, 0.2]}),
                      "unknown point model"),
    "klein-three-coords": (_first_vertex({"model": "klein", "coords": [0.1, 0.2, 0.3]}),
                           "2 finite numbers"),
    "hyperboloid-two-coords": (_first_vertex({"model": "hyperboloid", "coords": [0.0, 1.0]}),
                               "3 finite numbers"),
    "string-coord": (_first_vertex({"model": "klein", "coords": ["0.1", 0.2]}),
                     "2 finite numbers"),
    "nan-coord": (_first_vertex({"model": "poincare", "coords": [float("nan"), 0.2]}),
                  "2 finite numbers"),
    "meta-list": (_replace("meta", []), "'meta'"),
    "seed-string": (_replace("meta", {"seed": "3"}), "'meta.seed'"),
    "seed-bool": (_replace("meta", {"seed": True}), "'meta.seed'"),
    "zero-angles": (_replace("vertices", _ZERO_ANGLE_VERTICES), "outside (0, pi)"),
}
COMMAND_ARGS = {
    "centers": lambda out: [],
    "verify": lambda out: ["-o", out],
    "render": lambda out: ["--model", "klein", "-o", out],
}


@pytest.mark.parametrize("command", COMMAND_ARGS)
@pytest.mark.parametrize("case", MALFORMED_FILES)
def test_malformed_triangle_file_is_usage_error(case, command, tri_file, tmp_path, capsys):
    edit, fragment = MALFORMED_FILES[case]
    with open(tri_file, encoding="utf-8") as fh:
        obj = edit(json.load(fh))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, command, str(bad), *COMMAND_ARGS[command](str(out)))
    assert code == 2
    assert err.startswith("error: ") and fragment in err, err
    assert stdout == ""
    assert not out.exists()


class TestCenters:
    def test_json_output(self, tri_file, capsys):
        code, out, _ = run_cli(capsys, "centers", tri_file)
        assert code == 0
        rows = json.loads(out)
        assert {r["name"] for r in rows} >= {"M", "O", "I", "H"}

    def test_table_output(self, tri_file, capsys):
        code, out, _ = run_cli(capsys, "centers", tri_file, "--table", "--which", "M,O,I")
        assert code == 0
        assert "M" in out and "O" in out and "I" in out

    def test_a_center_at_infinity_has_null_coords(self, horocycle, tmp_path, capsys):
        path = tmp_path / "horocycle.json"
        path.write_text(json.dumps(rg.triangle_json(horocycle)))
        code, out, _ = run_cli(capsys, "centers", str(path), "--json")
        assert code == 0
        o = next(row for row in json.loads(out) if row["name"] == "O")
        assert (o["classification"], o["coords"]) == ("infinite", None)

    @pytest.mark.parametrize("fmt", ["--json", "--table"])
    def test_unknown_center_is_usage_error(self, tri_file, fmt, capsys):
        code, out, err = run_cli(capsys, "centers", tri_file, fmt, "--which", "Q,M")
        assert code == 2
        assert out == ""
        assert err == "error: unknown center 'Q'\n"


class TestVerify:
    def test_single_triangle_pass(self, tri_file, capsys):
        code, out, _ = run_cli(capsys, "verify", tri_file, "--ids", "LS,HER,LC1")
        assert code == 0
        lines = out.strip().splitlines()
        assert json.loads(lines[-1])["total"]["pass"] == 3

    def test_seed_range(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seeds", "1..3", "--ids", "LS,STW")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        seeds = {r["seed"] for r in rows if "seed" in r and "id" in r}
        assert seeds == {1, 2, 3}

    def test_exit_one_on_failure(self, capsys):
        # the printed minimality claim is a documented failure
        code, out, _ = run_cli(capsys, "verify", "--seeds", "1..1", "--ids", "MIN1")
        assert code == 1
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows[0]["status"] == "fail"

    def test_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify")
        assert code == 2
        assert err == "error: verify needs a triangle file or --seeds\n"
        assert out == ""

    def test_file_and_seeds_is_usage_error(self, tri_file, tmp_path, capsys):
        path = tmp_path / "report.jsonl"
        code, out, err = run_cli(capsys, "verify", tri_file, "--seeds", "1..2",
                                 "--ids", "LS", "-o", str(path))
        assert code == 2
        assert err == "error: verify takes a triangle file or --seeds, not both\n"
        assert out == ""
        assert not path.exists()

    def test_unknown_identity_is_usage_error(self, tri_file, capsys):
        code, out, err = run_cli(capsys, "verify", tri_file, "--ids", "BOGUS")
        assert code == 2
        assert err == "error: unknown identity 'BOGUS'\n"
        assert out == ""

    @pytest.mark.parametrize("ids", ["", "LS,", ",LS", "LS,,HER"])
    def test_malformed_ids_is_usage_error(self, ids, tmp_path, capsys):
        path = tmp_path / "report.jsonl"
        code, out, err = run_cli(capsys, "verify", "--seeds", "1..2", "--ids", ids,
                                 "-o", str(path))
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"--ids {ids!r}" in err   # named as given, not run as the full registry
        assert out == ""
        assert not path.exists()

    def test_a_nan_part_fails_the_identity(self, tmp_path, capsys):
        # three of IN1's four parts (the exradii) are NaN on this triangle;
        # the worst part is NaN, so the record fails with no residual
        path = tmp_path / "tri.json"
        path.write_text(json.dumps({"vertices": [
            {"model": "klein", "coords": xy} for xy in (
                [0.6444681574458118, 0.7646311477035188],
                [-0.6995672566720383, 0.7145667578276773],
                [-0.9731091599910312, 0.23034443935452328])]}))
        code, out, _ = run_cli(capsys, "verify", str(path), "--ids", "IN1")
        assert code == 1
        rec = json.loads(out.splitlines()[0])
        assert (rec["id"], rec["status"], rec["residual"], rec["reason"]) == (
            "IN1", "fail", None, "non-finite residual nan")

    @pytest.mark.parametrize("seeds", ["1..x", "1,,2", "a", "5..3", ""])
    def test_malformed_seeds_is_usage_error(self, seeds, tmp_path, capsys):
        path = tmp_path / "report.jsonl"
        code, out, err = run_cli(capsys, "verify", "--seeds", seeds, "--ids", "LS",
                                 "-o", str(path))
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"--seeds {seeds!r}" in err   # named as given, not taken for a missing --seeds
        assert out == ""
        assert not path.exists()

    def test_long_seed_range_costs_no_memory_up_front(self, tmp_path, capsys):
        # MIN1 fails on seed 1, so --fail-fast stops there; a range that held
        # a job per seed would allocate about 240 MB before running it
        import tracemalloc
        path = tmp_path / "report.jsonl"
        argv = ["verify", "--seeds", "1..2000000", "--fail-fast", "--ids", "MIN1",
                "--jobs", "1", "-o", str(path)]
        main(argv[:2] + ["1..1"] + argv[3:])   # first-call caches stay out of the peak
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and peak < 5_000_000
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["seed"] for r in rows if "id" in r] == [1]
        assert rows[-1]["seeds_with_failures"] == [1]

    def test_byte_identical_across_jobs(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--seeds", "1..6", "--ids", "LS,HER,EU0")
        _, out2, _ = run_cli(capsys, "verify", "--seeds", "1..6", "--ids", "LS,HER,EU0",
                             "--jobs", "2")
        assert out1 == out2

    def test_fail_fast_stops_early(self, capsys, monkeypatch):
        calls = []
        run_suite = rg.run_suite

        def counting_run_suite(seed, *args, **kwargs):
            calls.append(seed)
            return run_suite(seed, *args, **kwargs)

        monkeypatch.setattr(rg, "run_suite", counting_run_suite)
        code, out, _ = run_cli(capsys, "verify", "--seeds", "1..5",
                               "--ids", "MIN1", "--fail-fast")
        assert code == 1
        rows = [json.loads(line) for line in out.strip().splitlines()]
        seeds = {r["seed"] for r in rows if "id" in r}
        assert seeds == {1}
        assert calls == [1]

    def test_fail_fast_byte_identical_across_jobs(self, capsys):
        argv = ["verify", "--seeds", "1..5", "--ids", "MIN1", "--fail-fast"]
        code1, out1, _ = run_cli(capsys, *argv)
        for jobs in ("2", "3"):
            code2, out2, _ = run_cli(capsys, *argv, "--jobs", jobs)
            assert (code2, out2) == (code1, out1)
            assert_no_child()

    def test_output_file_matches_stdout(self, tmp_path, capsys):
        argv = ["verify", "--seeds", "1..3", "--ids", "LS,EU0"]
        _, out, _ = run_cli(capsys, *argv)
        path = tmp_path / "report.jsonl"
        run_cli(capsys, *argv, "-o", str(path))
        assert path.read_bytes() == out.encode()

    # the caller runs the last seed's residue class: over seeds 1..5, jobs 2
    # runs 1, 3, 5 in the caller and 2, 4 in its child; jobs 3 runs 2, 5 in
    # the caller, 1, 4 in one child and 3 in the other.  A caller seed is
    # computed while the caller waits on the seed before it, and its error
    # is raised only at its own place
    @pytest.mark.parametrize("jobs, bad", [("1", 3), ("2", 3), ("2", 4), ("3", 5), ("3", 4),
                                           ("3", 2), ("3", 3)],
                             ids=["jobs1", "jobs2-caller", "jobs2-child",
                                  "jobs3-caller", "jobs3-child",
                                  "jobs3-caller-first", "jobs3-other-child"])
    def test_error_mid_run_keeps_earlier_seeds(self, jobs, bad, tmp_path, capsys,
                                               monkeypatch):
        run_suite = rg.run_suite

        def failing_run_suite(seed, *args, **kwargs):
            if seed == bad:
                raise GeometryError(f"no triangle for seed {seed}")
            return run_suite(seed, *args, **kwargs)

        monkeypatch.setattr(rg, "run_suite", failing_run_suite)
        path = tmp_path / "report.jsonl"
        code, _, err = run_cli(capsys, "verify", "--seeds", "1..5", "--ids", "LS",
                               "--jobs", jobs, "-o", str(path))
        assert code == 2 and err == f"error: no triangle for seed {bad}\n"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["summary"]["seed"] for r in rows if "summary" in r] == list(range(1, bad))
        assert not any("total" in r for r in rows)
        assert_no_child()

    def test_caller_error_computed_ahead_waits_for_earlier_seeds(self, tmp_path, capsys,
                                                                 monkeypatch):
        # over seeds 1..6, jobs 2 runs 2, 4, 6 in the caller: it computes seed
        # 4 while it waits on the child's seed 3, but seed 3 is still written
        run_suite = rg.run_suite

        def failing_run_suite(seed, *args, **kwargs):
            if seed == 4:
                raise GeometryError("no triangle for seed 4")
            return run_suite(seed, *args, **kwargs)

        monkeypatch.setattr(rg, "run_suite", failing_run_suite)
        path = tmp_path / "report.jsonl"
        code, _, err = run_cli(capsys, "verify", "--seeds", "1..6", "--ids", "LS",
                               "--jobs", "2", "-o", str(path))
        assert code == 2 and err == "error: no triangle for seed 4\n"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["summary"]["seed"] for r in rows if "summary" in r] == [1, 2, 3]
        assert_no_child()

    def test_children_leave_inherited_buffers_unflushed(self):
        # text the caller printed but did not flush before the command is in
        # each forked child's copy of the stdout buffer; a child that flushed
        # it on its way out would print it again.  The caller's last seed
        # (5) sleeps, so the children reach their exit before they are
        # stopped, and stdout is a pipe without PYTHONUNBUFFERED, so it buffers
        src = os.path.dirname(os.path.dirname(hypertri.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        script = textwrap.dedent("""\
            import sys, time
            from hypertri import cli, registry as rg
            run_suite = rg.run_suite

            def slow_last_seed(seed, *args, **kwargs):
                if seed == 5:
                    time.sleep(0.5)
                return run_suite(seed, *args, **kwargs)

            rg.run_suite = slow_last_seed
            print('before')
            sys.exit(cli.main(['verify', '--seeds', '1..5', '--ids', 'LS,HER',
                               '--jobs', sys.argv[1]]))
        """)
        outs = []
        for jobs in ("1", "3"):
            proc = subprocess.run(
                [sys.executable, "-c", script, jobs],
                env={**env, "PYTHONPATH": path}, capture_output=True, text=True,
                timeout=60)
            assert proc.returncode == 0, proc.stderr[-4000:]
            outs.append(proc.stdout)
        assert outs[1].count("before") == 1
        assert outs[1] == outs[0]

    # over seeds 1..5 a child runs seed 2 at jobs 2 and seed 3 at jobs 3
    @pytest.mark.parametrize("jobs, bad", [("2", 2), ("3", 3)], ids=["2", "3"])
    def test_crashed_child_raises(self, jobs, bad, tmp_path, capsys, monkeypatch):
        # a programming error in a child ends it; the caller raises at that
        # seed instead of waiting on its pipe
        run_suite = rg.run_suite

        def crashing_run_suite(seed, *args, **kwargs):
            if seed == bad:
                raise ValueError("not a geometry error")
            return run_suite(seed, *args, **kwargs)

        def hung(*_):
            pytest.fail("the caller still waits on the dead child's pipe")

        monkeypatch.setattr(rg, "run_suite", crashing_run_suite)
        path = tmp_path / "report.jsonl"
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(RuntimeError, match=f"seed {bad}"):
                main(["verify", "--seeds", "1..5", "--ids", "LS", "--jobs", jobs,
                      "-o", str(path)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["summary"]["seed"] for r in rows if "summary" in r] == list(range(1, bad))
        assert_no_child()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_usage_error(self, jobs, tmp_path, capsys):
        path = tmp_path / "report.jsonl"
        code, out, err = run_cli(capsys, "verify", "--seeds", "1..2", "--ids", "LS",
                                 "--jobs", jobs, "-o", str(path))
        assert code == 2
        assert err.startswith("error: ") and "--jobs" in err
        assert out == ""
        assert not path.exists()

    @pytest.mark.parametrize("seeds, jobs, started", [("1..2", "5", 1), ("1..1", "4", 0),
                                                      ("1..3", "2", 1)])
    def test_children_capped_by_seed_count(self, seeds, jobs, started, capsys,
                                           monkeypatch):
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        code, _, _ = run_cli(capsys, "verify", "--seeds", seeds, "--ids", "LS",
                             "--jobs", jobs)
        assert code == 0
        assert len(forks) == started

    def test_import_leaves_out_multiprocessing(self):
        # `verify --jobs N` forks its children itself, so no command loads
        # `multiprocessing`; only N > 1 with more than one seed loads `pickle`
        # and `signal`, and neither the import nor a `--jobs 1` run does.  Nor
        # do they load `render` (only `hypertri render` draws) or
        # `dataclasses` and the `inspect` it imports (every record is a named
        # tuple)
        src = os.path.dirname(os.path.dirname(hypertri.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import os, sys; from hypertri import cli; "
             "names = {'multiprocessing', 'pickle', 'signal', 'dataclasses', 'inspect', "
             "'hypertri.render'}; "
             "cli.main(['verify', '--seeds', '1..3', '--ids', 'LS', '--jobs', '1', "
             "'-o', os.devnull]); print(sorted(names & set(sys.modules))); "
             "cli.main(['verify', '--seeds', '1..3', '--ids', 'LS', '--jobs', '2', "
             "'-o', os.devnull]); print(sorted({'multiprocessing'} & set(sys.modules)))"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == 0, proc.stderr[-4000:]
        assert proc.stdout == "[]\n[]\n"


class TestRender:
    def test_klein_and_poincare(self, tri_file, tmp_path, capsys):
        for model in ("klein", "poincare"):
            out = tmp_path / f"fig-{model}.svg"
            code, _, _ = run_cli(capsys, "render", tri_file, "--model", model,
                                 "-o", str(out))
            assert code == 0
            text = out.read_text()
            assert text.startswith("<svg") and "</svg>" in text
            assert "circle" in text

    def test_unknown_center_is_usage_error(self, tri_file, tmp_path, capsys):
        out = tmp_path / "fig.svg"
        code, _, err = run_cli(capsys, "render", tri_file, "--model", "klein",
                               "--centers", "Q", "-o", str(out))
        assert code == 2
        assert err == "error: unknown center 'Q'\n"
        assert not out.exists()

    def test_unwritable_output_is_usage_error(self, tri_file, tmp_path, capsys):
        out = tmp_path / "missing" / "x.svg"
        code, _, err = run_cli(capsys, "render", tri_file, "--model", "klein", "-o", str(out))
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    def test_byte_identical(self, tri_file, tmp_path, capsys):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        for path in (a, b):
            run_cli(capsys, "render", tri_file, "--model", "klein",
                    "--centers", "M,O,I,H", "--euler-line", "-o", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_euler_line_on_an_equilateral_triangle(self, tmp_path, capsys):
        # O and Z coincide, so no Euler line is drawn and the command succeeds
        tri, out = tmp_path / "eq.json", tmp_path / "fig.svg"
        assert main(["gen", "--seed", "1", "--shape", "equilateral", "-o", str(tri)]) == 0
        code, _, err = run_cli(capsys, "render", str(tri), "--model", "klein",
                               "--euler-line", "-o", str(out))
        assert (code, err) == (0, "")
        assert "stroke-dasharray" not in out.read_text()

    def test_right_triangle_orthocenter_marker_at_the_vertex(self, tmp_path, capsys):
        # construct the right isosceles triangle directly
        tri = tmp_path / "t0.json"
        tri.write_text(json.dumps({
            "vertices": [
                {"model": "klein", "coords": [0.0, 0.0]},
                {"model": "klein", "coords": [0.5, 0.0]},
                {"model": "klein", "coords": [0.0, 0.5]},
            ],
            "model": "klein", "meta": {"seed": 0},
        }))
        out = tmp_path / "fig.svg"
        code, _, _ = run_cli(capsys, "render", str(tri), "--model", "klein",
                             "--centers", "O,I,M,H", "-o", str(out))
        assert code == 0
        text = out.read_text()
        assert text.count("<circle") >= 8  # boundary + 3 vertices + 4 centers


# `tables --case all --d 0.4`: nine segment cells, then nine angle cells
ALL_CASES_D04 = """\
RR        d=0.4   AB = 0.4, BA = -0.4 + (pi)i
RIn               AB = inf, BA = -inf
RId       d=0.4   AB = 0.4 + (pi/2)i, BA = -0.4 + (pi/2)i
InIn              AB = inf, BA = -inf
InId              AB = inf, BA = -inf
IdId      d=0.4   AB = 0.4 + (pi)i, BA = -0.4
InIn@inf          AB = 0, BA = 0 + (pi)i
InId@inf          AB = 0 + (pi/2)i, BA = 0 + (pi/2)i
IdId@inf          AB = 0, BA = 0 + (pi)i
aRR-R     d=0.4    angles = (0.4, 2.74159)
aRR-In             angles = (0, 3.14159)
aRR-Id    d=0.4    angles = (0 + 0.4/i, 3.14159 - 0.4/i)
aRIn-In            angles = (1.5708, 1.5708)
aRIn-Id            angles = (inf, -inf)
aRId      d=0.4    angles = (1.5708 + 0.4/i, 1.5708 - 0.4/i)
aInIn              angles = (inf, -inf)
aInId              angles = (inf, -inf)
aIdId     d=0.4    angles = (0 + 0.4/i, 3.14159 - 0.4/i)
"""


class TestTables:
    def test_real_ideal_case(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--case", "RId", "--d", "0.3")
        assert code == 0
        assert "0.3 + (pi/2)i" in out and "-0.3 + (pi/2)i" in out

    def test_all_cases(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--case", "all", "--d", "0.4")
        assert code == 0
        assert out == ALL_CASES_D04

    def test_unknown_case(self, capsys):
        code, out, err = run_cli(capsys, "tables", "--case", "XX")
        assert code == 2
        assert err == "error: unknown case 'XX'\n"
        assert out == ""

    @pytest.mark.parametrize("case", ["RR", "aRR-R", "all"])
    @pytest.mark.parametrize("d", ["nan", "inf", "-inf"])
    def test_non_finite_d_is_usage_error(self, d, case, capsys):
        code, out, err = run_cli(capsys, "tables", "--case", case, f"--d={d}")
        assert code == 2
        assert err == f"error: --d must be a finite distance, got {float(d)}\n"
        assert out == ""

    @pytest.mark.parametrize("argv", [["--d", "0"], ["--d", "2", "--case", "aRR-R"],
                                      ["--d", "1e308", "--case", "aRR-R"]])
    def test_d_outside_the_angle_catalogue_is_usage_error(self, argv, capsys):
        # the angle cells that take d hold for 0 < d < pi/2 only
        code, out, err = run_cli(capsys, "tables", *argv)
        assert code == 2
        assert err == f"error: --d must lie in (0, pi/2) for angle case aRR-R, got {float(argv[1])}\n"
        assert out == ""

    def test_segment_and_fixed_angle_cases_take_any_d(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--d", "2", "--case", "RR")
        assert (code, out) == (0, "RR        d=2     AB = 2, BA = -2 + (pi)i\n")
        code, out, _ = run_cli(capsys, "tables", "--d", "0", "--case", "aRR-In")
        assert (code, out) == (0, "aRR-In             angles = (0, 3.14159)\n")

    def test_negative_d_is_usage_error_for_segment_cells_that_take_it(self, capsys):
        for case in ("RR", "RId", "IdId"):
            assert run_cli(capsys, "tables", "--case", case, "--d", "-1") == (
                2, "", "error: auxiliary distance d must be >= 0\n")
        # RIn and InId have the same lengths at every d, so any d prints them
        for case in ("RIn", "InId"):
            assert run_cli(capsys, "tables", "--case", case, "--d", "-1") == (
                0, f"{case:17s} AB = inf, BA = -inf\n", "")

    def test_default_d_prints_every_cell(self, capsys):
        code, out, _ = run_cli(capsys, "tables")
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == [
            *rg.SEGMENT_CASES, *rg.ANGLE_CASES]


def _help(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestSharedParser:
    """`main` builds its parser on the first call and reuses it."""

    def test_built_once_over_many_calls(self, capsys, monkeypatch):
        builds = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def counting(parser, **kwargs):
            builds.append(parser)
            return add_subparsers(parser, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
        cli.build_parser.cache_clear()
        for argv in (["gen", "--seed", "4"], ["tables", "--case", "RId"],
                     ["verify", "--seeds", "1..1", "--ids", "LS"], ["verify"]):
            main(argv)
        capsys.readouterr()
        assert len(builds) == 1

    def test_import_builds_no_parser(self):
        src = os.path.dirname(os.path.dirname(hypertri.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import hypertri.cli; print(hypertri.cli.build_parser.cache_info().misses)"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == 0, proc.stderr[-4000:]
        assert proc.stdout == "0\n"

    @pytest.mark.parametrize("bad", [["verify", "--bogus"], ["verify", "--jobs", "x"],
                                     ["gen"], ["tables", "--d", "x"], ["nope"]])
    def test_argparse_exit_leaves_next_call_unchanged(self, bad, capsys):
        argv = ["verify", "--seeds", "1..2", "--ids", "LS,HER"]
        before = run_cli(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: hypertri")
        assert run_cli(capsys, *argv) == before

    def test_help_wraps_to_columns_at_call_time(self, capsys, monkeypatch):
        cli.build_parser.cache_clear()
        monkeypatch.setenv("COLUMNS", "200")
        wide = _help(capsys, "verify")
        monkeypatch.setenv("COLUMNS", "40")
        narrow = _help(capsys, "verify")
        cli.build_parser.cache_clear()
        assert _help(capsys, "verify") == narrow != wide
