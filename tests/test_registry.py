import gc
import json
import math
import os
import random
import re
import subprocess
import sys
import weakref
import zlib
from pathlib import Path

import pytest

from hypertri import centers as ct
from hypertri import cli, plane, trig
from hypertri import registry as rg
from hypertri.errors import (
    CevianParallel,
    ConjugateAtInfinity,
    DegenerateTriangle,
    GeometryError,
    IdenticalPoints,
    OverflowRisk,
    UnknownIdentity,
)
from hypertri.extscalar import PointKind
from hypertri.generate import gen_triangle

from criterion3 import C3_IDS

# the registry must cover exactly this catalogue (one code per closed-form
# statement in scope, plus the corrected companion of the known-bad one)
EXPECTED_IDS = [
    "LS", "LC1", "LC2", "AR1", "AR2", "HER",
    "LQ1", "LQ2", "LQ3", "LQ4", "LQ5", "LQ6", "LQ7",
    "ST1", "ST2", "ST3", "ST4",
    "AS1", "AS2", "AS3", "AS4", "AS5", "AS6", "AS7",
    "CE1", "CE2", "CE3", "CE4", "CE5",
    "CR1", "CR2", "CR3",
    "IN1", "IN2", "IN3", "IN4", "IN5", "IN6", "IN7",
    "RI1", "RI2", "RI3", "RI4", "RI5", "RI6",
    "OI1",
    "OR1", "OR2", "OR3", "OR4", "OR5", "OR6",
    "STW", "STW-EU", "ORP",
    "IS1", "IS2", "IS3", "IS4",
    "MIN1", "MIN1C",
    "SY1", "SY2", "LE1", "LE2",
    "PM1", "PM2", "CG1", "CG2", "CG3", "PMF",
    "EU1", "EU0",
    "TBL1", "TBL2", "TBL3", "FIG2",
]

DECLARED_SKIP_FRAGMENTS = (
    "orthocenter is not a real point",
    "pseudoaltitude foot leaves the open side",
    "excenter",
    "circumcenter at infinity",
    "circumcenter not real",
    "altitude chain",
    "conjugate of an exterior orthocenter",
    "chords not pairwise ultraparallel",
    "auxiliary random line degenerated",
    "orthocenter on a vertex",
)


class TestCatalogue:
    def test_registry_is_exactly_the_catalogue(self):
        assert sorted(rg.ALL_IDS) == sorted(EXPECTED_IDS)

    def test_each_id_maps_to_one_routine(self):
        seen = set()
        for d in rg.REGISTRY.values():
            assert d.evaluator not in seen
            seen.add(d.evaluator)

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentity):
            rg.run_identity("NOPE", gen_triangle(1))

    def test_expected_failures_are_exactly_the_printed_minimality_claim(self):
        assert rg.EXPECTED_FAILURES == ("MIN1",)

    def test_segment_pairs_realize_their_cells(self):
        # a cell's name spells its point kinds and, with "@inf", the line at
        # infinity as carrier.  InIn and InId tabulate the same lengths on a
        # real line, so TBL1 alone would not notice a pair of the wrong kinds
        kinds = {"R": PointKind.REAL, "In": PointKind.INFINITE, "Id": PointKind.IDEAL}
        for name, (line, points, _expected) in rg.SEGMENT_CASES.items():
            assert line == ("infinity" if name.endswith("@inf") else "real"), name
            if points is None:
                assert name == "InIn@inf"
                continue
            ka, kb = (kinds[k] for k in re.findall("R|In|Id", name.removesuffix("@inf")))
            for d in (0.2, 0.9, 1.5):
                p, q = points(d)
                assert (plane.classify(p), plane.classify(q)) == (ka, kb), name
                carrier = plane.classify_line(plane.join(p, q))
                assert carrier is {"real": plane.LineKind.REAL,
                                   "infinity": plane.LineKind.AT_INFINITY}[line], name


class TestSuite:
    def test_single_identities(self):
        t = gen_triangle(1, shape="equilateral")
        rec = rg.run_identity("HER", t, seed=1)
        assert rec.status == "pass" and rec.residual < 1e-12
        rec = rg.run_identity("OI1", t, seed=1)
        assert rec.status == "pass" and rec.residual < 1e-9

    def test_euler_identity_on_a_pseudoacute_seed(self):
        import math
        seed = next(
            s for s in range(1, 200)
            if (lambda t: max(t.alpha, t.beta, t.gamma) < math.pi / 2 - t.delta / 2)(
                gen_triangle(s, shape="scalene"))
        )
        t = gen_triangle(seed, shape="scalene")
        rec = rg.run_identity("EU1", t, seed=seed)
        assert rec.status == "pass"

    @pytest.mark.parametrize("identity_id", ["ST4", "AR2"])
    def test_side_solved_triangle_evaluates(self, identity_id):
        # the context's triangle carries the vertices its frame attached
        rec = rg.run_identity(identity_id, trig.solve_from_sides(1.0, 1.2, 0.9))
        assert rec.status == "pass"

    def test_an_evaluator_error_is_a_failed_record(self, monkeypatch, tmp_path):
        def raises(c):
            raise DegenerateTriangle("the probe cannot be built")

        def skips(c):
            raise rg._Skip("declared non-configuration")

        monkeypatch.setitem(rg.REGISTRY, "XERR", rg.IdentityDef("XERR", "raises", raises))
        monkeypatch.setitem(rg.REGISTRY, "XSKIP", rg.IdentityDef("XSKIP", "skips", skips))
        rec = rg.run_identity("XERR", gen_triangle(1), seed=1)
        assert rec == ("XERR", "raises", None, "fail", 1e-9,
                       "DegenerateTriangle: the probe cannot be built")
        assert rg.run_identity("XSKIP", gen_triangle(1), seed=1).status == "skipped"
        out = tmp_path / "report.jsonl"
        assert cli.main(["verify", "--seeds", "1..2", "--ids", "XERR,XSKIP,LS",
                         "-o", str(out)]) == 1
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["id"], r["status"]) for r in rows if r.get("seed") == 2] == [
            ("XERR", "fail"), ("XSKIP", "skipped"), ("LS", "pass")]
        assert rows[0]["residual"] is None
        assert rows[0]["reason"] == "DegenerateTriangle: the probe cannot be built"

    def test_stewart_euclidean_limit_is_computed_once(self, monkeypatch):
        first = rg.run_identity("STW-EU", gen_triangle(1), seed=1)
        monkeypatch.setattr(rg, "cosh", None)   # a second computation would raise
        assert rg.run_identity("STW-EU", gen_triangle(2), seed=2) == first

    def test_suite_statuses(self):
        rep = rg.run_suite(7)
        summary = rep.summary()
        assert summary["pass"] + summary["fail"] + summary["skipped"] == len(rg.ALL_IDS)
        assert summary["failed_ids"] == ["MIN1"]
        for rec in rep.records:
            if rec.status == "skipped":
                assert rec.reason is not None
                assert any(frag in rec.reason for frag in DECLARED_SKIP_FRAGMENTS), rec.reason
            elif rec.status == "pass":
                assert rec.residual < rec.tolerance

    def test_center_table_names(self):
        rep = rg.run_suite(7, include_centers=True)
        names = [row["name"] for row in rep.centers]
        assert names == ["M", "O", "O_A", "O_B", "O_C", "I", "I_A", "I_B", "I_C",
                         "H", "H'", "M'", "L", "S", "Z", "F"]

    def test_report_is_deterministic(self):
        a = rg.run_suite(11).to_jsonl()
        b = rg.run_suite(11).to_jsonl()
        assert a == b

    def test_report_lines_parse(self):
        rep = rg.run_suite(5)
        lines = rep.to_jsonl().splitlines()
        rows = [json.loads(line) for line in lines]
        assert "summary" in rows[-1]
        assert all("id" in r for r in rows[:-1])

    def test_subset_matches_full_run_values(self):
        # per-identity random streams: an identity's residual must not depend
        # on which other identities run
        full = {r.id: r.residual for r in rg.run_suite(9).records}
        sub = {r.id: r.residual for r in rg.run_suite(9, ids=["LS", "STW", "IS4"]).records}
        for key, val in sub.items():
            assert val == full[key]

    def test_identity_order_does_not_change_records(self):
        ids = ["LS", "OR4", "CE1", "IS4", "STW", "SY1", "TBL1", "CE4"]
        for seed in (2, 9):
            forward = rg.run_suite(seed, ids=ids, include_centers=False)
            backward = rg.run_suite(seed, ids=ids[::-1], include_centers=False)
            assert forward.records == backward.records[::-1]

    @pytest.mark.parametrize("ids", [None, list(C3_IDS)], ids=["all", "criterion-3"])
    def test_suite_runs_each_identity_through_the_module_global(self, monkeypatch, ids):
        # perfbench's tracer times each identity by binding a wrapper to
        # `registry.run_identity`; the suite must call it once per id
        calls = []
        original = rg.run_identity

        def counting(identity_id, *args, **kwargs):
            calls.append(identity_id)
            return original(identity_id, *args, **kwargs)

        monkeypatch.setattr(rg, "run_identity", counting)
        seed = 6
        rep = rg.run_suite(seed, ids=ids)
        want = rg.ALL_IDS if ids is None else ids
        assert calls == want
        t = gen_triangle(seed)
        assert rep.records == tuple(original(identity_id, t, seed) for identity_id in want)
        assert all(r.__class__ is rg.IdentityRecord and len(r) == 6 for r in rep.records)
        with pytest.raises(UnknownIdentity):
            rg.run_suite(seed, ids=[*want[:2], "BOGUS"])

    def test_random_streams_are_built_only_when_drawn(self, monkeypatch):
        # criterion 3 draws from the streams of OR4 and IS4 and from the
        # shared interior point; an id that draws nothing builds none, and
        # the triangle's Mersenne Twister is the one `random.Random`
        built, twisters = [], []

        class CountingStream(rg._Stream):
            __slots__ = ()

            def __init__(self, seed, tag):
                built.append((seed, tag))
                super().__init__(seed, tag)

        class CountingRandom(random.Random):
            def __init__(self, *args):
                twisters.append(args)
                super().__init__(*args)

        monkeypatch.setattr(rg, "_Stream", CountingStream)
        monkeypatch.setattr(random, "Random", CountingRandom)
        for seed in range(1, 41):
            built.clear()
            rg.run_suite(seed, ids=list(C3_IDS), include_centers=False)
            assert 1 <= len(built) <= 3 and {s for s, _ in built} == {seed}
            built.clear()
            rg.run_suite(seed, ids=["CE1", "LS", "IN1"], include_centers=False)
            assert built == []
        for seed in (1, 2):
            twisters.clear()
            rg.run_suite(seed)
            assert twisters == [(seed,)]

    @pytest.mark.parametrize("seed", [3, 7])
    def test_each_center_is_built_once_per_trial(self, seed, monkeypatch):
        # only circumcenters uses the complementary bisectors (two per
        # build), so two calls mean the four circumcenters were built once
        calls = []
        original = plane.complementary_bisector

        def counting(p, q):
            calls.append((p, q))
            return original(p, q)

        monkeypatch.setattr(plane, "complementary_bisector", counting)
        rep = rg.run_suite(seed, include_centers=True)
        assert len(calls) == 2
        # the cached objects give the same table as a fresh context
        fresh = rg.TrialContext(seed=seed, t=gen_triangle(seed))
        assert list(rep.centers) == rg.center_table(fresh)

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_cevian_checks_share_the_side_objects_and_the_interior_ratios(self, seed,
                                                                          monkeypatch):
        # ST4 and IS1 read the random interior's three section ratios from
        # the context, so `cevian_ratio` runs three times for it and three
        # for its conjugate; every side's join is built once, by the
        # triangle, and its start tangent once, by the solve's kernel
        # (`plane.segment`, three calls a solve), and `lines`, the frame and
        # every `cevian_ratio` call read them; `tangent_toward` runs on no
        # vertex pair
        names = ("cevian_ratio", "join", "segment", "solve_from_vertices", "defect")
        calls = {name: [] for name in (*names, "tangent_toward")}

        def counting(name, original):
            def call(*args):
                calls[name].append(args)
                return original(*args)
            return call

        for name in names:
            monkeypatch.setattr(trig, name, counting(name, getattr(trig, name)))
        toward = counting("tangent_toward", plane.tangent_toward)
        for module in (plane, ct):
            monkeypatch.setattr(module, "tangent_toward", toward)
        t = gen_triangle(seed)
        vs = t.vertices
        side_pairs = [(vs[j], vs[k]) for j, k in trig.SIDE_ENDS]
        assert len(calls["segment"]) == 3 * len(calls["solve_from_vertices"])
        assert calls["segment"][-3:] == side_pairs
        assert "side_tangents" in vars(t)
        del calls["segment"][:]
        ctx = rg.TrialContext(seed=seed, t=t)
        records = [rg.run_identity(identity_id, ctx) for identity_id in rg.ALL_IDS]
        checked = [r for r in records if r.id in ("ST4", "IS1")]
        assert [r.status for r in checked] == ["pass", "pass"]
        assert len(calls["cevian_ratio"]) == 6
        # after the solve, the kernel runs only for the sub-triangles of PM1
        assert len(calls["segment"]) == 3 * len(calls["defect"])
        assert [(p, q) for p, q in calls["join"] if p in vs and q in vs] == side_pairs
        assert [(p, q) for p, q in calls["tangent_toward"] if p in vs and q in vs] == []
        assert ctx.side_tangents is t.side_tangents
        # a second run reads the stored interior ratios; IS1 builds its
        # conjugate's again
        assert [rg.run_identity(r.id, ctx) for r in checked] == checked
        assert len(calls["cevian_ratio"]) == 9

    @pytest.mark.parametrize("seed", [5, 8, 21])
    def test_orthocenter_checks_share_h_distances(self, seed, monkeypatch):
        # the orthocenter builder measures HA and HF_0 for its common value;
        # OR1, OR2 and OR6 read H's six distances, to the vertices and to the
        # altitude feet, from one `orthocenter_distances` build
        ctx = rg.TrialContext(seed=seed, t=gen_triangle(seed, shape="acute"))
        h = ct.orthocenter(ctx).point
        measured = []
        for module in (ct, rg):
            def counting(p, q, original=getattr(module, "distance")):
                if p is h:
                    measured.append(q)
                return original(p, q)
            monkeypatch.setattr(module, "distance", counting)
        records = [rg.run_identity(identity_id, ctx) for identity_id in ("OR1", "OR2", "OR6")]
        assert [r.status for r in records] == ["pass", "pass", "pass"]
        assert measured == [*ctx.vertices, *ctx.altitude_feet]

    def test_isogonal_conjugates_read_the_frames_unit_bisectors(self, monkeypatch):
        # the frame takes the unit forms of bisectors 0 and 1 once; M', H'
        # and the random interior's conjugate reflect in them
        ctx = rg.TrialContext(seed=8, t=gen_triangle(8, shape="acute"))
        assert ctx.unit_bisectors == tuple(
            plane.normalize_line(l) for l in ctx.internal_bisectors[:2])
        calls = []

        def counting(l):
            calls.append(l)
            return plane.normalize_line(l)

        monkeypatch.setattr(ct, "normalize_line", counting)
        for build in (ct.symmedian_point, ct.orthocenter_conjugate):
            assert build(ctx).classification is PointKind.REAL
        assert ctx.random_conjugate is not None
        assert calls == []

    def test_triangle_json_round_trip(self):
        t = gen_triangle(13)
        obj = rg.triangle_json(t, 13)
        back = rg.triangle_from_json(json.loads(json.dumps(obj)))
        assert back.a == pytest.approx(t.a, rel=1e-12)
        assert back.alpha == pytest.approx(t.alpha, rel=1e-10)


# -- the per-identity random streams --------------------------------------------
#
# An identity that draws reads a SplitMix64 `_Stream` keyed by the trial seed
# and its tag; the tag's key is a CRC-32, so the draws cannot depend on the
# process's string-hash salt.

def _drawing_tags(monkeypatch) -> list[str]:
    """The tags of every stream that a full suite reads, over a few seeds:
    the ids that draw, plus the shared interior point and Lambert legs."""
    tags = set()

    class CountingStream(rg._Stream):
        __slots__ = ()

        def __init__(self, seed, tag):
            tags.add(tag)
            super().__init__(seed, tag)

    with monkeypatch.context() as m:
        m.setattr(rg, "_Stream", CountingStream)
        for seed in range(1, 11):
            rg.run_suite(seed, include_centers=False)
    assert {"interior", "lambert", "OR4", "STW", "TBL1"} <= tags
    return sorted(tags)


def _draws(seed, tag, n=64) -> list[float]:
    stream = rg._Stream(seed, tag)
    return [stream.random() for _ in range(n)]


def test_stream_draws_are_the_same_under_any_string_hash_salt():
    keys = [(1, "OR4"), (2, "interior"), (1000001, "TBL3"), (0, ""), (-7, "lambert")]
    code = ("from hypertri import registry as rg; "
            f"print([[s.random() for s in [rg._Stream(*k)] for _ in range(8)] for k in {keys!r}])")
    path = os.pathsep.join(filter(None, (str(Path(rg.__file__).parent.parent),
                                         os.environ.get("PYTHONPATH"))))
    want = repr([_draws(*key, n=8) for key in keys])
    for salt in ("0", "1", "4242"):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": salt},
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == want, salt


def test_stream_draws_lie_in_the_unit_interval_on_the_53_bit_grid(monkeypatch):
    for tag in _drawing_tags(monkeypatch):
        for seed in range(1, 201):
            for v in _draws(seed, tag):
                assert 0.0 <= v < 1.0 and (v * 2.0 ** 53).is_integer(), (seed, tag, v)


def test_neighbouring_streams_share_no_draw(monkeypatch):
    # the start state is the finalizer of seed and tag key, so the stream of
    # seed s + 1 is not the stream of seed s shifted by one step
    tags = _drawing_tags(monkeypatch)
    previous = {tag: set(_draws(1, tag)) for tag in tags}
    for seed in range(1, 1001):
        current = {tag: set(_draws(seed + 1, tag)) for tag in tags}
        for tag in tags:
            assert not previous[tag] & current[tag], (seed, tag)
        assert len(set().union(*previous.values())) == 64 * len(tags), seed
        previous = current


def test_the_registry_tags_are_keyed_once_at_import(monkeypatch):
    # a stream for any tag the registry draws under takes its key from the
    # table made at import; any other tag is keyed on the spot, and the
    # table does not grow
    calls = []
    crc32 = zlib.crc32
    monkeypatch.setattr(zlib, "crc32", lambda data: calls.append(data) or crc32(data))
    tags = ["", "interior", "lambert", *rg.ALL_IDS]
    streams = [rg._Stream(seed, tag) for seed in (1, 2, 1000001) for tag in tags]
    assert calls == []
    for seed in range(1, 4):
        rg.run_suite(seed)
    assert calls == []
    size = len(rg._TAG_KEYS)
    other = rg._Stream(1, "not-an-id")
    assert calls == [b"not-an-id"] and len(rg._TAG_KEYS) == size
    assert other.random() not in {s.random() for s in streams}


def test_a_context_without_a_stream_tag_draws_the_empty_tag():
    ctx = rg.TrialContext(seed=3, t=trig.solve_from_sides(1.0, 1.1, 1.2))
    assert [ctx.rng.random() for _ in range(4)] == _draws(3, "", 4)


def _statuses(report: Path) -> list[tuple[str, str]]:
    """(id, status) of each identity record of a verify report."""
    return [(rec["id"], rec["status"]) for rec in map(json.loads, report.read_text().splitlines())
            if "id" in rec]


@pytest.mark.parametrize("shape, seed", [("any", 3), ("any", 13), ("acute", 5)])
def test_a_file_with_hyperboloid_vertices_verifies_like_its_klein_file(shape, seed, tmp_path):
    # a triangle file may give each vertex as its unit triple on the
    # hyperboloid; the triangle it reads is the Klein file's to rounding
    klein = rg.triangle_json(gen_triangle(seed, shape=shape), seed)
    units = [plane.normalize(plane.HPoint.from_json(v)) for v in klein["vertices"]]
    hyperboloid = {**klein, "vertices": [{"model": "hyperboloid", "coords": list(v)}
                                         for v in units]}
    read = rg.triangle_from_json(hyperboloid)
    for got, want in zip(read.vertices, units):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    statuses = []
    for name, obj in (("klein", klein), ("hyperboloid", hyperboloid)):
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        cli.main(["verify", str(tmp_path / f"{name}.json"), "-o", str(tmp_path / f"{name}.jsonl")])
        statuses.append(_statuses(tmp_path / f"{name}.jsonl"))
    assert len(statuses[0]) == len(rg.ALL_IDS)
    assert statuses[0] == statuses[1]


def test_a_hyperboloid_vertex_that_is_not_real_is_a_usage_error(tmp_path, capsys):
    obj = rg.triangle_json(gen_triangle(3), 3)
    obj["vertices"][0] = {"model": "hyperboloid", "coords": [1, 0, 0.5]}
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["verify", str(path), "-o", str(tmp_path / "out.jsonl")]) == 2
    assert capsys.readouterr().err == "error: vertices must be real points\n"
    assert not (tmp_path / "out.jsonl").exists()


def test_right_triangles_give_a_record_for_every_identity(tmp_path):
    # a right angle is stored a rounding error short of pi/2; on seeds 5, 6,
    # 9, 15 and 30 an angle test missed it, and with H on the right vertex
    # IS3 raised OnSideLine and OR6 ZeroDivisionError; OR2's sinh products
    # all vanish there
    for seed in range(1, 41):
        rep = rg.run_suite(seed, shape="right")
        assert [rec.id for rec in rep.records] == rg.ALL_IDS
        for rec in rep.records:
            if rec.status == "skipped":
                assert any(frag in rec.reason for frag in DECLARED_SKIP_FRAGMENTS), rec.reason
        or2 = rep.records[rg.ALL_IDS.index("OR2")]
        assert (or2.status, or2.reason) == (
            "skipped", "orthocenter on a vertex (right angle): the sinh products vanish")
    records = {rec.id: rec for rec in rg.run_suite(5, shape="right").records}
    assert records["IS3"].reason == (
        "orthocenter on a vertex (right angle): its conjugate is not constructible")
    assert records["OR6"].reason == "altitude chain h_x = HX + HF_x needs an acute triangle"
    out = tmp_path / "right.jsonl"
    assert cli.main(["verify", "--shape", "right", "--seeds", "1..40", "-o", str(out)]) in (0, 1)


def test_a_circumcenter_at_infinity_skips_its_checks(horocycle):
    ctx = rg.TrialContext(seed=0, t=horocycle)
    records = [rg.run_identity(identity_id, ctx) for identity_id in ("CR3", "OI1")]
    assert [(rec.status, rec.reason) for rec in records] == [
        ("skipped", "circumcenter at infinity (paracycle): coordinates blow up"),
        ("skipped", "circumcenter at infinity (paracycle)"),
    ]


@pytest.mark.parametrize("x", [0.5 * k for k in range(2, 100)])
@pytest.mark.parametrize("ratios", [(1.0, 1.0, 1.0), (1.0, 0.9, 0.8)], ids=["equal", "scalene"])
def test_side_solved_triangles_give_a_record_for_every_identity(ratios, x):
    # a vertex placed about 11.05 or more from A reads as a point at
    # infinity; the solver turns such a triangle down, and on every other
    # one each identity gives a record rather than an untyped exception
    try:
        t = trig.solve_from_sides(*(r * x for r in ratios))
    except OverflowRisk:
        assert max(r * x for r in ratios[1:]) > 11.0
        return
    ctx = rg.TrialContext(seed=0, t=t)
    assert [rg.run_identity(identity_id, ctx).id for identity_id in rg.ALL_IDS] == rg.ALL_IDS


def test_a_non_finite_residual_is_a_failed_record_and_the_report_is_strict_json():
    # vertices 1e-8 inside the unit circle: RI3, RI5 and RI6 evaluate to NaN,
    # and so do three of IN1's four parts (the exradii)
    r = 0.99999999
    t = trig.solve_from_vertices(*(plane.klein_point(r * math.cos(a), r * math.sin(a))
                                   for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)))
    rep = rg.run_suite(0, triangle=t, include_centers=False)
    assert [(rec.id, rec.status, rec.residual) for rec in rep.records
            if rec.reason == "non-finite residual nan"] == [
        (i, "fail", None) for i in ("IN1", "RI3", "RI5", "RI6")]

    def reject(token):
        raise ValueError(f"{token} is not strict JSON")

    for line in rep.to_jsonl().splitlines():
        json.loads(line, parse_constant=reject)


def test_center_builds_raise_only_geometry_errors():
    # H' is not constructible with H on the right vertex; its row's build
    # says so with a GeometryError, like every other unavailable center
    ctx = rg.TrialContext(seed=5, t=gen_triangle(5, shape="right"))
    with pytest.raises(GeometryError, match=r"^orthocenter on a vertex \(right angle\): "
                       "its conjugate is not constructible$"):
        rg.CENTER_BY_NAME["H'"].build(ctx)


def test_no_root_context_is_freed_without_gc():
    # a pseudo-orthocenter without a root leaves no reference cycle behind:
    # reference counting alone frees the context once its last name goes
    seed = next(s for s in range(1, 100)
                if rg.run_identity("EU1", gen_triangle(s), seed=s).status == "skipped")
    gc.disable()
    try:
        ctx = rg.TrialContext(seed=seed, t=gen_triangle(seed))
        assert rg.run_identity("EU1", ctx).status == "skipped"
        rows = {row["name"]: row for row in rg.center_table(ctx)}
        assert "status" in rows["Z"]
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None
    finally:
        gc.enable()


def _dict_route_jsonl(rep) -> str:
    # the report format as a dict per record through the compact encoder
    encode = json.JSONEncoder(separators=(",", ":")).encode
    lines = []
    for r in rep.records:
        out = {"seed": rep.seed, "id": r.id, "name": r.name, "residual": r.residual,
               "status": r.status, "tolerance": r.tolerance}
        if r.reason is not None:
            out["reason"] = r.reason
        lines.append(encode(out))
    lines.append(encode({"summary": rep.summary()}))
    return "\n".join(lines)


def test_report_lines_match_the_dict_route_on_registry_seeds():
    for seed in range(1, 201):
        rep = rg.run_suite(seed, include_centers=False)
        assert rep.to_jsonl() == _dict_route_jsonl(rep), seed


def test_report_lines_match_the_dict_route_on_synthetic_records():
    ls = rg.REGISTRY["LS"]
    records = []
    for residual in (None, math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-300, 5e-324,
                     1.5e300, 0.1):
        status = "skipped" if residual is None else "fail"
        # a registered identity; equal values not shared with the registry;
        # a registered id with another name and tolerance; an unregistered id
        records.append(rg.IdentityRecord(ls.id, ls.name, residual, status, ls.tolerance))
        records.append(rg.IdentityRecord(ls.id, "".join(ls.name), residual, status,
                                         float(repr(ls.tolerance))))
        records.append(rg.IdentityRecord(ls.id, "law of signs", residual, status, 0.5))
        records.append(rg.IdentityRecord("X\"1", "new\tname", residual, status, -0.0))
    for reason in ('say "no"', "back\\slash", "d\u00e9faut \u221e \u2014 \U0001d54a",
                   "\u0000\x7f"):
        records.append(rg.IdentityRecord(ls.id, ls.name, None, "skipped", ls.tolerance,
                                         reason))
    for seed in (0, 7, 10**20):
        rep = rg.TrialReport(seed=seed, records=tuple(records), centers=())
        assert rep.to_jsonl() == _dict_route_jsonl(rep)


def test_summary_is_built_once():
    rep = rg.run_suite(3, include_centers=False)
    assert rep.summary() is rep.summary()
    assert rep.to_jsonl().endswith(json.dumps({"summary": rep.summary()},
                                              separators=(",", ":")))


def _conjugate_calls(monkeypatch, conjugate):
    """Route `centers.isogonal_conjugate` through ``conjugate`` and list the
    point of each call."""
    seen = []

    def counting(x, tri):
        seen.append(x)
        return conjugate(x, tri)

    monkeypatch.setattr(ct, "isogonal_conjugate", counting)
    return seen


def test_is1_and_is2_share_one_conjugate_of_the_random_interior(monkeypatch):
    seen = _conjugate_calls(monkeypatch, ct.isogonal_conjugate)
    ctx = rg.TrialContext(5, gen_triangle(5))
    assert [rg.run_identity(i, ctx).status for i in ("IS1", "IS2")] == ["pass", "pass"]
    assert seen == [ctx.random_interior]


def test_a_failed_conjugate_is_built_again_for_each_id(monkeypatch):
    def raises(x, tri):
        raise ConjugateAtInfinity("stub")

    seen = _conjugate_calls(monkeypatch, raises)
    ctx = rg.TrialContext(5, gen_triangle(5))
    recs = [rg.run_identity(i, ctx) for i in ("IS1", "IS2")]
    assert [(r.status, r.reason) for r in recs] == [("fail", "ConjugateAtInfinity: stub")] * 2
    assert len(seen) == 2


def test_failed_interior_ratios_are_built_again_for_each_id(monkeypatch):
    calls = []

    def raises(x, t, i):
        calls.append(i)
        raise CevianParallel("stub")

    monkeypatch.setattr(trig, "cevian_ratio", raises)
    ctx = rg.TrialContext(5, gen_triangle(5))
    recs = [rg.run_identity(i, ctx) for i in ("ST4", "IS1")]
    assert [(r.status, r.reason) for r in recs] == [("fail", "CevianParallel: stub")] * 2
    assert calls == [0, 0] and "interior_ratios" not in vars(ctx)


def test_the_h_prime_row_is_the_orthocenter_conjugate_builder():
    for seed in range(1, 21):
        ctx = rg.TrialContext(seed, gen_triangle(seed, shape="acute"))
        assert rg.CENTER_BY_NAME["H'"].build(ctx) is ct.orthocenter_conjugate(ctx), seed


def test_a_suite_runs_the_minimality_grid_and_builds_h_prime_once(monkeypatch):
    grids, h_primes = [], []
    grid_minimum, result = ct._grid_minimum, ct._result

    def counting_grid(*args, **kwargs):
        grids.append(args[0])
        return grid_minimum(*args, **kwargs)

    def counting_result(name, *args, **kwargs):
        if name == "H'":
            h_primes.append(name)
        return result(name, *args, **kwargs)

    monkeypatch.setattr(ct, "_grid_minimum", counting_grid)
    monkeypatch.setattr(ct, "_result", counting_result)
    # acute seed 8: O is real, so the report runs all three grids
    rep = rg.run_suite(8, shape="acute", include_centers=True)
    assert {r.id: r.status for r in rep.records}["MIN1C"] == "pass"
    assert "status" not in next(row for row in rep.centers if row["name"] == "H'")
    assert len(grids) == 3
    assert len(h_primes) == 1


@pytest.mark.parametrize("shape", ["any", "acute"])
def test_point_from_coords_reproduces_every_center_with_coords(shape):
    # the vertex sum of a row's closed-form coordinates is the point its
    # builder constructs: within 1e-10 in distance for a real center, and
    # projectively for an ideal one or one at infinity
    worst, kinds = {}, set()
    for seed in range(1, 201):
        c = rg.TrialContext(seed, gen_triangle(seed, shape))
        for spec in rg.CENTERS:
            if spec.coords is None:
                continue
            try:
                res = spec.build(c)
            except GeometryError:
                continue
            x = trig.point_from_coords(spec.coords(c.t), c.t)
            assert plane.classify(x) is res.classification, (seed, spec.name)
            kinds.add(res.classification)
            if res.classification is PointKind.REAL:
                miss = plane.distance(x, res.point)
            else:
                miss = trig.proportionality_residual(x, res.point)
            worst[spec.name] = max(worst.get(spec.name, 0.0), miss)
    assert set(worst) == {spec.name for spec in rg.CENTERS if spec.coords is not None}
    assert PointKind.IDEAL in kinds
    assert max(worst.values()) <= 1e-10, worst


# -- the fixed table cells ----------------------------------------------------
#
# TBL1 and TBL3 check the cells whose entries do not depend on d once per
# process and start every seed's max from their worst.

FIXED_CELLS = {"RIn", "InIn", "aRR-In", "aRIn-In", "aRIn-Id", "aInIn", "aInId"}


def _cell_entries(name):
    """A cell's entries, its construction input and its expected value,
    without the carrier of a segment cell."""
    cell = rg.SEGMENT_CASES.get(name) or rg.ANGLE_CASES[name]
    return cell[-2:]


def _d_taking_pairs() -> dict:
    """The segment cells whose point pair changes with d."""
    return {name: cell for name, cell in rg.SEGMENT_CASES.items()
            if cell[1] is not None and not isinstance(cell[1], rg._Fixed)}


def test_segment_pairs_meet_the_table_tolerance_across_their_window():
    # the window stated above `registry.SEGMENT_CASES`, on a fixed log grid:
    # 61 values of d from 2e-4 to 5
    pairs = _d_taking_pairs()
    assert sorted(pairs) == ["IdId", "IdId@inf", "InId", "InId@inf", "RId", "RR"]
    for step in range(61):
        d = 2e-4 * 25000.0 ** (step / 60)
        for name, (_, points, expected) in pairs.items():
            assert rg._segment_residual(points, expected, d) < 1e-12, (name, d)


def test_exactly_four_segment_pairs_coincide_at_d_zero():
    coincide = set()
    for name, (_, points, _expected) in _d_taking_pairs().items():
        try:
            plane.distance_ext(*points(0.0))
        except IdenticalPoints:
            coincide.add(name)
    assert coincide == {"RR", "IdId", "InId@inf", "IdId@inf"}


def test_fixed_marks_are_exactly_the_cells_that_ignore_d():
    marked = {name for name in [*rg.SEGMENT_CASES, *rg.ANGLE_CASES]
              if all(isinstance(e, rg._Fixed) for e in _cell_entries(name))}
    assert marked == FIXED_CELLS
    for name in [*rg.SEGMENT_CASES, *rg.ANGLE_CASES]:
        if name == "InIn@inf":
            continue   # table-only, TBL2 has no construction for it
        at = [[entry(d) for entry in _cell_entries(name)] for d in (0.3, 1.1)]
        assert (at[0] == at[1]) is (name in FIXED_CELLS), name
        # a cell takes d exactly when its expected value changes with it
        assert rg.case_takes_d(name) is (at[0][1] != at[1][1]), name


def _reference_table(identity_id, seed):
    """TBL1 or TBL3 as a plain loop over every cell at the seed's d."""
    c = rg.TrialContext(seed=seed, t=trig.solve_from_sides(1.0, 1.1, 1.2))
    c.use_stream(identity_id)
    d = rg._table_d(c)
    worst = 0.0
    if identity_id == "TBL3":
        for lines, expected in rg.ANGLE_CASES.values():
            for got, (re, over_i) in zip(plane.angle_ext(*lines(d)), expected(d)):
                worst = max(worst, rg._angle_value_matches(got, re, over_i))
        return worst
    for line, points, expected in rg.SEGMENT_CASES.values():
        if line == "real" and points is not None:
            for got, w in zip(plane.distance_ext(*points(d)), expected(d)):
                worst = max(worst, rg._quantum_matches(got, w.re, w.im))
    return worst


def _table_records(seeds):
    t = gen_triangle(1)
    return {(i, s): rg.run_identity(i, t, seed=s) for s in seeds for i in ("TBL1", "TBL3")}


def test_tables_match_the_reference_on_every_cell():
    records = _table_records(range(1, 201))
    for (identity_id, seed), rec in records.items():
        assert rec.residual == _reference_table(identity_id, seed), (identity_id, seed)
    assert _table_records(range(200, 0, -1)) == records


def test_tables_agree_in_a_fresh_process_that_starts_elsewhere():
    # the fixed cells are first checked on whichever seed comes first
    seeds = (150, 7, 3, 200)
    code = ("import sys; from hypertri import cli; "
            f"sys.exit(cli.main(['verify', '--seeds', '{','.join(map(str, seeds))}', "
            "'--ids', 'TBL1,TBL3']))")
    path = os.pathsep.join(filter(None, (str(Path(rg.__file__).parent.parent),
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = {(r["id"], r["seed"]): r["residual"]
           for r in map(json.loads, proc.stdout.splitlines()) if "id" in r}
    want = {k: rec.residual for k, rec in _table_records(seeds).items()}
    assert got == {(i, s): want[(i, s)] for (i, s) in want}


def test_fixed_cells_are_checked_once_and_start_every_max():
    calls = []

    def residual(entry, d):
        calls.append((entry(d), d))
        return entry(d)

    # a cell is fixed when all its entries are
    cells = [(rg._Fixed(0.5),), (lambda _d: 0.25,), (rg._Fixed(0.125),)]
    evaluate = rg._table_check(cells, residual)
    t = trig.solve_from_sides(1.0, 1.1, 1.2)
    results = [evaluate(rg.TrialContext(seed=s, t=t)) for s in (3, 1, 2)]
    assert results == [0.5, 0.5, 0.5]
    assert [c for c in calls if c[1] is None] == [(0.5, None), (0.125, None)]
    assert [c[0] for c in calls if c[1] is not None] == [0.25, 0.25, 0.25]
