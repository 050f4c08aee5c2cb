import gc
import json
import random
import weakref

import pytest

from hypertri import plane, trig
from hypertri import registry as rg
from hypertri.errors import UnknownIdentity
from hypertri.generate import gen_triangle

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

# the criterion-3 center identities (see tests/test_acceptance.py)
C3_IDS = ("CE1", "CR1", "CR2", "CR3", "IN1", "IN2", "IN3", "IN4", "IN5", "IN6",
          "IN7", "OR1", "OR2", "OR3", "OR4", "OR5", "OR6", "IS2", "IS3", "IS4",
          "SY1", "SY2", "LE1", "LE2", "PM1", "PM2")

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
        rep = rg.run_suite(7)
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

    def test_random_streams_are_built_only_when_drawn(self, monkeypatch):
        # the triangle stream plus those of the identities that draw (OR4,
        # IS4 and the shared interior point)
        built = []

        class CountingRandom(random.Random):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(random, "Random", CountingRandom)
        for seed in range(1, 41):
            built.clear()
            rg.run_suite(seed, ids=list(C3_IDS), include_centers=False)
            assert (seed,) in built and len(built) <= 4

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
        rep = rg.run_suite(seed)
        assert len(calls) == 2
        # the cached objects give the same table as a fresh context
        fresh = rg.TrialContext(seed=seed, t=gen_triangle(seed))
        assert list(rep.centers) == rg.center_table(fresh)

    def test_triangle_json_round_trip(self):
        t = gen_triangle(13)
        obj = rg.triangle_json(t, 13)
        back = rg.triangle_from_json(json.loads(json.dumps(obj)))
        assert back.a == pytest.approx(t.a, rel=1e-12)
        assert back.alpha == pytest.approx(t.alpha, rel=1e-10)


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
