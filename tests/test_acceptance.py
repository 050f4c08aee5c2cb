"""Acceptance gate: one test per criterion, named and reported one per line.

Three sub-criteria are implemented verbatim although differential testing
proves them unattainable; they fail with the measured numbers and the failure
is characterized exactly by companion (passing) tests:

* criterion 1 contains the printed coordinate-sum minimality claim (MIN1),
  whose minimizer is in fact the circumcenter (MIN1C passes);
* criterion 4 expects pseudoaltitude roots on every acute seed and on >99%
  of obtuse seeds, but real roots on the open sides exist exactly when
  max(angle) < pi/2 - delta/2, which excludes every obtuse triangle.
"""

import json
import math
import time
from collections import Counter

import pytest

from hypertri import centers as ct
from hypertri import plane, registry as rg
from hypertri.cli import main as cli_main
from hypertri.generate import gen_triangle
from hypertri.plane import normalize
from hypertri.trig import proportionality_residual

SUITE_SEEDS = range(1, 1001)


def _fmt_line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance {num}] {status}: {detail}"
    print(line)
    return line


# -------------------------------------------------------------------- 1 ----

@pytest.fixture(scope="module")
def full_suite_results():
    failures = Counter()
    undeclared_skips = []
    worst = {}
    for seed in SUITE_SEEDS:
        rep = rg.run_suite(seed, include_centers=False)
        for r in rep.records:
            if r.status == "fail":
                failures[r.id] += 1
            elif r.status == "skipped" and not r.reason:
                undeclared_skips.append((seed, r.id))
            if r.residual is not None:
                worst[r.id] = max(worst.get(r.id, 0.0), r.residual)
    return failures, undeclared_skips, worst


def test_criterion_1_identity_suite_zero_fails(full_suite_results):
    failures, undeclared, worst = full_suite_results
    ok = not failures and not undeclared
    line = _fmt_line(1, ok,
                     f"identity suite over seeds 1..1000: failures={dict(failures)}, "
                     f"undeclared skips={len(undeclared)}")
    assert ok, line + (
        "; the coordinate-sum minimality claim fails on every seed because the"
        " sum n_A(P)+n_B(P)+n_C(P) equals (n / cosh R) cosh d(P, O) and is"
        " minimized at the circumcenter, not the incenter (see MIN1C, which"
        " verifies the corrected statement)"
    )


def test_criterion_1_companion_suite_clean_apart_from_documented_defect(full_suite_results):
    failures, undeclared, worst = full_suite_results
    unexpected = {k: v for k, v in failures.items() if k not in rg.EXPECTED_FAILURES}
    assert not unexpected, f"unexpected identity failures: {unexpected}"
    assert not undeclared
    assert failures.get("MIN1") == len(list(SUITE_SEEDS))


# -------------------------------------------------------------------- 2 ----

def test_criterion_2_segment_and_angle_tables():
    worst = 0.0
    for seed in range(1, 51):
        t = gen_triangle(seed)
        ctx = rg.TrialContext(seed=seed, t=t)
        for table_id in ("TBL1", "TBL2", "TBL3"):
            rec = rg.run_identity(table_id, ctx)
            assert rec.status == "pass", (table_id, seed, rec.residual)
            worst = max(worst, rec.residual)
    ok = worst < 1e-12
    line = _fmt_line(2, ok, f"table cells reproduced exactly in the quantum and to "
                            f"{worst:.2e} in the real part (tolerance 1e-12)")
    assert ok, line


# -------------------------------------------------------------------- 3 ----

C3_IDS = ("CE1", "CR1", "CR2", "CR3", "IN1", "IN2", "IN3", "IN4", "IN5", "IN6",
          "IN7", "OR1", "OR2", "OR3", "OR4", "OR5", "OR6", "IS2", "IS3", "IS4",
          "SY1", "SY2", "LE1", "LE2", "PM1", "PM2")


def test_criterion_3_oracle_equivalence_10000_seeds():
    start = time.monotonic()
    worst = 0.0
    for seed in range(1, 10001):
        rep = rg.run_suite(seed, ids=list(C3_IDS), include_centers=False)
        for r in rep.records:
            assert r.status != "fail", (seed, r.id, r.residual)
            if r.residual is not None:
                worst = max(worst, r.residual)
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 60.0
    line = _fmt_line(3, ok, f"center formulas vs constructions over 10000 seeds: "
                            f"worst residual {worst:.2e} (tol 1e-9), {elapsed:.1f}s (< 60s)")
    assert ok, line


# -------------------------------------------------------------------- 4 ----

@pytest.fixture(scope="module")
def euler_line_results():
    stats = {"acute": 0, "acute_noroot": 0, "obtuse": 0, "obtuse_noroot": 0}
    worst = 0.0
    prediction_mismatches = []
    noroot_seeds = []
    for seed in range(1, 1001):
        t = gen_triangle(seed, shape="scalene")
        acute = max(t.alpha, t.beta, t.gamma) < math.pi / 2
        key = "acute" if acute else "obtuse"
        stats[key] += 1
        rep = ct.euler_line(t)
        missing = "Z" in rep.missing
        if missing:
            stats[key + "_noroot"] += 1
            noroot_seeds.append(seed)
        else:
            worst = max(worst, rep.max_line_residual)
        feet_exist = max(t.alpha, t.beta, t.gamma) < math.pi / 2 - t.delta / 2
        if feet_exist == missing:
            prediction_mismatches.append(seed)
    return stats, worst, prediction_mismatches, noroot_seeds


def test_criterion_4_four_center_collinearity(euler_line_results):
    stats, worst, _, _ = euler_line_results
    ok = worst < 1e-8
    line = _fmt_line(4, ok, f"O,F,S,Z collinearity on 1000 scalene seeds "
                            f"(where constructible): worst determinant {worst:.2e}")
    assert ok, line


def test_criterion_4_roots_found_on_every_acute_seed(euler_line_results):
    stats, _, _, _ = euler_line_results
    ok = stats["acute_noroot"] == 0
    line = _fmt_line(4, ok, f"pseudoaltitude roots on acute seeds: "
                            f"{stats['acute_noroot']}/{stats['acute']} acute seeds lack "
                            f"real feet on the open sides")
    assert ok, line + ("; real feet exist exactly when max angle < pi/2 - delta/2,"
                       " which acute triangles violate once the defect is large")


def test_criterion_4_noroot_rate_on_obtuse_seeds(euler_line_results):
    stats, _, _, noroot_seeds = euler_line_results
    rate = stats["obtuse_noroot"] / max(stats["obtuse"], 1)
    ok = rate < 0.01
    line = _fmt_line(4, ok, f"NoRootFound on obtuse seeds: "
                            f"{stats['obtuse_noroot']}/{stats['obtuse']} ({100 * rate:.0f}%), "
                            f"first occurrences {noroot_seeds[:5]}")
    assert ok, line + ("; every obtuse triangle violates max angle < pi/2 - delta/2,"
                       " so its pseudoaltitude feet are never all real")


def test_criterion_4_companion_noroot_exactly_characterized(euler_line_results):
    _, _, mismatches, _ = euler_line_results
    assert not mismatches, (
        f"root existence disagrees with the max-angle criterion on {mismatches[:10]}")


# -------------------------------------------------------------------- 5 ----

def test_criterion_5_classical_line_dichotomy():
    worst_iso = 0.0
    worst_scal = math.inf
    for seed in range(1, 101):
        t_iso = gen_triangle(seed, shape="isosceles")
        rep = ct.euler_line(t_iso)
        worst_iso = max(worst_iso, rep.classical_det)
        t_scal = gen_triangle(seed, shape="scalene")
        rep = ct.euler_line(t_scal)
        worst_scal = min(worst_scal, rep.classical_det)
    ok = worst_iso < 1e-9 and worst_scal > 1e-4
    line = _fmt_line(5, ok, f"det(O,M,H): isosceles max {worst_iso:.2e} (< 1e-9), "
                            f"scalene min {worst_scal:.2e} (> 1e-4)")
    assert ok, line


# -------------------------------------------------------------------- 6 ----

def test_criterion_6_involution_and_fixed_points():
    import random
    worst_inv = 0.0
    worst_fixed = 0.0
    worst_symmedian = 0.0
    points = 0
    for seed in range(1, 101):
        t = gen_triangle(seed)
        frame = ct.Frame(t)
        rng = random.Random(f"acc6:{seed}")
        for _ in range(10):
            points += 1
            w = [rng.random() + 0.05 for _ in range(3)]
            x = normalize(plane.HPoint(
                sum(wi * v.x for wi, v in zip(w, t.vertices)),
                sum(wi * v.y for wi, v in zip(w, t.vertices)),
                sum(wi * v.w for wi, v in zip(w, t.vertices))))
            y = ct.isogonal_conjugate(x, frame)
            back = ct.isogonal_conjugate(y, frame)
            worst_inv = max(worst_inv, proportionality_residual(
                (x.x, x.y, x.w), (back.x, back.y, back.w)))
        i_pt = ct.incenter_excenters(frame)[0].point
        i_back = ct.isogonal_conjugate(i_pt, frame)
        worst_fixed = max(worst_fixed, proportionality_residual(
            (i_pt.x, i_pt.y, i_pt.w), (i_back.x, i_back.y, i_back.w)))
        mp = ct.symmedian_point(frame)
        target = (math.sinh(t.a) ** 2, math.sinh(t.b) ** 2, math.sinh(t.c) ** 2)
        worst_symmedian = max(worst_symmedian,
                              proportionality_residual(mp.coords, target))
    ok = worst_inv < 1e-8 and worst_fixed < 1e-9 and worst_symmedian < 1e-10
    line = _fmt_line(6, ok, f"involution on {points} interior points: {worst_inv:.2e} "
                            f"(< 1e-8); incenter fixed to {worst_fixed:.2e}; symmedian "
                            f"coordinates to {worst_symmedian:.2e} (< 1e-10)")
    assert ok, line


# -------------------------------------------------------------------- 7 ----

def test_criterion_7_incenter_minimality_as_printed():
    bad_min = 0
    worst_closed = 0.0
    for seed in range(1, 101):
        t = gen_triangle(seed)
        rep = ct.incenter_minimality(t, 24)
        if not rep.incenter_min_ok:
            bad_min += 1
        worst_closed = max(worst_closed, rep.incenter_closed_residual)
    ok = bad_min == 0 and worst_closed < 1e-10
    line = _fmt_line(7, ok, f"incenter coordinate-sum minimality: grid minimum fails "
                            f"on {bad_min}/100 seeds, closed form off by {worst_closed:.2e}")
    assert ok, line + ("; the sum equals (n / cosh R) cosh d(P, O), so it is"
                       " minimized at the circumcenter (see the companion test)")


def test_criterion_7_companion_circumcenter_minimality_verified():
    from hypertri.extscalar import PointKind
    checked = 0
    for seed in range(1, 101):
        t = gen_triangle(seed)
        frame = ct.Frame(t)
        if ct.circumcenters(frame)[0].classification is not PointKind.REAL:
            continue
        checked += 1
        rep = ct.incenter_minimality(frame, 24)
        assert rep.circumcenter_min_ok, seed
        assert rep.circumcenter_closed_residual < 1e-10, seed
    assert checked > 50


def test_criterion_7_centroid_minimality():
    worst = 0.0
    for seed in range(1, 101):
        t = gen_triangle(seed)
        rep = ct.incenter_minimality(t, 24)
        assert rep.centroid_min_ok, seed
        worst = max(worst, rep.centroid_closed_residual)
    ok = worst < 1e-10
    line = _fmt_line(7, ok, f"centroid minimizes the cosh sum on 100 seeds; closed "
                            f"form matched to {worst:.2e} (< 1e-10)")
    assert ok, line


# -------------------------------------------------------------------- 8 ----

def test_criterion_8_euclidean_limit_order():
    rec = rg.run_identity("STW-EU", gen_triangle(1), seed=1)
    order = 4.0 - rec.residual
    ok = rec.status == "pass"
    line = _fmt_line(8, ok, f"euclidean-limit order of the Stewart relation: "
                            f"observed order {order:.2f} (>= 4) over scales 1e-1..1e-4")
    assert ok, line


# -------------------------------------------------------------------- 9 ----

def test_criterion_9_report_determinism(tmp_path):
    outputs = []
    codes = []
    for tag, jobs in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / f"report-{tag}.jsonl"
        codes.append(cli_main(["verify", "--seeds", "1..100",
                               "--jobs", str(jobs), "-o", str(out)]))
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2] and len(set(codes)) == 1
    line = _fmt_line(9, ok, f"verify --seeds 1..100 byte-identical across repeats and "
                            f"--jobs 1/4 ({len(outputs[0])} bytes, exit {codes[0]})")
    assert ok, line
    # every line parses as JSON
    for raw in outputs[0].decode().strip().splitlines():
        json.loads(raw)
