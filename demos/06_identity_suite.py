"""Run the whole identity registry over a seed range and summarize.

Every closed-form statement in the package is checked against the
constructive kernel on each seeded triangle.  One registry entry (MIN1, the
claim that the coordinate sum is minimized at the incenter) fails by design:
differential testing shows the sum equals (n / cosh R) cosh d(P, O), so the
minimizer is the circumcenter; MIN1C verifies the corrected statement.
"""

import statistics
from collections import Counter, defaultdict

from hypertri import registry as rg

SEEDS = range(1, 201)

status_counts = Counter()
fail_counts = Counter()
skip_reasons = Counter()
worst = defaultdict(float)

for seed in SEEDS:
    rep = rg.run_suite(seed, include_centers=False)
    for r in rep.records:
        status_counts[r.status] += 1
        if r.status == "fail":
            fail_counts[r.id] += 1
        elif r.status == "skipped":
            skip_reasons[r.reason.split("(")[0].strip()] += 1
        if r.residual is not None and r.status == "pass":
            worst[r.id] = max(worst[r.id], r.residual)

n_seeds = len(list(SEEDS))
print(f"{len(rg.ALL_IDS)} identities x {n_seeds} seeded triangles")
print(f"  pass: {status_counts['pass']}, fail: {status_counts['fail']}, "
      f"skipped: {status_counts['skipped']}")

print()
print("failures (all from the one documented defective claim):")
for identity_id, count in fail_counts.items():
    d = rg.REGISTRY[identity_id]
    print(f"  {identity_id}: {count}/{n_seeds} seeds - {d.name}")

print()
print("declared skip reasons:")
for reason, count in sorted(skip_reasons.items(), key=lambda kv: -kv[1]):
    print(f"  {count:5d}  {reason}")

print()
print("ten largest passing residuals (worst seed each):")
vals = sorted(worst.items(), key=lambda kv: -kv[1])[:10]
for identity_id, residual in vals:
    d = rg.REGISTRY[identity_id]
    print(f"  {identity_id:7s} {residual:.3e}  (tolerance {d.tolerance:g})  {d.name}")

print()
residuals = list(worst.values())
p90 = statistics.quantiles(residuals, n=10, method="inclusive")[8]
print(f"residual distribution over passing identities: median {statistics.median(residuals):.2e}, "
      f"90th percentile {p90:.2e}, max {max(residuals):.2e}")
