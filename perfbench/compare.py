"""Compare two result sets of perfbench/run.py (parent against change).

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds result lines written by ``run.py --record``.  Runs pair up by
workload, seed, base and trace flag.  For every workload and metric it prints
one row with each side's median and quartiles, the change's wins, and a
verdict by this rule:

* improved: at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither side), and the medians differ by more than the
  parent's interquartile range;
* unresolved: the parent's own spread (IQR over median) exceeds the
  metric's bound from BENCHMARK.json, unless every change run beats every
  parent run;
* regressed: the change's median is worse than the parent's by more than
  the bound;
* within bound: otherwise.  Per-layer metrics have no bound; they read
  improved, worse (the mirror of improved) or no clear change.

To make the pairs, run the two checkouts alternately with the same seeds
(1 to 10), swapping which goes first each time, at BENCHMARK.json's
run_seconds:

    python3 perfbench/compare.py --run PARENT_DIR CHANGE_DIR --workload W --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: str) -> dict:
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                r = json.loads(line)
                runs[(r["workload"], r["seed"], r["base"], r["trace"])] = r
    return runs


def metric_specs(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    specs.update({m["name"]: {**m, "bound": None} for m in bench["per_layer"]})
    return specs


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound) -> dict:
    """Apply the pairing rule to one metric's paired values."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    iqr = p3 - p1
    gap = cm - pm
    spread = iqr / abs(pm) if pm else float("inf")
    n = len(parent)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if n >= MIN_PAIRS and wins >= WIN_SHARE * n and sign * gap > iqr:
        v = "improved"
    elif bound is None:
        v = ("worse" if n >= MIN_PAIRS and losses >= WIN_SHARE * n and -sign * gap > iqr
             else "no clear change")
    elif spread > bound and not all_better:
        v = "unresolved"
    elif -sign * gap > bound * abs(pm):
        v = "regressed"
    else:
        v = "within bound"
    if n < MIN_PAIRS and v == "within bound":
        v = f"too few pairs ({n})"
    return {"pairs": n, "wins": wins, "parent": (p1, pm, p3), "change": (c1, cm, c3),
            "spread": spread, "verdict": v}


def compare(parent_path: str, change_path: str, bench_path: str) -> list[dict]:
    specs = metric_specs(bench_path)
    parent, change = load_runs(parent_path), load_runs(change_path)
    keys = sorted(set(parent) & set(change))
    rows = []
    for workload in sorted({k[0] for k in keys}):
        mine = [k for k in keys if k[0] == workload]
        names = []
        for k in mine:
            names += [n for n in parent[k]["metrics"] if n not in names]
        for name in names:
            pairs = [(parent[k]["metrics"][name]["value"], change[k]["metrics"][name]["value"])
                     for k in mine
                     if name in parent[k]["metrics"] and name in change[k]["metrics"]]
            spec = specs.get(name, {"better": "lower", "bound": None, "unit": "?"})
            row = verdict([p for p, _ in pairs], [c for _, c in pairs],
                          spec["better"], spec.get("bound"))
            rows.append({"workload": workload, "metric": name, "unit": spec.get("unit"),
                         **row})
        failed = [sum(side[k]["failed"] for k in mine) for side in (parent, change)]
        attempted = [sum(side[k]["attempted"] for k in mine) for side in (parent, change)]
        rows.append({"workload": workload, "metric": "failed", "unit": "ops",
                     "pairs": len(mine), "wins": None,
                     "parent": (failed[0], attempted[0], None),
                     "change": (failed[1], attempted[1], None), "spread": None,
                     "verdict": "more failures: no gain counts" if failed[1] > failed[0]
                     else "ok"})
    return rows


def _fmt(quartiles) -> str:
    return "/".join(f"{v:.4g}" for v in quartiles)


def print_rows(rows):
    head = (f"{'workload':14s} {'metric':44s} {'unit':8s} {'pairs':>5s} {'wins':>5s} "
            f"{'parent q1/med/q3':>32s} {'change q1/med/q3':>32s}  verdict")
    print(head)
    for r in rows:
        if r["metric"] == "failed":
            print(f"{r['workload']:14s} {'failed ops':44s} {'ops':8s} {r['pairs']:5d} {'':>5s} "
                  f"{'%d of %d' % r['parent'][:2]:>32s} {'%d of %d' % r['change'][:2]:>32s}"
                  f"  {r['verdict']}")
            continue
        print(f"{r['workload']:14s} {r['metric']:44s} {str(r['unit']):8s} {r['pairs']:5d} "
              f"{r['wins']:5d} {_fmt(r['parent']):>32s} {_fmt(r['change']):>32s}  {r['verdict']}")


def run_pairs(parent_dir: str, change_dir: str, workload: str, out: str, trace: int,
              base: int):
    """Alternate the two checkouts, seeds 1 to MIN_PAIRS, one seed per pair,
    swapping the order; both run at this checkout's run_seconds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    os.makedirs(out, exist_ok=True)
    files = {"parent": os.path.join(out, "parent.jsonl"),
             "change": os.path.join(out, "change.jsonl")}
    dirs = {"parent": parent_dir, "change": change_dir}
    for i in range(MIN_PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                   "--seed", str(1 + i), "--seconds", str(seconds),
                   "--trace", str(trace), "--base", str(base),
                   "--record", os.path.abspath(files[side])]
            subprocess.run(cmd, cwd=dirs[side], check=True, stdout=subprocess.DEVNULL)
    return files["parent"], files["change"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("files", nargs="*", help="PARENT.jsonl CHANGE.jsonl")
    p.add_argument("--run", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    p.add_argument("--workload")
    p.add_argument("--out", default=".perfbench-out/compare")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--base", type=int, default=1)
    args = p.parse_args(argv)
    if args.run:
        if not args.workload:
            p.error("--run needs --workload")
        files = run_pairs(*args.run, args.workload, args.out, args.trace, args.base)
    elif len(args.files) == 2:
        files = args.files
    else:
        p.error("give PARENT.jsonl CHANGE.jsonl, or --run PARENT_DIR CHANGE_DIR")
    print_rows(compare(*files, os.path.join(ROOT, "BENCHMARK.json")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
