"""hypertri benchmark: one workload per call, one JSON result line at the end.

    python3 perfbench/run.py --workload verify-any --seed 1 --trace 0

With ``--trace 0`` it reports the end-to-end metrics, measured with no
wrapper installed; with ``--trace 1`` the per-layer metrics of a traced
pass.  Every operation's output is checked against the pinned reference
(perfbench/reference/), and the last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The lines before it give the machine, every metric by name and unit, and
``failed_share``.  ``--seconds`` defaults to BENCHMARK.json's
``run_seconds``, the size the bounds were set on.  ``--record FILE``
appends the full result to a JSON-lines file that perfbench/compare.py
reads.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import reference as refmod   # noqa: E402
import workloads as wl       # noqa: E402

SETUP_IMPORTS = 3            # fresh-interpreter imports timed at each of three points
CHILD_TIMEOUT = 170

CENTER_BUILDERS = ("centroid", "circumcenters", "incenter_excenters", "orthocenter",
                   "isogonal_conjugate", "symmedian_point", "lemoine_point",
                   "pseudo_centroid", "pseudo_orthocenter", "pseudomedian_feet_center",
                   "radius_identities", "incenter_minimality")
PLANE_COUNTED = ("normalize", "join", "meet", "distance", "distance_ext",
                 "tangent_toward", "geodesic_point", "vertex_angle")
TRIG_COUNTED = ("tri_coords", "side_line", "solve_from_vertices")


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "loadavg": list(os.getloadavg())}


def _flat(blocks):
    return [s for b in blocks for s in b]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# child processes: each pass runs in a fresh interpreter

def _rate(results) -> float:
    """Ops per second at reference speed: seeds of verify commands, or
    triangles."""
    n = sum(len(r["seeds"]) if "seeds" in r else 1 for r in results)
    return n / wl.ref_seconds(results)


def _chunks(xs, n):
    return [xs[i:i + n] for i in range(0, len(xs), n)]


def _centers_failures(ref, ops, digests: dict) -> int:
    """Executions that raised, disagree with the reference, or whose JSON
    text differs from another execution of the same triangle."""
    bad = 0
    for op in ops:
        first = digests.setdefault(str(op["seed"]), op.get("digest"))
        bad += ("error" in op or op["digest"] != first
                or wl.centers_mismatch(op["check"], ref.centers[op["seed"]]))
    return bad


def child_jobs1(plan: dict) -> dict:
    """Throughput pass at jobs 1, then (verify) the single-seed latency pass.

    Peak RSS is read before the reference is loaded.  Every execution is
    checked; ``attempted``/``failed`` count executions.
    """
    w = wl.WORKLOADS[plan["workload"]]
    if w.kind == "verify":
        blocks = wl.seed_blocks(w, plan["base"], plan["seed"], w.ops_for(plan["seconds"]))
        # First one long command, as users run `verify --seeds A..B`: it holds
        # its whole report in memory, which is what peak RSS shows.
        long_seeds = _flat(wl.seed_blocks(w, plan["base"], plan["seed"], w.rss_seeds))
        long_run = wl.run_verify_batches(w, [long_seeds[:w.rss_seeds]], plan["tmp"], "long", 1)
        batches = wl.run_verify_batches(w, blocks, plan["tmp"], "j1", 1)
        rss = _maxrss_mb()
        ref = refmod.load(w.name, plan["base"])
        lat_seeds = _flat(wl.seed_blocks(w, plan["base"], plan["seed"], wl.LATENCY_OPS))
        lat, lat_runs, lat_failed = wl.run_verify_latency(
            w, ref, lat_seeds[:wl.LATENCY_OPS], plan["tmp"])
        runs = batches + long_run
        return {"batches": batches, "rates": [_rate([b]) for b in batches],
                "rss_mb": rss, "latency_s": lat,
                "attempted": sum(len(b["seeds"]) for b in runs) + lat_runs,
                "failed": sum(len(wl.check_verify_batch(ref, b)) for b in runs) + lat_failed}
    blocks = wl.seed_blocks(w, plan["base"], plan["seed"],
                            max(w.ops_for(plan["seconds"]), wl.LATENCY_OPS))
    seeds = _flat(blocks)
    ops = wl.run_centers(seeds)
    rss = _maxrss_mb()
    ref = refmod.load(w.name, plan["base"])
    digests: dict = {}
    failed = _centers_failures(ref, ops, digests)
    return {"digests": digests, "blocks": blocks,
            "rates": [_rate(c) for c in _chunks(ops, w.block)], "rss_mb": rss,
            "latency_s": [op["s"] * op["speed"] for op in ops],
            "attempted": len(ops), "failed": failed}


def child_jobs2(plan: dict) -> dict:
    """The jobs-1 pass's blocks again with two worker processes; every
    output must match the jobs-1 output byte for byte."""
    w = wl.WORKLOADS[plan["workload"]]
    first = plan["jobs1"]
    if w.kind == "verify":
        batches = wl.run_verify_batches(w, [b["seeds"] for b in first["batches"]],
                                        plan["tmp"], "j2", 2)
        failed = sum(len(wl.byte_mismatches(a, b)) for a, b in zip(first["batches"], batches))
        attempted = sum(len(b["seeds"]) for b in batches)
    else:
        batches = wl.run_centers_pool(first["blocks"], 2)
        ops = [op for b in batches for op in b["results"]]
        failed = sum(op.get("digest") != first["digests"][str(op["seed"])] for op in ops)
        attempted = len(ops)
    return {"rates": [_rate([b]) for b in batches], "attempted": attempted, "failed": failed}


def child_trace(plan: dict) -> dict:
    """Traced pass, then the same seeds untraced at jobs 1 and at jobs 2."""
    import tracer
    w = wl.WORKLOADS[plan["workload"]]
    blocks = wl.seed_blocks(w, plan["base"], plan["seed"], w.ops_for(plan["seconds"]))
    ref = refmod.load(w.name, plan["base"])
    tmp = plan["tmp"]
    tr = tracer.Tracer()    # the pass starts no new block once it is full
    with tr.installed():
        if w.kind == "verify":
            traced = wl.run_verify_batches(w, blocks, tmp, "tr", 1, stop=lambda: tr.full)
        else:
            def start_op(seed):
                tr.op_id = seed
            traced = wl.run_centers(_flat(blocks), stop=lambda: tr.full, on_op=start_op)
    leftover = tracer.wrapped_bindings()
    if leftover:
        raise RuntimeError(f"tracing wrappers left installed: {leftover}")

    if w.kind == "verify":
        done = [b["seeds"] for b in traced]
        plain = wl.run_verify_batches(w, done, tmp, "un", 1)
        pair = wl.run_verify_batches(w, done, tmp, "u2", 2)
        ops = sum(len(b) for b in done)
        failed = sum(len(wl.check_verify_batch(ref, b)) for b in traced)
        failed += sum(len(wl.byte_mismatches(a, b)) for a, b in zip(traced, plain))
        failed += sum(len(wl.byte_mismatches(a, b)) for a, b in zip(traced, pair))
        report_bytes = sum(os.path.getsize(b["path"]) for b in traced)
    else:
        seeds = [op["seed"] for op in traced]
        plain = wl.run_centers(seeds)
        pair = wl.run_centers_pool([seeds], 2)
        ops = len(seeds)
        failed = _centers_failures(ref, traced + plain + pair[0]["results"], {})
        report_bytes = sum(op.get("bytes", 0) for op in traced)

    agg = tracer.aggregate(tr, {"trig.solve_from_vertices": "generate.gen_triangle",
                                "plane.vertex_angle": "centers.pseudo_orthocenter"})
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{w.name}.bin.gz")
    tr.write(spans_path)
    ids = refmod.load("verify-any", plan["base"]).ids
    times = {"wall": sum(x["wall"] for x in traced), "traced": wl.ref_seconds(traced),
             "plain": wl.ref_seconds(plain), "pair": wl.ref_seconds(pair)}
    return {"metrics": layer_metrics(agg, ids, ops, times, report_bytes),
            "attempted": 3 * ops, "failed": failed, "spans": len(tr),
            "spans_file": os.path.relpath(spans_path, ROOT)}


def layer_metrics(agg: dict, ids, ops: int, times: dict, report_bytes: int) -> dict:
    """The per-layer metrics of BENCHMARK.json, as name -> (value, unit).

    Span times are raw wall time; ``times`` holds the traced pass's wall
    seconds and, at reference speed, the traced, untraced and jobs-2 passes.
    """
    calls, incl, selft = agg["calls"], agg["incl"], agg["self"]
    n = max(ops, 1)

    def per_op(seconds):
        return 1000.0 * seconds / n, "ms/op"

    def per_call(name):
        return (1000.0 * incl[name] / calls[name] if calls.get(name) else 0.0), "ms/call"

    def count(name):
        return calls.get(name, 0) / n, "calls/op"

    def share(num, den, unit="ratio"):
        return (num / den if den else 0.0), unit

    m = {}
    for layer in ("extscalar", "plane", "trig", "centers", "generate", "registry", "cli"):
        m[f"{layer}.self_ms_per_op"] = per_op(sum(v for k, v in selft.items()
                                                  if k.startswith(layer + ".")))
    m["generate.attempts_per_triangle"] = share(
        agg["nested"]["trig.solve_from_vertices"], calls.get("generate.gen_triangle", 0),
        "calls/op")
    for f in TRIG_COUNTED:
        m[f"trig.{f}.calls_per_op"] = count(f"trig.{f}")
    for f in PLANE_COUNTED:
        m[f"plane.{f}.calls_per_op"] = count(f"plane.{f}")
    for b in CENTER_BUILDERS:
        m[f"centers.{b}.ms_per_call"] = per_call(f"centers.{b}")
    m["centers.builder_calls_per_op"] = (
        sum(calls.get(f"centers.{b}", 0) for b in CENTER_BUILDERS) / n, "calls/op")
    m["centers.frame_builds_per_op"] = count("centers.Frame")
    po = "centers.pseudo_orthocenter"
    m[f"{po}.noroot_share"] = share(agg["errors"].get(po, {}).get("NoRootFound", 0),
                                    calls.get(po, 0))
    m[f"{po}.balance_evals_per_call"] = share(agg["nested"]["plane.vertex_angle"],
                                              calls.get(po, 0), "calls/call")
    for i in ids:
        m[f"registry.{i}.ms_per_call"] = per_call(f"registry.{i}")
    ids_s = sum(incl.get(f"registry.{i}", 0.0) for i in ids)
    m["registry.center_table.ms_per_op"] = per_op(incl.get("registry.center_table", 0.0))
    m["registry.to_jsonl.ms_per_op"] = per_op(incl.get("registry.to_jsonl", 0.0))
    m["registry.ids_ms_per_op"] = per_op(ids_s)
    m["registry.unattributed_ms_per_op"] = per_op(times["wall"] - ids_s)
    m["cli.verify.overhead_ms_per_op"] = per_op(incl.get("cli.main", 0.0)
                                                - incl.get("registry.run_suite", 0.0))
    m["cli.report_bytes_per_op"] = (report_bytes / n, "B/op")
    m["cli.jobs2_efficiency"] = share(times["plain"], 2.0 * times["pair"])
    m["trace.traced_ops_per_s"] = share(ops, times["traced"], "1/s")
    m["trace.untraced_ops_per_s"] = share(ops, times["plain"], "1/s")
    m["trace.overhead_ratio"] = share(times["traced"], times["plain"])
    return m


def child_main(args) -> int:
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, SRC)
    out = {"jobs1": child_jobs1, "jobs2": child_jobs2, "trace": child_trace}[args.child](plan)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


# --------------------------------------------------------------------------
# the parent: set-up time, the passes, the result line

def _spawn(kind: str, args, extra: dict, tmp: str) -> dict:
    """Run one pass in a fresh interpreter and return the dict it wrote."""
    plan = os.path.join(tmp, f"{kind}-plan.json")
    result = os.path.join(tmp, f"{kind}-result.json")
    with open(plan, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "base": args.base,
                   "seconds": args.seconds, "tmp": tmp, **extra}, fh)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", kind,
                           "--plan", plan, "--result", result],
                          cwd=ROOT, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} pass exited with {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def setup_times(k: int) -> list[float]:
    """Seconds, at reference speed, for a fresh interpreter to import
    hypertri.cli, k times, after one untimed import that fills the bytecode
    cache.  Each interpreter probes its own speed just before and after."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; import probe; "
            "a = probe.probe_s(); t = time.perf_counter(); import hypertri.cli; "
            "t = time.perf_counter() - t; print(t * probe.speed(a, probe.probe_s()))")
    out = []
    for _ in range(k + 1):
        proc = subprocess.run([sys.executable, "-c", code, SRC, HERE], capture_output=True,
                              text=True, timeout=60, check=True)
        out.append(float(proc.stdout))
    return out[1:]


def untraced_run(args, tmp: str):
    """Set-up imports are taken before, between and after the two passes,
    so their median samples the machine across the whole run."""
    setup = setup_times(SETUP_IMPORTS)
    first = _spawn("jobs1", args, {}, tmp)
    setup += setup_times(SETUP_IMPORTS)
    second = _spawn("jobs2", args, {"jobs1": first}, tmp)
    setup += setup_times(SETUP_IMPORTS)
    lat = first["latency_s"]
    metrics = {
        "ops_per_s": (statistics.median(first["rates"]), "1/s"),
        "ops_per_s_jobs2": (statistics.median(second["rates"]), "1/s"),
        "op_ms_p50": (1000.0 * statistics.median(lat), "ms"),
        "op_ms_p99": (1000.0 * statistics.quantiles(lat, n=100, method="inclusive")[98], "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (first["rss_mb"], "MB"),
    }
    notes = {"throughput_groups": len(first["rates"]), "jobs2_groups": len(second["rates"]),
             "latency_samples": len(lat), "setup_samples": len(setup)}
    return (metrics, first["attempted"] + second["attempted"],
            first["failed"] + second["failed"], notes)


def traced_run(args, tmp: str):
    res = _spawn("trace", args, {}, tmp)
    metrics = {k: tuple(v) for k, v in res["metrics"].items()}
    return (metrics, res["attempted"], res["failed"],
            {"spans": res["spans"], "spans_file": res["spans_file"]})


def run_seconds() -> float:
    """The run size the bounds were set on: BENCHMARK.json's run_seconds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


def parse(argv):
    p = argparse.ArgumentParser(description="hypertri benchmark (see perfbench/README.md)")
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=1, help="picks the run's seeds in the window")
    p.add_argument("--seconds", type=float,
                   help="run size, in seconds of work on the reference machine "
                        "(default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--base", type=int, default=wl.DEFAULT_BASE,
                   help=f"seed base: {wl.DEFAULT_BASE} (default) or the held-out "
                        f"{wl.HELD_OUT_BASE}")
    p.add_argument("--record", help="append the full result to this JSON-lines file")
    p.add_argument("--child", choices=("jobs1", "jobs2", "trace"), help=argparse.SUPPRESS)
    p.add_argument("--plan", help=argparse.SUPPRESS)
    p.add_argument("--result", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if args.child:
        return child_main(args)
    if not args.workload:
        print("run.py: --workload is required", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = run_seconds()
    if not os.path.isfile(os.path.join(SRC, "hypertri", "cli.py")):
        print(f"run.py: no hypertri sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(refmod.path_for(args.workload, args.base)):
        print(f"run.py: no pinned reference for {args.workload} at base {args.base}; "
              f"see perfbench/reference.py", file=sys.stderr)
        return 2
    machine = machine_info()
    tmp = os.path.join(ROOT, ".perfbench-tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        metrics, attempted, failed, notes = (traced_run if args.trace else untraced_run)(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    share = failed / attempted if attempted else 1.0
    print(f"# machine: {json.dumps(machine)}")
    print(f"# {args.workload} seed={args.seed} base={args.base} seconds={args.seconds:g} "
          f"trace={args.trace} {json.dumps(notes)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(f"{'failed_share':48s} {share:14.6g} ratio ({failed} of {attempted})")
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "base": args.base, "seconds": args.seconds,
                                 "trace": args.trace, "machine": machine,
                                 "failed_share": share, "notes": notes, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
