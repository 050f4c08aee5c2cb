"""The three workloads: their seed plans, their passes and their output checks.

Every pass calls hypertri only through the paths a user runs: `cli.main`
for the verify workloads, and for `centers-acute` the calls that
`hypertri centers --json` makes.  hypertri receives seeds and nothing else.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from dataclasses import dataclass

from probe import PAIR_REF_S, probe_s, speed

# The criterion-3 center identities, as pinned by tests/test_acceptance.py.
C3_IDS = ("CE1", "CR1", "CR2", "CR3", "IN1", "IN2", "IN3", "IN4", "IN5", "IN6",
          "IN7", "OR1", "OR2", "OR3", "OR4", "OR5", "OR6", "IS2", "IS3", "IS4",
          "SY1", "SY2", "LE1", "LE2", "PM1", "PM2")

DEFAULT_BASE = 1
HELD_OUT_BASE = 1_000_001
LATENCY_OPS = 1100      # p99 of 1100 samples leaves 11 samples beyond it
KLEIN_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # "verify" or "centers"
    ids: tuple | None       # verify: identity subset, None for all
    block: int              # seeds per verify command, or per timed group
    window: int             # seeds per base that the reference pins
    rate: float             # ops/s at jobs 1 on the reference machine (README)
    rss_seeds: int          # verify: seeds of the one long command before peak RSS

    def ops_for(self, seconds: float) -> int:
        """Run size: ``seconds`` of work at the reference rate, whole blocks.
        The size depends on the arguments only, never on this machine's speed."""
        return max(1, round(seconds * self.rate / self.block)) * self.block


WORKLOADS = {w.name: w for w in (
    Workload("verify-any", "verify", None, 25, 10_000, 100.0, 200),
    Workload("oracle-c3", "verify", C3_IDS, 50, 10_000, 450.0, 500),
    Workload("centers-acute", "centers", None, 50, 3_000, 180.0, 0),
)}


def seed_blocks(w: Workload, base: int, run_seed: int, nops: int) -> list[list[int]]:
    """The run's seeds, in blocks, inside the pinned window of ``base``.

    The run seed picks the starting block; blocks then follow in order and
    wrap at the window's end, so a block never straddles the wrap.
    """
    nblocks = w.window // w.block
    k = (run_seed * 7919) % nblocks
    out = []
    for _ in range(-(-nops // w.block)):
        lo = base + k * w.block
        out.append(list(range(lo, lo + w.block)))
        k = (k + 1) % nblocks
    return out


# --------------------------------------------------------------------------
# timing on a machine that changes speed

def _pair_init(barrier):
    global _BARRIER
    _BARRIER = barrier


def _pair_probe(_):
    _BARRIER.wait(timeout=30)
    return probe_s()


class PairProbe:
    """probe_s() run at once in two helper processes, the slower of the two.

    A two-worker pass is as slow as its slower core, and its workers share
    the cores' execution units, so it is scaled by this probe against its own
    reference, PAIR_REF_S, which already holds that sharing cost."""

    ref = PAIR_REF_S

    def __init__(self):
        import multiprocessing
        ctx = multiprocessing.get_context("spawn")
        self._pool = ctx.Pool(2, _pair_init, (ctx.Barrier(2),))

    def __call__(self) -> float:
        return max(self._pool.map(_pair_probe, (0, 1), chunksize=1))

    def close(self):
        self._pool.close()
        self._pool.join()


def timed(items, run_one, stop=None, probe=probe_s) -> list[dict]:
    """``run_one(item)`` for each item, with the probe timed between items.

    ``run_one`` returns a dict with the item's time ``s`` (and its wall time
    ``wall``).  Each result gains ``speed`` (probe.speed of the probes just
    before and after it): a time multiplied by it reads as on the reference
    machine in its fast state (README, "Noise").  ``stop()`` is asked before
    each item.  Two-worker passes give a PairProbe as ``probe``.
    """
    out = []
    ref = getattr(probe, "ref", None)
    before = probe()
    for item in items:
        if stop is not None and stop():
            break
        res = run_one(item)
        after = probe()
        res["speed"] = speed(before, after) if ref is None else speed(before, after, ref)
        out.append(res)
        before = after
    return out


def ref_seconds(results) -> float:
    """Summed op time at reference speed."""
    return sum(r["s"] * r["speed"] for r in results)


# --------------------------------------------------------------------------
# verify workloads

def verify_argv(w: Workload, seeds: list[int], out: str, jobs: int = 1) -> list[str]:
    """`verify` over ``seeds``: a range A..B when they run consecutively,
    else a comma list (a block list that wraps at the window's end)."""
    if len(seeds) > 1 and seeds == list(range(seeds[0], seeds[-1] + 1)):
        spec = f"{seeds[0]}..{seeds[-1]}"
    else:
        spec = ",".join(map(str, seeds))
    argv = ["verify", "--seeds", spec, "-o", out]
    if w.ids is not None:
        argv += ["--ids", ",".join(w.ids)]
    if jobs != 1:
        argv += ["--jobs", str(jobs)]
    return argv


def _verify_runner(w: Workload, outdir: str, tag: str, jobs: int):
    """run_one for `timed`: one `verify` command over a block of seeds,
    each execution writing its own report.  At jobs 1 its time is the
    command's CPU time; at jobs 2 it is wall time."""
    from hypertri import cli
    counter = itertools.count()
    clock = time.process_time if jobs == 1 else time.perf_counter

    def run_one(block):
        path = os.path.join(outdir, f"{tag}-{next(counter)}.jsonl")
        argv = verify_argv(w, block, path, jobs)
        out = {"seeds": block, "path": path, "rc": None}
        t0, w0 = clock(), time.perf_counter()
        try:
            out["rc"] = cli.main(argv)
        except Exception as e:      # a raising command fails its seeds, the run goes on
            out["error"] = repr(e)
        out["s"], out["wall"] = clock() - t0, time.perf_counter() - w0
        return out

    return run_one


def run_verify_batches(w: Workload, blocks, outdir: str, tag: str, jobs: int,
                       stop=None) -> list[dict]:
    """One timed `verify` command per block."""
    run_one = _verify_runner(w, outdir, tag, jobs)
    if jobs == 1:
        return timed(blocks, run_one, stop)
    probe = PairProbe()
    try:
        return timed(blocks, run_one, stop, probe)
    finally:
        probe.close()


def report_statuses(path: str) -> tuple[dict[int, str], dict[int, list[str]]]:
    """Per seed: the status letters in id order, and the ids themselves."""
    letters: dict[int, str] = {}
    ids: dict[int, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "id" in rec:
                s = rec["seed"]
                letters[s] = letters.get(s, "") + rec["status"][0]
                ids.setdefault(s, []).append(rec["id"])
    return letters, ids


def check_verify_batch(ref, batch: dict) -> set[int]:
    """Seeds of one batch whose output disagrees with the reference.

    A seed fails when its (id, status) vector differs from the pinned one;
    the whole batch fails when the command raised, or its exit code is not
    the one the reference implies (1 exactly when some identity fails).
    """
    seeds = batch["seeds"]
    if batch.get("error") or not os.path.exists(batch["path"]):
        return set(seeds)
    want_rc = 1 if any("f" in ref.statuses[s] for s in seeds) else 0
    if batch["rc"] != want_rc:
        return set(seeds)
    letters, ids = report_statuses(batch["path"])
    return {s for s in seeds
            if letters.get(s) != ref.statuses[s] or ids.get(s) != ref.ids}


def split_by_seed(path: str) -> dict:
    """Report lines grouped by seed; the trailer goes under key None."""
    groups: dict = {}
    with open(path, "rb") as fh:
        for line in fh:
            rec = json.loads(line)
            key = rec["summary"]["seed"] if "summary" in rec else rec.get("seed")
            groups.setdefault(key, []).append(line)
    return groups


def byte_mismatches(a: dict, b: dict) -> set[int]:
    """Seeds whose output differs between two runs of one batch: exit code
    or report bytes."""
    seeds = a["seeds"]
    if a.get("error") or b.get("error") or a["rc"] != b["rc"]:
        return set(seeds)
    with open(a["path"], "rb") as fa, open(b["path"], "rb") as fb:
        if fa.read() == fb.read():
            return set()
    ga, gb = split_by_seed(a["path"]), split_by_seed(b["path"])
    return {s for s in seeds if ga.get(s) != gb.get(s)} or set(seeds)


def run_verify_latency(w: Workload, ref, seeds: list[int], outdir: str):
    """Single-seed `verify` commands, one per seed, each timed once.
    Returns each command's latency at reference speed, the executions and
    the failed ones."""
    runs = run_verify_batches(w, [[s] for s in seeds], outdir, "latency", 1)
    failed = sum(len(check_verify_batch(ref, b)) for b in runs)
    return [b["s"] * b["speed"] for b in runs if "error" not in b], len(runs), failed


# --------------------------------------------------------------------------
# centers workload

def centers_op(seed: int):
    """One triangle as `hypertri centers --json` computes it: the rows and
    their JSON text."""
    from hypertri import registry as rg
    from hypertri.generate import gen_triangle
    t = gen_triangle(seed, shape="acute")
    ctx = rg.TrialContext(seed=seed, t=t)
    rows = rg.center_table(ctx)
    text = json.dumps(rows, indent=2, sort_keys=True)
    return rows, text


def center_summary(rows) -> list:
    """Per center: [name, None] when unavailable, else [name, Klein x/y]."""
    out = []
    for row in rows:
        if "point" not in row:
            out.append([row["name"], None])
            continue
        x, y, w = row["point"]["coords"]
        out.append([row["name"], [x / w, y / w] if w != 0.0 else [None, None]])
    return out


def centers_mismatch(got: list, want: list) -> bool:
    """True when availability differs, or a Klein coordinate is more than
    KLEIN_TOL (relative beyond magnitude 1) from the reference."""
    if [g[0] for g in got] != [r[0] for r in want]:
        return True
    for (_, g), (_, r) in zip(got, want):
        if (g is None) != (r is None):
            return True
        if g is None:
            continue
        for gv, rv in zip(g, r):
            if (gv is None) != (rv is None):
                return True
            if gv is not None and abs(gv - rv) > KLEIN_TOL * max(1.0, abs(rv)):
                return True
    return False


def centers_job(seed: int) -> dict:
    """One timed op: its CPU seconds and wall seconds, check data, text
    digest and size, or the error when it raised."""
    t0, w0 = time.process_time(), time.perf_counter()
    error = None
    try:
        rows, text = centers_op(seed)
    except Exception as e:          # a raising op counts as failed, the run goes on
        error = repr(e)
    out = {"seed": seed, "s": time.process_time() - t0, "wall": time.perf_counter() - w0}
    if error:
        return {**out, "error": error}
    return {**out, "check": center_summary(rows),
            "digest": hashlib.sha1(text.encode()).hexdigest(), "bytes": len(text)}


def run_centers(seeds, stop=None, on_op=None) -> list[dict]:
    """One timed op per seed, in order; ``on_op(seed)`` runs before each."""
    return timed(seeds, _centers_runner(on_op), stop)


def _centers_runner(on_op=None):
    def run_one(seed):
        if on_op is not None:
            on_op(seed)
        return centers_job(seed)
    return run_one


def run_centers_pool(blocks, jobs: int) -> list[dict]:
    """The same triangles fanned out over a process pool, one timed map per
    block (`hypertri centers` has no --jobs; this is the fan-out a user with
    two cores would write)."""
    import multiprocessing
    pool = multiprocessing.get_context("spawn").Pool(jobs)
    try:
        pool.map(_warm, range(jobs))

        def run_one(block):
            t0 = time.perf_counter()
            res = pool.map(centers_job, block, chunksize=max(1, len(block) // (4 * jobs)))
            dt = time.perf_counter() - t0
            return {"seeds": block, "s": dt, "wall": dt, "results": res}

        probe = PairProbe()
        try:
            out = timed(blocks, run_one, probe=probe)
        finally:
            probe.close()
        pool.close()
    finally:
        pool.terminate()
        pool.join()
    return out


def _warm(_):
    import hypertri.cli  # noqa: F401  (pay the import before timing)
    return os.getpid()
