"""Pinned expected outputs that every benchmark run is checked against.

For each workload and seed base the reference covers the workload's whole
seed window: for the verify workloads the status letter of every identity
of every seed (p, f or s, in id order), for `centers-acute` each center's
Klein coordinates (12 significant digits) or null when it is unavailable.

Regenerate (only from a commit whose outputs are known good):

    python3 perfbench/reference.py --base 1
    python3 perfbench/reference.py --base 1000001
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import sys
from multiprocessing import get_context

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REF_DIR = os.path.join(HERE, "reference")


def path_for(workload: str, base: int) -> str:
    return os.path.join(REF_DIR, f"{workload}-{base}.json.gz")


class Reference:
    """Expected outputs of one workload for the seeds of one window."""

    def __init__(self, obj: dict):
        self.base = obj["base"]
        self.ids = obj.get("ids")
        self.names = obj.get("names")
        rows = obj["rows"]
        self.statuses = {self.base + i: r for i, r in enumerate(rows)} if self.ids else None
        self.centers = ({self.base + i: [[n, c] for n, c in zip(self.names, r)]
                         for i, r in enumerate(rows)} if self.names else None)


def load(workload: str, base: int) -> Reference:
    with gzip.open(path_for(workload, base), "rt", encoding="utf-8") as fh:
        return Reference(json.load(fh))


def _verify_row(job):
    seed, ids = job
    from hypertri import registry as rg
    rep = rg.run_suite(seed, ids=ids, shape="any", include_centers=False)
    return [r.id for r in rep.records], "".join(r.status[0] for r in rep.records)


def _centers_row(seed):
    import workloads
    rows, _ = workloads.centers_op(seed)
    summary = workloads.center_summary(rows)
    return ([n for n, _ in summary],
            [None if c is None else [None if v is None else float(f"{v:.12g}") for v in c]
             for _, c in summary])


def build(workload: str, base: int, jobs: int = 2) -> dict:
    import workloads
    w = workloads.WORKLOADS[workload]
    seeds = range(base, base + w.window)
    with get_context("spawn").Pool(jobs) as pool:
        if w.kind == "verify":
            ids = list(w.ids) if w.ids else None
            res = pool.map(_verify_row, [(s, ids) for s in seeds], chunksize=50)
            key, names = "ids", res[0][0]
        else:
            res = pool.map(_centers_row, seeds, chunksize=50)
            key, names = "names", res[0][0]
        pool.close()
        pool.join()
    if any(r[0] != names for r in res):
        raise RuntimeError(f"{workload}: id or center order differs between seeds")
    return {"workload": workload, "base": base, "window": w.window,
            key: names, "rows": [r[1] for r in res]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", type=int, required=True)
    args = p.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads
    os.makedirs(REF_DIR, exist_ok=True)
    for name in workloads.WORKLOADS:
        obj = build(name, args.base)
        data = json.dumps(obj, separators=(",", ":")).encode()
        with open(path_for(name, args.base), "wb") as raw, \
                gzip.GzipFile(fileobj=raw, mode="wb", compresslevel=9, mtime=0) as fh:
            fh.write(data)
        print(f"wrote {path_for(name, args.base)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
